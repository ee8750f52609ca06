"""The streaming ``result.json`` reader of ``contflow report``.

It must give what ``json.loads`` followed by the per-node conversion it
replaced gives: the same series, the same ``SimResult`` and the same error,
whatever the whitespace and wherever its reads cut the text; and it must read
a long series in memory bounded by its runs, not by its length.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contflow import cli, simulator
from contflow.errors import ValidationError
from contflow.simulator import Runs, SimResult
from contflow.workflow import read_value, write_record

NEG_ZERO = "\x00-0"  # stands for the token -0, which json.dumps cannot write


def todays_read_series(value, key):
    """The per-node conversion the reader replaced: each list read whole, then into runs."""
    nodes = read_value(dict, value, "result", key)
    return {
        read_value(str, name, "result", key):
            Runs((x, 1) for x in read_value(list[float], v, "result", key))
        for name, v in nodes.items()
    }


def reference(path: Path) -> SimResult:
    """``json.loads`` of the whole text, then the conversion above."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ValidationError(f"result document is not valid JSON: {exc}") from None
    with mock.patch.object(simulator, "_read_series", todays_read_series):
        return simulator._result_from_doc(doc)


def streamed(path: Path) -> SimResult:
    with open(path) as f:
        return simulator.read_result(f)


def outcome(read, path: Path):
    """``("ok", the result as canonical JSON)`` or ``("error", the message)``.

    The JSON spells each series out and writes NaN as NaN, so two results
    compare alike exactly when their values print alike.
    """
    try:
        res = read(path)
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", json.dumps(write_record(res), sort_keys=True)


def streams_without_json_loads(path: Path):
    """The reader's own document, with no fallback to ``json.loads``."""
    with open(path) as f:
        return simulator._ResultReader(f).document()


# --- random results ----------------------------------------------------------

ELEMENTS = [0.0, -0.0, NEG_ZERO, 1.0, 2.5, 1e16, -1e-7, 5e-324, math.nan, math.inf,
            -math.inf, 10**400 + 7, 3, "10", True, None]
# mostly numbers, so most documents read through to a SimResult
element = st.one_of(st.sampled_from(ELEMENTS[:12]), st.floats(), st.sampled_from(ELEMENTS))
count = st.one_of(st.integers(1, 3), st.sampled_from([4095, 4096, 4097]))
names = st.sampled_from(["submit", "nfs", "w/1", 'a"b\\c\n', "é☃", ""])


@st.composite
def result_docs(draw) -> dict:
    """A result document; its series share one run structure, so that most
    documents pass the length check."""
    nodes = draw(st.lists(names, max_size=3, unique=True))
    counts = draw(st.lists(count, max_size=4))

    def series():
        return [v for c in counts for v in [draw(element)] * c]

    kinds = draw(st.lists(names, max_size=2, unique=True))
    doc = {
        "makespan_s": draw(st.floats(0, 1e6)),
        "per_node_egress": {n: series() for n in nodes},
        "per_node_io_wait_ms": {n: series() for n in nodes},
        "transfer_count_by_kind": {k: draw(st.integers(0, 10**6)) for k in kinds},
        "transfer_bytes_by_kind": {k: draw(st.floats(0, 1e12)) for k in kinds},
        "job_timeline": [[j, 1.0, 2.0, n] for j in draw(st.lists(names, max_size=2))
                         for n in nodes[:1]],
        "egress_totals": {n: draw(st.floats(0, 1e12)) for n in nodes},
        "ingress_totals": {n: draw(st.floats(0, 1e12)) for n in nodes},
        "flow_ledger": [["submit", n, 10, "data_in", 0.0, 1.5] for n in nodes],
    }
    if nodes and draw(st.booleans()):  # a series of another length, or none at all
        doc["per_node_io_wait_ms"][nodes[0]] = draw(st.sampled_from([[], [1.0]]))
    return doc


def written(doc: dict, style: str) -> str:
    text = {
        "indent1": lambda: json.dumps(doc, indent=1, sort_keys=True),
        "compact": lambda: json.dumps(doc, separators=(",", ":")),
        "indent4": lambda: json.dumps(doc, indent=4),
    }[style]()
    return text.replace(json.dumps(NEG_ZERO), "-0")


@settings(max_examples=150, deadline=None)
@given(result_docs(), st.sampled_from(["indent1", "compact", "indent4"]),
       st.sampled_from([1 << 16, 1 << 16, 4096, 61]))
def test_reads_what_json_loads_and_the_old_conversion_read(tmp_path_factory, doc, style,
                                                           chunk):
    path = tmp_path_factory.mktemp("r") / "result.json"
    path.write_text(written(doc, style))
    with mock.patch.object(simulator, "READ_CHUNK", chunk):
        got = outcome(streamed, path)
        mine = streams_without_json_loads(path)  # valid JSON never falls back
    want = outcome(reference, path)
    assert got == want
    if got[0] == "ok":
        ref = json.loads(path.read_text())
        for key in simulator._SERIES:
            for name, series in mine[key].items():
                assert type(series) is Runs
                assert json.dumps(list(series)) == json.dumps(
                    [float(v) for v in ref[key][name]])


@settings(max_examples=150, deadline=None)
@given(result_docs(), st.sampled_from(["indent1", "compact"]), st.data())
def test_malformed_text_gets_json_s_own_error(tmp_path_factory, doc, style, data):
    text = written(doc, style)
    at = data.draw(st.integers(0, len(text)))
    text = data.draw(st.sampled_from([
        text[:at],  # cut short
        text[:at] + data.draw(st.sampled_from(list(',:[]{}"\\x -0e.'))) + text[at:],
        text + data.draw(st.sampled_from([" {}", "x", ",", "\n\n]"])),  # trailing data
    ]))
    path = tmp_path_factory.mktemp("r") / "result.json"
    path.write_text(text)
    with mock.patch.object(simulator, "READ_CHUNK", data.draw(st.sampled_from([1 << 16, 5]))):
        assert outcome(streamed, path) == outcome(reference, path)


HAND_WRITTEN = [
    # every JSON whitespace character, in and between runs
    '{"makespan_s": 2,\t"per_node_egress" :\r\n{"a" : [ 1 ,1\t,\n1 , -0 , 0 , -0.0 ] },'
    ' "per_node_io_wait_ms": {"a": [NaN, NaN, Infinity,-Infinity, 1E2, 1e+2]},'
    ' "transfer_count_by_kind": {}, "transfer_bytes_by_kind": {}, "job_timeline": [],'
    ' "egress_totals": {}, "ingress_totals": {}, "flow_ledger": []}',
    # a repeated key keeps its last value, though its first could not be read
    '{"makespan_s": 1, "per_node_egress": {"a": [null], "a": [1.0]},'
    ' "per_node_io_wait_ms": {"a": [2.0]}, "per_node_io_wait_ms": {"a": [3.0]},'
    ' "transfer_count_by_kind": {}, "transfer_bytes_by_kind": {}, "job_timeline": [],'
    ' "egress_totals": {}, "ingress_totals": {}, "flow_ledger": []}',
    # a series map that is not an object, and a node that is not a list
    '{"per_node_egress": [1.0], "makespan_s": 1}',
    '{"per_node_egress": {"a": 5}, "makespan_s": 1}',
    '{"per_node_egress": {"a": [1.0, [2.0]]}, "makespan_s": 1}',
    # the first element that is not a number is the one named
    '{"per_node_egress": {"a": [1.0, "x", null]}, "makespan_s": 1}',
    # too long for int(), which json.loads reports as invalid JSON
    '{"per_node_egress": {"a": [' + "9" * 5000 + "]}}",
    '{"per_node_egress": {"a": [1.0,]}}',
    '{"per_node_egress": {"a": [01]}}',
    '{"per_node_egress": {"a": [1.]}}',
    '{"makespan_s": 1,}',
    '{1: 2}',  # a key that is not a string
    '{"per_node_egress": {1: [1.0]}}',
    "[]",
    "",
    " \n",
    "\ufeff{}",  # a byte-order mark
    '{"a": 1} {"b": 2}',
    "{}",
]


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_hand_written_documents(tmp_path, text, chunk):
    path = tmp_path / "result.json"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(simulator, "READ_CHUNK", chunk):
        assert outcome(streamed, path) == outcome(reference, path)


def test_text_after_a_series_list_gets_json_s_own_error(tmp_path, capsys):
    text = '{"per_node_egress": {"a": [1.0] 2}}'
    path = tmp_path / "result.json"
    path.write_text(text)
    with pytest.raises(simulator._Unsure):
        streams_without_json_loads(path)
    with pytest.raises(ValueError) as exc:
        json.loads(text)
    assert cli.main(["report", str(path), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: result document is not valid JSON: {exc.value}\n"


def test_every_cut_of_the_text_reads_alike(tmp_path):
    """With reads of 1 to 9 characters, runs, numbers, names and escapes all
    straddle a read boundary somewhere."""
    doc = {"makespan_s": 3.0, "per_node_egress": {'a"\\\n☃': [1.5e-7] * 3 + [-0.0] * 4,
                                                  "b": [0.0] * 6 + [1e300]},
           "per_node_io_wait_ms": {'a"\\\n☃': [10.0] * 7, "b": [12.25] * 7},
           "transfer_count_by_kind": {"x": 1}, "transfer_bytes_by_kind": {"x": 1e3},
           "job_timeline": [["j\t1", 0.0, 3.0, "b"]], "egress_totals": {}, "ingress_totals": {},
           "flow_ledger": [["a", "b", 1000, "x", 0.0, 3.0]]}
    path = tmp_path / "result.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    want = outcome(reference, path)
    assert want[0] == "ok"
    for chunk in range(1, 10):
        with mock.patch.object(simulator, "READ_CHUNK", chunk):
            assert outcome(streamed, path) == want
            runs = streams_without_json_loads(path)["per_node_egress"]["b"]
            assert list(runs.runs()) == [(0.0, 6), (1e300, 1)]


def test_a_long_series_is_read_in_bounded_memory(tmp_path):
    n = 2_000_000
    series = {"submit": Runs([(0.0, n // 2), (1.25e8, 3), (0.0, n // 2 - 3)])}
    res = SimResult(float(n), series, {"submit": Runs([(10.0, n)])}, {}, {}, [],
                    {"submit": 0.0}, {"submit": 0.0}, [])
    path = tmp_path / "result.json"
    with open(path, "w") as f:
        simulator.write_result(res, f)
    assert path.stat().st_size > 2 * n * len(",\n   0.0")
    tracemalloc.start()
    try:
        with open(path) as f:
            got = simulator.read_result(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == res
    assert peak < 4e6
