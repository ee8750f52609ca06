"""Per-node series held as runs, and the writers that spell them out.

A ``Runs`` must read as the list of floats it stands for; ``result.json`` must
be the exact bytes ``json.dumps(write_record(res), indent=1, sort_keys=True)``
gives; long runs must go out in bounded pieces; and a simulated run must not
allocate memory in proportion to its simulated seconds.
"""

from __future__ import annotations

import io
import json
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contflow.planner import PlanConfig, plan
from contflow.scenarios import (
    SUBMIT_SITE,
    demo_catalog,
    demo_sites,
    demo_topology,
    demo_workflow,
)
from contflow.simulator import (
    WRITE_CHARS,
    FlowRecord,
    Runs,
    SimConfig,
    SimResult,
    _write_series_table,
    simulate,
    write_result,
)
from contflow.workflow import write_record

EXTREMES = [5e-324, 1.7976931348623157e308, -0.0, 0.0, 1e16, 3.0, -2.0, 1e-7, 0.1]
floats = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
names = st.one_of(st.sampled_from(['"', "\\", "é", "w☃/1", 'a"b\\c\n', "submit"]),
                  st.text(max_size=4))
# the most lines one piece of result.json holds: its shortest series line
PIECE_LINES = WRITE_CHARS // len(",\n   0.0")
# counts of 1 to 3, and long runs on both sides of the writers' pieces
counts = st.one_of(st.integers(1, 3), st.sampled_from(
    [PIECE_LINES - 1, PIECE_LINES, PIECE_LINES + 1, 2 * PIECE_LINES + 1]))
runs = st.lists(st.tuples(floats, counts), max_size=4).map(Runs)


@st.composite
def sim_results(draw) -> SimResult:
    series = st.dictionaries(names, runs, max_size=3)
    totals = st.dictionaries(names, floats, max_size=3)
    return SimResult(
        makespan_s=draw(floats),
        per_node_egress=draw(series),
        per_node_io_wait_ms=draw(series),
        transfer_count_by_kind=draw(st.dictionaries(names, st.integers(0, 10**12), max_size=3)),
        transfer_bytes_by_kind=draw(totals),
        job_timeline=draw(st.lists(st.tuples(names, floats, floats, names), max_size=4)),
        egress_totals=draw(totals),
        ingress_totals=draw(totals),
        flow_ledger=draw(st.lists(st.builds(FlowRecord, names, names, st.integers(0, 10**15),
                                            names, floats, floats), max_size=4)),
    )


class CountingFile:
    """A text-file stand-in that keeps only the total and the largest write."""

    def __init__(self):
        self.chars = 0
        self.largest = 0

    def write(self, text: str) -> None:
        self.chars += len(text)
        self.largest = max(self.largest, len(text))

    def writelines(self, pieces) -> None:
        for text in pieces:
            self.write(text)


def same_floats(a, b) -> bool:
    return len(a) == len(b) and all(repr(x) == repr(y) for x, y in zip(a, b))


class TestRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324]), max_size=30))
    def test_reads_as_the_list_it_holds(self, values):
        series = Runs((v, 1) for v in values)
        assert len(series) == len(values)
        assert same_floats(list(series), values)
        assert same_floats([series[i] for i in range(len(values))], values)
        assert series == values and values == series
        assert series == Runs(series.runs())
        assert all(repr(a) != repr(b) for a, b in zip(series.values, series.values[1:]))
        if values:
            assert repr(series[-1]) == repr(values[-1])
            assert series[1:3] == values[1:3]
            assert series != values[:-1] and series != values + [7.0]
        with pytest.raises(IndexError):
            series[len(values)]

    def test_put_revises_the_last_value_even_inside_a_merged_run(self):
        series = Runs([(1.0, 3)])  # an open last bucket that merged with its run
        series._put(2, 5.0)
        assert series == [1.0, 1.0, 5.0]
        series._put(2, 1.0)
        assert list(series.runs()) == [(1.0, 3)]
        series._put(5, 2.0)  # past the end: padded with 0.0
        assert series == [1.0, 1.0, 1.0, 0.0, 0.0, 2.0]

    def test_a_long_run_is_one_pair(self):
        series = Runs([(0.0, 10**12), (0.0, 5), (1.0, 1)])
        assert list(series.runs()) == [(0.0, 10**12 + 5), (1.0, 1)]
        assert len(series) == 10**12 + 6 and series[10**12 + 5] == 1.0


def series_table_reference(series_map) -> str:
    """The table as a per-second writer makes it: every row formatted in full."""
    nodes = sorted(series_map)
    n = max((len(series_map[x]) for x in nodes), default=0)
    columns = [list(series_map[x]) + [0.0] * (n - len(series_map[x])) for x in nodes]
    row = "%d" + "\t%.6f" * len(nodes)
    rows = ["t\t" + "\t".join(nodes)]
    rows.extend(row % (t, *values) for t, values in enumerate(zip(*columns)))
    return "\n".join(rows) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(names, st.lists(st.tuples(floats, st.sampled_from(
    [1, 2, 3, PIECE_LINES + 1])), max_size=3).map(Runs), max_size=3))
def test_series_table_equals_reference(series_map):
    """Series of unequal lengths too: a short one reads as 0.0 past its end."""
    out = io.StringIO()
    _write_series_table(out, series_map)
    assert out.getvalue() == series_table_reference(series_map)


class TestResultWriter:
    @settings(max_examples=100, deadline=None)
    @given(sim_results())
    def test_writes_what_json_dumps_writes(self, res):
        out = io.StringIO()
        write_result(res, out)
        assert out.getvalue() == json.dumps(write_record(res), indent=1, sort_keys=True)

    def test_a_long_run_goes_out_in_bounded_pieces(self):
        n = 10**7
        series = {"submit": Runs([(0.0, n)]), "w1": Runs([(1.25e8, 3), (0.0, n - 3)])}
        res = SimResult(float(n), series, {k: Runs([(10.0, n)]) for k in series}, {}, {}, [],
                        {}, {}, [])
        out = CountingFile()
        write_result(res, out)
        line = len(",\n   0.0")
        assert out.chars > 3 * n * line
        assert out.largest <= WRITE_CHARS

    def test_series_table_goes_out_in_bounded_pieces(self):
        n = 300_000
        out = CountingFile()
        _write_series_table(out, {"a": Runs([(1.0, n)]), "b": Runs([(0.0, 7), (2.0, n - 7)])})
        assert out.chars > n * len("\t1.000000\t2.000000\n")
        assert out.largest <= WRITE_CHARS


@pytest.mark.parametrize("value", [0.0, 1.25e8])
def test_series_table_pieces_are_bounded_in_characters_not_rows(value):
    """18 columns of 100,000 equal rows: each write, and the memory it takes,
    stays near WRITE_CHARS characters however wide a row is."""
    series_map = {f"w{i:02d}": Runs([(value, 100_000)]) for i in range(18)}
    out = CountingFile()
    tracemalloc.start()
    try:
        _write_series_table(out, series_map)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.chars > 100_000 * 18 * len("\t0.000000")
    assert out.largest <= WRITE_CHARS
    assert peak < 4 * WRITE_CHARS + 64_000
    few = {x: Runs([(value, 1_000)]) for x in series_map}  # several pieces, not 100,000 rows
    text = io.StringIO()
    _write_series_table(text, few)
    assert text.getvalue() == series_table_reference(few)


def test_simulate_memory_does_not_grow_with_simulated_seconds():
    """A 1e9-s run keeps its series as runs, not one float per second."""
    ewf = plan(demo_workflow(n_tasks=5, runtime_s=1e9), demo_catalog("docker"), demo_sites(),
               PlanConfig(output_site=SUBMIT_SITE, cleanup=False))
    done = {}

    def run():
        tracemalloc.start()
        try:
            done["res"] = simulate(ewf, demo_topology(), SimConfig())
            done["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "simulate() did not finish in 60 s"
    assert done["res"].makespan_s > 1e9
    assert done["peak"] < 50e6
