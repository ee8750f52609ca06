"""YAML I/O: one load/dump pair, libyaml and pure-Python paths agree."""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import contflow
from contflow import workflow
from contflow.catalog import ContainerRuntime, parse_image_url
from contflow.errors import ValidationError
from contflow.planner import PlanConfig, parse_executable, plan, serialize_executable
from contflow.scenarios import (
    demo_catalog,
    demo_plan,
    demo_sites,
    demo_topology,
    demo_workflow,
)
from contflow.simulator import parse_topology
from contflow.workflow import parse_workflow, serialize_workflow

from conftest import serialize_topology

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"
)

ascii_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=120)
number = st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=False))
pair_list = st.lists(st.lists(st.one_of(ascii_text, number), min_size=2, max_size=3),
                     max_size=4)
compute_payload = st.fixed_dictionaries({
    "task_ids": st.lists(ascii_text, max_size=3),
    "container": st.none() | ascii_text,
    "placement": st.none() | st.sampled_from(["stage_copy", "shared_fs_symlink"]),
    "backend": st.none() | st.sampled_from(["docker", "singularity", "shifter"]),
    "staging_site": ascii_text,
    "level": st.integers(0, 10**6),
    "runtime_s": number,
    "image_bytes": st.integers(0, 10**13),
    "input_files": pair_list,
    "output_files": pair_list,
})
transfer_payload = st.fixed_dictionaries({
    "transfers": pair_list, "src_site": ascii_text, "dst_site": ascii_text,
})
executable_doc = st.fixed_dictionaries({
    "jobs": st.lists(st.fixed_dictionaries({
        "id": ascii_text,
        "kind": st.sampled_from(["compute", "stage_in", "container_fetch", "cleanup"]),
        "site": ascii_text,
        "payload": compute_payload | transfer_payload
        | st.fixed_dictionaries({"target_job": ascii_text}),
    }), max_size=6),
    "edges": st.lists(st.lists(ascii_text, min_size=2, max_size=2), max_size=6),
})
any_doc = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=20,
)


def emit(doc, dumper) -> str:
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=False)


@needs_libyaml
class TestLibyamlMatchesPurePython:
    @settings(max_examples=300, deadline=None)
    @given(executable_doc)
    def test_emitters_give_identical_text(self, doc):
        assert emit(doc, yaml.CSafeDumper) == emit(doc, yaml.SafeDumper)

    @settings(max_examples=300, deadline=None)
    @given(any_doc)
    def test_loaders_give_equal_documents(self, doc):
        text = emit(doc, yaml.SafeDumper)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == \
            yaml.load(text, Loader=yaml.SafeLoader)


def round_trip():
    ewf = demo_plan("docker", cluster_size=12, cleanup=True)
    exe_text = serialize_executable(ewf)
    topo_text = serialize_topology(demo_topology())
    return exe_text, parse_executable(exe_text), topo_text, parse_topology(topo_text)


def test_pure_python_fallback_gives_the_same_bytes_and_objects(monkeypatch):
    default = round_trip()
    # with the fast emitter and reader off, first libyaml then pure Python
    monkeypatch.setattr(workflow, "_fast_load", mock.Mock(side_effect=workflow._Unsure))
    monkeypatch.setattr(workflow, "_fast_dump", mock.Mock(side_effect=workflow._Unsure))
    assert round_trip() == default
    workflow._pyyaml()  # sets _LOADER and _DUMPER, which the patches replace
    monkeypatch.setattr(workflow, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(workflow, "_DUMPER", yaml.SafeDumper)
    assert round_trip() == default


# --- the fast emitter and reader --------------------------------------------

SAFE_NAMES = [
    "radar-tools", "compute_l0t0001", "file:///staging/submit/grid00", "x", "_x",
    "docker:///imaging/radar-tools:latest", "condorpool/w1", "l0t0001.out",
    "radar::nowcast:1.0", "a@b+c~d", "/usr/bin/x", "nan", "Yess", "nulls", "inf",
]
TRICKY_NAMES = [
    "yes", "No", "on", "OFF", "null", "Null", "y", "n", "true", "False", "~", "",
    "1abc", "0x1F", "1_000", "12", "-x", "+1", ".5", "-", "a:", "a::", "a:b:", "::",
    "a b", " a", "a ", "a #b", "a#b", "#x", "é", "ünï", "?x", "@x", "%x", "!x",
    "&x", "*x", "'q'", '"q"', "[x]", "{x}", "a,b", "=", "<<", ".inf", "2001-12-14",
    "1:20", "a\tb", "a\nb", "---", "...", "a=b", "a|b", ">x",
]
safe_name = st.sampled_from(SAFE_NAMES)
any_name = st.one_of(
    safe_name, st.sampled_from(TRICKY_NAMES),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8),
    st.text(max_size=4),
)
long_key = st.integers(120, 140).map(lambda n: "k" * n)
safe_number = st.one_of(
    st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e16, -0.0, 1e-7, 2.5, 1e300]),
)
any_number = safe_number | st.sampled_from([float("inf"), float("-inf"), float("nan")])
small = st.none() | st.booleans() | st.builds(list) | st.builds(dict)
safe_leaf = safe_name | safe_number | small
any_leaf = any_name | any_number | small


def executable_docs(name, leaf):
    """Documents shaped like serialize_executable's, over the given strings and leaves."""
    def rows(width):
        return st.lists(st.lists(leaf, min_size=width, max_size=width), max_size=3)
    payload = st.one_of(
        st.fixed_dictionaries({
            "task_ids": st.lists(name, max_size=3), "container": name | st.none(),
            "placement": leaf, "backend": leaf, "staging_site": name, "level": leaf,
            "runtime_s": leaf, "image_bytes": leaf,
            "input_files": rows(2), "output_files": rows(2),
        }),
        st.fixed_dictionaries({"transfers": rows(3), "src_site": name, "dst_site": name}),
        st.fixed_dictionaries({"target_job": name}),
    )
    return st.fixed_dictionaries({
        "jobs": st.lists(st.fixed_dictionaries({
            "id": name, "kind": name, "site": name, "payload": payload,
        }), max_size=4),
        "edges": rows(2),
    })


def nested_docs(key, leaf, max_leaves=12):
    container = st.recursive(
        leaf, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(key, inner, max_size=3),
        max_leaves=max_leaves,
    )
    return container.filter(lambda d: isinstance(d, (dict, list)))


def libyaml_text(doc) -> str:
    workflow._pyyaml()  # sets _DUMPER
    return emit(doc, workflow._DUMPER)


def fast_text(doc) -> str | None:
    try:
        return workflow._fast_dump(doc)
    except workflow._Unsure:
        return None


@settings(max_examples=400, deadline=None)
@given(executable_docs(safe_name, safe_leaf) | nested_docs(safe_name, safe_leaf))
def test_fast_emitter_writes_safe_documents_as_libyaml_does(doc):
    # a bare top-level {} or [] is left to PyYAML
    assert fast_text(doc) == (libyaml_text(doc) if doc else None)


@settings(max_examples=400, deadline=None)
@given(executable_docs(any_name, any_leaf)
       | nested_docs(any_name | long_key, any_leaf, max_leaves=3)
       | st.tuples(any_name | long_key, any_leaf).flatmap(lambda kv: st.sampled_from([
           {kv[0]: kv[1]}, [kv[1]], [[kv[1]]], {kv[0]: [kv[1]]}, [{kv[0]: kv[1]}]])))
def test_fast_emitter_gives_up_or_matches_libyaml(doc):
    text = fast_text(doc)
    assert text is None or text == libyaml_text(doc)
    assert workflow.dump_yaml(doc) == libyaml_text(doc)


@pytest.mark.parametrize("value", [
    "yes", "No", "on", "null", "y", "1abc", "-1", "+x", ".x", "a:", "a b", "#x", "",
    "é", 1e16, -0.0, 1e-7, float("inf"), float("nan"), True, None, [], {},
])
def test_fast_emitter_on_each_awkward_scalar(value):
    for doc in ({"k": value}, [value], {"k": [value]}, [{"k": value}]):
        text = fast_text(doc)
        assert text is None or text == libyaml_text(doc)


def test_fast_emitter_leaves_keys_of_128_characters_to_pyyaml():
    assert fast_text({"k" * 127: 1}) == libyaml_text({"k" * 127: 1})
    assert fast_text({"k" * 128: 1}) is None


def test_a_key_that_is_not_a_string_is_left_to_pyyaml():
    doc = {1: "a", "b": [2]}
    assert fast_text(doc) is None
    assert workflow.dump_yaml(doc) == libyaml_text(doc) == "1: a\nb:\n- 2\n"


def read(text: str):
    """load_yaml's outcome: the repr of the document (types included), or the error."""
    try:
        return "ok", repr(workflow.load_yaml(text, "executable", (dict, list)))
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


def libyaml_read(text: str):
    with mock.patch.object(workflow, "_fast_load", side_effect=workflow._Unsure):
        return read(text)


def mutate(text: str, op: str, pos: int, ch: str) -> str:
    i = pos % (len(text) + 1)
    if op == "insert":
        return text[:i] + ch + text[i:]
    if op == "replace":
        return text[:i] + ch + text[i + 1:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    lines = text.split("\n")
    j = pos % len(lines)
    if op == "drop_line":
        del lines[j]
    elif op == "dup_line":
        lines.insert(j, lines[j])
    elif op == "swap_lines":
        lines[j - 1], lines[j] = lines[j], lines[j - 1]
    elif op == "indent":
        lines[j] = "  " + lines[j]
    elif op == "trailing_space":
        lines[j] += " "
    elif op == "crlf":
        lines = [line + "\r" for line in lines[:-1]] + lines[-1:]
    else:
        lines[j] = lines[j][2:]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(executable_docs(safe_name, safe_leaf) | nested_docs(safe_name, safe_leaf),
       st.sampled_from(["insert", "replace", "delete", "drop_line", "dup_line",
                        "swap_lines", "indent", "dedent"]),
       st.integers(0, 10**6), st.sampled_from(list(" -:'\n#a1.{[\t!&*?\"|>~")))
def test_reader_agrees_with_libyaml_on_emitted_and_mutated_text(doc, op, pos, ch):
    text = workflow.dump_yaml(doc)
    if doc:
        assert repr(workflow._fast_load(text)) == repr(doc)
    for t in (text, mutate(text, op, pos, ch)):
        assert read(t) == libyaml_read(t)


def hand_text(doc, quote: bool) -> str:
    """``doc`` as the benchmark's inputs are written by hand.

    Dicts, and lists holding a dict or list, are in block style; any other
    list is one flow line ``[a, "b"]``.  Every second nested dict of plain
    keys and scalar values, counting in the order written, is one flow line
    ``{a: 1, b: "c"}`` instead, as the benchmark's sites and topology are
    written; a string value of such a dict holds none of ``,:{}[]``.  Numbers
    are written with ``repr``.  A string is double-quoted when ``quote`` is
    set or when it cannot be plain, with JSON's escapes where it holds a
    quote, a backslash or a control character.  A key is plain when it can
    be, else quoted.
    """
    seen = []  # the nested dicts that could be flow lines, in the order written

    def flow(x):
        if type(x) is dict and x and all(
                fast_text({k: 0}) and (v is None or type(v) in (bool, int, float)
                                       or type(v) is str and not set(v) & set(",:{}[]"))
                for k, v in x.items()):
            seen.append(x)
            return len(seen) % 2 == 0
        return False

    def string(x, plain):
        if plain:
            try:
                return workflow._scalar(x)
            except workflow._Unsure:
                pass
        if x.isprintable() and '"' not in x and "\\" not in x:
            return f'"{x}"'
        return json.dumps(x, ensure_ascii=False)

    def scalar(x):
        if type(x) is str:
            return string(x, not quote)
        if x is None or type(x) is bool:
            return {None: "null", True: "true", False: "false"}[x]
        if type(x) in (int, float):
            return repr(x)
        return "[]" if x == [] else "{}"

    def block(x):
        return type(x) in (dict, list) and x and (
            type(x) is dict or any(type(v) in (dict, list) for v in x))

    def value(x):
        if type(x) is dict and x:
            return "{" + ", ".join(f"{k}: {scalar(v)}" for k, v in x.items()) + "}"
        return "[" + ", ".join(map(scalar, x)) + "]" if type(x) is list and x else scalar(x)

    def emit(node, first, rest):
        if type(node) is dict:
            for key, v in node.items():
                key = string(key, True) if key else '""'
                if block(v) and not flow(v):
                    out.append(f"{first}{key}:")
                    indent = rest + "  " if type(v) is dict else rest
                    emit(v, indent, indent)
                else:
                    out.append(f"{first}{key}: {value(v)}")
                first = rest
        else:
            for v in node:
                if block(v) and not flow(v):
                    emit(v, first + "- ", rest + "  ")
                else:
                    out.append(f"{first}- {value(v)}")
                first = rest

    if not doc:
        return "{}\n" if doc == {} else "[]\n"
    out: list[str] = []
    emit(doc, "", "")
    return "\n".join(out) + "\n"


def leaves(node):
    if type(node) in (dict, list):
        for v in node.values() if type(node) is dict else node:
            yield from leaves(v)
    else:
        yield node


@settings(max_examples=400, deadline=None)
@given(executable_docs(safe_name, safe_leaf) | nested_docs(safe_name, safe_leaf)
       | executable_docs(any_name, any_leaf)
       | nested_docs(any_name | long_key, any_leaf, max_leaves=6),
       st.booleans(),
       st.sampled_from(["insert", "replace", "delete", "drop_line", "dup_line",
                        "swap_lines", "indent", "dedent", "trailing_space", "crlf"]),
       st.integers(0, 10**6), st.sampled_from(list(' -:",[]\\\rn\n#a1.e{\t\xe9')))
@example({"a": 1, "b": 2}, False, "replace", 5, "a")  # a repeated key
@example({"a": {"x": 1}, "b": [1]}, False, "replace", 10, "a")
@example({"k": 'a"b'}, True, "insert", 0, " ")
@example({"k": "a\\b"}, True, "insert", 0, " ")
@example({"k": ["a", "b"]}, True, "delete", 8, " ")  # ["a","b"]
@example({"k": ["a", "b"]}, False, "replace", 5, ":")  # [a: b]
@example({"k": "1.0"}, True, "insert", 0, " ")
@example({"k": 1.0}, True, "insert", 0, " ")
@example({"k": "\xe9"}, True, "insert", 0, " ")  # non-ASCII
@example({"k": "ab"}, True, "insert", 5, "\x85")  # NEL, a YAML 1.1 line break
@example({"k": "ab"}, True, "insert", 5, "\r")
@example({"k": "a", "j": ["b"]}, True, "trailing_space", 0, " ")
@example({"k": "a", "j": ["b"], "i": [{"x": 1}]}, True, "crlf", 0, " ")
@example({"k": 1, "j": 2}, False, "insert", 4, "\r")  # a 1\r token
@example({"k": 1e16, "j": [1e16, -0.0]}, False, "insert", 0, " ")  # 1e+16 is a string
@example([["a", 1], [], {}, "c"], True, "dup_line", 1, " ")
@example({"k": 1, "j": {"x": 1}}, False, "drop_line", 2, " ")  # ends on "j:"
def test_reader_agrees_with_libyaml_on_hand_written_and_mutated_text(doc, quote, op, pos, ch):
    text = hand_text(doc, quote)
    for t in (text, mutate(text, op, pos, ch)):
        assert read(t) == libyaml_read(t)


@settings(max_examples=200, deadline=None)
@given(executable_docs(safe_name, safe_leaf) | nested_docs(safe_name, safe_leaf))
def test_reader_reads_quoted_hand_written_documents_itself(doc):
    text = hand_text(doc, quote=True)
    # repr writes 1e+16 and 1e-07, which YAML 1.1 reads as strings
    if doc and all(repr(x) == workflow._scalar(x) for x in leaves(doc) if type(x) is float):
        assert repr(workflow._fast_load(text)) == repr(doc)
    else:
        assert read(text) == libyaml_read(text)


@pytest.mark.parametrize("depth, fast", [(65, True), (66, False)])
def test_list_items_nested_past_column_128_are_left_to_libyaml(depth, fast):
    # the innermost of ``depth`` item markers on one line opens a list at
    # column 2 * (depth - 1)
    text = "- " * depth + "x\n"
    doc = "x"
    for _ in range(depth):
        doc = [doc]
    if fast:
        assert workflow._fast_load(text) == doc
    else:
        with pytest.raises(workflow._Unsure):
            workflow._fast_load(text)
    assert read(text) == libyaml_read(text) == ("ok", repr(doc))


def test_repeated_key_is_left_to_pyyaml():
    for text in ("a: 1\nb: 2\na: 3\n", "- a: 1\n  a: 1\n", "a:\n  x: 1\na: []\n",
                 "a:\n- 1\nb: 2\na:\n- 1\n"):
        with pytest.raises(workflow._Unsure):
            workflow._fast_load(text)
        assert read(text) == libyaml_read(text)


@pytest.mark.parametrize("token", [
    "{a: 1, a: 2}", "{a: x:y}", "{ a: b }", "{a: b,}", "{a: {b: c}}", "{a: [b]}",
    '{a: "x, y"}', "{a: 1e8}", "{a: ~}",
])
def test_flow_mappings_outside_the_grammar_are_left_to_libyaml(token):
    for text in (f"- {token}\n", f"k: {token}\n"):
        with pytest.raises(workflow._Unsure):
            workflow._fast_load(text)
        assert read(text) == libyaml_read(text)


@pytest.mark.parametrize("text", [
    "- {a: b}: c\n", "k: {}\n", "- {name: submit}\n- {name: nfs, shared_fs: true}\n",
    "submit: {name: submit, slots: 1}\nlinks:\n"
    "- {src: submit, dst: condorpool/w1, bandwidth: 125000000.0}\n",
    '- - {a: "x y", b: -1, c: null, d: \'\'}\n', "- {a:b: c, d: e/f}\n",
    '- {a: "x: y", b: "[c]", c: "{d}"}\n', '- {a: "p, q: r"}\n',
])
def test_flow_mapping_documents_agree_with_libyaml(text):
    assert read(text) == libyaml_read(text)


def test_no_two_entries_share_a_list_or_dict():
    doc = workflow._fast_load('a: []\nb: []\nc: {}\nd: {}\ne: [x, "y"]\nf: [x, "y"]\n'
                              "g:\n- []\n- []\n- [1]\n- [1]\n")
    assert doc == {"a": [], "b": [], "c": {}, "d": {}, "e": ["x", "y"], "f": ["x", "y"],
                   "g": [[], [], [1], [1]]}
    containers = [doc[k] for k in "abcdef"] + doc["g"]
    assert len({id(c) for c in containers}) == len(containers)


def test_reader_never_calls_the_emitter_and_reads_hand_written_inputs(monkeypatch):
    ewf = demo_plan("docker", cluster_size=12, cleanup=True)
    exe_text = serialize_executable(ewf)
    wf = demo_workflow()
    wf_text = hand_text(yaml.safe_load(serialize_workflow(wf)), quote=True)
    assert '  inputs: ["' in wf_text and 'id: "' in wf_text
    refuse = mock.Mock(side_effect=AssertionError("PyYAML or the emitter was called"))
    monkeypatch.setattr(workflow, "_fast_dump", refuse)
    monkeypatch.setattr(workflow, "_emit", refuse)
    monkeypatch.setattr(yaml, "load", refuse)
    assert parse_executable(exe_text) == ewf
    assert parse_workflow(wf_text) == wf
    assert refuse.call_count == 0


def demo_plan_with(container, cluster_size, cleanup):
    """demo_plan, and for shifter (not in the demo catalog) the docker entry as shifter."""
    if container != "shifter":
        return demo_plan(container, cluster_size=cluster_size, cleanup=cleanup)
    cat = demo_catalog("docker")
    image = parse_image_url("shifter:///imaging/radar-tools:latest")
    cat = replace(cat, containers={
        name: replace(c, runtime=ContainerRuntime.SHIFTER, image=image, image_size_bytes=0)
        for name, c in cat.containers.items()
    })
    cfg = PlanConfig(cluster_size=cluster_size, output_site="submit", cleanup=cleanup)
    return plan(demo_workflow(), cat, demo_sites(), cfg)


@pytest.mark.parametrize("container", ["docker", "singularity", "shifter", None])
def test_executables_round_trip_without_pyyaml(monkeypatch, container):
    plans = [demo_plan_with(container, k, cleanup) for k in (1, 12) for cleanup in (False, True)]
    assert container is None or any(
        j.payload.backend is ContainerRuntime(container)
        for j in plans[0].jobs if hasattr(j.payload, "backend")
    )
    refuse = mock.Mock(side_effect=AssertionError("PyYAML was called"))
    monkeypatch.setattr(yaml, "load", refuse)
    monkeypatch.setattr(yaml, "dump", refuse)
    for ewf in plans:
        assert parse_executable(serialize_executable(ewf)) == ewf
    assert refuse.call_count == 0


def test_only_workflow_module_uses_yaml():
    package = Path(contflow.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name.split(".")[0] == "yaml" for name in names):
                importers.append(path.name)
    assert importers == ["workflow.py"]
    source = (package / "workflow.py").read_text()
    assert "safe_load" not in source and "safe_dump" not in source


def test_no_module_imports_a_private_name_of_another():
    package = Path(contflow.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "contflow"
            ):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_")]
    assert private == []


def test_importing_the_cli_leaves_pyyaml_unloaded():
    # a document with a comment still parses: PyYAML is imported when it is needed
    code = ("import sys, contflow.cli\n"
            "print('yaml' in sys.modules)\n"
            "from contflow.planner import parse_sites\n"
            "site, = parse_sites('# one site\\n- {name: s, shared_fs: true}\\n')\n"
            "print(site.name, site.shared_fs, 'yaml' in sys.modules)\n")
    src = str(Path(contflow.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\ns True True\n"


def test_plan_and_simulate_on_benchmark_inputs_leave_pyyaml_unloaded(tmp_path, monkeypatch):
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  benchmarks / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    src = str(Path(contflow.__file__).parent.parent)
    for name in workloads.WORKLOADS:
        i = {k: str(v) for k, v in workloads.write_inputs(name, 0, tmp_path / name).items()}
        exe = str(tmp_path / name / "executable.yml")
        argvs = [["plan", i["workflow.yml"], i["catalog.yml"], i["sites.yml"], "--out", exe],
                 ["simulate", exe, i["topology.yml"], "--out", str(tmp_path / name / "sim")]]
        code = ("import sys\nfrom contflow.cli import main\n"
                f"for argv in {argvs!r}:\n"
                "    assert main(argv) == 0\n"
                "    print('yaml after', argv[0], 'yaml' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        seen = [line for line in out.stdout.splitlines() if line.startswith("yaml after")]
        assert seen == ["yaml after plan False", "yaml after simulate False"], name


def test_long_escaped_string_loads_back_through_either_path():
    # the emitters may fold this string at different points; both read back equal
    doc = {"payload": {"target_job": "a\x01b \xe9 " * 30}}
    for dumper in (yaml.SafeDumper, getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
        assert workflow.load_yaml(emit(doc, dumper), "executable") == doc
