"""YAML I/O: one load/dump pair, libyaml and pure-Python paths agree."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import contflow
from contflow import workflow
from contflow.planner import parse_executable, serialize_executable
from contflow.scenarios import demo_plan, demo_topology
from contflow.simulator import parse_topology, serialize_topology

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
    monkeypatch.setattr(workflow, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(workflow, "_DUMPER", yaml.SafeDumper)
    assert round_trip() == default


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


def test_long_escaped_string_loads_back_through_either_path():
    # the emitters may fold this string at different points; both read back equal
    doc = {"payload": {"target_job": "a\x01b \xe9 " * 30}}
    for dumper in (yaml.SafeDumper, getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
        assert workflow.load_yaml(emit(doc, dumper), "executable") == doc
