"""Every record field, import, command-line option and function in ``contflow`` is used.

A field that only the writers touch is parsed, carried and written back, but
changes nothing: it is dead weight in every document and every record.  The
field gate finds the fields that ``contflow``'s commands read, class by class.
It replaces ``__getattribute__`` on each dataclass of the scanned modules with
a probe that notes ``Class.field`` when the frame that reads the field runs
code from a package source file, other than ``write_record``, which writes
every field back.  So neither the tests' own reads count nor those of the
``__eq__``, ``__hash__`` and ``__repr__`` that ``dataclasses`` generates,
which run code from ``<string>``.  Under the probe the gate runs ``plan``,
``wrappers`` with staging inside and outside, ``run``, ``simulate`` and
``report`` on forty random models that reach every placement shape, then one
``sweep`` and one ``run`` with an injected failure, and fails on a field that
no read names, unless it is allowed below.  A field is not counted as read
because a field of another class has its name.

Three more scans read the source.  One fails on a name that a module imports
but never names again; ``__init__`` is left out, since its imports are the
package's public names.  One fails on an option of ``contflow``'s command line
whose ``dest`` no code reads as ``args.<dest>``.  The last fails on a
top-level function or method that no code in the package names (as ``f`` or
``x.f``) and that ``__init__`` does not export; dunder methods, which Python
calls, are left out.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import random
import sys
from pathlib import Path

import pytest
import yaml

import contflow
from contflow.catalog import serialize_catalog
from contflow.cli import build_parser, main
from contflow.planner import ComputePayload, ExecutableWorkflow, Job, JobKind, cluster_jobs
from contflow.workflow import dump_yaml, serialize_workflow, write_record

from conftest import plan_random, random_model_topology, serialize_topology

PACKAGE = Path(contflow.__file__).parent
SOURCES = {str(path) for path in PACKAGE.glob("*.py")}
MODULES = ("catalog", "planner", "simulator", "launcher", "workflow", "cli")
SEEDS = range(40)  # fewer miss reads that only some models reach

# each field that no command reads, and why it stays
ALLOWED = {
    "TransformationEntry.arch": "a catalog column, kept so a Pegasus catalog reads and "
                                "writes back whole",
    "TransformationEntry.os": "a catalog column, kept for the same reason as arch",
    "CleanupPayload.target_job": "names, in the executable document, the job whose "
                                 "directory the cleanup job removes",
    "FlowRecord.dst": "a column of result.json's flow ledger",
    "FlowRecord.started": "a column of result.json's flow ledger; benchmarks/checks.py "
                          "reads started and ended",
    "FlowRecord.ended": "a column of result.json's flow ledger; benchmarks/checks.py "
                        "reads started and ended",
    "StepRecord.started": "a step's start tick on the mock run's logical clock, "
                          "for a caller of execute_local()",
    "StepRecord.effect": "whether a load-image step loaded its image or hit the cache; "
                         "benchmarks/checks.py counts both",
}


def record_classes() -> list[type]:
    """Each dataclass the scanned modules define."""
    out = []
    for name in MODULES:
        module = importlib.import_module(f"contflow.{name}")
        out += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    return out


def unread_fields(classes: list[type], run) -> set[str]:
    """``Class.field`` for each field of ``classes`` that no package code reads
    while ``run()`` runs.  The classes are patched for the call only."""
    read: set[str] = set()

    def probe(cls):
        names = {f.name for f in dataclasses.fields(cls)}

        def getattribute(self, name):
            if name in names:
                code = sys._getframe(1).f_code
                if code.co_filename in SOURCES and code.co_name != "write_record":
                    read.add(f"{cls.__name__}.{name}")
            return object.__getattribute__(self, name)
        return getattribute

    with pytest.MonkeyPatch.context() as patch:
        for cls in classes:
            patch.setattr(cls, "__getattribute__", probe(cls))
        run()
    return {f"{cls.__name__}.{f.name}" for cls in classes
            for f in dataclasses.fields(cls)} - read


def command_lines(tmp_path: Path) -> list[tuple[list[str], int]]:
    """Each command the gate runs, in order, with its exit code.

    The input documents are written here, so their writers run outside the probe.
    """
    commands = []
    for seed in SEEDS:
        ewf, wf, cat, sites, cfg = plan_random(random.Random(seed), every_shape=True)
        d = tmp_path / str(seed)
        d.mkdir()
        docs = {
            "workflow": serialize_workflow(wf),
            "catalog": serialize_catalog(cat),
            "sites": dump_yaml({"sites": [write_record(s) for s in sites]}),
            "topology": serialize_topology(random_model_topology(sites)),
        }
        for name, text in docs.items():
            (d / f"{name}.yml").write_text(text)
        w, c, s, t, exe = (str(d / f"{n}.yml") for n in (*docs, "executable"))
        commands += [
            (["plan", w, c, s, "--out", exe, "--cluster-size", str(cfg.cluster_size),
              "--output-site", cfg.output_site, "--cleanup", "on" if cfg.cleanup else "off",
              "--placement", cfg.placement_override or "auto"], 0),
            (["wrappers", exe, c, "--out", str(d / "in")], 0),
            (["wrappers", exe, c, "--staging-inside", "off", "--out", str(d / "out")], 0),
            (["run", exe, c, "--nodes", "2"], 0),
            (["simulate", exe, t, "--out", str(d / "sim")], 0),
            (["report", str(d / "sim" / "result.json"), "--out", str(d / "report")], 0),
        ]
        if seed == 0:
            sweep = d / "sweep.yml"
            sweep.write_text(yaml.safe_dump({"scenarios": [{
                "label": "seed0", "workflow": w, "catalog": c, "sites": s, "topology": t,
                "cluster_size": 2, "output_site": cfg.output_site, "cleanup": False}]}))
            commands += [
                (["sweep", str(sweep)], 0),
                (["run", exe, c, "--fail-step", f"{ewf.jobs[0].id}:launch-task"], 2),
            ]
    return commands


def test_every_record_field_is_read_or_allowed(tmp_path):
    commands = command_lines(tmp_path)

    def run():
        for argv, code in commands:
            assert main(argv) == code, argv

    assert sorted(unread_fields(record_classes(), run)) == sorted(ALLOWED)


def test_a_field_is_read_by_its_class_not_its_name():
    @dataclasses.dataclass
    class Probe:
        kind: str  # Job.kind shares its name

    job = Job("c0", JobKind.COMPUTE, "site", ComputePayload(task_ids=("t0",)))

    def run():
        assert Probe("x").kind == "x"  # a test's read does not count
        cluster_jobs(ExecutableWorkflow(jobs=(job,)), 2)  # reads each field of Job

    assert unread_fields([Probe, Job], run) == {"Probe.kind"}
    assert "__getattribute__" not in vars(Probe) and "__getattribute__" not in vars(Job)


# each name imported and not used, or option not read, and why it stays
ALLOWED_IMPORTS = {
    "planner.validate_dag": "benchmarks/tracing.py wraps it there to count the "
                            "planner's DAG checks",
}
ALLOWED_OPTIONS = {
    "run --mode": "benchmarks/run.py passes --mode mock",
}


def test_every_imported_name_is_used_or_allowed():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported - used]
    assert sorted(unused) == sorted(ALLOWED_IMPORTS)


def test_every_command_line_option_is_read_or_allowed():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    unread = [f"{command} {action.option_strings[-1] if action.option_strings else action.dest}"
              for command, sub in commands.choices.items() for action in sub._actions
              if action.dest not in read | {"help", "func"}]
    assert sorted(unread) == sorted(ALLOWED_OPTIONS)


# each function or method that no code in the package names, and why it stays
ALLOWED_FUNCTIONS = {
    "catalog.InstallType._missing_": "Enum calls it to read a catalog's type "
                                     "case-insensitively",
    "scenarios.demo_scenarios": "README's ready-made rows for simulator.sweep",
}


def test_every_function_is_named_exported_or_allowed():
    defined, named, exported = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.stem == "__init__":
            exported.update(a.asname or a.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for a in node.names)
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            defined += [(f"{path.stem}.{prefix}{f.name}", f.name) for f in members
                        if isinstance(f, ast.FunctionDef)]
        named.update(node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute)))
    unnamed = [qualified for qualified, name in defined
               if name not in named | exported
               and not (name.startswith("__") and name.endswith("__"))]
    assert sorted(unnamed) == sorted(ALLOWED_FUNCTIONS)
