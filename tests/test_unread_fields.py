"""Every record field, import, command-line option and function in ``contflow`` is used.

A field that only the ``serialize_*`` writers touch is parsed, carried and
written back, but changes nothing: it is dead weight in every document and
every record.  The scan collects the name of each attribute read (``x.name``
in a load context) in the package's source, outside functions named
``serialize_*``, and fails on a dataclass field of the scanned modules that no
such read names.

It matches by name, not by class: a field counts as read when an attribute of
its name is read on any object.  So it misses a field whose name another
class's field shares; it could not see that nothing read
``TransformationEntry.profiles``, because ``ContainerDef.profiles`` is read.

Three more scans work the same way.  One fails on a name that a module
imports but never names again; ``__init__`` is left out, since its imports are
the package's public names.  One fails on an option of ``contflow``'s command
line whose ``dest`` no code reads as ``args.<dest>``.  The last fails on a
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
from pathlib import Path

import contflow

from contflow.cli import build_parser

PACKAGE = Path(contflow.__file__).parent
MODULES = ("catalog", "planner", "simulator", "launcher", "workflow", "cli")

# each field that no code reads, and why it stays
ALLOWED = {
    "TransformationEntry.arch": "a catalog column, kept so a Pegasus catalog reads and "
                                "writes back whole",
    "TransformationEntry.os": "a catalog column, kept for the same reason as arch",
    "CleanupPayload.target_job": "names, in the executable document, the job whose "
                                 "directory the cleanup job removes",
    "FlowRecord.ended": "the flow ledger's end time, for a caller of simulate()",
    "StepRecord.ended": "the mock run's end tick of a step, for a caller of execute_local()",
}


def record_fields() -> set[str]:
    """``Class.field`` for each field of each dataclass the scanned modules define."""
    out = set()
    for name in MODULES:
        module = importlib.import_module(f"contflow.{name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                out.update(f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls))
    return out


def attributes_read(node: ast.AST, out: set[str]) -> set[str]:
    """The attribute names read under ``node``, outside ``serialize_*`` functions."""
    if isinstance(node, ast.FunctionDef) and node.name.startswith("serialize_"):
        return out
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        attributes_read(child, out)
    return out


def test_every_record_field_is_read_or_allowed():
    read: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        attributes_read(ast.parse(path.read_text(), str(path)), read)
    unread = sorted(f for f in record_fields() if f.split(".")[1] not in read)
    assert unread == sorted(ALLOWED)


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
    "launcher.ExecutionReport.ok": "a mock run's verdict, for a caller of execute_local()",
    "launcher.ExecutionReport.count_effects": "one of the acceptance suite's measures",
    "simulator.SimResult.total_transfer_bytes": "one of the acceptance suite's measures",
    "simulator.SimResult.saturation_window_s": "one of the acceptance suite's measures",
    "simulator.SimResult.mean_io_wait_ms": "one of the acceptance suite's measures",
    "simulator.serialize_topology": "writes the topology documents the tests feed "
                                    "to the command line",
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
