"""Every record field in ``contflow`` is read by code other than a writer.

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
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import contflow

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
