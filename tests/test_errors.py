"""Every error type in ``contflow.errors`` is raised somewhere in ``contflow``.

A type that no code raises, and that no raised type derives from, is dead:
callers that catch it catch nothing.  The scan reads each ``raise`` in the
package's source, so such a type fails here instead of lingering.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import contflow
from contflow import errors

PACKAGE = Path(contflow.__file__).parent


def raised_names() -> set[str]:
    """The names of the classes that a ``raise`` in the package's source names."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised_or_is_the_base_of_one_that_is():
    types = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
             if cls.__module__ == errors.__name__]
    names = raised_names()
    raised = [cls for cls in types if cls.__name__ in names]
    assert raised
    unraised = [cls.__name__ for cls in types
                if not any(issubclass(r, cls) for r in raised)]
    assert unraised == []
