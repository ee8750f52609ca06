"""Every error type in ``contflow.errors`` is raised, and told apart, in ``contflow``.

A type that no code raises, and that no raised type derives from, is dead:
callers that catch it catch nothing.  A type that is raised but that no code
tells apart from its base serves only callers that were guessed: the message
and the exit code are all a user sees.  So a type must also be named by an
``except`` clause of the package, define its own ``__init__`` (and so carry
something its base does not), or be the base of such a type.  The scans read
the package's source, so a type that fails either fails here instead of
lingering.  README, in turn, may name no error type that neither
``contflow.errors`` nor Python defines.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import yaml

import contflow
from contflow import errors

PACKAGE = Path(contflow.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
TYPES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
         if cls.__module__ == errors.__name__]


def class_name(node: ast.expr) -> str | None:
    """The class an expression names: ``X`` or ``module.X``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def trees():
    for path in PACKAGE.glob("*.py"):
        yield ast.parse(path.read_text(), str(path))


def raised_names() -> set[str]:
    """The names of the classes that a ``raise`` in the package's source names."""
    names = set()
    for tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(class_name(exc))
    return names


def caught_names() -> set[str]:
    """The names of the classes that an ``except`` clause in the package's source names."""
    names = set()
    for tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(class_name(c) for c in caught)
    return names


def not_a_base_of_any(types, kept) -> list[str]:
    """The names of ``types`` that no class of ``kept`` is or derives from."""
    return [cls.__name__ for cls in types if not any(issubclass(k, cls) for k in kept)]


def test_every_error_type_is_raised_or_is_the_base_of_one_that_is():
    names = raised_names()
    raised = [cls for cls in TYPES if cls.__name__ in names]
    assert raised
    assert not_a_base_of_any(TYPES, raised) == []


def test_every_error_type_is_told_apart_or_is_the_base_of_one_that_is():
    names = caught_names()
    told_apart = [cls for cls in TYPES
                  if cls.__name__ in names or "__init__" in vars(cls)]
    assert told_apart
    assert not_a_base_of_any(TYPES, told_apart) == []


def test_readme_names_no_error_type_that_contflow_errors_does_not_define():
    # a class-like name in backticks must be Python's, an error type of
    # contflow.errors, or something other than an exception that contflow or
    # PyYAML defines
    modules = [importlib.import_module(f"contflow.{m.name}")
               for m in pkgutil.iter_modules(contflow.__path__)]
    defined = {name: value for module in (*modules, yaml) for name, value in vars(module).items()}
    named = set(re.findall(r"`([A-Z]\w*[a-z]\w*)`", README.read_text()))
    assert {"ContflowError", "ValidationError", "SimError"} <= named
    unknown = sorted(
        name for name in named
        if not hasattr(builtins, name) and not hasattr(errors, name)
        and (name not in defined
             or isinstance(defined[name], type) and issubclass(defined[name], BaseException)))
    assert unknown == []
