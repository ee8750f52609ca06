"""Abstract workflow model: tasks, logical files, DAG validation, levels.

The abstract workflow is resource-agnostic: tasks reference logical
transformations and logical file names only.  Dependencies come from the
explicit edge list plus the implied producer→consumer file flow.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import heapq
import math
import re
import types
import typing
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import CycleDetected, ValidationError

DEFAULT_RUNTIME_S = 1.0
DEFAULT_FILE_BYTES = 1_048_576


@dataclass(frozen=True)
class FileMeta:
    name: str
    size_bytes: int = DEFAULT_FILE_BYTES
    initial_location: str | None = None


@dataclass(frozen=True)
class Task:
    id: str
    transformation: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    expected_runtime_s: float = field(default=DEFAULT_RUNTIME_S, metadata={"key": "runtime"})


@dataclass(frozen=True)
class AbstractWorkflow:
    tasks: tuple[Task, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()
    files: dict[str, FileMeta] = field(default_factory=dict)

    def file_meta(self, name: str) -> FileMeta:
        meta = self.files.get(name)
        return FileMeta(name=name) if meta is None else meta

    def producers(self) -> dict[str, str]:
        """Map logical file name → producing task id."""
        out: dict[str, str] = {}
        for t in self.tasks:
            for f in t.outputs:
                out.setdefault(f, t.id)
        return out

    def effective_edges(self) -> set[tuple[str, str]]:
        """Explicit edges plus producer→consumer data-flow edges."""
        edges = set(self.edges)
        producers = self.producers()
        for t in self.tasks:
            for f in t.inputs:
                p = producers.get(f)
                if p is not None and p != t.id:
                    edges.add((p, t.id))
        return edges

    def workflow_outputs(self) -> list[str]:
        """Files produced by some task and consumed by none."""
        consumed = {f for t in self.tasks for f in t.inputs}
        return list(dict.fromkeys(
            f for t in self.tasks for f in t.outputs if f not in consumed
        ))


class ReadySet:
    """Kahn's algorithm driven by the caller: ready nodes come out in ascending order.

    A node becomes ready once every edge into it has been released, counting
    duplicate edges separately.  ``pop`` hands out the smallest ready node;
    ``release(node)`` marks a handed-out node finished.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        self._children: dict[str, list[str]] = {n: [] for n in nodes}
        self._indeg = dict.fromkeys(self._children, 0)
        for u, v in edges:
            self._children[u].append(v)
            self._indeg[v] += 1
        self._ready = [n for n, d in self._indeg.items() if d == 0]
        heapq.heapify(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready)

    def pop(self) -> str:
        return heapq.heappop(self._ready)

    def release(self, node: str) -> None:
        for child in self._children[node]:
            self._indeg[child] -= 1
            if self._indeg[child] == 0:
                heapq.heappush(self._ready, child)

    def release_all(self) -> set[str]:
        """Release every node that is or becomes ready, in no set order, and
        return the nodes left: those on or after a cycle."""
        ready, indeg = self._ready, self._indeg
        while ready:
            for child in self._children[ready.pop()]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        return {n for n, d in indeg.items() if d}


def topological_order(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> list[str]:
    """Kahn order, smallest ready node first; nodes on or after a cycle are left out."""
    ready = ReadySet(nodes, edges)
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        ready.release(node)
    return order


def require_acyclic(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
    """Raise CycleDetected with one cycle's path if the graph has a cycle.

    Each node the ready set leaves has a parent that is left too.  From the
    smallest node left, step to its smallest parent left until a node comes up
    twice; the steps between its two visits, reversed, are the cycle.  So the
    cycle reported does not depend on the order the nodes or edges are listed in.
    """
    ready = ReadySet(nodes, edges)
    left = ready.release_all()
    if not left:
        return
    parent: dict[str, str] = {}  # smallest parent that is left
    for u in left:
        for v in ready._children[u]:
            if v in left and (v not in parent or u < parent[v]):
                parent[v] = u
    step: dict[str, int] = {}  # node -> when it was stepped through
    node = min(left)
    while node not in step:
        step[node] = len(step)
        node = parent[node]
    cycle = list(step)[step[node]:] + [node]
    cycle.reverse()
    raise CycleDetected(cycle)


def validate_dag(wf: AbstractWorkflow) -> None:
    """Raise ValidationError, or CycleDetected for a cycle, if the workflow is malformed."""
    refuse_repeats((t.id for t in wf.tasks), ValidationError, "task id")
    task_ids = {t.id for t in wf.tasks}

    for u, v in wf.edges:
        if u not in task_ids or v not in task_ids:
            raise ValidationError(f"edge ({u!r}, {v!r}) references unknown task")

    for name, meta in wf.files.items():
        if meta.size_bytes < 0:
            raise ValidationError(
                f"file {name!r}: size_bytes must be >= 0, got {meta.size_bytes!r}"
            )

    produced: dict[str, str] = {}
    for t in wf.tasks:
        if not (math.isfinite(t.expected_runtime_s) and t.expected_runtime_s >= 0):
            raise ValidationError(
                f"task {t.id!r}: runtime must be finite and >= 0, got {t.expected_runtime_s!r}"
            )
        if set(t.inputs) & set(t.outputs):
            raise ValidationError(f"task {t.id!r}: inputs and outputs overlap")
        for f in t.outputs:
            if f in produced and produced[f] != t.id:
                raise ValidationError(
                    f"file {f!r} produced by both {produced[f]!r} and {t.id!r}"
                )
            produced[f] = t.id

    for t in wf.tasks:
        for f in t.inputs:
            if f in produced:
                continue
            meta = wf.files.get(f)
            if meta is None or meta.initial_location is None:
                raise ValidationError(
                    f"task {t.id!r} input {f!r} has no producer and no initial location"
                )

    require_acyclic(task_ids, wf.effective_edges())


def topological_levels(wf: AbstractWorkflow) -> dict[str, int]:
    """Longest-path depth per task: roots at 0, level = 1 + max parent level."""
    validate_dag(wf)
    edges = wf.effective_edges()
    parents: dict[str, list[str]] = {t.id: [] for t in wf.tasks}
    for u, v in edges:
        parents[v].append(u)
    levels: dict[str, int] = {}
    for node in topological_order([t.id for t in wf.tasks], edges):
        levels[node] = max((levels[p] for p in parents[node]), default=-1) + 1
    return levels


_LOADER: type  # both set by _pyyaml()
_DUMPER: type


def _pyyaml():
    """PyYAML, imported on first use: contflow's own documents never need it.

    It sets ``_LOADER`` and ``_DUMPER`` unless they are set: libyaml's parser
    and emitter when PyYAML was built with it, else pure Python.
    """
    import yaml
    globals().setdefault("_LOADER", getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    globals().setdefault("_DUMPER", getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    return yaml


def __getattr__(name: str):
    if name in ("_LOADER", "_DUMPER"):
        _pyyaml()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# A string PyYAML writes unquoted and reads back as a string: ASCII, no spaces,
# no leading indicator, digit, sign or dot, no trailing ':' and no word that
# YAML 1.1 reads as a bool or null.
_PLAIN = re.compile(r"[A-Za-z_/][\w./:@+~-]*", re.ASCII)
_RESERVED = {"y", "n", "yes", "no", "true", "false", "on", "off", "null"}
_LITERALS = {"null": None, "true": True, "false": False, "''": ""}
_MAX_INDENT = 128  # more deeply nested documents go to PyYAML


class _Unsure(Exception):
    """The fast path met text or a value that PyYAML may not handle its way."""


def _plain(s: str) -> str:
    if _PLAIN.fullmatch(s) and s[-1] != ":" and s.lower() not in _RESERVED:
        return s
    raise _Unsure


def _scalar(x) -> str:
    """A scalar, or an empty list or dict, exactly as ``dump_yaml`` writes it."""
    t = type(x)
    if t is str:
        return _plain(x) if x else "''"
    if t is int:
        return str(x)
    if t is float and math.isfinite(x):
        r = repr(x).lower()
        return r.replace("e", ".0e", 1) if "e" in r and "." not in r else r
    if x is None or t is bool:
        return "null" if x is None else ("true" if x else "false")
    if t is dict and not x:
        return "{}"
    if t is list and not x:
        return "[]"
    raise _Unsure


def _emit(node, first: str, rest: str, out: list[str], keys: dict, strs: dict) -> None:
    """Append the block lines of a non-empty dict or list to ``out``.

    The first line starts with ``first`` and every later one with ``rest``; a
    list under a key is not indented, as PyYAML writes it.  ``keys`` and
    ``strs`` hold the text of each key and string value already checked.
    """
    if type(node) is dict:
        for key, value in node.items():
            if type(key) is not str:
                raise _Unsure
            text = keys.get(key)
            if text is None:
                if len(key) >= 128:
                    raise _Unsure
                text = keys[key] = _plain(key)
            if type(value) is str:
                line = strs.get(value)
                if line is None:
                    line = strs[value] = _scalar(value)
                out.append(f"{first}{text}: {line}")
            elif type(value) is dict and value:
                out.append(f"{first}{text}:")
                _emit(value, rest + "  ", rest + "  ", out, keys, strs)
            elif type(value) is list and value:
                out.append(f"{first}{text}:")
                _emit(value, rest, rest, out, keys, strs)
            else:
                out.append(f"{first}{text}: {_scalar(value)}")
            first = rest
    else:
        for value in node:
            if type(value) is str:
                line = strs.get(value)
                if line is None:
                    line = strs[value] = _scalar(value)
                out.append(f"{first}- {line}")
            elif type(value) in (dict, list) and value:
                _emit(value, first + "- ", rest + "  ", out, keys, strs)
            else:
                out.append(f"{first}- {_scalar(value)}")
            first = rest


def _fast_dump(doc) -> str:
    """``dump_yaml``'s text for a non-empty dict or list of contflow's own shapes."""
    if type(doc) not in (dict, list) or not doc:
        raise _Unsure
    out: list[str] = []
    _emit(doc, "", "", out, {}, {})
    out.append("")
    return "\n".join(out)


# A double-quoted string that reads as its content: printable ASCII, no escapes.
_QUOTED = re.compile(r'"[ !#-\[\]-~]*"')


def _value(token: str):
    """The value ``dump_yaml`` writes as exactly ``token``; _Unsure if none."""
    value = token
    if token in _LITERALS:
        value = _LITERALS[token]
    elif token and token[0] in "-0123456789":
        try:
            value = int(token)
        except ValueError:
            try:
                value = float(token)
            except ValueError:
                pass
    if _scalar(value) != token:
        raise _Unsure
    return value


def _item(item: str):
    """The value of a flow list item or flow mapping value; _Unsure if none.

    It is a ``_QUOTED`` string, or a plain scalar or number without ':' (inside
    a flow collection, ``a: b`` would be a mapping).
    """
    if _QUOTED.fullmatch(item):
        return item[1:-1]
    if ":" in item:
        raise _Unsure
    return _value(item)


def _token(token: str):
    """The value of a value token; a list comes back as a tuple.

    Besides ``dump_yaml``'s own tokens, this reads the three inline forms that
    hand-written documents use: a ``_QUOTED`` string, a one-line flow list
    ``[a, "b"]`` of ``_item``s, and a one-line flow mapping ``{a: 1, b: "c"}``
    of distinct plain keys and ``_item`` values.
    """
    first = token[:1]
    if first == '"' and _QUOTED.fullmatch(token):
        return token[1:-1]
    if token == "[]" or token == "{}":
        return () if token == "[]" else {}
    if first == "{" and token[-1] == "}":
        mapping = {}
        for item in token[1:-1].split(", "):
            key, sep, value = item.partition(": ")
            if not sep or len(key) >= 128 or key in mapping:
                raise _Unsure
            mapping[_plain(key)] = _item(value)
        return mapping
    if first != "[":
        return _value(token)
    if token[-1] != "]":
        raise _Unsure
    return tuple(map(_item, token[1:-1].split(", ")))


# How a memoised token value is copied for each entry: no two share a list or dict.
_FRESH = {tuple: list, dict: dict}


def _fast_load(text: str):
    """Read a document in ``_fast_dump``'s grammar, checking each token as it goes.

    Every line is a row: zero or more ``- `` item markers, then a ``key: token``,
    a ``key:`` or a bare token; an item that starts with ``{`` is a token, a
    flow mapping.  A list continues at its own column; a dict under ``key:``
    starts two columns in and a list under it at the key's column.  Each
    distinct key and token is checked once.  Anything else, including a
    repeated key, raises _Unsure.
    """
    lines = text.split("\n")
    if len(lines) < 2 or lines.pop():
        raise _Unsure
    node = root = [] if lines[0][:2] == "- " else {}
    at = 0  # the column of node, the innermost open list or dict
    stack = [(root, 0)]  # the open lists and dicts, with their columns
    values: dict = {}  # token → value, lists as tuples
    keys: dict[str, str] = {}
    pending = None  # the dict, key and column of a "key:" row awaiting its block
    for line in lines:
        s = line.lstrip(" ")
        col = len(line) - len(s)
        item = s[:2] == "- "
        if pending:
            parent, key, at = pending
            pending = None
            if col != (at if item else at + 2) or col > _MAX_INDENT:
                raise _Unsure
            parent[key] = node = [] if item else {}
            at = col
            stack.append((node, at))
        else:
            kind = list if item else dict
            while at != col or type(node) is not kind:
                stack.pop()
                if not stack:
                    raise _Unsure
                node, at = stack[-1]
        while item:  # node is the list at col; s begins with its next item
            s = s[2:]
            col += 2
            item = s[:2] == "- "
            if item or s[:1] != "{" and (": " in s or s[-1:] == ":"):  # a block list or dict
                if col > _MAX_INDENT:
                    raise _Unsure
                child = [] if item else {}
                node.append(child)
                node, at = child, col
                stack.append((node, at))
                continue
            value = values.get(s)
            if value is None:  # not seen yet, or null: check it
                value = values[s] = _token(s)
            fresh = _FRESH.get(type(value))
            node.append(fresh(value) if fresh else value)
            break
        else:  # node is the dict at col; s is one of its rows
            key, sep, token = s.partition(": ")
            if not sep:
                if s[-1:] != ":":
                    raise _Unsure
                key = s[:-1]
            checked = keys.get(key)
            if checked is None:
                if len(key) >= 128:
                    raise _Unsure
                checked = keys[key] = _plain(key)
            key = checked
            if key in node:
                raise _Unsure
            if not sep:
                pending = node, key, col
                continue
            value = values.get(token)
            if value is None:  # not seen yet, or null: check it
                value = values[token] = _token(token)
            fresh = _FRESH.get(type(value))
            node[key] = fresh(value) if fresh else value
    if pending:
        raise _Unsure
    return root


def load_yaml(text: str, what: str, shape: type | tuple[type, ...] = dict):
    """Parse the YAML document named ``what``; its top level must be a ``shape``.

    An empty document reads as ``{}``.  Malformed YAML, a value PyYAML cannot
    construct (``2020-13-45``, ``!!int 'x'``: a ValueError) and any other
    top-level type raise ValidationError.  A document in the block style
    ``dump_yaml`` writes, with quoted strings and one-line flow lists and
    mappings allowed as values, is read by a line reader that checks each
    token; every other document goes to PyYAML.
    """
    try:
        doc = _fast_load(text)
    except _Unsure:
        yaml = _pyyaml()
        try:
            doc = yaml.load(text, Loader=_LOADER)
        except (yaml.YAMLError, ValueError) as exc:
            raise ValidationError(f"{what} document is not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, shape):
        raise ValidationError(f"{what} document cannot be a {type(doc).__name__}")
    return doc


def dump_yaml(doc) -> str:
    """Emit ``doc`` as block-style YAML, keys in insertion order.

    Dicts and lists of plain strings, numbers, bools and None are written
    directly, byte for byte as PyYAML writes them; anything else goes to PyYAML.
    """
    try:
        return _fast_dump(doc)
    except _Unsure:
        return _pyyaml().dump(doc, Dumper=_DUMPER, sort_keys=False, default_flow_style=False)


# --- typed records -----------------------------------------------------------
#
# A record dataclass is the one declaration of a document entry's fields: the
# field name is its key unless ``field(metadata={"key": ...})`` names another,
# the annotation is what a value converts to, and the default is what an absent
# key reads as.  A list field with ``metadata={"rows": True}`` holds each record
# as a row of its fields in order.

def _fail(what: str, key: str, expected: str, value) -> typing.NoReturn:
    raise ValidationError(f"{what} document: {key} must be {expected}, not {value!r}")


@functools.cache
def _reader(tp, element: bool = False, rows: bool = False):
    """``conv(value, what, key)``: a value of document ``what`` as annotation ``tp``.

    ``element`` marks the entries of a list, and ``rows`` records written as rows.
    A number turns down a bool or a string (``runtime: true``,
    ``size_bytes: "10"``) and otherwise converts as ``tp(value)`` does.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is str:
        def conv(value, what, key):  # a number where a name belongs: ``id: 1`` is "1"
            if type(value) is str:
                return value
            if type(value) is int or type(value) is float:
                return str(value)
            _fail(what, key, "a string", value)
    elif tp is int or tp is float:
        def conv(value, what, key):
            if type(value) is bool or type(value) is str:
                _fail(what, key, "a number", value)
            try:
                return tp(value)
            except (TypeError, ValueError, OverflowError):
                _fail(what, key, "a number", value)
    elif tp is bool:
        def conv(value, what, key):
            return value if type(value) is bool else _fail(what, key, "true or false", value)
    elif isinstance(tp, type) and issubclass(tp, enum.Enum):
        choices = "one of " + ", ".join(str(m.value) for m in tp)

        def conv(value, what, key):
            try:
                return tp(value)
            except (TypeError, ValueError):
                _fail(what, key, choices, value)
    elif origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _reader(next(a for a in args if a is not type(None)), element)

        def conv(value, what, key):
            return None if value is None else inner(value, what, key)
    elif origin in (list, frozenset) or (origin is tuple and args[-1] is Ellipsis):
        item = _reader(args[0], True, rows)
        exact = {args[0]} & {str, int, float, bool}

        def conv(value, what, key):
            if type(value) is not list:
                _fail(what, key, "a list", value)
            if exact and set(map(type, value)) <= exact:  # nothing to convert
                return origin(value)
            return origin([item(v, what, key) for v in value])
    elif origin is tuple or rows:  # a fixed-width row, or a record written as one
        names = [f.name for f in dataclasses.fields(tp)] if rows else None
        if rows:
            args = [typing.get_type_hints(tp)[name] for name in names]
        items = [_reader(a) for a in args]
        exact = [a if a in (str, int, float, bool) else None for a in args]
        shape = ", ".join(names or (getattr(a, "__name__", repr(a)) for a in args))

        def conv(value, what, key):
            if type(value) is not list or len(value) != len(items):
                raise ValidationError(f"{what} document: each {key} entry must be "
                                      f"a [{shape}] list, not {value!r}")
            if list(map(type, value)) != exact:
                value = [c(v, what, key) for c, v in zip(items, value)]
            return tp(*value) if rows else tuple(value)
    elif origin is dict:
        keys, values = _reader(args[0]), _reader(args[1])

        def conv(value, what, key):
            if type(value) is not dict:
                _fail(what, key, "a mapping", value)
            return {keys(k, what, key): values(v, what, key) for k, v in value.items()}
    elif tp is dict or dataclasses.is_dataclass(tp):
        def conv(value, what, key):
            if type(value) is dict:
                return value if tp is dict else read_record(tp, value, what)
            if element:
                raise ValidationError(f"{what} document: {key} must list one mapping per entry")
            _fail(what, key, "a mapping", value)
    else:
        def conv(value, what, key):
            raise TypeError(f"no document reader for {tp!r}")
    return conv


@functools.cache
def _writer(tp, rows: bool = False):
    """A function writing a field value of annotation ``tp`` as its document
    holds it, or None where the value is written as it is."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in (str, int, float, bool):
        return None
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return lambda value: value.value
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        inner = _writer(next(a for a in args if a is not type(None)))
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if rows:
        return lambda value: [list(write_record(v).values()) for v in value]
    if origin in (list, frozenset) or (origin is tuple and args[-1] is Ellipsis):
        inner = _writer(args[0])
        return list if inner is None else lambda value: [inner(v) for v in value]
    if origin is tuple:  # a row of scalars
        return list
    if origin is dict:
        inner = _writer(args[1])
        return dict if inner is None else lambda value: {k: inner(v) for k, v in value.items()}
    if isinstance(tp, type) and not dataclasses.is_dataclass(tp):
        return list  # a sequence class of its own, such as the simulator's Runs
    return write_record  # a record, or one of several record classes


@functools.cache
def _fields(cls, given: tuple[str, ...] = ()) -> tuple[tuple, ...]:
    """(name, key, reader, required, writer) for each field of record class
    ``cls`` that is not named in ``given``."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return tuple(
        (f.name, f.metadata.get("key", f.name), _reader(hints[f.name], rows=rows),
         f.default is missing and f.default_factory is missing, _writer(hints[f.name], rows))
        for f in dataclasses.fields(cls) if f.name not in given
        for rows in (f.metadata.get("rows", False),)
    )


def read_record(cls, raw: dict, what: str, **given):
    """Build record class ``cls`` from mapping ``raw``, an entry of document ``what``.

    Each field not passed in ``given`` is read from its key and converted by
    its annotation; an absent key takes the field's default.  Unknown keys are
    ignored.  A missing required key or a value of the wrong type raises
    ValidationError naming the document and the key.
    """
    for name, key, conv, required, _ in _fields(cls, tuple(given)):
        if key in raw:
            given[name] = conv(raw[key], what, key)
        elif required:
            raise ValidationError(f"{what} document: {key} is missing")
    return cls(**given)


def read_value(tp, value, what: str, key: str):
    """``value``, found under ``key`` in document ``what``, converted to type ``tp``."""
    return _reader(tp)(value, what, key)


def refuse_repeats(keys: Iterable, error: type[Exception], what: str) -> None:
    """Raise ``error`` naming the first key that ``keys`` holds a second time."""
    seen = set()
    for key in keys:
        if key in seen:
            raise error(f"duplicate {what} {key!r}")
        seen.add(key)


def write_record(record) -> dict:
    """``record`` as its document entry: ``read_record``'s inverse.

    Fields go under their keys in field order; enums become their values,
    tuples lists, and nested records mappings, or rows where ``rows`` is set.
    """
    doc = {}
    for name, key, _, _, write in _fields(type(record)):
        value = getattr(record, name)
        doc[key] = value if write is None else write(value)
    return doc


def parse_workflow(text: str) -> AbstractWorkflow:
    """Parse the workflow YAML document (tasks / edges / files sections)."""
    doc = load_yaml(text, "workflow")
    files = read_value(list[FileMeta], doc.get("files", []), "workflow", "files")
    refuse_repeats((m.name for m in files), ValidationError, "file name")
    return read_record(AbstractWorkflow, doc, "workflow", files={m.name: m for m in files})


def serialize_workflow(wf: AbstractWorkflow) -> str:
    doc = {
        "tasks": [write_record(t) for t in wf.tasks],
        "edges": [[u, v] for u, v in wf.edges],
        "files": [
            {
                "name": m.name,
                "size_bytes": m.size_bytes,
                **({"initial_location": m.initial_location}
                   if m.initial_location is not None else {}),
            }
            for m in wf.files.values()
        ],
    }
    return dump_yaml(doc)
