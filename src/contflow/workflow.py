"""Abstract workflow model: tasks, logical files, DAG validation, levels.

The abstract workflow is resource-agnostic: tasks reference logical
transformations and logical file names only.  Dependencies come from the
explicit edge list plus the implied producer→consumer file flow.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass, field

import yaml

from .errors import (
    CycleDetected,
    DanglingEdge,
    MultipleProducers,
    OrphanInput,
    ValidationError,
)

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
    expected_runtime_s: float = DEFAULT_RUNTIME_S


@dataclass(frozen=True)
class AbstractWorkflow:
    tasks: tuple[Task, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()
    files: dict[str, FileMeta] = field(default_factory=dict)

    def file_meta(self, name: str) -> FileMeta:
        return self.files.get(name, FileMeta(name=name))

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
        out = []
        for t in self.tasks:
            for f in t.outputs:
                if f not in consumed and f not in out:
                    out.append(f)
        return out


class ReadySet:
    """Kahn's algorithm driven by the caller: ready nodes come out in ascending order.

    A node becomes ready once every edge into it has been released, counting
    duplicate edges separately.  ``pop`` hands out the smallest ready node;
    ``release(node)`` marks a handed-out node finished.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.children: dict[str, list[str]] = {n: [] for n in nodes}
        self._indeg = dict.fromkeys(self.children, 0)
        for u, v in edges:
            self.children[u].append(v)
            self._indeg[v] += 1
        self._ready = [n for n, d in self._indeg.items() if d == 0]
        heapq.heapify(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready)

    def pop(self) -> str:
        return heapq.heappop(self._ready)

    def release(self, node: str) -> None:
        for child in self.children[node]:
            self._indeg[child] -= 1
            if self._indeg[child] == 0:
                heapq.heappush(self._ready, child)


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


def _find_cycle(adj: dict[str, list[str]]) -> list[str] | None:
    """Return one cycle as a node list, or None if the graph is acyclic.

    Depth-first from each unvisited node in sorted order, following adjacency
    lists in order; the first edge back into the current path closes the cycle.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adj, WHITE)
    for root in sorted(adj):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        pending = [iter(adj[root])]  # unexplored successors of each path node
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    pending.append(iter(adj[nxt]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def require_acyclic(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
    """Raise CycleDetected with one cycle's path if the graph has a cycle.

    Successors are followed in sorted order, so the cycle reported does not
    depend on the order the edges are listed in.
    """
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for u, v in edges:
        adj[u].append(v)
    cycle = _find_cycle({n: sorted(succ) for n, succ in adj.items()})
    if cycle:
        raise CycleDetected(cycle)


def validate_dag(wf: AbstractWorkflow) -> None:
    """Raise a ValidationError subclass if the workflow is malformed."""
    task_ids = [t.id for t in wf.tasks]
    seen: set[str] = set()
    for tid in task_ids:
        if tid in seen:
            raise ValidationError(f"duplicate task id {tid!r}")
        seen.add(tid)

    for u, v in wf.edges:
        if u not in seen or v not in seen:
            raise DanglingEdge(f"edge ({u!r}, {v!r}) references unknown task")

    produced: dict[str, str] = {}
    for t in wf.tasks:
        if set(t.inputs) & set(t.outputs):
            raise ValidationError(f"task {t.id!r}: inputs and outputs overlap")
        for f in t.outputs:
            if f in produced and produced[f] != t.id:
                raise MultipleProducers(
                    f"file {f!r} produced by both {produced[f]!r} and {t.id!r}"
                )
            produced[f] = t.id

    for t in wf.tasks:
        for f in t.inputs:
            if f in produced:
                continue
            meta = wf.files.get(f)
            if meta is None or meta.initial_location is None:
                raise OrphanInput(
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


# libyaml's parser and emitter when PyYAML was built with it, else pure Python
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(text: str, what: str, shape: type | tuple[type, ...] = dict):
    """Parse the YAML document named ``what``; its top level must be a ``shape``.

    An empty document reads as ``{}``.  Malformed YAML and any other top-level
    type raise ValidationError.
    """
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{what} document is not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, shape):
        raise ValidationError(f"{what} document cannot be a {type(doc).__name__}")
    return doc


def dump_yaml(doc) -> str:
    """Emit ``doc`` as block-style YAML, keys in insertion order."""
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False, default_flow_style=False)


def yaml_list(doc: dict, key: str, what: str) -> list:
    """The ``key`` section of document ``what``: a list, ``[]`` if absent."""
    entries = doc.get(key) or []
    if not isinstance(entries, list):
        raise ValidationError(f"{what} document: {key} must be a list")
    return entries


def yaml_mappings(doc: dict, key: str, what: str) -> list[dict]:
    """The ``key`` section of document ``what``: a list of mappings, ``[]`` if absent."""
    entries = doc.get(key) or []
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"{what} document: {key} must list one mapping per entry")
    return entries


def yaml_rows(doc: dict, key: str, what: str, columns: tuple[str, ...]) -> list[list]:
    """The ``key`` section of document ``what``: a list of lists, one item per column."""
    entries = doc.get(key) or []
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == len(columns) for e in entries
    ):
        raise ValidationError(
            f"{what} document: each {key} entry must be a [{', '.join(columns)}] list"
        )
    return entries


def yaml_pairs(doc: dict, key: str, what: str) -> tuple[tuple[str, str], ...]:
    """The ``key`` section of document ``what``: a list of ``[from, to]`` pairs."""
    return tuple((str(u), str(v)) for u, v in yaml_rows(doc, key, what, ("from", "to")))


def parse_workflow(text: str) -> AbstractWorkflow:
    """Parse the workflow YAML document (tasks / edges / files sections)."""
    doc = load_yaml(text, "workflow")
    tasks = []
    for raw in yaml_mappings(doc, "tasks", "workflow"):
        tasks.append(Task(
            id=str(raw["id"]),
            transformation=str(raw["transformation"]),
            inputs=tuple(str(f) for f in yaml_list(raw, "inputs", "workflow")),
            outputs=tuple(str(f) for f in yaml_list(raw, "outputs", "workflow")),
            expected_runtime_s=float(raw.get("runtime", DEFAULT_RUNTIME_S)),
        ))
    edges = yaml_pairs(doc, "edges", "workflow")
    files = {}
    for raw in yaml_mappings(doc, "files", "workflow"):
        meta = FileMeta(
            name=str(raw["name"]),
            size_bytes=int(raw.get("size_bytes", DEFAULT_FILE_BYTES)),
            initial_location=raw.get("initial_location"),
        )
        files[meta.name] = meta
    return AbstractWorkflow(tasks=tuple(tasks), edges=edges, files=files)


def serialize_workflow(wf: AbstractWorkflow) -> str:
    doc = {
        "tasks": [
            {
                "id": t.id,
                "transformation": t.transformation,
                "inputs": list(t.inputs),
                "outputs": list(t.outputs),
                "runtime": t.expected_runtime_s,
            }
            for t in wf.tasks
        ],
        "edges": [[u, v] for u, v in wf.edges],
        "files": [
            {
                "name": m.name,
                "size_bytes": m.size_bytes,
                **({"initial_location": m.initial_location} if m.initial_location else {}),
            }
            for m in wf.files.values()
        ],
    }
    return dump_yaml(doc)
