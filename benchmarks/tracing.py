"""Span tracing of contflow's public functions from outside the package.

A function is traced by rebinding the module attribute its caller looks it up
through: ``cli`` imports ``parse_executable`` with ``from … import``, so the
wrapper goes on ``contflow.cli.parse_executable``; ``planner`` does the same
with ``topological_levels``.  Nothing under ``src/`` is edited.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and pass id, one record per
  call, kept in memory until the run ends;
* a *counted* call (used for high-frequency functions such as
  ``resolve_transformation`` and ``render_wrapper``) only adds to a call count
  and a summed time, and charges that time to the enclosing span as child time.

Calls are assumed to nest on one thread; no wrapped function is called from
the mock executor's worker threads.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute, span name, counted?).  Order matters only for readability.
TRACE_POINTS = (
    ("contflow.cli", "cmd_plan", "cli.plan", False),
    ("contflow.cli", "cmd_wrappers", "cli.wrappers", False),
    ("contflow.cli", "cmd_simulate", "cli.simulate", False),
    ("contflow.cli", "cmd_report", "cli.report", False),
    ("contflow.cli", "cmd_run", "cli.run", False),
    ("contflow.cli", "parse_workflow", "workflow.parse_workflow", False),
    ("contflow.cli", "parse_catalog", "catalog.parse_catalog", False),
    ("contflow.cli", "parse_sites", "planner.parse_sites", False),
    ("contflow.cli", "parse_executable", "planner.parse_executable", False),
    ("contflow.cli", "serialize_executable", "planner.serialize_executable", False),
    ("contflow.cli", "parse_topology", "simulator.parse_topology", False),
    ("contflow.planner", "plan", "planner.plan", False),
    ("contflow.planner", "validate_dag", "workflow.validate_dag", False),
    ("contflow.workflow", "validate_dag", "workflow.validate_dag", False),
    ("contflow.planner", "topological_levels", "workflow.topological_levels", False),
    ("contflow.planner", "resolve_transformation", "catalog.resolve_transformation", True),
    ("contflow.planner", "cluster_jobs", "planner.cluster_jobs", False),
    ("contflow.planner", "insert_container_fetch_jobs", "planner.insert_fetch", False),
    ("contflow.planner", "validate_executable", "planner.validate_executable", False),
    ("contflow.launcher", "build_plans", "launcher.build_plans", False),
    ("contflow.launcher", "render_wrapper", "launcher.render_wrapper", True),
    ("contflow.launcher", "execute_local", "launcher.execute_local", False),
    ("contflow.simulator", "simulate", "simulator.simulate", False),
    ("contflow.simulator", "report", "simulator.report", False),
)


class Tracer:
    """Collects spans and counted calls for the passes of one process."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        # span: [id, name, start, end, parent id or -1, pass id, child seconds]
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.call_s: dict[str, float] = defaultdict(float)
        self.results: dict[str, object] = {}

    def span(self, name: str, fn, keep: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [len(self.spans), name, time.perf_counter(), 0.0,
                   parent[0] if parent else -1, self.pass_id, 0.0]
            self.spans.append(rec)
            self._stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[6] += rec[3] - rec[2]
            if keep:
                self.results[name] = out
            return out
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.calls[name] += 1
                self.call_s[name] += dt
                if self._stack:
                    self._stack[-1][6] += dt
        return wrapper

    def install(self, keep: tuple[str, ...] = ()) -> None:
        """Rebind every trace point to its wrapper (for the life of the process)."""
        import importlib

        for modname, attr, name, counted in TRACE_POINTS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            wrapped = (self.counted(name, fn) if counted
                       else self.span(name, fn, keep=name in keep))
            setattr(mod, attr, wrapped)

    def summary(self) -> dict[str, float]:
        """Self seconds and call count per name over all recorded spans."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _, child in self.spans:
            out[name + ".self_s"] += end - start - child
            out[name + ".wall_s"] += end - start
            out[name + ".calls"] += 1
        for name, n in self.calls.items():
            out[name + ".self_s"] += self.call_s[name]
            out[name + ".wall_s"] += self.call_s[name]
            out[name + ".calls"] += n
        return dict(out)
