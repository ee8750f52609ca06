"""Command-line entry point: plan, wrappers, run, simulate, report, sweep.

Exit codes: 0 success; 1 a ContflowError about the input (a document, a flag
or an unreadable file); 2 a SimError (a simulation, or an output that cannot
be written), or a mock run with a failed step.  Each is printed as
``error: <message>``.  Any other exception is a program fault and shows as a
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import launcher, planner, simulator
from .catalog import parse_catalog
from .errors import (
    ContflowError,
    DestinationUnwritable,
    SimError,
    ValidationError,
)
from .planner import PlanConfig, parse_executable, parse_sites, serialize_executable
from .simulator import WRITE_CHARS, Runs, SimConfig, SimResult, parse_topology
from .workflow import load_yaml, parse_workflow, read_record, read_value, write_record


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")
    return value == "on"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def _output_dir(out: str | Path):
    """Make directory ``out`` and yield it for the writes in the block.

    An OSError from making or writing under it, such as ``out`` lying under a
    regular file, raises DestinationUnwritable (exit 2).
    """
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        raise DestinationUnwritable(str(exc)) from None


def _plan_config(args) -> PlanConfig:
    return PlanConfig(
        cluster_size=args.cluster_size,
        output_site=args.output_site,
        cleanup=args.cleanup,
        placement_override=None if args.placement == "auto" else args.placement,
    )


def cmd_plan(args) -> int:
    wf = parse_workflow(_read(args.workflow))
    cat = parse_catalog(_read(args.catalog))
    sites = parse_sites(_read(args.sites))
    ewf = planner.plan(wf, cat, sites, _plan_config(args))
    out = Path(args.out)
    with _output_dir(out.parent):
        out.write_text(serialize_executable(ewf))
    counts: dict[str, int] = {}
    for j in ewf.jobs:
        counts[j.kind.value] = counts.get(j.kind.value, 0) + 1
    print(f"planned {len(ewf.jobs)} jobs -> {args.out}")
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]}")
    return 0


def cmd_wrappers(args) -> int:
    ewf = parse_executable(_read(args.executable))
    cat = parse_catalog(_read(args.catalog))
    plans = launcher.build_plans(
        ewf, cat, staging_inside=args.staging_inside, dedup_load=args.dedup_load
    )
    with _output_dir(args.out) as out:
        for job_id in sorted(plans):
            (out / f"{job_id}.sh").write_text(launcher.render_wrapper(plans[job_id]))
    print(f"wrote {len(plans)} wrapper scripts to {out}")
    return 0


def cmd_run(args) -> int:
    ewf = parse_executable(_read(args.executable))
    cat = parse_catalog(_read(args.catalog))
    plans = launcher.build_plans(ewf, cat, dedup_load=args.dedup_load)
    fail_step = None
    if args.fail_step:
        job_id, _, step = args.fail_step.partition(":")
        if step not in {kind.value for kind in launcher.StepKind}:
            raise ValidationError(
                f"--fail-step {args.fail_step!r}: expected JOB_ID:STEP_KIND, and "
                f"{step!r} is not a step kind"
            )
        fail_step = (job_id, launcher.StepKind(step))
    rep = launcher.execute_local(
        ewf, plans, slots=args.slots, node_count=args.nodes, fail_step=fail_step,
    )
    print(f"{'job':<36} {'status':<8} node")
    for job_id in sorted(rep.jobs):
        jr = rep.jobs[job_id]
        print(f"{job_id:<36} {jr.status:<8} {jr.node}")
    if rep.error:
        print(f"error: {rep.error}", file=sys.stderr)
        return 2
    return 0


_SERIES = ("per_node_egress", "per_node_io_wait_ms")


def _read_series(value, key: str) -> dict[str, Runs]:
    """The per-node series under ``key``; a node's list not yet read into runs
    is read now."""
    nodes = read_value(dict, value, "result", key)
    return {
        read_value(str, name, "result", key): v if type(v) is Runs else
            Runs((x, 1) for x in read_value(list[float], v, "result", key))
        for name, v in nodes.items()
    }


def _result_from_doc(doc) -> SimResult:
    if not isinstance(doc, dict):
        raise ValidationError(f"result document cannot be a {type(doc).__name__}")
    series = {key: _read_series(doc[key], key) for key in _SERIES if key in doc}
    res = read_record(SimResult, doc, "result", **series)
    if set(res.transfer_count_by_kind) != set(res.transfer_bytes_by_kind):
        raise ValidationError(
            "result document: transfer_count_by_kind and transfer_bytes_by_kind "
            "name different kinds"
        )
    if set(res.per_node_egress) != set(res.per_node_io_wait_ms):
        raise ValidationError(
            "result document: per_node_egress and per_node_io_wait_ms name different nodes"
        )
    lengths = {len(s) for m in (res.per_node_egress, res.per_node_io_wait_ms) for s in m.values()}
    if len(lengths) > 1:
        raise ValidationError(
            f"result document: the per-node series differ in length: {sorted(lengths)}"
        )
    for jid, start, end, _ in res.job_timeline:
        if not end >= start:
            raise ValidationError(
                f"result document: job_timeline entry {jid!r} must not end before "
                f"it starts: start {start!r}, end {end!r}"
            )
    return res


_ENCODER = json.JSONEncoder(indent=1, sort_keys=True)


def _write_series(write, series_map: dict[str, Runs]) -> None:
    """Write a per-node series map as the value of a top-level key.

    A run is one line repeated, in pieces of at most WRITE_CHARS characters.
    """
    opening = "{"
    for node in sorted(series_map):
        write(opening + "\n  " + json.dumps(node) + ": ")
        opening = ","
        series = series_map[node]
        item = "["
        for v, count in series.runs():
            line = ",\n   " + json.dumps(v)
            write(item + line[1:])
            item = ","
            per = max(1, WRITE_CHARS // len(line))
            for done in range(1, count, per):
                write(line * min(per, count - done))
        write("\n  ]" if series else "[]")
    write("\n }" if series_map else "{}")


def _write_result(res: SimResult, f) -> None:
    """Write ``res`` to text file ``f`` as ``json.dumps(write_record(res),
    indent=1, sort_keys=True)`` would: each value but the per-node series
    through json's encoder, one level deeper than it would be alone."""
    doc = write_record(replace(res, **dict.fromkeys(_SERIES, {})))
    write = f.write
    opening = "{"
    for key in sorted(doc):
        write(opening + "\n " + json.dumps(key) + ": ")
        opening = ","
        if key in _SERIES:
            _write_series(write, getattr(res, key))
        else:
            for chunk in _ENCODER.iterencode(doc[key]):
                write(chunk.replace("\n", "\n "))
    write("\n}")


def cmd_simulate(args) -> int:
    ewf = parse_executable(_read(args.executable))
    topo = parse_topology(_read(args.topology))
    cfg = SimConfig(
        docker_load_dedup=args.dedup_load,
        fair_share=not args.no_fair_share,
    )
    res = simulator.simulate(ewf, topo, cfg)
    with _output_dir(args.out) as out:
        with open(out / "result.json", "w") as f:
            _write_result(res, f)
        simulator.report(res, out)
    print(f"makespan: {res.makespan_s:.2f} s")
    print(f"reports written to {out}")
    return 0


READ_CHUNK = 1 << 16  # characters per read of result.json

_WS = re.compile(r"[ \t\n\r]*")
# A number as JSON writes it, or a constant json reads, then each later list
# item with the same text and the same separator: one match is a whole run.  A
# separator starts with whitespace or ",", so only the last copy could be cut
# short, and the end of its item must be seen: a match never stops inside a
# number cut off at the end of the text read.
_RUN = re.compile(r"(-?Infinity|NaN|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
                  r"(?:([ \t\n\r]*,[ \t\n\r]*)\1(?:\2\1)*)?(?=[ \t\n\r]*[,\]])")
_DECODE = json.JSONDecoder().raw_decode


class _Unsure(Exception):
    """The streaming reader met text that json.loads must judge."""


class _ResultReader:
    """Reads a result document from text file ``f`` in pieces of at most
    READ_CHUNK characters, each per-node series list straight into Runs.

    It holds the text not yet consumed, which is one piece unless a single key
    or value spans more, the runs, and the values outside the series.  A step
    that fails is tried again on more text; at the end of the file it raises
    _Unsure.
    """

    def __init__(self, f):
        self.f = f
        self.text = ""
        self.pos = 0
        self.eof = False
        self.bad = None  # the first element of the current list that is not a number

    def _more(self) -> None:
        """Drop the consumed text and read at least as much again as is left."""
        if self.eof:
            raise _Unsure
        left = self.text[self.pos:]
        parts, size = [left], 0
        while size <= len(left):
            piece = self.f.read(READ_CHUNK)
            if not piece:
                self.eof = True
                break
            parts.append(piece)
            size += len(piece)
        self.text, self.pos = "".join(parts), 0

    def _skip(self) -> str:
        """Skip whitespace; the next character, or "" at the end of the file."""
        while True:
            self.pos = _WS.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self._more()

    def _sep(self, ends: str) -> str:
        """Consume the next character, which must be one of ``ends``."""
        c = self._skip()
        if not c or c not in ends:
            raise _Unsure
        self.pos += 1
        return c

    def _value(self, ends: str):
        """The value at pos, and the one of ``ends`` that must follow it.

        The two are read together: a number is only known to be whole once the
        text after it is read.
        """
        while True:
            try:
                value, end = _DECODE(self.text, self.pos)
            except ValueError:
                pass
            else:
                end = _WS.match(self.text, end).end()
                if end < len(self.text) and self.text[end] in ends:
                    self.pos = end + 1
                    return value, self.text[end]
            self._more()

    def _object(self, read) -> dict:
        """The object at pos, just past its "{", each value and the "," or "}"
        after it read by ``read(key, first character)``."""
        out = {}
        if self._skip() == "}":
            self.pos += 1
            return out
        while True:
            self._skip()
            while not self.text.startswith('"', self.pos):
                self._more()
            key, _ = self._value(":")
            out[key], end = read(key, self._skip())
            if end == "}":
                return out

    def _field(self, key: str, first: str):
        if key in _SERIES and first == "{":
            self.pos += 1
            return self._object(self._node), self._sep(",}")
        return self._value(",}")

    def _node(self, key: str, first: str):
        """A node's series as Runs; where read_value turns an element down, a list
        of that element alone; and a value that is not a list, as it is."""
        if first != "[":
            return self._value(",}")
        self.pos += 1
        self.bad = None
        runs = Runs(self._runs(key))
        return runs if self.bad is None else self.bad, self._sep(",}")

    def _runs(self, key: str):
        """Yield the (value, count) runs of the list at pos, just past its "[",
        each value as ``read_value(float, ...)`` reads it, and consume the "]"."""
        if self._skip() == "]":
            self.pos += 1
            return
        while True:
            m = _RUN.match(self.text, self.pos)
            if m:
                value = _DECODE(self.text, self.pos)[0]
                count = 1 + self.text.count(",", m.end(1), m.end())
                self.pos = m.end()
                end = self._sep(",]")
            else:
                (value, end), count = self._value(",]"), 1
            if self.bad is None:
                try:
                    yield read_value(float, value, "result", key), count
                except ValidationError:
                    self.bad = [value]
            if end == "]":
                return
            self._skip()

    def document(self):
        if self._skip() != "{":
            raise _Unsure
        self.pos += 1
        doc = self._object(self._field)
        if self._skip():
            raise _Unsure  # trailing data
        return doc


def _read_result(path: str):
    """The result document at ``path``, as ``json.loads`` reads it, except that
    each per-node series list comes as Runs, read in bounded memory.

    A list that read_value would turn down stays a short list that
    _result_from_doc turns down the same way.  A document the streaming reader
    does not accept, such as malformed JSON, a top level that is not an
    object or lists nested too deep to decode, is read again whole by
    json.loads, which gives the verdict.
    """
    try:
        with open(path) as f:
            return _ResultReader(f).document()
    except (OSError, ValueError, RecursionError, _Unsure):
        pass
    text = _read(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"result document is not valid JSON: {exc}") from None


def cmd_report(args) -> int:
    res = _result_from_doc(_read_result(args.result))
    with _output_dir(args.out) as out:
        simulator.report(res, out)
    print(f"reports written to {args.out}")
    return 0


@dataclass(frozen=True)
class Scenario:
    """One entry of a sweep document, besides its PlanConfig fields."""
    label: str
    workflow: str
    catalog: str
    sites: str
    topology: str


def cmd_sweep(args) -> int:
    doc = load_yaml(_read(args.scenarios), "sweep")
    scenarios = []
    for raw in read_value(list[dict], doc.get("scenarios", []), "sweep", "scenarios"):
        sc = read_record(Scenario, raw, "sweep")
        wf = parse_workflow(_read(sc.workflow))
        cat = parse_catalog(_read(sc.catalog))
        sites = parse_sites(_read(sc.sites))
        topo = parse_topology(_read(sc.topology))
        # a sweep always places containers automatically
        cfg = read_record(PlanConfig, raw, "sweep", placement_override=None)
        ewf = planner.plan(wf, cat, sites, cfg)
        scenarios.append((sc.label, ewf, topo, SimConfig()))
    rows = simulator.sweep(scenarios)
    print(simulator.format_sweep(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contflow",
        description="Container-aware workflow planning, wrapping and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan an abstract workflow")
    p.add_argument("workflow")
    p.add_argument("catalog")
    p.add_argument("sites")
    p.add_argument("--cluster-size", type=int, default=1)
    p.add_argument("--output-site", default="submit")
    p.add_argument("--cleanup", type=_onoff, default=True)
    p.add_argument("--placement", choices=["auto", "copy", "symlink", "bypass"],
                   default="auto")
    p.add_argument("--out", default="executable.yml")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("wrappers", help="render wrapper scripts")
    p.add_argument("executable")
    p.add_argument("catalog")
    p.add_argument("--staging-inside", type=_onoff, default=True)
    p.add_argument("--dedup-load", type=_onoff, default=True)
    p.add_argument("--out", default="wrappers")
    p.set_defaults(func=cmd_wrappers)

    p = sub.add_parser("run", help="execute locally with the mock runtime")
    p.add_argument("executable")
    p.add_argument("catalog")
    p.add_argument("--mode", choices=["mock"], default="mock",
                   help="accepted for compatibility; mock is the only executor")
    p.add_argument("--slots", type=int, default=4, help="jobs started per round")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--dedup-load", type=_onoff, default=True)
    p.add_argument("--fail-step", default="",
                   help="inject a failure, format JOB_ID:step-kind")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="simulate an executable workflow")
    p.add_argument("executable")
    p.add_argument("topology")
    p.add_argument("--dedup-load", type=_onoff, default=True)
    p.add_argument("--no-fair-share", action="store_true")
    p.add_argument("--out", default="simout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="re-render report files from a result")
    p.add_argument("result")
    p.add_argument("--out", default="simout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="run a scenario comparison")
    p.add_argument("scenarios")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
