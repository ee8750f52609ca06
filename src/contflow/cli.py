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
import sys
from dataclasses import dataclass
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
from .simulator import SimConfig, parse_topology
from .workflow import load_yaml, parse_workflow, read_record, read_value


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")
    return value == "on"


def _read(path: str, read=lambda f: f.read()):
    """What ``read`` gives from text file ``path``, the whole text by default."""
    try:
        with open(path) as f:
            return read(f)
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
            simulator.write_result(res, f)
        simulator.report(res, out)
    print(f"makespan: {res.makespan_s:.2f} s")
    print(f"reports written to {out}")
    return 0


def cmd_report(args) -> int:
    res = _read(args.result, simulator.read_result)
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
