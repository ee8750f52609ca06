"""Benchmark of contflow's command sequences on seeded inputs.

    python3 benchmarks/run.py --workload flat_docker --seed 0 --seconds 36 --trace 0
    python3 benchmarks/run.py                 # every workload, default seed and seconds
    python3 benchmarks/run.py --record-digests

A *pass* runs one workload's full command sequence through ``contflow.cli.main``:
``plan → wrappers → simulate → report`` or ``plan → wrappers → run --mode mock``.
Each pass runs in a forked child of this process, so the child starts from the
same warm state (inputs generated, modules imported), its peak RSS is its own,
and a pass over the wall-clock cap is killed and counted as a failed
``timeout`` pass.  Passes repeat for about ``--seconds`` (by default
``run_seconds`` from ``BENCHMARK.json``); timings are medians
over passes (too few passes for any higher percentile to have ten samples
beyond it).  Every pass is checked (see ``checks.py``); a failed check, a
non-zero exit, an exception or a timeout fails the pass, and ``failed`` over
``attempted`` is the error rate.  On the default seed the outputs must also
match ``digests.json``.  The exit code is 0 only if every pass succeeded.

``--trace 0`` prints the end-to-end metrics.  Their ``setup_s`` is the median
over cold set-ups, one before each pass: a fresh interpreter imports the
program and writes the workload's inputs.  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics from the traced ones, plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it notes the environment.

The ``transfer`` module is not covered: no CLI command calls it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 0
PASS_CAP_S = 60.0

# One cold set-up, timed in a fresh interpreter (its start-up is not counted):
# import the program, then generate the workload's inputs from the seed.
SETUP_PROBE = """\
import sys, time
from pathlib import Path
t0 = time.perf_counter()
src, here, name, seed, out = sys.argv[1:]
sys.path[:0] = [src, here]
import contflow.cli
import workloads
workloads.write_inputs(name, int(seed), Path(out))
print(time.perf_counter() - t0)
"""

import checks  # noqa: E402  (benchmark modules sit beside this file)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "tasks_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric → (source key in a traced pass's numbers, unit)
PER_LAYER = {
    "workflow.parse_workflow_s": ("workflow.parse_workflow.self_s", "s"),
    "workflow.validate_dag_s": ("workflow.validate_dag.self_s", "s"),
    "workflow.topological_levels_s": ("workflow.topological_levels.self_s", "s"),
    "workflow.validate_dag_calls": ("workflow.validate_dag.calls", "count"),
    "workflow.tasks": ("workflow.tasks", "count"),
    "workflow.effective_edges": ("workflow.effective_edges", "count"),
    "catalog.parse_catalog_s": ("catalog.parse_catalog.self_s", "s"),
    "catalog.resolve_s": ("catalog.resolve_transformation.self_s", "s"),
    "catalog.resolve_calls": ("catalog.resolve_transformation.calls", "count"),
    "planner.plan_self_s": ("planner.plan.self_s", "s"),
    "planner.parse_sites_s": ("planner.parse_sites.self_s", "s"),
    "planner.cluster_jobs_s": ("planner.cluster_jobs.self_s", "s"),
    "planner.insert_fetch_s": ("planner.insert_fetch.self_s", "s"),
    "planner.validate_executable_s": ("planner.validate_executable.self_s", "s"),
    "planner.serialize_executable_s": ("planner.serialize_executable.self_s", "s"),
    "planner.parse_executable_s": ("planner.parse_executable.self_s", "s"),
    "planner.parse_executable_calls": ("planner.parse_executable.calls", "count"),
    "planner.executable_yaml_bytes": ("planner.executable_yaml_bytes", "B"),
    "planner.jobs.container_fetch": ("planner.jobs.container_fetch", "count"),
    "planner.jobs.stage_in": ("planner.jobs.stage_in", "count"),
    "planner.jobs.compute": ("planner.jobs.compute", "count"),
    "planner.jobs.stage_out": ("planner.jobs.stage_out", "count"),
    "planner.jobs.cleanup": ("planner.jobs.cleanup", "count"),
    "planner.edges": ("planner.edges", "count"),
    "planner.fetch_ratio": ("planner.fetch_ratio", "ratio"),
    "launcher.build_plans_s": ("launcher.build_plans.self_s", "s"),
    "launcher.render_wrapper_s": ("launcher.render_wrapper.self_s", "s"),
    "launcher.render_calls": ("launcher.render_wrapper.calls", "count"),
    "launcher.wrapper_bytes": ("launcher.wrapper_bytes", "B"),
    "launcher.execute_local_s": ("launcher.execute_local.self_s", "s"),
    "launcher.steps": ("launcher.steps", "count"),
    "launcher.jobs_ok": ("launcher.jobs_ok", "count"),
    "launcher.load_hit_ratio": ("launcher.load_hit_ratio", "ratio"),
    "simulator.simulate_s": ("simulator.simulate.self_s", "s"),
    "simulator.parse_topology_s": ("simulator.parse_topology.self_s", "s"),
    "simulator.report_s": ("simulator.report.self_s", "s"),
    "simulator.flows": ("simulator.flows", "count"),
    "simulator.bytes_moved": ("simulator.bytes_moved", "B"),
    "simulator.peak_concurrent_flows": ("simulator.peak_concurrent_flows", "count"),
    "simulator.series_points": ("simulator.series_points", "count"),
    "simulator.makespan_s": ("simulator.makespan_s", "s"),
    "cli.plan_s": ("cli.plan.wall_s", "s"),
    "cli.wrappers_s": ("cli.wrappers.wall_s", "s"),
    "cli.simulate_s": ("cli.simulate.wall_s", "s"),
    "cli.report_s": ("cli.report.wall_s", "s"),
    "cli.run_s": ("cli.run.wall_s", "s"),
    "cli.self_s": ("cli.self_s", "s"),
    "cli.result_json_bytes": ("cli.result_json_bytes", "B"),
}


class Context:
    """Everything one workload's passes share: generated inputs and the work dir."""

    def __init__(self, name: str, seed: int, work: Path):
        self.w = workloads.WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.inputs = workloads.write_inputs(name, seed, work / "inputs")
        self.slots = len(os.sched_getaffinity(0))
        doc = checks.load_yaml(self.inputs["workflow.yml"].read_text())
        self.task_ids = [str(t["id"]) for t in doc["tasks"]]
        self.digests = None  # expected output digests, checked when set

    def commands(self, d: Path) -> list[tuple[str, list[str]]]:
        i = {k: str(v) for k, v in self.inputs.items()}
        exe = str(d / "executable.yml")
        cmds = [
            ("plan", ["plan", i["workflow.yml"], i["catalog.yml"], i["sites.yml"],
                      "--cluster-size", "1", "--cleanup", "on" if self.w.cleanup else "off",
                      "--out", exe]),
            ("wrappers", ["wrappers", exe, i["catalog.yml"], "--out", str(d / "wrappers")]),
        ]
        if self.w.simulate:
            cmds += [
                ("simulate", ["simulate", exe, i["topology.yml"], "--out", str(d / "sim")]),
                ("report", ["report", str(d / "sim" / "result.json"),
                            "--out", str(d / "report")]),
            ]
        else:
            cmds.append(("run", ["run", exe, i["catalog.yml"], "--mode", "mock",
                                 "--nodes", "4", "--slots", str(self.slots)]))
        return cmds


# --- one pass (runs in the forked child) -----------------------------------

def one_pass(ctx: Context, pass_id: int, traced: bool) -> dict:
    from contflow import cli, launcher

    d = ctx.work / f"pass{pass_id}"
    d.mkdir(parents=True)
    captured = {}
    execute_local = launcher.execute_local

    def capture_report(*args, **kwargs):
        captured["report"] = execute_local(*args, **kwargs)
        return captured["report"]

    launcher.execute_local = capture_report
    tracer = None
    if traced:
        tracer = Tracer(pass_id)
        tracer.install(keep=("workflow.parse_workflow",))

    stdout: dict[str, str] = {}
    t0 = time.perf_counter()
    for name, argv in ctx.commands(d):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            return {"error": f"exit: {name} returned {rc}: {err.getvalue().strip()[:200]}",
                    "pass_s": time.perf_counter() - t0}
        stdout[name] = out.getvalue()
    pass_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    numbers: dict[str, float] = {}
    try:
        doc, size = checks.load_executable(d / "executable.yml")
        numbers.update(checks.check_executable(doc, ctx.task_ids))
        numbers["planner.executable_yaml_bytes"] = size
        numbers.update(checks.check_wrappers(d / "wrappers", numbers["planner.jobs.compute"]))
        if ctx.w.simulate:
            numbers.update(checks.check_simulation(d / "sim", d / "report"))
        else:
            numbers.update(checks.check_run(stdout["run"], doc, captured.get("report")))
        if ctx.digests is not None:
            got = checks.digests(d / "executable.yml", d / "wrappers",
                                 d / "sim" if ctx.w.simulate else None)
            bad = sorted(k for k in set(got) | set(ctx.digests)
                         if got.get(k) != ctx.digests.get(k))
            if bad:
                raise checks.CheckFailed(f"digest mismatch on the default seed: {bad}")
    except checks.CheckFailed as exc:
        return {"error": f"check: {exc}", "pass_s": pass_s}

    result = {"pass_s": pass_s, "rss_mb": rss_mb, "traced": traced, "numbers": numbers}
    if tracer is not None:
        summary = tracer.summary()
        wf = tracer.results["workflow.parse_workflow"]
        summary["workflow.tasks"] = len(wf.tasks)
        summary["workflow.effective_edges"] = len(wf.effective_edges())
        summary["cli.self_s"] = sum(v for k, v in summary.items()
                                    if k.startswith("cli.") and k.endswith(".self_s"))
        numbers.update(summary)
        result["spans"] = tracer.spans
    return result


def in_child(fn) -> dict:
    """Run ``fn()`` in a forked child; kill it after PASS_CAP_S seconds."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(r)
        try:
            data = json.dumps(fn())
        except BaseException as exc:  # report anything, then exit the child
            data = json.dumps({"error": f"exception: {type(exc).__name__}: {exc}"})
        try:
            with os.fdopen(w, "w") as f:
                f.write(data)
        finally:
            os._exit(0)
    os.close(w)
    chunks: list[bytes] = []
    deadline = time.monotonic() + PASS_CAP_S
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(r)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"timeout: pass exceeded {PASS_CAP_S:g} s", "pass_s": PASS_CAP_S}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"error": f"crash: child exited with status {status}"}


# --- set-up ----------------------------------------------------------------

def time_setup(name: str, seed: int, out: Path) -> float:
    """Seconds one cold set-up of the workload takes."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name, str(seed), str(out)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PASS_CAP_S,
                              check=False)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def setup(name: str, seed: int, work: Path) -> Context:
    """Set up this process: load the digests, import the program, write the inputs."""
    digests = None
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if name not in recorded:
            raise SystemExit(f"error: no recorded digests for {name} in {DIGESTS}")
        digests = recorded[name]
    sys.path.insert(0, str(SRC))
    import contflow.cli  # noqa: F401

    ctx = Context(name, seed, work)
    ctx.digests = digests
    return ctx


def environment(work: Path) -> dict:
    import yaml

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    fstype, best = "", ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) > 2 and str(work).startswith(parts[1]) and len(parts[1]) > len(best):
                best, fstype = parts[1], parts[2]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "work_fs": fstype,
        "ram_tmp": fstype in ("tmpfs", "ramfs"),
    }


# --- measurement -----------------------------------------------------------

def measure(ctx: Context, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Run passes until another one would likely end after ``seconds``.

    An untraced run also times one cold set-up before each pass, so that the
    set-up samples, like the passes, spread over the whole run.
    """
    passes: list[dict] = []
    setups: list[float] = []
    walls: list[float] = []
    start = time.monotonic()
    while True:
        i = len(passes)
        traced = trace and i % 2 == 1
        t0 = time.monotonic()
        if not trace:
            setups.append(time_setup(ctx.w.name, ctx.seed, ctx.work / "setup"))
        passes.append(in_child(lambda: one_pass(ctx, i, traced)))
        passes[-1].setdefault("traced", traced)
        shutil.rmtree(ctx.work / f"pass{i}", ignore_errors=True)
        walls.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(walls) > seconds and (not trace or i >= 1):
            return passes, setups


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(ctx: Context, passes: list[dict], setups: list[float]) -> dict[str, float]:
    ok = [p for p in passes if "error" not in p]
    total_s = sum(p.get("pass_s", 0.0) for p in passes)
    return {
        "setup_s": _median(setups),
        "pass_s": _median([p["pass_s"] for p in ok]),
        "tasks_per_s": len(ctx.task_ids) * len(ok) / total_s if total_s else 0.0,
        "peak_rss_mb": _median([p["rss_mb"] for p in ok]),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if "error" not in p and p["traced"]]
    plain = [p for p in passes if "error" not in p and not p["traced"]]
    out = {}
    for metric, (key, _) in PER_LAYER.items():
        out[metric] = _median([p["numbers"].get(key, 0.0) for p in traced])
    base = _median([p["pass_s"] for p in plain])
    out["trace.overhead_frac"] = (
        (_median([p["pass_s"] for p in traced]) - base) / base if base else 0.0
    )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ctx = setup(name, seed, work)
        passes, setups = measure(ctx, seconds, trace)
        env = environment(work)
        if trace:
            spans = [s for p in passes for s in p.get("spans", [])]
            WORK.mkdir(exist_ok=True)
            (WORK / f"spans-{name}-seed{seed}.json").write_text(json.dumps(
                {"env": env, "fields": ["id", "name", "start", "end", "parent", "pass",
                                        "child_s"], "spans": spans}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [p for p in passes if "error" in p]
    for p in failed:
        print(f"{name}: failed pass: {p['error']}", file=sys.stderr)
    print(f"# {name} pass seconds: "
          + " ".join(f"{p.get('pass_s', 0.0):.3f}{'t' if p['traced'] else ''}" for p in passes))
    metrics = per_layer(passes) if trace else end_to_end(ctx, passes, setups)
    units = ({m: u for m, (_, u) in PER_LAYER.items()} | {"trace.overhead_frac": "ratio"}
             if trace else END_TO_END_UNITS)
    summary = {
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return summary, env


def record_digests() -> None:
    """Write the default-seed output digests of every workload to digests.json."""
    sys.path.insert(0, str(SRC))
    out = {}
    for name in workloads.WORKLOADS:
        work = WORK / f"record-{name}-{os.getpid()}"
        try:
            ctx = Context(name, DEFAULT_SEED, work)

            def digest_pass():
                res = one_pass(ctx, 0, False)
                if "error" in res:
                    return res
                d = work / "pass0"
                return checks.digests(d / "executable.yml", d / "wrappers",
                                      d / "sim" if ctx.w.simulate else None)

            res = in_child(digest_pass)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if "error" in res:
            raise SystemExit(f"{name}: {res['error']}")
        out[name] = res
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="record the default-seed output digests and exit")
    args = ap.parse_args()
    if not (SRC / "contflow" / "__init__.py").is_file():
        print(f"error: contflow sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK.read_text())["run_seconds"])

    if args.workload == "all":
        return run_all(args)
    summary, env = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, m in summary["metrics"].items():
        print(f"{args.workload:<15} {metric:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:<15} {'error_rate':<34} "
          f"{summary['failed'] / summary['attempted']:>16.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} passes failed)")
    print(f"# env {json.dumps(env)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(args) -> int:
    """Run each workload in its own process, so each set-up imports cold."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
