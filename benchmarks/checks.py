"""Output checks and work counts for one benchmark pass.

Every check reads the files the CLI wrote (plus the mock executor's report,
captured from ``execute_local``'s return value) and raises ``CheckFailed``
naming the broken property.  The executable is read with the benchmark's own
YAML load, not the program's parser.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REPORT_FILES = ("summary.txt", "egress.tsv", "io_wait.tsv", "timeline.tsv")
TRANSFERABLE = ("copy", "symlink")


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def load_yaml(text: str):
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml.load(text, Loader=loader)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def load_executable(exe_path: Path) -> tuple[dict, int]:
    text = exe_path.read_bytes()
    return load_yaml(text), len(text)


def check_executable(doc: dict, task_ids: list[str]) -> dict[str, float]:
    """Fetch-job dedup and task coverage; returns the planner's work counts."""
    jobs = doc["jobs"]
    counts: dict[str, float] = {
        f"planner.jobs.{k}": 0
        for k in ("container_fetch", "stage_in", "compute", "stage_out", "cleanup")
    }
    for j in jobs:
        counts[f"planner.jobs.{j['kind']}"] += 1
    counts["planner.edges"] = len(doc["edges"])

    fetches = [(j["id"], j["site"]) for j in jobs if j["kind"] == "container_fetch"]
    # fetch job ids are fetch_<container>_<staging site>
    fetch_pairs = {(jid[len("fetch_"):-len(site) - 1], site) for jid, site in fetches}
    _require(len(fetch_pairs) == len(fetches), "duplicate fetch job for a container/site pair")
    needed = set()
    seen_tasks: dict[str, int] = {}
    for j in jobs:
        if j["kind"] != "compute":
            continue
        p = j["payload"]
        for t in p["task_ids"]:
            seen_tasks[t] = seen_tasks.get(t, 0) + 1
        if p["container"] and p["placement"] in TRANSFERABLE:
            needed.add((p["container"], p["staging_site"]))
    _require(fetch_pairs == needed, "fetch jobs differ from the (container, staging site) pairs")
    counts["planner.fetch_ratio"] = len(fetches) / len(needed) if needed else 1.0
    _require(sorted(seen_tasks) == sorted(task_ids), "compute jobs do not cover the tasks")
    _require(all(n == 1 for n in seen_tasks.values()), "a task is in more than one compute job")
    return counts


def check_wrappers(wrapper_dir: Path, n_compute: int) -> dict[str, float]:
    files = list(wrapper_dir.iterdir())
    _require(len(files) == n_compute, "not one wrapper per compute job")
    return {"launcher.wrapper_bytes": sum(f.stat().st_size for f in files)}


def check_simulation(sim_dir: Path, report_dir: Path) -> dict[str, float]:
    """Byte conservation and report re-rendering; returns simulator counts."""
    raw = (sim_dir / "result.json").read_bytes()
    doc = json.loads(raw)
    ledger = doc["flow_ledger"]
    moved = sum(row[2] for row in ledger)
    egress = sum(doc["egress_totals"].values())
    ingress = sum(doc["ingress_totals"].values())
    _require(math.isclose(egress, moved, rel_tol=1e-12)
             and math.isclose(ingress, moved, rel_tol=1e-12),
             "egress, ingress and flow-ledger byte totals differ")
    for name in REPORT_FILES:
        _require((sim_dir / name).read_bytes() == (report_dir / name).read_bytes(),
                 f"report re-render of {name} differs")
    # peak number of flows in flight, from the ledger's [started, ended) intervals
    events = sorted([(row[4], 1) for row in ledger] + [(row[5], -1) for row in ledger],
                    key=lambda e: (e[0], e[1]))
    live = peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    series = doc["per_node_egress"], doc["per_node_io_wait_ms"]
    return {
        "simulator.flows": len(ledger),
        "simulator.bytes_moved": moved,
        "simulator.peak_concurrent_flows": peak,
        "simulator.series_points": sum(len(s) for m in series for s in m.values()),
        "simulator.makespan_s": doc["makespan_s"],
        "cli.result_json_bytes": len(raw),
    }


def check_run(stdout: str, doc: dict, report) -> dict[str, float]:
    """Every mock-run job ok, and one docker load per distinct (image, node)."""
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    statuses = {r[0]: r[1] for r in rows}
    container = {j["id"]: j["payload"].get("container") for j in doc["jobs"]}
    _require(sorted(statuses) == sorted(container), "run table does not list every job")
    _require(all(s == "ok" for s in statuses.values()), "a mock-run job is not ok")
    _require(report is not None, "execute_local returned no report")
    loads = hits = steps = 0
    pairs = set()
    for jr in report.jobs.values():
        steps += len(jr.steps)
        for s in jr.steps:
            if s.kind.value == "load-image":
                pairs.add((container[jr.job_id], jr.node))
                loads += s.effect == "load"
                hits += s.effect == "cache-hit"
    _require(loads == len(pairs), "docker loads differ from distinct (image, node) pairs")
    return {
        "launcher.steps": steps,
        "launcher.jobs_ok": sum(1 for j in report.jobs.values() if j.status == "ok"),
        "launcher.load_hit_ratio": hits / (loads + hits) if loads + hits else 0.0,
    }


def digests(exe_path: Path, wrapper_dir: Path, sim_dir: Path | None) -> dict[str, str]:
    out = {
        "executable.yml": sha256(exe_path.read_bytes()),
        "wrappers/": dir_digest(wrapper_dir),
    }
    if sim_dir is not None:
        for name in REPORT_FILES:
            out[name] = sha256((sim_dir / name).read_bytes())
    return out
