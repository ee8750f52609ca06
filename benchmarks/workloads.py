"""Seeded input generator for the benchmark workloads.

Each workload is a function of the seed that returns the text of four input
files: workflow, catalog, sites and topology YAML.  The YAML is written here
by hand, not through the program's serializers, so the program receives only
these bytes and the same seed always gives byte-identical files.

Run ``python3 benchmarks/workloads.py --workload flat_docker --seed 0 --out DIR``
to write one workload's inputs to a directory.
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass
from pathlib import Path

GBPS = 1.25e8  # bytes/s
DOCKER_IMAGE_BYTES = 488_000_000
SINGULARITY_IMAGE_BYTES = 153_000_000
COMPUTE_SITE = "condorpool"


@dataclass(frozen=True)
class Workload:
    name: str
    simulate: bool  # plan → wrappers → simulate → report, else plan → wrappers → run
    tasks: int
    workers: int
    slots: int
    cleanup: bool


WORKLOADS = {
    w.name: w
    for w in (
        # the demo shape: identical docker tasks on one shared input; most of
        # simulate's time is job dispatch
        Workload(
            "flat_docker",
            simulate=True, tasks=300, workers=4, slots=24, cleanup=True,
        ),
        # staggered flows over many ports: most of simulate's time is the
        # max-min rate solve; cleanup off keeps the executable YAML smaller
        Workload(
            "layered_wide",
            simulate=True, tasks=320, workers=16, slots=25, cleanup=False,
        ),
        # YAML I/O, planner and mock executor only; the simulator does no work
        Workload(
            "plan_run_mixed",
            simulate=False, tasks=400, workers=4, slots=24, cleanup=True,
        ),
    )
}


# --- YAML text builders ----------------------------------------------------

def _q(s: str) -> str:
    return '"' + s + '"'


def _workflow_yaml(tasks: list[tuple[str, str, list[str], list[str], float]],
                   files: list[tuple[str, int, str | None]]) -> str:
    out = ["tasks:"]
    for tid, tr, inputs, outputs, runtime in tasks:
        out.append(f"- id: {_q(tid)}")
        out.append(f"  transformation: {_q(tr)}")
        out.append("  inputs: [" + ", ".join(_q(f) for f in inputs) + "]")
        out.append("  outputs: [" + ", ".join(_q(f) for f in outputs) + "]")
        out.append(f"  runtime: {runtime!r}")
    out.append("edges: []")
    out.append("files:")
    for name, size, location in files:
        out.append(f"- name: {_q(name)}")
        out.append(f"  size_bytes: {size}")
        if location:
            out.append(f"  initial_location: {_q(location)}")
    return "\n".join(out) + "\n"


# tool → (container type or None, image URL, image bytes)
_TOOLS = {
    "docker": ("docker", "docker:///imaging/radar-tools:latest", DOCKER_IMAGE_BYTES),
    "singularity": ("singularity", "shub://singularity-hub.org/imaging/radar-tools",
                    SINGULARITY_IMAGE_BYTES),
    "shifter": ("shifter", "shifter:///imaging/radar-tools:latest", 0),
    "none": (None, "", 0),
}


def _catalog_yaml(tools: list[str]) -> str:
    out = ["transformations:"]
    for tool in tools:
        ctype = _TOOLS[tool][0]
        out += [
            "- namespace: radar",
            f"  name: nowcast-{tool}",
            '  version: "1.0"',
            "  site:",
            f"  - name: {COMPUTE_SITE}",
            "    arch: x86_64",
            "    os: linux",
            f"    pfn: /usr/local/bin/nowcast-{tool}",
            "    type: INSTALLED",
        ]
        if ctype:
            out.append(f"    container: tools-{tool}")
    out.append("cont:")
    for tool in tools:
        ctype, url, size = _TOOLS[tool]
        if not ctype:
            continue
        out += [f"- name: tools-{tool}", f"  image: {_q(url)}", f"  type: {ctype}"]
        if size:
            out.append(f"  image_size_bytes: {size}")
        out += ["  profile:", "  - env:", f"      TOOL_HOME: /opt/{tool}"]
    return "\n".join(out) + "\n"


def _sites_yaml(workers: int, slots: int) -> str:
    return (
        "sites:\n"
        "- {name: submit}\n"
        "- {name: nfs, shared_fs: true}\n"
        f"- name: {COMPUTE_SITE}\n"
        "  staging_site: submit\n"
        f"  worker_count: {workers}\n"
        f"  slots_per_worker: {slots}\n"
        "  runtimes: [docker, singularity, shifter]\n"
    )


def _topology_yaml(workers: int, slots: int) -> str:
    """The demo links: 1 Gbps to and from submit, 10 Gbps to and from nfs."""
    submit_bw, worker_bw = GBPS, 10 * GBPS
    names = [f"{COMPUTE_SITE}/w{i + 1}" for i in range(workers)]
    out = [
        "submit: {name: submit, slots: 1}",
        "nfs: {name: nfs, slots: 1}",
        "workers:",
    ]
    for n in names:
        out.append(f"- {{name: {n}, slots: {slots}, disk_untar_rate: 100000000.0}}")
    out.append("links:")
    pairs = []
    for n in names:
        pairs += [("submit", n, submit_bw), (n, "submit", submit_bw),
                  ("nfs", n, worker_bw), (n, "nfs", worker_bw)]
    pairs += [("submit", "nfs", submit_bw), ("nfs", "submit", submit_bw)]
    for a, b, bw in pairs:
        out.append(f"- {{src: {a}, dst: {b}, bandwidth: {bw!r}}}")
    return "\n".join(out) + "\n"


def _lognormal(rng: random.Random, median: float, sigma: float,
               lo: float, hi: float) -> float:
    return min(hi, max(lo, rng.lognormvariate(math.log(median), sigma)))


# --- workloads -------------------------------------------------------------

def _flat_docker(w: Workload, rng: random.Random):
    tasks, files = [], [("radar_volume", 10_000_000, "http://ingest/radar_volume")]
    # identical tasks as in the demo; the seed only shuffles their names,
    # which changes dispatch order but not the amount of work
    for i in rng.sample(range(10 * w.tasks), w.tasks):
        grid = f"grid{i:05d}"
        tasks.append((f"nowcast{i:05d}", "radar::nowcast-docker:1.0",
                      ["radar_volume"], [grid], 5.0))
        files.append((grid, 1_000_000, None))
    return tasks, files, ["docker"]


def _layered(w: Workload, rng: random.Random, levels: int, tools: list[str],
             fan_in: int, n_inputs: int):
    per_level = w.tasks // levels
    files = [(f"raw{i:02d}", int(_lognormal(rng, 2e7, 0.8, 1e6, 2e8)),
              f"http://ingest/raw{i:02d}") for i in range(n_inputs)]
    tasks = []
    above = [f[0] for f in files]
    for level in range(levels):
        current = []
        for i in range(per_level):
            tid = f"l{level}t{i:04d}"
            out = f"{tid}.out"
            inputs = sorted(rng.sample(above, min(fan_in, len(above))))
            tool = tools[rng.randrange(len(tools))]
            runtime = round(_lognormal(rng, 30.0, 0.6, 2.0, 300.0), 3)
            tasks.append((tid, f"radar::nowcast-{tool}:1.0", inputs, [out], runtime))
            files.append((out, int(_lognormal(rng, 2e7, 1.0, 1e5, 5e8)), None))
            current.append(out)
        above = current
    return tasks, files, tools


def generate(name: str, seed: int) -> dict[str, str]:
    """Input file texts for one workload, keyed by file name."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "flat_docker":
        tasks, files, tools = _flat_docker(w, rng)
    elif name == "layered_wide":
        tasks, files, tools = _layered(w, rng, levels=4, tools=["docker"],
                                       fan_in=3, n_inputs=8)
    else:
        tasks, files, tools = _layered(
            w, rng, levels=10, tools=["docker", "singularity", "shifter", "none"],
            fan_in=2, n_inputs=4)
    return {
        "workflow.yml": _workflow_yaml(tasks, files),
        "catalog.yml": _catalog_yaml(tools),
        "sites.yml": _sites_yaml(w.workers, w.slots),
        "topology.yml": _topology_yaml(w.workers, w.slots),
    }


def write_inputs(name: str, seed: int, out: Path) -> dict[str, Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fname, text in generate(name, seed).items():
        paths[fname] = out / fname
        paths[fname].write_text(text)
    return paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    for path in write_inputs(args.workload, args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
