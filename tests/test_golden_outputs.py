"""The simulator's output files, pinned byte for byte.

``tests/golden/sim_digests.json`` holds the SHA-256 of ``result.json`` and the
four report files that ``contflow simulate`` writes for each demo scenario
below, and of the report files that ``contflow report`` renders again from that
``result.json``.  A change to the engine, the series representation or the
writers that moves one output byte fails here.

``tests/golden/executable_digests.json`` holds the SHA-256 of the serialized
executable workflow that ``plan()`` makes for each scenario and for
``conftest.plan_random`` seeds 0-49 (several staging sites, shared FS,
clustering and cleanup).  The simulator's outputs do not see the order of the
executable's jobs and edges; these digests do.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from contflow.cli import main
from contflow.planner import PlanConfig, plan, serialize_executable
from contflow.scenarios import (
    SUBMIT_SITE,
    demo_catalog,
    demo_sites,
    demo_topology,
    demo_workflow,
)

from conftest import GOLDEN, plan_random, serialize_topology

DIGESTS = GOLDEN / "sim_digests.json"
EXECUTABLE_DIGESTS = GOLDEN / "executable_digests.json"
REPORT_FILES = ("summary.txt", "egress.tsv", "io_wait.tsv", "timeline.tsv")

# name: (container, cluster size, shared FS, tasks, task runtime in s,
#        extra ``simulate`` flags, cleanup jobs planned)
SCENARIOS = {
    "docker_k1": ("docker", 1, False, 63, 5.0, (), False),
    "docker_k12": ("docker", 12, False, 63, 5.0, (), False),
    "singularity_k1": ("singularity", 1, False, 63, 5.0, (), False),
    "docker_shared_fs": ("docker", 1, True, 63, 5.0, (), False),
    "none_k1": (None, 1, False, 63, 5.0, (), False),
    "docker_5_tasks_5000s": ("docker", 1, False, 5, 5000.0, (), False),
    "docker_k1_no_fair_share": ("docker", 1, False, 63, 5.0, ("--no-fair-share",), False),
    "docker_k1_dedup_load_off": ("docker", 1, False, 63, 5.0, ("--dedup-load", "off"), False),
    "docker_k1_cleanup": ("docker", 1, False, 63, 5.0, (), True),
}


def plan_scenario(name: str):
    container, k, shared_fs, n_tasks, runtime_s, _, cleanup = SCENARIOS[name]
    return plan(demo_workflow(n_tasks=n_tasks, runtime_s=runtime_s), demo_catalog(container),
                demo_sites(shared_fs=shared_fs),
                PlanConfig(cluster_size=k, output_site=SUBMIT_SITE, cleanup=cleanup))


def executable_digest(ewf) -> str:
    return hashlib.sha256(serialize_executable(ewf).encode()).hexdigest()


def output_digests(name: str, work: Path) -> dict[str, str]:
    """Simulate scenario ``name`` and re-render its report through the CLI.

    Returns the SHA-256 of each file, keyed ``sim/<file>`` and ``report/<file>``.
    """
    flags = SCENARIOS[name][5]
    exe, topo = work / "executable.yml", work / "topology.yml"
    exe.write_text(serialize_executable(plan_scenario(name)))
    topo.write_text(serialize_topology(demo_topology()))
    assert main(["simulate", str(exe), str(topo), *flags, "--out", str(work / "sim")]) == 0
    assert main(["report", str(work / "sim" / "result.json"),
                 "--out", str(work / "report")]) == 0
    paths = [f"sim/{f}" for f in ("result.json", *REPORT_FILES)]
    paths += [f"report/{f}" for f in REPORT_FILES]
    return {p: hashlib.sha256((work / p).read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_pinned_digests(name, tmp_path, capsys):
    expected = json.loads(DIGESTS.read_text())[name]
    assert output_digests(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_executable_matches_pinned_digest(name):
    expected = json.loads(EXECUTABLE_DIGESTS.read_text())["scenarios"][name]
    assert executable_digest(plan_scenario(name)) == expected


def test_random_executables_match_pinned_digests():
    expected = json.loads(EXECUTABLE_DIGESTS.read_text())["plan_random"]
    got = {str(seed): executable_digest(plan_random(random.Random(seed))[0])
           for seed in range(50)}
    assert got == expected
