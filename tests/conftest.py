"""Shared fixtures and random-model builders for the test suite."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

from contflow.catalog import (
    Catalog,
    ContainerDef,
    ContainerRuntime,
    InstallType,
    TransformationEntry,
    parse_image_url,
)
from contflow.planner import SHAPES, PlanConfig, Site, plan
from contflow.launcher import ExecutionReport
from contflow.simulator import LinkSpec, NodeSpec, Runs, SimResult, Topology
from contflow.workflow import AbstractWorkflow, FileMeta, Task, dump_yaml, write_record

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def listing_text() -> str:
    return (FIXTURES / "catalog_listing.yml").read_text()


def make_chain(n: int = 3, runtime: float = 1.0) -> AbstractWorkflow:
    tasks = []
    files = {}
    for i in range(n):
        inputs = (f"f{i}",) if i > 0 else ()
        tasks.append(Task(
            id=f"t{i}", transformation="ns::tool:1.0",
            inputs=inputs, outputs=(f"f{i + 1}",), expected_runtime_s=runtime,
        ))
        files[f"f{i + 1}"] = FileMeta(f"f{i + 1}", 1000)
    return AbstractWorkflow(tasks=tuple(tasks), files=files)


def make_diamond() -> AbstractWorkflow:
    tasks = (
        Task("A", "ns::tool:1.0", outputs=("fa",)),
        Task("B", "ns::tool:1.0", inputs=("fa",), outputs=("fb",)),
        Task("C", "ns::tool:1.0", inputs=("fa",), outputs=("fc",)),
        Task("D", "ns::tool:1.0", inputs=("fb", "fc"), outputs=("fd",)),
    )
    return AbstractWorkflow(tasks=tasks)


# the placements whose image a container-fetch job stages, read off SHAPES
TRANSFERABLE_PLACEMENTS = {placement for (_, placement), shape in SHAPES.items()
                           if shape.materialize is not None}

RUNTIMES = [ContainerRuntime.DOCKER, ContainerRuntime.SINGULARITY,
            ContainerRuntime.SHIFTER]

IMAGE_URL = {
    ContainerRuntime.DOCKER: "docker:///acme/tool:latest",
    ContainerRuntime.SINGULARITY: "shub://hub.example.org/acme/tool",
    ContainerRuntime.SHIFTER: "shifter:///acme/tool:latest",
}


SITE_IMAGE_DIR = "/cvmfs/sw"


def make_random_model(
    rng: random.Random,
    max_tasks: int = 50,
    max_containers: int = 3,
    max_staging_sites: int = 2,
    every_shape: bool = False,
) -> tuple[AbstractWorkflow, Catalog, list[Site]]:
    """Random DAG + catalog + sites for planner/simulator property tests.

    With ``every_shape``, each model also draws, swarm-style, the share of its
    Docker and Singularity containers whose image is a site-local
    ``file:///cvmfs/sw/...`` path, the share of compute sites that list that
    path in ``cvmfs_like_paths``, the share with a shared filesystem and the
    share of transformation entries that are STAGEABLE, so its plans reach
    every row of ``planner.SHAPES`` and stage executables in.  Each Docker
    container then has an image URL of its own, as ``parse_catalog`` requires.
    Without it the draws, and so the models, are those the pinned executable
    digests were made from.
    """
    n_tasks = rng.randint(1, max_tasks)
    n_containers = rng.randint(0, max_containers)
    n_staging = rng.randint(1, max_staging_sites)
    local_share = cvmfs_share = stageable_share = 0.0
    shared_share = 0.3
    if every_shape:
        local_share, cvmfs_share, shared_share, stageable_share = (
            rng.choice([0.0, 0.5, 1.0]) for _ in range(4))

    containers: dict[str, ContainerDef] = {}
    for i in range(n_containers):
        runtime = rng.choice(RUNTIMES)
        local = (every_shape and runtime is not ContainerRuntime.SHIFTER
                 and rng.random() < local_share)
        image = IMAGE_URL[runtime]
        if local:
            image = f"file://{SITE_IMAGE_DIR}/c{i}.img"
        elif every_shape and runtime is ContainerRuntime.DOCKER:
            image = f"docker:///acme/tool{i}:latest"
        containers[f"c{i}"] = ContainerDef(
            name=f"c{i}",
            image=parse_image_url(image),
            runtime=runtime,
            image_size_bytes=rng.randint(1, 50) * 1_000_000,
            site_local=local,
        )

    sites: list[Site] = []
    for i in range(n_staging):
        sites.append(Site(name=f"staging{i}"))
    compute_sites = []
    for i in range(n_staging):
        s = Site(
            name=f"compute{i}",
            shared_fs=rng.random() < shared_share,
            staging_site=f"staging{i}",
            runtimes_available=frozenset(RUNTIMES),
            cvmfs_like_paths=(SITE_IMAGE_DIR,)
            if every_shape and rng.random() < cvmfs_share else (),
        )
        sites.append(s)
        compute_sites.append(s)

    transformations = []
    n_transforms = max(1, n_containers + 1)
    for i in range(n_transforms):
        cname = f"c{i}" if i < n_containers else None
        for s in compute_sites:
            stageable = every_shape and rng.random() < stageable_share
            transformations.append(TransformationEntry(
                namespace="ns", name=f"tool{i}", version="1.0", site=s.name,
                pfn=f"/opt/tool{i}", container=cname,
                install_type=InstallType.STAGEABLE if stageable else InstallType.INSTALLED,
            ))
    cat = Catalog(transformations=tuple(transformations), containers=containers)

    tasks = []
    edges = []
    files: dict[str, FileMeta] = {
        "seed.dat": FileMeta("seed.dat", 1_000_000, initial_location="http://x/seed.dat")
    }
    for i in range(n_tasks):
        inputs = ["seed.dat"]
        for j in range(i):
            if rng.random() < 0.08:
                inputs.append(f"out{j}")
                edges.append((f"t{j}", f"t{i}"))
        tasks.append(Task(
            id=f"t{i}",
            transformation=f"ns::tool{rng.randrange(n_transforms)}:1.0",
            inputs=tuple(inputs),
            outputs=(f"out{i}",),
            expected_runtime_s=rng.uniform(0.5, 3.0),
        ))
        files[f"out{i}"] = FileMeta(f"out{i}", rng.randint(1, 20) * 100_000)
    wf = AbstractWorkflow(tasks=tuple(tasks), edges=tuple(edges), files=files)
    return wf, cat, sites


def plan_random(rng: random.Random, *, every_shape: bool = False, **kwargs):
    """Plan a random model; ``every_shape`` also draws a placement override,
    bypass only when every Docker and Singularity container is site-local."""
    wf, cat, sites = make_random_model(rng, every_shape=every_shape, **kwargs)
    cfg = PlanConfig(cluster_size=rng.choice([1, 2, 4]),
                     output_site="staging0", cleanup=rng.random() < 0.5)
    if every_shape:
        overrides = [None, "copy", "symlink"]
        if all(c.site_local or c.runtime is ContainerRuntime.SHIFTER
               for c in cat.containers.values()):
            overrides.append("bypass")
        cfg = replace(cfg, placement_override=rng.choice(overrides))
    return plan(wf, cat, sites, cfg), wf, cat, sites, cfg


def random_model_topology(sites: list[Site], workers_per_site: int = 2) -> Topology:
    """A topology for ``make_random_model``'s sites, every pair of nodes linked.

    It has the submit node, one node named after each staging site and
    ``workers_per_site`` two-slot workers ``<site>/w<k>`` for each compute site.
    """
    nodes = [NodeSpec(s.name) for s in sites if not s.runtimes_available]
    nodes += [NodeSpec(f"{s.name}/w{k}", slots=2) for s in sites if s.runtimes_available
              for k in range(1, workers_per_site + 1)]
    names = ["submit"] + [n.name for n in nodes]
    links = {(a, b): 1e8 for a in names for b in names if a != b}
    return Topology(submit=NodeSpec("submit"), workers=tuple(nodes), links=links)


def serialize_topology(topo: Topology) -> str:
    """``topo`` as the topology document ``parse_topology`` reads."""
    doc = {
        "submit": write_record(topo.submit),
        "nfs": write_record(topo.nfs) if topo.nfs else None,
        "workers": [write_record(w) for w in topo.workers],
        "links": [write_record(LinkSpec(a, b, bw)) for (a, b), bw in topo.links.items()],
    }
    return dump_yaml(doc)


# --- measures the acceptance criteria are stated in ---------------------------

def saturation_window_s(res: SimResult, node: str, cap: float, frac: float = 0.95) -> int:
    """Longest contiguous run of 1-second buckets with egress >= frac * cap."""
    best = run = 0
    for v, count in res.per_node_egress.get(node, Runs()).runs():
        if v >= frac * cap:
            run += count
            best = max(best, run)
        else:
            run = 0
    return best


def mean_io_wait_ms(res: SimResult, nodes: list[str] | None = None) -> float:
    """The mean of the 1-second io-wait buckets of ``nodes``, all nodes by default."""
    total, n = 0.0, 0
    for node, series in sorted(res.per_node_io_wait_ms.items()):
        if nodes is not None and node not in nodes:
            continue
        for v, count in series.runs():
            total += v * count
            n += count
    return total / n if n else 0.0


def count_effects(report: ExecutionReport, effect: str) -> int:
    """How many steps of a mock run had ``effect``."""
    return sum(1 for jr in report.jobs.values() for s in jr.steps if s.effect == effect)
