"""Built-in demo scenario: a radar-nowcast style workflow at desk scale.

63 short compute tasks fan out from one shared radar volume and fan back in
through a single stage-out of their product grids.  The same workflow can run
without containers, with a Docker container (488 MB image) or a Singularity
container (153 MB image), against a 1 Gbps-capped submit node and four
24-slot workers, matching the shape used throughout the test suite.
"""

from __future__ import annotations

from .catalog import Catalog, ContainerRuntime, parse_catalog
from .planner import ExecutableWorkflow, PlanConfig, Site, plan
from .simulator import NodeSpec, SimConfig, Topology
from .workflow import AbstractWorkflow, FileMeta, Task

GBPS = 1.25e8  # bytes/s
DOCKER_IMAGE_BYTES = 488_000_000
SINGULARITY_IMAGE_BYTES = 153_000_000

COMPUTE_SITE = "condorpool"
SUBMIT_SITE = "submit"
NFS_SITE = "nfs"
TRANSFORMATION = "radar::nowcast:1.0"


def demo_workflow(
    n_tasks: int = 63,
    runtime_s: float = 5.0,
    input_bytes: int = 10_000_000,
    output_bytes: int = 1_000_000,
) -> AbstractWorkflow:
    """Independent short tasks sharing one staged-in input volume."""
    tasks = tuple(
        Task(
            id=f"nowcast{i:02d}",
            transformation=TRANSFORMATION,
            inputs=("radar_volume",),
            outputs=(f"grid{i:02d}",),
            expected_runtime_s=runtime_s,
        )
        for i in range(n_tasks)
    )
    files = {
        "radar_volume": FileMeta(
            "radar_volume", input_bytes, initial_location="http://ingest/radar_volume"
        )
    }
    for i in range(n_tasks):
        files[f"grid{i:02d}"] = FileMeta(f"grid{i:02d}", output_bytes)
    return AbstractWorkflow(tasks=tasks, edges=(), files=files)


_DEMO_IMAGES = {  # container -> (image URL, image size in bytes)
    "docker": ("docker:///imaging/radar-tools:latest", DOCKER_IMAGE_BYTES),
    "singularity": ("shub://singularity-hub.org/imaging/radar-tools", SINGULARITY_IMAGE_BYTES),
}


def demo_catalog(container: str | None = "docker") -> Catalog:
    """Catalog for the demo transformation; container in {docker, singularity, None}."""
    if container is not None and container not in _DEMO_IMAGES:
        raise ValueError(f"unknown demo container {container!r}")
    text = f"""
transformations:
  - namespace: radar
    name: nowcast
    version: "1.0"
    site:
      - name: {COMPUTE_SITE}
        arch: x86_64
        os: linux
        pfn: /usr/local/bin/nowcast
        type: INSTALLED
"""
    if container is not None:
        image, size = _DEMO_IMAGES[container]
        text += f"""        container: radar-tools
cont:
  - name: radar-tools
    image: "{image}"
    type: {container}
    image_size_bytes: {size}
"""
    return parse_catalog(text)


def demo_sites(shared_fs: bool = False) -> list[Site]:
    runtimes = frozenset(ContainerRuntime)
    return [
        Site(name=SUBMIT_SITE),
        Site(name=NFS_SITE, shared_fs=True),
        Site(
            name=COMPUTE_SITE,
            shared_fs=shared_fs,
            staging_site=NFS_SITE if shared_fs else SUBMIT_SITE,
            runtimes_available=runtimes,
        ),
    ]


def demo_topology(
    n_workers: int = 4,
    slots: int = 24,
    submit_bw: float = GBPS,
    worker_bw: float = 10 * GBPS,
    disk_untar_rate: float = 1e8,
) -> Topology:
    workers = tuple(
        NodeSpec(
            name=f"{COMPUTE_SITE}/w{i + 1}",
            slots=slots,
            disk_untar_rate=disk_untar_rate,
        )
        for i in range(n_workers)
    )
    links: dict[tuple[str, str], float] = {}
    for w in workers:
        links[(SUBMIT_SITE, w.name)] = submit_bw
        links[(w.name, SUBMIT_SITE)] = submit_bw
        links[(NFS_SITE, w.name)] = worker_bw
        links[(w.name, NFS_SITE)] = worker_bw
    links[(SUBMIT_SITE, NFS_SITE)] = submit_bw
    links[(NFS_SITE, SUBMIT_SITE)] = submit_bw
    return Topology(
        submit=NodeSpec(name=SUBMIT_SITE, slots=1),
        nfs=NodeSpec(name=NFS_SITE, slots=1),
        workers=workers,
        links=links,
    )


def demo_plan(
    container: str | None = "docker",
    cluster_size: int = 1,
    shared_fs: bool = False,
    cleanup: bool = False,
    n_tasks: int = 63,
) -> ExecutableWorkflow:
    wf = demo_workflow(n_tasks=n_tasks)
    cat = demo_catalog(container)
    sites = demo_sites(shared_fs=shared_fs)
    cfg = PlanConfig(
        cluster_size=cluster_size, output_site=SUBMIT_SITE, cleanup=cleanup
    )
    return plan(wf, cat, sites, cfg)


def demo_scenarios(cluster_sizes: tuple[int, ...] = (1, 12)) -> list[tuple]:
    """(label, ewf, topo, cfg) rows for the standard comparison sweep."""
    topo = demo_topology()
    cfg = SimConfig()
    rows = []
    for container in (None, "docker", "singularity"):
        for k in cluster_sizes:
            label = f"{container or 'none'}_k{k}"
            rows.append((label, demo_plan(container, cluster_size=k), topo, cfg))
    return rows
