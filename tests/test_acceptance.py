"""Acceptance gate: one test per shipped criterion, one printed line each.

Run with ``pytest -v tests/test_acceptance.py``; every test prints
``criterion N: PASS|FAIL - <label>`` on the terminal regardless of capture.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from contflow.catalog import (
    ContainerRuntime,
    ImageScheme,
    InstallType,
    MountSpec,
    parse_catalog,
)
from contflow.launcher import (
    JOB_DIR_MOUNT,
    StepKind,
    build_plans,
    build_wrapper_plan,
    execute_local,
    render_wrapper,
)
from contflow.planner import JobKind, PlacementMode
from contflow.scenarios import (
    DOCKER_IMAGE_BYTES,
    GBPS,
    demo_plan,
    demo_topology,
)
from contflow.simulator import SimConfig, report, simulate

from conftest import (
    GOLDEN,
    TRANSFERABLE_PLACEMENTS,
    count_effects,
    mean_io_wait_ms,
    plan_random,
    saturation_window_s,
)
from test_launcher import make_cdef, make_job
from test_planner import _reachability


@contextmanager
def criterion(n: int, label: str, capfd):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"criterion {n}: FAIL - {label}")
        raise
    with capfd.disabled():
        print(f"criterion {n}: PASS - {label}")


@pytest.fixture(scope="module")
def sim_results():
    """Simulated makespans for the standard comparison matrix (shared)."""
    topo = demo_topology()
    out = {}
    for container in (None, "docker", "singularity"):
        for k in (1, 12):
            ewf = demo_plan(container, cluster_size=k)
            out[(container, k)] = simulate(ewf, topo, SimConfig())
    return out


def test_criterion_1_catalog_fidelity(capfd, listing_text):
    with criterion(1, "catalog fidelity for the published listing", capfd):
        cat = parse_catalog(listing_text)
        entry = cat.transformations[0]
        assert entry.logical_id == "example::keg:1.0"
        assert entry.site == "isi"
        assert entry.install_type is InstallType.INSTALLED
        assert entry.container == "centos-pegasus"
        cdef = cat.containers["centos-pegasus"]
        assert cdef.runtime is ContainerRuntime.DOCKER
        assert cdef.image.scheme is ImageScheme.DOCKER
        assert cdef.image.url() == "docker:///rynge/montage:latest"
        assert cdef.mounts == (
            MountSpec("/Volumes/Work/lfs1", "/shared-data/", ("ro",)),
        )
        assert cdef.profiles == {"JAVA_HOME": "/bin/java.1.6"}


def test_criterion_2_fetch_dedup_property(capfd):
    with criterion(2, "one fetch job per (container, staging site)", capfd):
        for seed in range(200):
            rng = random.Random(seed)
            ewf, wf, cat, sites, cfg = plan_random(
                rng, max_tasks=50, max_containers=3, max_staging_sites=2
            )
            fetches = ewf.jobs_of_kind(JobKind.CONTAINER_FETCH)
            # brute-force oracle over the compute payloads
            pairs = {
                (j.payload.container, j.payload.staging_site)
                for j in ewf.jobs_of_kind(JobKind.COMPUTE)
                if j.payload.container is not None
                and j.payload.placement in TRANSFERABLE_PLACEMENTS
            }
            assert len(fetches) == len(pairs)
            shifter = {
                name for name, c in cat.containers.items()
                if c.runtime is ContainerRuntime.SHIFTER
            }
            fetched = {f.id.split("_")[1] for f in fetches}
            assert not (fetched & shifter)


def test_criterion_3_wrapper_laws_and_goldens(capfd):
    with criterion(3, "mount-point/step-order laws and golden stability", capfd):
        rng = random.Random(42)
        for _ in range(500):
            runtime = rng.choice(list(ContainerRuntime))
            placement = (
                PlacementMode.SHIFTER_LOCAL
                if runtime is ContainerRuntime.SHIFTER
                else rng.choice([PlacementMode.STAGE_COPY,
                                 PlacementMode.SHARED_FS_SYMLINK])
            )
            cfg = dict(
                staging_inside=rng.random() < 0.5,
                dedup_load=rng.random() < 0.5,
            )
            plan = build_wrapper_plan(make_job(runtime, placement), make_cdef(runtime), **cfg)
            assert plan.mounts[0].dst == JOB_DIR_MOUNT[runtime]
            kinds = [s.kind for s in plan.host_steps]
            assert kinds[0] is StepKind.CREATE_JOB_DIR
            assert kinds[-1] is StepKind.REMOVE_JOB_DIR
            want = [
                StepKind.CREATE_JOB_DIR, StepKind.MATERIALIZE_IMAGE,
                StepKind.LOAD_IMAGE, StepKind.START_CONTAINER,
                StepKind.STOP_CONTAINER, StepKind.REMOVE_JOB_DIR,
            ]
            positions = [kinds.index(k) for k in want if k in kinds]
            assert positions == sorted(positions)

        golden = {
            "wrapper_docker.sh": (
                make_cdef(ContainerRuntime.DOCKER,
                          image="docker:///acme/tools:1.2",
                          mounts=(MountSpec("/data", "/shared-data", ("ro",)),),
                          profiles={"JAVA_HOME": "/opt/java"}),
                PlacementMode.STAGE_COPY,
            ),
            "wrapper_singularity.sh": (
                make_cdef(ContainerRuntime.SINGULARITY,
                          image="shub://hub.example.org/acme/tools"),
                PlacementMode.SHARED_FS_SYMLINK,
            ),
            "wrapper_shifter.sh": (
                make_cdef(ContainerRuntime.SHIFTER,
                          image="shifter:///acme/tools:1.2"),
                PlacementMode.SHIFTER_LOCAL,
            ),
        }
        for fname, (cdef, placement) in golden.items():
            plan = build_wrapper_plan(make_job(cdef.runtime, placement), cdef)
            assert render_wrapper(plan) == (GOLDEN / fname).read_text()


def test_criterion_4_clustering_oracle(capfd):
    with criterion(4, "63/k=12 -> 6 clusters; flattening keeps precedence", capfd):
        ewf = demo_plan("docker", cluster_size=12)
        assert len(ewf.jobs_of_kind(JobKind.COMPUTE)) == 6  # ceil(63/12)

        for seed in range(100):
            rng = random.Random(7000 + seed)
            ewf, wf, cat, sites, cfg = plan_random(rng, max_tasks=30)
            flattened = [
                t for j in sorted(ewf.jobs_of_kind(JobKind.COMPUTE),
                                  key=lambda j: j.id)
                for t in j.payload.task_ids
            ]
            assert sorted(flattened) == sorted(t.id for t in wf.tasks)
            owner = {
                t: j.id
                for j in ewf.jobs_of_kind(JobKind.COMPUTE)
                for t in j.payload.task_ids
            }
            jobs = {j.id: j for j in ewf.jobs}
            reach = _reachability(ewf)
            for u, v in wf.effective_edges():
                if owner[u] == owner[v]:
                    tasks = jobs[owner[u]].payload.task_ids
                    assert tasks.index(u) < tasks.index(v)
                else:
                    assert owner[v] in reach[owner[u]]


def test_criterion_5_experiment_trends(capfd, sim_results):
    with criterion(5, "none < singularity < docker; ratio >= 2; k=12 < k=1",
                   capfd):
        none_1 = sim_results[(None, 1)].makespan_s
        sing_1 = sim_results[("singularity", 1)].makespan_s
        dock_1 = sim_results[("docker", 1)].makespan_s
        assert none_1 < sing_1 < dock_1
        assert dock_1 / none_1 >= 2.0
        assert sim_results[("docker", 12)].makespan_s < dock_1
        assert sim_results[("singularity", 12)].makespan_s < sing_1


def test_criterion_6_network_saturation(capfd, sim_results):
    with criterion(6, "sustained submit-link saturation at k=1 vs k=12", capfd):
        window_k1 = saturation_window_s(sim_results[("docker", 1)], "submit", GBPS)
        window_k12 = saturation_window_s(sim_results[("docker", 12)], "submit", GBPS)
        assert window_k1 >= 5 * max(window_k12, 1)


def test_criterion_7_symlink_optimization(capfd, sim_results):
    with criterion(7, "symlink ships one image; untar inflation is Docker-only",
                   capfd):
        topo = demo_topology()
        workers = [w.name for w in topo.workers]
        docker_link = simulate(demo_plan("docker", shared_fs=True),
                               topo, SimConfig())
        sing_link = simulate(demo_plan("singularity", shared_fs=True),
                             topo, SimConfig())
        assert docker_link.container_bytes_from("submit") == \
            pytest.approx(DOCKER_IMAGE_BYTES)
        baseline = mean_io_wait_ms(sim_results[(None, 1)], workers)
        assert mean_io_wait_ms(docker_link, workers) > 1.2 * baseline
        assert mean_io_wait_ms(sing_link, workers) < 1.2 * baseline


def test_criterion_8_conservation_and_determinism(capfd, tmp_path):
    with criterion(8, "byte conservation on 100 random sims; seeded reruns "
                      "byte-identical", capfd):
        topo = demo_topology()
        rng = random.Random(99)
        for i in range(100):
            ewf = demo_plan(
                container=rng.choice([None, "docker", "singularity"]),
                cluster_size=rng.choice([1, 3, 12]),
                shared_fs=rng.random() < 0.5,
                n_tasks=rng.randint(5, 30),
            )
            res = simulate(ewf, topo, SimConfig())
            ledger_total = sum(f.bytes for f in res.flow_ledger)
            assert sum(res.egress_totals.values()) == pytest.approx(ledger_total)
            assert sum(res.ingress_totals.values()) == pytest.approx(ledger_total)

        ewf = demo_plan("docker", cluster_size=12)
        files_a = report(simulate(ewf, topo, SimConfig()), tmp_path / "a")
        files_b = report(simulate(ewf, topo, SimConfig()), tmp_path / "b")
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()


def test_criterion_9_docker_load_dedup(capfd):
    with criterion(9, "12 co-located jobs: 1 load with dedup, 12 without",
                   capfd):
        from test_launcher import shared_image_workflow
        ewf, cat = shared_image_workflow(12)
        on = execute_local(
            ewf, build_plans(ewf, cat, dedup_load=True),
            slots=8, node_count=1,
        )
        off = execute_local(
            ewf, build_plans(ewf, cat, dedup_load=False),
            slots=8, node_count=1,
        )
        assert count_effects(on, "load") == 1
        assert count_effects(off, "load") == 12
