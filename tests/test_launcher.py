"""Wrapper plans, rendered scripts and the mock executor."""

from __future__ import annotations

import importlib.util
import random
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contflow.catalog import (
    ContainerDef, ContainerRuntime, MountSpec, parse_catalog, parse_image_url,
    serialize_catalog,
)
from contflow.cli import main
from contflow.errors import CycleDetected, InconsistentPlacement, ValidationError
from contflow.launcher import (
    JOB_DIR_MOUNT,
    Step,
    StepKind,
    build_plans,
    build_wrapper_plan,
    execute_local,
    render_wrapper,
)
from contflow.planner import (
    CleanupPayload,
    ComputePayload,
    ExecutableWorkflow,
    Job,
    JobKind,
    PlacementMode,
    PlanConfig,
    SHAPES,
    bypass_refusal,
    parse_executable,
    plan,
)
from contflow.scenarios import demo_catalog, demo_sites, demo_topology, demo_workflow
from contflow.simulator import SimConfig, _Engine

from conftest import GOLDEN, IMAGE_URL, count_effects, plan_random, random_model_topology


def make_job(runtime=ContainerRuntime.DOCKER, placement=PlacementMode.STAGE_COPY,
             jid="demo-job", tasks=("task01",)):
    """A compute job of shape (runtime, placement); runtime None has no container."""
    return Job(
        id=jid, kind=JobKind.COMPUTE, site="compute",
        payload=ComputePayload(
            task_ids=tuple(tasks), container="tools" if runtime else None,
            placement=placement, backend=runtime, staging_site="staging0", runtime_s=2.0,
            image_bytes=1000,
            input_files=(("in.dat", 100),), output_files=(("out.dat", 200),),
        ),
    )


def make_cdef(runtime=ContainerRuntime.DOCKER, **kw):
    return ContainerDef(
        name="tools",
        image=parse_image_url(kw.pop("image", IMAGE_URL[runtime])),
        runtime=runtime,
        image_size_bytes=1000,
        **kw,
    )


def step_kinds(steps):
    return [s.kind for s in steps]


class TestBuildWrapperPlan:
    def test_docker_stage_copy_step_order(self):
        plan = build_wrapper_plan(make_job(), make_cdef())
        assert step_kinds(plan.host_steps) == [
            StepKind.CREATE_JOB_DIR, StepKind.MATERIALIZE_IMAGE,
            StepKind.LOAD_IMAGE, StepKind.ENSURE_USER, StepKind.START_CONTAINER,
            StepKind.STOP_CONTAINER, StepKind.UNLOAD_IMAGE, StepKind.REMOVE_JOB_DIR,
        ]
        assert step_kinds(plan.container_steps) == [
            StepKind.WORKER_SETUP, StepKind.ENV_SETUP, StepKind.STAGE_IN,
            StepKind.LAUNCH_TASK, StepKind.STAGE_OUT,
        ]
        assert plan.mounts[0].dst == "/scratch"

    def test_singularity_symlink(self):
        plan = build_wrapper_plan(
            make_job(ContainerRuntime.SINGULARITY, PlacementMode.SHARED_FS_SYMLINK),
            make_cdef(ContainerRuntime.SINGULARITY),
        )
        kinds = step_kinds(plan.host_steps)
        assert StepKind.LOAD_IMAGE not in kinds
        assert StepKind.ENSURE_USER not in kinds
        assert StepKind.STOP_CONTAINER not in kinds
        materialize = next(
            s for s in plan.host_steps if s.kind is StepKind.MATERIALIZE_IMAGE
        )
        assert materialize.args["mode"] == "symlink"
        assert plan.mounts[0].dst == "/srv"

    def test_shifter_no_materialization(self):
        plan = build_wrapper_plan(
            make_job(ContainerRuntime.SHIFTER, PlacementMode.SHIFTER_LOCAL),
            make_cdef(ContainerRuntime.SHIFTER),
        )
        assert StepKind.MATERIALIZE_IMAGE not in step_kinds(plan.host_steps)
        assert plan.mounts[0].dst == "/scratch"

    def test_no_container_runs_on_host(self):
        plan = build_wrapper_plan(make_job(None, None), None)
        assert plan.backend is None
        assert plan.container_steps == ()
        assert plan.mounts == ()
        kinds = step_kinds(plan.host_steps)
        assert kinds[0] is StepKind.CREATE_JOB_DIR
        assert kinds[-1] is StepKind.REMOVE_JOB_DIR
        assert StepKind.LAUNCH_TASK in kinds

    @pytest.mark.parametrize("runtime, placement, with_cdef", [
        (ContainerRuntime.DOCKER, PlacementMode.STAGE_COPY, False),
        (None, None, True),
    ], ids=["container-without-definition", "definition-without-container"])
    def test_definition_must_match_the_payload(self, runtime, placement, with_cdef):
        with pytest.raises(InconsistentPlacement) as exc:
            build_wrapper_plan(make_job(runtime, placement), make_cdef() if with_cdef else None)
        assert str(exc.value) == "job 'demo-job': container definition does not match payload"

    def test_staging_outside_container(self):
        plan = build_wrapper_plan(make_job(), make_cdef(), staging_inside=False)
        host = step_kinds(plan.host_steps)
        assert host.index(StepKind.STAGE_IN) < host.index(StepKind.START_CONTAINER)
        assert host.index(StepKind.STAGE_OUT) > host.index(StepKind.STOP_CONTAINER)
        assert StepKind.STAGE_IN not in step_kinds(plan.container_steps)

    def test_clustered_job_single_stagein_many_launches(self):
        plan = build_wrapper_plan(make_job(tasks=("a", "b", "c")), make_cdef())
        kinds = step_kinds(plan.container_steps)
        assert kinds.count(StepKind.STAGE_IN) == 1
        launches = [s.args["task"] for s in plan.container_steps
                    if s.kind is StepKind.LAUNCH_TASK]
        assert launches == ["a", "b", "c"]

    def test_mount_and_order_laws_randomized(self):
        rng = random.Random(11)
        order = [
            StepKind.CREATE_JOB_DIR, StepKind.MATERIALIZE_IMAGE,
            StepKind.LOAD_IMAGE, StepKind.START_CONTAINER,
            StepKind.STOP_CONTAINER, StepKind.REMOVE_JOB_DIR,
        ]
        for i in range(500):
            runtime = rng.choice(list(ContainerRuntime))
            placement = {
                ContainerRuntime.SHIFTER: PlacementMode.SHIFTER_LOCAL,
                ContainerRuntime.DOCKER: rng.choice(
                    [PlacementMode.STAGE_COPY, PlacementMode.SHARED_FS_SYMLINK]),
                ContainerRuntime.SINGULARITY: rng.choice(
                    [PlacementMode.STAGE_COPY, PlacementMode.SHARED_FS_SYMLINK]),
            }[runtime]
            cfg = dict(
                staging_inside=rng.random() < 0.5,
                dedup_load=rng.random() < 0.5,
            )
            plan = build_wrapper_plan(
                make_job(runtime, placement,
                         tasks=tuple(f"t{j}" for j in range(rng.randint(1, 4)))),
                make_cdef(runtime), **cfg,
            )
            assert plan.mounts[0].dst == JOB_DIR_MOUNT[runtime]
            kinds = step_kinds(plan.host_steps)
            assert kinds[0] is StepKind.CREATE_JOB_DIR
            assert kinds[-1] is StepKind.REMOVE_JOB_DIR
            positions = [kinds.index(k) for k in order if k in kinds]
            assert positions == sorted(positions)
            assert (StepKind.ENSURE_USER in kinds) == \
                (runtime is ContainerRuntime.DOCKER)


class TestRenderWrapper:
    def test_deterministic(self):
        plan = build_wrapper_plan(make_job(), make_cdef())
        assert render_wrapper(plan) == render_wrapper(plan)

    @pytest.mark.parametrize("fname,runtime,placement", [
        ("wrapper_docker.sh", ContainerRuntime.DOCKER, PlacementMode.STAGE_COPY),
        ("wrapper_singularity.sh", ContainerRuntime.SINGULARITY,
         PlacementMode.SHARED_FS_SYMLINK),
        ("wrapper_shifter.sh", ContainerRuntime.SHIFTER, PlacementMode.SHIFTER_LOCAL),
    ])
    def test_golden_scripts(self, fname, runtime, placement):
        kwargs = {}
        if runtime is ContainerRuntime.DOCKER:
            kwargs = {
                "image": "docker:///acme/tools:1.2",
                "mounts": (MountSpec("/data", "/shared-data", ("ro",)),),
                "profiles": {"JAVA_HOME": "/opt/java"},
            }
        elif runtime is ContainerRuntime.SHIFTER:
            kwargs = {"image": "shifter:///acme/tools:1.2"}
        else:
            kwargs = {"image": "shub://hub.example.org/acme/tools"}
        plan = build_wrapper_plan(make_job(runtime, placement),
                                  make_cdef(runtime, **kwargs))
        assert render_wrapper(plan) == (GOLDEN / fname).read_text()

    def test_golden_script_staging_outside_without_dedup(self):
        cdef = make_cdef(image="docker:///acme/tools:1.2",
                         mounts=(MountSpec("/data", "/shared-data", ("ro",)),),
                         profiles={"JAVA_HOME": "/opt/java"})
        plan = build_wrapper_plan(make_job(), cdef, staging_inside=False, dedup_load=False)
        assert render_wrapper(plan) == \
            (GOLDEN / "wrapper_docker_staging_outside.sh").read_text()

    def test_dedup_guard_present_iff_flag(self):
        job, cdef = make_job(), make_cdef()
        guarded = render_wrapper(build_wrapper_plan(job, cdef, dedup_load=True))
        plain = render_wrapper(build_wrapper_plan(job, cdef, dedup_load=False))
        assert "flock" in guarded
        assert "flock" not in plain
        assert "docker load -i" in plain


class TestDockerBypass:
    """A bypassed Docker image is loaded from the site's own path."""

    SITE_IMAGE = "file:///cvmfs/radar/radar-tools.tar"

    @pytest.fixture
    def bypassed(self):
        cat = demo_catalog("docker")
        cat = replace(cat, containers={name: replace(
            cdef, image=parse_image_url(self.SITE_IMAGE), site_local=True,
        ) for name, cdef in cat.containers.items()})
        ewf = plan(demo_workflow(), cat, demo_sites(),
                   PlanConfig(cleanup=False, placement_override="bypass"))
        return ewf, build_plans(ewf, cat)

    def test_wrapper_loads_from_the_site_path(self, bypassed):
        _, plans = bypassed
        script = render_wrapper(plans["compute_nowcast00"])
        assert f'docker load -i "$(image_path {self.SITE_IMAGE})"' in script
        assert "docker load -i image" not in script
        assert "fetch-image" not in script and "ln -s" not in script

    def test_simulator_queues_one_untar_per_worker(self, bypassed):
        ewf, _ = bypassed
        topo = demo_topology()
        engine = _Engine(ewf, topo, SimConfig())
        engine.run()
        workers = [n.name for n in topo.workers]
        assert {n: len(engine.untar_records[n]) for n in workers} == dict.fromkeys(workers, 1)

    def test_mock_run_loads_once_per_node(self, bypassed):
        ewf, plans = bypassed
        report = execute_local(ewf, plans, slots=8, node_count=4)
        assert not report.error
        assert count_effects(report, "load") == 4
        assert count_effects(report, "cache-hit") == len(plans) - 4

    @pytest.mark.parametrize("site_local, image", [
        (False, SITE_IMAGE), (True, "docker:///imaging/radar-tools:latest"),
    ], ids=["not-site-local", "registry-image"])
    def test_catalog_that_plan_would_not_bypass_is_refused(self, bypassed, site_local, image):
        """build_plans applies the planner's bypass rule to the catalog it is given."""
        ewf, _ = bypassed
        cat = demo_catalog("docker")
        cat = replace(cat, containers={name: replace(
            cdef, image=parse_image_url(image), site_local=site_local,
        ) for name, cdef in cat.containers.items()})
        refusal = bypass_refusal(cat.containers["radar-tools"])
        assert refusal is not None
        with pytest.raises(InconsistentPlacement) as exc:
            plan(demo_workflow(), cat, demo_sites(), PlanConfig(placement_override="bypass"))
        assert str(exc.value) == f"task 'nowcast00': {refusal}"
        with pytest.raises(InconsistentPlacement) as exc:
            build_plans(ewf, cat)
        assert str(exc.value) == f"job 'compute_nowcast00': {refusal}"


def plan_shape(backend, placement, n_tasks=6):
    """The demo planned so that every compute job has shape (backend, placement)."""
    cat = demo_catalog(None if backend is None else "docker")
    bypass = placement is PlacementMode.BYPASS
    if backend is not None:
        image = "file:///cvmfs/radar/radar-tools.img" if bypass else IMAGE_URL[backend]
        cat = replace(cat, containers={name: replace(
            cdef, runtime=backend, image=parse_image_url(image), site_local=bypass,
        ) for name, cdef in cat.containers.items()})
    ewf = plan(demo_workflow(n_tasks=n_tasks), cat,
               demo_sites(shared_fs=placement is PlacementMode.SHARED_FS_SYMLINK),
               PlanConfig(cleanup=False, placement_override="bypass" if bypass else None))
    assert {(j.payload.backend, j.payload.placement)
            for j in ewf.jobs_of_kind(JobKind.COMPUTE)} == {(backend, placement)}
    return ewf, cat


def layer_counts(ewf, cat, topo, staging_inside, *, dedup=False, node_count=None):
    """Image loads, as the wrappers (with load dedup off), mock run and
    simulator see them, and what the wrapper plans and the simulator move to
    and from workers: image copies, image bytes, stage-in and stage-out bytes."""
    plans = build_plans(ewf, cat, staging_inside=staging_inside, dedup_load=dedup)
    jobs = {j.id: j for j in ewf.jobs}
    steps = [(jobs[job_id], s) for job_id, plan in plans.items()
             for s in plan.host_steps + plan.container_steps]
    engine = _Engine(ewf, topo, SimConfig(docker_load_dedup=dedup))
    ledger = engine.run().flow_ledger
    mock = execute_local(ewf, plans, slots=4, node_count=node_count or len(topo.workers))
    loads = {
        "mock": count_effects(mock, "load"),
        "simulator": sum(len(records) for records in engine.untar_records.values()),
    }
    if not dedup:
        loads["wrapper"] = sum(s.kind is StepKind.LOAD_IMAGE for _, s in steps)
    pulled = [job.payload.image_bytes for job, s in steps
              if s.kind is StepKind.MATERIALIZE_IMAGE and s.args["mode"] == "pull"]
    copies = [f.bytes for f in ledger if f.kind == "container" and "/" in f.dst]

    def staged(kind):
        return sum(size for _, s in steps if s.kind is kind for _, size in s.args["files"])

    def flowed(kind):
        return sum(f.bytes for f in ledger if f.kind == kind)

    moved = {
        "wrapper": (len(pulled), sum(pulled), staged(StepKind.STAGE_IN),
                    staged(StepKind.STAGE_OUT)),
        "simulator": (len(copies), sum(copies), flowed("data_in"), flowed("data_out")),
    }
    return loads, moved


def assert_inputs_reach_their_jobs(ewf):
    """Every file a compute job stages in is made by an ancestor, or carried to
    the job's staging site by a stage-in job among its ancestors."""
    parents = ewf.parents()
    jobs = {j.id: j for j in ewf.jobs}
    for job in ewf.jobs_of_kind(JobKind.COMPUTE):
        ancestors, todo = set(), list(parents[job.id])
        while todo:
            u = todo.pop()
            if u not in ancestors:
                ancestors.add(u)
                todo.extend(parents[u])
        made = {f for u in ancestors if jobs[u].kind is JobKind.COMPUTE
                for f, _ in jobs[u].payload.output_files}
        carried = {dst for u in ancestors if jobs[u].kind is JobKind.STAGE_IN
                   for _, dst, _ in jobs[u].payload.transfers}
        staging = f"file:///staging/{job.payload.staging_site}/"
        for f, _ in job.payload.input_files:
            assert f in made or staging + f in carried, (job.id, f)


class TestLayersAgreeOnShapes:
    """Wrappers, mock run and simulator load and copy the image alike."""

    @pytest.mark.parametrize("staging_inside", [True, False])
    @pytest.mark.parametrize("backend, placement", list(SHAPES), ids=lambda k: getattr(
        k, "value", "none"))
    def test_every_row(self, backend, placement, staging_inside):
        ewf, cat = plan_shape(backend, placement)
        loads, moved = layer_counts(ewf, cat, demo_topology(n_workers=2), staging_inside)
        shape = SHAPES[backend, placement]
        n = len(ewf.jobs_of_kind(JobKind.COMPUTE))
        assert loads == dict.fromkeys(loads, n if shape.load else 0)
        assert moved["wrapper"] == moved["simulator"]
        assert moved["wrapper"][0] == (n if shape.materialize == "pull" else 0)

    @pytest.mark.parametrize("dedup", [False, True], ids=["no-dedup", "dedup"])
    def test_random_models_reaching_every_shape(self, dedup):
        """On one worker, so a deduplicated load happens once per image in every layer."""
        reached = set()
        for seed in range(50):
            rng = random.Random(seed)
            ewf, _, cat, sites, _ = plan_random(rng, max_tasks=20, max_staging_sites=1,
                                                every_shape=True)
            reached.update((j.payload.backend, j.payload.placement)
                           for j in ewf.jobs_of_kind(JobKind.COMPUTE))
            assert_inputs_reach_their_jobs(ewf)
            loads, moved = layer_counts(
                ewf, parse_catalog(serialize_catalog(cat)),
                random_model_topology(sites, workers_per_site=1), rng.random() < 0.5,
                dedup=dedup, node_count=1)
            assert len(set(loads.values())) == 1, (seed, loads)
            assert moved["wrapper"] == moved["simulator"], (seed, moved)
        assert reached == set(SHAPES)


def shared_image_workflow(n_jobs=12):
    from contflow.catalog import Catalog, TransformationEntry
    cat = Catalog(
        transformations=(
            TransformationEntry(namespace="ns", name="tool", version="1",
                                site="compute", pfn="/opt/tool", container="tools"),
        ),
        containers={"tools": make_cdef()},
    )
    jobs = tuple(
        Job(id=f"j{i:02d}", kind=JobKind.COMPUTE, site="compute",
            payload=ComputePayload(
                task_ids=(f"t{i}",), container="tools",
                placement=PlacementMode.STAGE_COPY,
                backend=ContainerRuntime.DOCKER, staging_site="staging0",
                runtime_s=0.0, image_bytes=1000,
            ))
        for i in range(n_jobs)
    )
    return ExecutableWorkflow(jobs=jobs), cat


def with_malformed_load(plan):
    """``plan`` with a load step that lacks its image argument, so it raises KeyError."""
    return replace(plan, host_steps=tuple(
        Step(StepKind.LOAD_IMAGE, {}) if s.kind is StepKind.LOAD_IMAGE else s
        for s in plan.host_steps
    ))


class TestExecuteLocal:
    def test_three_job_chain_order(self):
        ewf, cat = shared_image_workflow(3)
        ewf = ExecutableWorkflow(jobs=ewf.jobs, edges=(("j00", "j01"), ("j01", "j02")))
        plans = build_plans(ewf, cat)
        report = execute_local(ewf, plans, slots=4)
        assert not report.error
        ends = {
            jid: max(s.started + 1 for s in jr.steps)
            for jid, jr in report.jobs.items()
        }
        starts = {
            jid: min(s.started for s in jr.steps)
            for jid, jr in report.jobs.items()
        }
        assert ends["j00"] <= starts["j01"] <= ends["j01"] <= starts["j02"]

    def test_dedup_one_load_for_colocated_jobs(self):
        ewf, cat = shared_image_workflow(12)
        plans = build_plans(ewf, cat, dedup_load=True)
        report = execute_local(ewf, plans, slots=8, node_count=1)
        assert count_effects(report, "load") == 1
        assert count_effects(report, "cache-hit") == 11

    def test_no_dedup_loads_every_time(self):
        ewf, cat = shared_image_workflow(12)
        plans = build_plans(ewf, cat, dedup_load=False)
        report = execute_local(ewf, plans, slots=8, node_count=1)
        assert count_effects(report, "load") == 12

    def test_injected_failure_skips_downstream(self):
        ewf, cat = shared_image_workflow(3)
        ewf = ExecutableWorkflow(jobs=ewf.jobs, edges=(("j00", "j01"), ("j01", "j02")))
        plans = build_plans(ewf, cat)
        report = execute_local(ewf, plans, fail_step=("j00", StepKind.STAGE_IN))
        assert report.error == "job j00: step stage-in failed: injected failure at stage-in"
        assert report.jobs["j00"].status == "failed"
        assert report.jobs["j00"].steps[-1].kind is StepKind.STAGE_IN
        assert report.jobs["j01"].status == "skipped"
        assert report.jobs["j02"].status == "skipped"

    def test_raising_step_fails_job_instead_of_hanging(self):
        ewf, cat = shared_image_workflow(3)
        ewf = ExecutableWorkflow(jobs=ewf.jobs, edges=(("j00", "j01"), ("j01", "j02")))
        plans = build_plans(ewf, cat)
        plans["j00"] = with_malformed_load(plans["j00"])
        report = run_within(lambda: execute_local(ewf, plans), timeout=10)
        assert report.error == "job j00: step load-image failed: KeyError: 'image'"
        assert report.jobs["j00"].status == "failed"
        assert report.jobs["j00"].steps[-1].kind is StepKind.LOAD_IMAGE
        assert report.jobs["j01"].status == "skipped"
        assert report.jobs["j02"].status == "skipped"

    def test_error_is_the_first_failure_in_dispatch_order(self):
        ewf, cat = shared_image_workflow(4)
        plans = build_plans(ewf, cat)
        assert execute_local(ewf, plans).error == ""
        # one slot runs j02, j03, j01, j00: j00 fails last though its id is smallest
        ewf = ExecutableWorkflow(jobs=ewf.jobs, edges=(("j03", "j01"), ("j01", "j00")))
        plans["j00"] = with_malformed_load(plans["j00"])
        report = execute_local(ewf, plans, slots=1, fail_step=("j02", StepKind.STAGE_IN))
        assert [jid for jid, jr in report.jobs.items() if jr.status == "failed"] == ["j02", "j00"]
        assert report.error == "job j02: step stage-in failed: injected failure at stage-in"

    @pytest.mark.parametrize("bad", [
        {"slots": 0}, {"node_count": 0},
        {"fail_step": ("ghost", StepKind.STAGE_IN)},
        {"fail_step": ("a", StepKind.STAGE_IN)},
    ], ids=["slots", "node-count", "unknown-job", "step-the-job-lacks"])
    def test_bad_settings_raise_before_any_job_runs(self, bad):
        """Each is refused up front, so a cycle the rounds would find stays unseen."""
        jobs = tuple(
            Job(id=jid, kind=JobKind.CLEANUP, site="submit",
                payload=CleanupPayload(target_job=""))
            for jid in ("a", "b")
        )
        ewf = ExecutableWorkflow(jobs=jobs, edges=(("a", "b"), ("b", "a")))
        with pytest.raises(ValidationError) as exc:
            execute_local(ewf, {}, **bad)
        assert not isinstance(exc.value, CycleDetected)

    def test_staging_outside_runs_every_in_container_step(self):
        ewf, cat = shared_image_workflow(2)
        clustered = make_job(jid="j02", tasks=("a", "b", "c"))
        plain = make_job(None, None, jid="j03", tasks=("d", "e"))
        ewf = ExecutableWorkflow(jobs=ewf.jobs + (clustered, plain))
        plans = build_plans(ewf, cat, staging_inside=False)
        report = execute_local(ewf, plans)
        assert not report.error
        for job in ewf.jobs:
            ran = [s.kind for s in report.jobs[job.id].steps]
            assert ran.count(StepKind.WORKER_SETUP) == 1
            assert ran.count(StepKind.ENV_SETUP) == 1
            assert ran.count(StepKind.LAUNCH_TASK) == len(job.payload.task_ids)
            assert ran.count(StepKind.STAGE_IN) == ran.count(StepKind.STAGE_OUT) == 1
            if job.payload.container:
                assert (ran.index(StepKind.STAGE_IN) < ran.index(StepKind.START_CONTAINER)
                        < ran.index(StepKind.WORKER_SETUP) < ran.index(StepKind.STOP_CONTAINER)
                        < ran.index(StepKind.STAGE_OUT))

    @pytest.mark.parametrize("fail_step", [None, ("a", StepKind.LAUNCH_TASK)],
                             ids=["no-failure", "failure-before-the-cycle"])
    def test_cycle_raises_cycle_detected(self, fail_step):
        """A cycle raises CycleDetected, also when a step failed before it."""
        jobs = tuple(
            Job(id=jid, kind=JobKind.CLEANUP, site="submit",
                payload=CleanupPayload(target_job=""))
            for jid in ("a", "b", "c")
        )
        ewf = ExecutableWorkflow(jobs=jobs,
                                 edges=(("a", "b"), ("b", "c"), ("c", "b")))
        with pytest.raises(CycleDetected) as exc:
            execute_local(ewf, {}, fail_step=fail_step)
        assert exc.value.cycle == ["b", "c", "b"]

    def test_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("execute_local started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        ewf, cat = shared_image_workflow(12)
        report = execute_local(ewf, build_plans(ewf, cat), slots=8, node_count=3)
        assert not report.error


WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def mixed_executable(tmp_path_factory):
    """The benchmark's 10-level plan_run_mixed workflow at 200 tasks, planned.

    Returns the paths of the executable and of the catalog.
    """
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
        spec.loader.exec_module(workloads)
    workloads.WORKLOADS["plan_run_mixed"] = replace(
        workloads.WORKLOADS["plan_run_mixed"], tasks=200)
    out = tmp_path_factory.mktemp("plan_run_mixed")
    inputs = {name: str(path) for name, path in
              workloads.write_inputs("plan_run_mixed", 0, out).items()}
    exe = str(out / "executable.yml")
    assert main(["plan", inputs["workflow.yml"], inputs["catalog.yml"], inputs["sites.yml"],
                 "--out", exe]) == 0
    return exe, inputs["catalog.yml"]


class TestDeterministicRounds:
    def test_run_table_is_the_same_bytes_every_time(self, mixed_executable, capsys):
        exe, catalog = mixed_executable
        capsys.readouterr()
        tables = []
        for _ in range(2):
            assert main(["run", exe, catalog, "--nodes", "4", "--slots", "2"]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    def test_two_calls_give_equal_reports(self, mixed_executable):
        exe, catalog = mixed_executable
        ewf = parse_executable(Path(exe).read_text())
        plans = build_plans(ewf, parse_catalog(Path(catalog).read_text()))
        first = execute_local(ewf, plans, slots=3, node_count=4)
        assert execute_local(ewf, plans, slots=3, node_count=4) == first

    def test_step_ticks_follow_the_rounds(self):
        ewf, cat = shared_image_workflow(12)
        report = execute_local(ewf, build_plans(ewf, cat), slots=8, node_count=3)
        by_round = sorted(report.jobs.values(), key=lambda jr: jr.steps[0].started)
        first, second = by_round[:8], by_round[8:]
        assert {jr.steps[0].started for jr in first} == {0}
        longest = max(len(jr.steps) for jr in first)
        assert {jr.steps[0].started for jr in second} == {longest}
        for jr in report.jobs.values():  # one tick per step, back to back
            start = jr.steps[0].started
            assert [s.started for s in jr.steps] == list(range(start, start + len(jr.steps)))

    @pytest.mark.parametrize("slots", [1, 2, 64])
    def test_one_load_per_image_and_node_and_parents_first(self, mixed_executable, slots):
        exe, catalog = mixed_executable
        ewf = parse_executable(Path(exe).read_text())
        plans = build_plans(ewf, parse_catalog(Path(catalog).read_text()))
        report = execute_local(ewf, plans, slots=slots, node_count=4)
        assert not report.error
        image = {jid: step.args["image"] for jid, plan in plans.items()
                 for step in plan.host_steps if step.kind is StepKind.LOAD_IMAGE}
        pairs = {(image[jr.job_id], jr.node) for jr in report.jobs.values() if jr.job_id in image}
        assert count_effects(report, "load") == len(pairs) > 0
        for u, v in ewf.edges:
            assert (max(s.started + 1 for s in report.jobs[u].steps)
                    <= min(s.started for s in report.jobs[v].steps))


def run_within(fn, timeout=20.0):
    """fn() in a daemon thread, so a hang fails the test instead of stalling it."""
    box = {}

    def call():
        try:
            box["result"] = fn()
        except Exception as exc:  # re-raised in the test thread below
            box["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "execute_local did not finish"
    if "error" in box:
        raise box["error"]
    return box["result"]


@st.composite
def dag_runs(draw):
    """A chain, fan-out, fan-in or random DAG of up to 500 jobs, with run settings.

    Job ids are a random permutation of the DAG's order, so the smallest ready
    id is not always the earliest job.  Every third job has no wrapper plan.
    Returns (workflow, plans, slots, node_count, job to fail or None).
    """
    n = draw(st.integers(1, 500))
    shape = draw(st.sampled_from(["chain", "fan-out", "fan-in", "random"]))
    if shape == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "fan-out":
        edges = [(0, i) for i in range(1, n)]
    elif shape == "fan-in":
        edges = [(i, n - 1) for i in range(n - 1)]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
        edges = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    names = draw(st.permutations(range(n)))
    ids = [f"j{names[i]:03d}" for i in range(n)]
    jobs = tuple(make_job(jid=jid, tasks=(f"t{jid}",)) for jid in ids)
    plans = {job.id: build_wrapper_plan(job, make_cdef())
             for i, job in enumerate(jobs) if i % 3}
    ewf = ExecutableWorkflow(jobs=jobs, edges=tuple((ids[u], ids[v]) for u, v in edges))
    fail = draw(st.none() | st.sampled_from(ids))
    return ewf, plans, draw(st.integers(1, 64)), draw(st.integers(1, 8)), fail


def report_of(ewf, plans, slots, node_count, fail):
    fail_step = None if fail is None else (fail, StepKind.LAUNCH_TASK)
    return execute_local(ewf, plans, slots=slots, node_count=node_count,
                         fail_step=fail_step)


def run_summary(report):
    return sorted((jid, jr.status, jr.node, [(s.kind, s.effect) for s in jr.steps])
                  for jid, jr in report.jobs.items())


class TestRoundsAtScale:
    @settings(max_examples=40, deadline=None)
    @given(dag_runs())
    def test_each_job_once_after_its_parents_and_repeatable(self, run):
        ewf, plans, _, _, fail = run
        report = run_within(lambda: report_of(*run))
        assert set(report.jobs) == {job.id for job in ewf.jobs}

        children = {job.id: [] for job in ewf.jobs}
        for u, v in ewf.edges:
            children[u].append(v)
        descendants, stack = set(), [] if fail is None else [fail]
        while stack:
            for child in children[stack.pop()]:
                if child not in descendants:
                    descendants.add(child)
                    stack.append(child)
        by_status = {status: {jid for jid, jr in report.jobs.items() if jr.status == status}
                     for status in ("ok", "failed", "skipped")}
        assert by_status["failed"] == ({fail} if fail is not None else set())
        assert report.error == ("" if fail is None else
                                f"job {fail}: step launch-task failed: "
                                f"injected failure at launch-task")
        assert by_status["skipped"] == descendants

        for jid in by_status["ok"]:
            plan = plans.get(jid)
            ran = [s.kind for s in report.jobs[jid].steps]
            expected = 1 if plan is None else len(plan.host_steps) + len(plan.container_steps)
            assert len(ran) == len(set(ran)) == expected
            assert StepKind.LAUNCH_TASK in ran
        for u, v in ewf.edges:
            if v not in by_status["skipped"]:
                assert report.jobs[u].status == "ok"
                assert (max(s.started + 1 for s in report.jobs[u].steps)
                        <= min(s.started for s in report.jobs[v].steps))

        assert run_summary(report_of(*run)) == run_summary(report)
