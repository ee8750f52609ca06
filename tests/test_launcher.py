"""Wrapper plans, rendered scripts and the mock executor."""

from __future__ import annotations

import random
import threading
from dataclasses import replace

import pytest

from contflow.catalog import ContainerDef, ContainerRuntime, MountSpec, parse_image_url
from contflow.errors import CycleDetected, StepFailed
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
)

from conftest import GOLDEN, IMAGE_URL


def make_job(jid="demo-job", container="tools", tasks=("task01",)):
    return Job(
        id=jid, kind=JobKind.COMPUTE, site="compute",
        payload=ComputePayload(
            task_ids=tuple(tasks), container=container, placement=None,
            backend=None, staging_site="staging0", runtime_s=2.0,
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
        plan = build_wrapper_plan(
            make_job(), make_cdef(), PlacementMode.STAGE_COPY
        )
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
            make_job(), make_cdef(ContainerRuntime.SINGULARITY),
            PlacementMode.SHARED_FS_SYMLINK,
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
            make_job(), make_cdef(ContainerRuntime.SHIFTER),
            PlacementMode.SHIFTER_LOCAL,
        )
        assert StepKind.MATERIALIZE_IMAGE not in step_kinds(plan.host_steps)
        assert plan.mounts[0].dst == "/scratch"

    def test_no_container_runs_on_host(self):
        plan = build_wrapper_plan(
            make_job(container=None), None, None
        )
        assert plan.backend is None
        assert plan.container_steps == ()
        assert plan.mounts == ()
        kinds = step_kinds(plan.host_steps)
        assert kinds[0] is StepKind.CREATE_JOB_DIR
        assert kinds[-1] is StepKind.REMOVE_JOB_DIR
        assert StepKind.LAUNCH_TASK in kinds

    def test_staging_outside_container(self):
        plan = build_wrapper_plan(
            make_job(), make_cdef(), PlacementMode.STAGE_COPY,
            staging_inside=False,
        )
        host = step_kinds(plan.host_steps)
        assert host.index(StepKind.STAGE_IN) < host.index(StepKind.START_CONTAINER)
        assert host.index(StepKind.STAGE_OUT) > host.index(StepKind.STOP_CONTAINER)
        assert StepKind.STAGE_IN not in step_kinds(plan.container_steps)

    def test_clustered_job_single_stagein_many_launches(self):
        plan = build_wrapper_plan(
            make_job(tasks=("a", "b", "c")), make_cdef(),
            PlacementMode.STAGE_COPY,
        )
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
                make_job(tasks=tuple(f"t{j}" for j in range(rng.randint(1, 4)))),
                make_cdef(runtime), placement, **cfg,
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
        plan = build_wrapper_plan(
            make_job(), make_cdef(), PlacementMode.STAGE_COPY
        )
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
        plan = build_wrapper_plan(make_job(), make_cdef(runtime, **kwargs),
                                  placement)
        assert render_wrapper(plan) == (GOLDEN / fname).read_text()

    def test_dedup_guard_present_iff_flag(self):
        job, cdef = make_job(), make_cdef()
        guarded = render_wrapper(build_wrapper_plan(
            job, cdef, PlacementMode.STAGE_COPY, dedup_load=True))
        plain = render_wrapper(build_wrapper_plan(
            job, cdef, PlacementMode.STAGE_COPY, dedup_load=False))
        assert "flock" in guarded
        assert "flock" not in plain
        assert "docker load -i" in plain


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


class TestExecuteLocal:
    def test_three_job_chain_order(self):
        ewf, cat = shared_image_workflow(3)
        ewf = ExecutableWorkflow(jobs=ewf.jobs, edges=(("j00", "j01"), ("j01", "j02")))
        plans = build_plans(ewf, cat)
        report = execute_local(ewf, plans, slots=4)
        assert report.ok
        ends = {
            jid: max(s.ended for s in jr.steps)
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
        assert report.count_effects("load") == 1
        assert report.count_effects("cache-hit") == 11

    def test_no_dedup_loads_every_time(self):
        ewf, cat = shared_image_workflow(12)
        plans = build_plans(ewf, cat, dedup_load=False)
        report = execute_local(ewf, plans, slots=8, node_count=1)
        assert report.count_effects("load") == 12

    def test_injected_failure_skips_downstream(self):
        ewf, cat = shared_image_workflow(3)
        ewf = ExecutableWorkflow(jobs=ewf.jobs, edges=(("j00", "j01"), ("j01", "j02")))
        plans = build_plans(ewf, cat)
        with pytest.raises(StepFailed) as exc:
            execute_local(ewf, plans, fail_step=("j00", StepKind.STAGE_IN))
        assert exc.value.job_id == "j00"
        assert exc.value.step_kind == StepKind.STAGE_IN.value
        report = exc.value.report
        assert report.jobs["j01"].status == "skipped"
        assert report.jobs["j02"].status == "skipped"

    def test_raising_step_fails_job_instead_of_hanging(self):
        ewf, cat = shared_image_workflow(3)
        ewf = ExecutableWorkflow(jobs=ewf.jobs, edges=(("j00", "j01"), ("j01", "j02")))
        plans = build_plans(ewf, cat)
        # a load step without its image argument raises KeyError inside the runtime
        plans["j00"] = replace(plans["j00"], host_steps=tuple(
            Step(StepKind.LOAD_IMAGE, {}) if s.kind is StepKind.LOAD_IMAGE else s
            for s in plans["j00"].host_steps
        ))
        raised: list[StepFailed] = []

        def call():
            try:
                execute_local(ewf, plans)
            except StepFailed as exc:
                raised.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "execute_local hung on a raising step"
        (exc,) = raised
        assert exc.job_id == "j00"
        assert exc.step_kind == StepKind.LOAD_IMAGE.value
        assert "KeyError" in str(exc)
        assert exc.report.jobs["j00"].status == "failed"
        assert exc.report.jobs["j01"].status == "skipped"
        assert exc.report.jobs["j02"].status == "skipped"

    def test_staging_outside_runs_every_in_container_step(self):
        ewf, cat = shared_image_workflow(2)
        clustered = make_job(jid="j02", tasks=("a", "b", "c"))
        clustered = replace(clustered, payload=replace(
            clustered.payload, placement=PlacementMode.STAGE_COPY))
        plain = make_job(jid="j03", container=None, tasks=("d", "e"))
        ewf = ExecutableWorkflow(jobs=ewf.jobs + (clustered, plain))
        plans = build_plans(ewf, cat, staging_inside=False)
        report = execute_local(ewf, plans)
        assert report.ok
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

    def test_cycle_raises_before_any_job_runs(self):
        jobs = tuple(
            Job(id=jid, kind=JobKind.CLEANUP, site="submit",
                payload=CleanupPayload(target_job=""))
            for jid in ("a", "b", "c")
        )
        ewf = ExecutableWorkflow(jobs=jobs,
                                 edges=(("a", "b"), ("b", "c"), ("c", "b")))
        with pytest.raises(CycleDetected) as exc:
            execute_local(ewf, {})
        assert exc.value.cycle == ["b", "c", "b"]
