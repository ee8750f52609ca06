"""Per-job wrapper plans: host-side setup, container launch, in-container script.

Every compute job gets a WrapperPlan: an ordered list of host steps wrapping
an ordered list of in-container steps.  The job directory is mounted as
/scratch for Docker and Shifter and as /srv for Singularity.  Plans render to
deterministic shell-like scripts, and a mock executor runs them locally on
one thread, in deterministic rounds of up to ``slots`` jobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .catalog import Catalog, ContainerDef, ContainerRuntime, MountSpec, load_key
from .errors import InconsistentPlacement, ValidationError
from .planner import (
    ComputePayload,
    ExecutableWorkflow,
    Job,
    JobKind,
    PlacementMode,
    bypass_refusal,
    container_def,
    job_shape,
)
from .workflow import ReadySet, require_acyclic

JOB_DIR_MOUNT = {
    ContainerRuntime.DOCKER: "/scratch",
    ContainerRuntime.SINGULARITY: "/srv",
    ContainerRuntime.SHIFTER: "/scratch",
}


class StepKind(enum.Enum):
    CREATE_JOB_DIR = "create-job-dir"
    MATERIALIZE_IMAGE = "materialize-image"
    LOAD_IMAGE = "load-image"
    ENSURE_USER = "ensure-user"
    START_CONTAINER = "start-container"
    WORKER_SETUP = "worker-setup"
    ENV_SETUP = "env-setup"
    STAGE_IN = "stage-in"
    LAUNCH_TASK = "launch-task"
    STAGE_OUT = "stage-out"
    STOP_CONTAINER = "stop-container"
    UNLOAD_IMAGE = "unload-image"
    REMOVE_JOB_DIR = "remove-job-dir"


@dataclass(frozen=True)
class Step:
    kind: StepKind
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WrapperPlan:
    job_id: str
    host_steps: tuple[Step, ...]
    container_steps: tuple[Step, ...]
    backend: ContainerRuntime | None
    mounts: tuple[MountSpec, ...] = ()


def build_wrapper_plan(
    job: Job,
    cdef: ContainerDef | None,
    *,
    staging_inside: bool = True,
    dedup_load: bool = True,
) -> WrapperPlan:
    """Build the wrapper plan for one compute job.

    The job's row of ``planner.SHAPES`` decides how the image reaches the job
    directory and where ``docker load`` reads it from; ``cdef`` gives the image
    URL, mounts and profiles, and must run on the job's planned backend.  The
    task's own steps run inside the container, or on the host when the job
    has none; the executor runs them where the rendered script does.
    """
    assert job.kind is JobKind.COMPUTE
    payload = job.payload
    assert isinstance(payload, ComputePayload)
    if (cdef is None) != (payload.container is None):
        raise InconsistentPlacement(
            f"job {job.id!r}: container definition does not match payload"
        )
    shape = job_shape(job)
    if cdef is not None and payload.backend is not cdef.runtime:
        raise InconsistentPlacement(
            f"job {job.id!r}: planned for runtime {payload.backend.value!r}, but the "
            f"catalog runs container {cdef.name!r} on {cdef.runtime.value!r}"
        )
    refusal = bypass_refusal(cdef) if payload.placement is PlacementMode.BYPASS else None
    if refusal is not None:
        raise InconsistentPlacement(f"job {job.id!r}: {refusal}")

    stage_in = Step(StepKind.STAGE_IN, {"files": payload.input_files})
    stage_out = Step(StepKind.STAGE_OUT, {"files": payload.output_files})
    # without a container the host is where the task runs, so staging is inside
    staging_inside = staging_inside or cdef is None
    inner = [
        Step(StepKind.WORKER_SETUP),
        Step(StepKind.ENV_SETUP, {"env": dict(cdef.profiles) if cdef else {}}),
    ]
    if staging_inside:
        inner.append(stage_in)
    inner.extend(Step(StepKind.LAUNCH_TASK, {"task": tid}) for tid in payload.task_ids)
    if staging_inside:
        inner.append(stage_out)

    host: list[Step] = [Step(StepKind.CREATE_JOB_DIR)]
    if cdef is None:
        host.extend(inner)
        host.append(Step(StepKind.REMOVE_JOB_DIR))
        return WrapperPlan(job.id, tuple(host), container_steps=(), backend=None)

    backend = payload.backend
    image_url = cdef.image.url()
    if shape.materialize:
        host.append(Step(StepKind.MATERIALIZE_IMAGE,
                         {"mode": shape.materialize, "image": image_url}))
    if shape.load:
        host.append(Step(StepKind.LOAD_IMAGE, {
            "image": image_url, "dedup": dedup_load,
            "site_path": shape.load == "site_path",
        }))
    if backend is ContainerRuntime.DOCKER:
        host.append(Step(StepKind.ENSURE_USER))
    if not staging_inside:
        host.append(stage_in)
    host.append(Step(StepKind.START_CONTAINER, {"image": image_url}))
    if backend is ContainerRuntime.DOCKER:
        host.append(Step(StepKind.STOP_CONTAINER))
        host.append(Step(StepKind.UNLOAD_IMAGE, {"image": image_url}))
    if not staging_inside:
        host.append(stage_out)
    host.append(Step(StepKind.REMOVE_JOB_DIR))

    return WrapperPlan(
        job_id=job.id,
        host_steps=tuple(host),
        container_steps=tuple(inner),
        backend=backend,
        mounts=(MountSpec("$jobdir", JOB_DIR_MOUNT[backend]),) + cdef.mounts,
    )


# --- rendering -------------------------------------------------------------

def _render_step(step: Step, plan: WrapperPlan, where: str) -> list[str]:
    k = step.kind
    lines = [f"# [{where}] {k.value}"]
    if k is StepKind.CREATE_JOB_DIR:
        lines += ['jobdir="$(mktemp -d)"', 'cd "$jobdir"']
    elif k is StepKind.MATERIALIZE_IMAGE:
        if step.args["mode"] == "symlink":
            lines += [f'ln -s "$(image_path {step.args["image"]})" image']
        else:
            lines += [f'fetch-image "{step.args["image"]}" image']
    elif k is StepKind.LOAD_IMAGE:
        source = "image"  # a copy or symlink in the job directory
        if step.args.get("site_path"):
            source = f'"$(image_path {step.args["image"]})"'
        if step.args.get("dedup"):
            tag = load_key(step.args["image"])
            lines += [
                f'exec 9>"/var/lock/contflow-{tag}.lock"',
                "flock 9",
                f'if [ ! -e "/var/run/contflow-{tag}.loaded" ]; then',
                f"    docker load -i {source}",
                f'    touch "/var/run/contflow-{tag}.loaded"',
                "fi",
                "flock -u 9",
            ]
        else:
            lines += [f"docker load -i {source}"]
    elif k is StepKind.ENSURE_USER:
        lines += ['ensure-container-user "$(id -u)" "$(id -g)"']
    elif k is StepKind.START_CONTAINER:
        mounts = " ".join(f'-v "{m.render()}"' for m in plan.mounts)
        runner = {
            ContainerRuntime.DOCKER: "docker run",
            ContainerRuntime.SINGULARITY: "singularity exec",
            ContainerRuntime.SHIFTER: "shifter",
        }[plan.backend]
        lines += [f'{runner} {mounts} "{step.args["image"]}" ./job-script.sh']
    elif k is StepKind.WORKER_SETUP:
        lines += ["ensure-worker-tools"]
    elif k is StepKind.ENV_SETUP:
        for key in sorted(step.args["env"]):
            lines += [f'export {key}="{step.args["env"][key]}"']
        lines += ["setup-credentials"]
    elif k is StepKind.STAGE_IN:
        for fname, size in step.args["files"]:
            lines += [f'stage-in "{fname}"  # {size} bytes']
    elif k is StepKind.LAUNCH_TASK:
        lines += [f'launch-instrumented "{step.args["task"]}"']
    elif k is StepKind.STAGE_OUT:
        for fname, size in step.args["files"]:
            lines += [f'stage-out "{fname}"  # {size} bytes']
    elif k is StepKind.STOP_CONTAINER:
        lines += ["docker stop"]
    elif k is StepKind.UNLOAD_IMAGE:
        lines += [f'docker rmi "{step.args["image"]}"']
    elif k is StepKind.REMOVE_JOB_DIR:
        lines += ['cd /', 'rm -rf "$jobdir"']
    return lines


def render_wrapper(plan: WrapperPlan) -> str:
    """Render a plan to deterministic script text, one stanza per step."""
    backend = plan.backend.value if plan.backend else "none"
    out = [
        "#!/bin/sh",
        f"# wrapper for job {plan.job_id}",
        f"# backend: {backend}",
        "set -e",
        "",
    ]
    for step in plan.host_steps:
        if step.kind is StepKind.START_CONTAINER and plan.container_steps:
            out.append("# ---- in-container script (job-script.sh) ----")
            for cstep in plan.container_steps:
                out.extend(_render_step(cstep, plan, "container"))
            out.append("# ---- end in-container script ----")
        out.extend(_render_step(step, plan, "host"))
        out.append("")
    return "\n".join(out)


def build_plans(
    ewf: ExecutableWorkflow, cat: Catalog, *, staging_inside: bool = True, dedup_load: bool = True
) -> dict[str, WrapperPlan]:
    """Wrapper plans for every compute job of an executable workflow."""
    plans: dict[str, WrapperPlan] = {}
    for job in ewf.jobs_of_kind(JobKind.COMPUTE):
        plans[job.id] = build_wrapper_plan(job, container_def(job, cat),
                                           staging_inside=staging_inside,
                                           dedup_load=dedup_load)
    return plans


# --- local execution -------------------------------------------------------

def job_steps(job: Job, plan: WrapperPlan | None) -> list[Step]:
    """The steps the executor runs for a job, in order.

    A planned job runs its host steps with its container steps after
    start-container, as the rendered script does; a job without a plan (a
    fetch, stage or cleanup job) runs one launch-task step.
    """
    if plan is None:
        return [Step(StepKind.LAUNCH_TASK, {"task": job.id})]
    steps = []
    for step in plan.host_steps:
        steps.append(step)
        if step.kind is StepKind.START_CONTAINER:
            steps.extend(plan.container_steps)
    return steps


@dataclass
class StepRecord:
    kind: StepKind
    started: int  # logical tick; a step ends one tick later, see execute_local
    effect: str


@dataclass
class JobReport:
    job_id: str
    status: str  # ok | failed | skipped
    node: str = ""
    steps: list[StepRecord] = field(default_factory=list)
    error: str = ""


@dataclass
class ExecutionReport:
    jobs: dict[str, JobReport] = field(default_factory=dict)

    @property
    def error(self) -> str:
        """The first failed job's failure, in dispatch order; "" if none failed."""
        for jr in self.jobs.values():
            if jr.status == "failed":
                return f"job {jr.job_id}: step {jr.steps[-1].kind.value} failed: {jr.error}"
        return ""


def execute_local(
    ewf: ExecutableWorkflow,
    plans: dict[str, WrapperPlan],
    *,
    slots: int = 4,
    node_count: int = 1,
    fail_step: tuple[str, StepKind] | None = None,
) -> ExecutionReport:
    """Mock-execute jobs locally in DAG order, in rounds of up to ``slots`` jobs.

    Each round starts up to ``slots`` ready jobs, smallest id first, on nodes
    node0, node1, ... in the order they start, runs their steps on this thread
    and then releases the jobs that finished ok.  That is what ``slots``
    workers would do if every job took the same time, and the same inputs
    always give the same report.  Each step is simulated, and its record
    holds its kind, its start tick on a logical clock and its effect: a step
    ends one tick after it starts, the jobs of a round start together at the
    round's first tick, and the next round starts when the round's longest
    job ends.  A step that
    fails, by injection or by raising, fails its job and skips the job's
    descendants while every other job runs; the failure comes back in the
    report, as its ``error``.  ``slots`` or ``node_count`` below 1, and a
    ``fail_step`` whose job is not in ``ewf`` or runs no step of that kind,
    raise ValidationError up front.  A cycle leaves its jobs unrun, and once
    the rounds end it raises CycleDetected, whether or not a step failed.
    """
    if slots < 1 or node_count < 1:
        raise ValidationError(f"slots={slots} and node_count={node_count} must be at least 1")
    report = ExecutionReport()
    jobs = {j.id: j for j in ewf.jobs}
    if fail_step is not None:
        job_id, kind = fail_step
        if job_id not in jobs:
            raise ValidationError(f"cannot inject a failure: no job {job_id!r}")
        if all(step.kind is not kind for step in job_steps(jobs[job_id], plans.get(job_id))):
            raise ValidationError(
                f"cannot inject a failure: job {job_id!r} runs no {kind.value} step"
            )
    ready = ReadySet(jobs, ewf.edges)
    loaded: set[tuple[str, str]] = set()  # (load key, node) pairs already loaded

    def run_steps(job: Job, node: str, clock: int) -> JobReport:
        jr = JobReport(job_id=job.id, status="ok", node=node)
        for tick, step in enumerate(job_steps(job, plans.get(job.id)), clock):
            effect = ""
            try:
                if fail_step is not None and fail_step == (job.id, step.kind):
                    jr.error = f"injected failure at {step.kind.value}"
                elif step.kind is StepKind.LOAD_IMAGE:
                    key = (load_key(step.args["image"]), node)
                    hit = bool(step.args.get("dedup")) and key in loaded
                    effect = "cache-hit" if hit else "load"
                    loaded.add(key)
                elif step.kind is StepKind.STAGE_OUT:
                    effect = "files-written"
            except Exception as exc:  # a malformed step fails its job, not the run
                jr.error = f"{type(exc).__name__}: {exc}"
            jr.steps.append(StepRecord(step.kind, tick, effect))
            if jr.error:
                jr.status = "failed"
                return jr
        return jr

    dispatched = 0
    clock = 0  # the round's first tick
    while ready:
        started = []
        while ready and len(started) < slots:
            started.append(ready.pop())
        # nothing is popped until the next round, so releasing each job as
        # soon as it has run is the same as releasing the round at its end
        longest = 0  # steps in the round's longest job
        for job_id in started:
            jr = report.jobs[job_id] = run_steps(
                jobs[job_id], f"node{dispatched % node_count}", clock
            )
            dispatched += 1
            longest = max(longest, len(jr.steps))
            if jr.status == "ok":
                ready.release(job_id)
        clock += longest

    if len(report.jobs) < len(jobs):
        # a job is left on or after a cycle, or after a failed job
        require_acyclic(jobs, ewf.edges)
        # a failed job is never released, so the jobs left are its descendants
        for job_id in jobs:
            if job_id not in report.jobs:
                report.jobs[job_id] = JobReport(job_id=job_id, status="skipped")
    return report
