"""Per-job wrapper plans: host-side setup, container launch, in-container script.

Every compute job gets a WrapperPlan: an ordered list of host steps wrapping
an ordered list of in-container steps.  The job directory is mounted as
/scratch for Docker and Shifter and as /srv for Singularity.  Plans render to
deterministic shell-like scripts, and a mock executor runs them locally.
"""

from __future__ import annotations

import enum
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .catalog import Catalog, ContainerDef, ContainerRuntime, MountSpec
from .errors import DanglingContainerRef, InconsistentPlacement, StepFailed
from .planner import ComputePayload, ExecutableWorkflow, Job, JobKind, PlacementMode
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
    placement: PlacementMode | None,
    *,
    staging_inside: bool = True,
    dedup_load: bool = True,
) -> WrapperPlan:
    """Build the wrapper plan for one compute job.

    The task's own steps run inside the container, or on the host when the job
    has none; the executor runs them where the rendered script does.
    """
    assert job.kind is JobKind.COMPUTE
    payload = job.payload
    assert isinstance(payload, ComputePayload)
    if (cdef is None) != (payload.container is None):
        raise InconsistentPlacement(
            f"job {job.id!r}: container definition does not match payload"
        )
    if placement is PlacementMode.BYPASS and cdef is not None and not cdef.site_local:
        raise InconsistentPlacement(
            f"job {job.id!r}: bypass placement requires a site-local container"
        )

    stage_in = Step(StepKind.STAGE_IN, {"files": list(payload.input_files)})
    stage_out = Step(StepKind.STAGE_OUT, {"files": list(payload.output_files)})
    # without a container the host is where the task runs, so staging is inside
    staging_inside = staging_inside or cdef is None
    inner = [
        Step(StepKind.WORKER_SETUP, {}),
        Step(StepKind.ENV_SETUP, {"env": dict(cdef.profiles) if cdef else {}}),
    ]
    if staging_inside:
        inner.append(stage_in)
    inner.extend(Step(StepKind.LAUNCH_TASK, {"task": tid}) for tid in payload.task_ids)
    if staging_inside:
        inner.append(stage_out)

    host: list[Step] = [Step(StepKind.CREATE_JOB_DIR, {"job": job.id})]
    if cdef is None:
        host.extend(inner)
        host.append(Step(StepKind.REMOVE_JOB_DIR, {"job": job.id}))
        return WrapperPlan(job.id, tuple(host), container_steps=(), backend=None)

    backend = cdef.runtime
    mounts = (MountSpec("$jobdir", JOB_DIR_MOUNT[backend]),) + cdef.mounts
    image_url = cdef.image.url()
    if placement is PlacementMode.STAGE_COPY:
        host.append(Step(StepKind.MATERIALIZE_IMAGE, {"mode": "pull", "image": image_url}))
    elif placement is PlacementMode.SHARED_FS_SYMLINK:
        host.append(Step(StepKind.MATERIALIZE_IMAGE, {"mode": "symlink", "image": image_url}))
    # Bypass / ShifterLocal reference the image directly, no materialization
    if backend is ContainerRuntime.DOCKER:
        host.append(Step(StepKind.LOAD_IMAGE, {"image": image_url, "dedup": dedup_load}))
        host.append(Step(StepKind.ENSURE_USER, {"uid": "$host_uid", "gid": "$host_gid"}))
    if not staging_inside:
        host.append(stage_in)
    host.append(Step(StepKind.START_CONTAINER,
                     {"image": image_url, "mounts": [m.render() for m in mounts]}))
    if backend is ContainerRuntime.DOCKER:
        host.append(Step(StepKind.STOP_CONTAINER, {}))
        host.append(Step(StepKind.UNLOAD_IMAGE, {"image": image_url}))
    if not staging_inside:
        host.append(stage_out)
    host.append(Step(StepKind.REMOVE_JOB_DIR, {"job": job.id}))

    return WrapperPlan(
        job_id=job.id,
        host_steps=tuple(host),
        container_steps=tuple(inner),
        backend=backend,
        mounts=mounts,
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
        if step.args.get("dedup"):
            tag = step.args["image"].split("://", 1)[-1].strip("/").replace("/", "_")
            lines += [
                f'exec 9>"/var/lock/contflow-{tag}.lock"',
                "flock 9",
                f'if [ ! -e "/var/run/contflow-{tag}.loaded" ]; then',
                "    docker load -i image",
                f'    touch "/var/run/contflow-{tag}.loaded"',
                "fi",
                "flock -u 9",
            ]
        else:
            lines += ["docker load -i image"]
    elif k is StepKind.ENSURE_USER:
        lines += ['ensure-container-user "$(id -u)" "$(id -g)"']
    elif k is StepKind.START_CONTAINER:
        mounts = " ".join(f'-v "{m}"' for m in step.args["mounts"])
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
        payload = job.payload
        assert isinstance(payload, ComputePayload)
        cdef = None
        if payload.container:
            cdef = cat.containers.get(payload.container)
            if cdef is None:
                raise DanglingContainerRef(
                    f"job {job.id!r} references container {payload.container!r}, "
                    f"which the catalog does not define"
                )
        plans[job.id] = build_wrapper_plan(job, cdef, payload.placement,
                                           staging_inside=staging_inside, dedup_load=dedup_load)
    return plans


# --- local execution -------------------------------------------------------

@dataclass
class StepRecord:
    job_id: str
    kind: StepKind
    node: str
    started: float
    ended: float
    effect: str = ""


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
    def ok(self) -> bool:
        return all(j.status == "ok" for j in self.jobs.values())

    def count_effects(self, effect: str) -> int:
        return sum(
            1
            for j in self.jobs.values()
            for s in j.steps
            if s.effect == effect
        )


class _MockRuntime:
    """Shared mock state: per-node image registry guarded by one lock."""

    def __init__(self):
        self.lock = threading.Lock()
        self.loaded: set[tuple[str, str]] = set()  # (image, node)

    def load_image(self, image: str, node: str, dedup: bool) -> str:
        with self.lock:
            key = (image, node)
            if dedup and key in self.loaded:
                return "cache-hit"
            self.loaded.add(key)
            return "load"


def execute_local(
    ewf: ExecutableWorkflow,
    plans: dict[str, WrapperPlan],
    *,
    slots: int = 4,
    node_count: int = 1,
    fail_step: tuple[str, StepKind] | None = None,
) -> ExecutionReport:
    """Mock-execute jobs locally respecting DAG order with <= slots parallelism.

    Each step is simulated and its effect recorded.  A step that fails, by
    injection or by raising, fails its job, skips the job's descendants and
    makes the call raise StepFailed once every other job has finished.  A
    cycle raises CycleDetected before any job starts.
    """
    report = ExecutionReport()
    jobs = {j.id: j for j in ewf.jobs}
    require_acyclic(jobs, ewf.edges)
    ready = ReadySet(jobs, ewf.edges)
    state_lock = threading.Lock()
    runtime = _MockRuntime()
    first_error: list[StepFailed] = []

    def run_steps(job: Job, node: str) -> JobReport:
        jr = JobReport(job_id=job.id, status="ok", node=node)
        plan = plans.get(job.id)
        steps: list[Step]
        if plan is not None:
            steps = []
            for step in plan.host_steps:
                steps.append(step)
                if step.kind is StepKind.START_CONTAINER:
                    steps.extend(plan.container_steps)
        else:
            steps = [Step(StepKind.LAUNCH_TASK, {"task": job.id})]
        for step in steps:
            t0 = time.monotonic()
            effect = ""
            try:
                if fail_step is not None and fail_step == (job.id, step.kind):
                    jr.error = f"injected failure at {step.kind.value}"
                elif step.kind is StepKind.LOAD_IMAGE:
                    effect = runtime.load_image(
                        step.args["image"], node, bool(step.args.get("dedup"))
                    )
                elif step.kind is StepKind.STAGE_OUT:
                    effect = "files-written"
            except Exception as exc:  # a malformed step fails its job, not the run
                jr.error = f"{type(exc).__name__}: {exc}"
            if jr.error:
                jr.status = "failed"
                jr.steps.append(StepRecord(job.id, step.kind, node, t0, time.monotonic()))
                return jr
            jr.steps.append(
                StepRecord(job.id, step.kind, node, t0, time.monotonic(), effect)
            )
        return jr

    with ThreadPoolExecutor(max_workers=max(1, slots)) as pool:
        done_event = threading.Event()
        running = 0
        dispatched = 0

        def submit_ready():
            nonlocal running, dispatched
            while ready:
                job = jobs[ready.pop()]
                node = f"node{dispatched % max(1, node_count)}"
                dispatched += 1
                running += 1
                pool.submit(worker, job, node)
            if running == 0:
                done_event.set()

        def mark_skipped(job_id: str):
            stack = [job_id]
            while stack:
                for child in ready.children[stack.pop()]:
                    if child not in report.jobs:
                        report.jobs[child] = JobReport(job_id=child, status="skipped")
                        stack.append(child)

        def worker(job: Job, node: str):
            nonlocal running
            jr = run_steps(job, node)
            with state_lock:
                running -= 1
                report.jobs[job.id] = jr
                if jr.status == "ok":
                    ready.release(job.id)
                else:
                    if not first_error:
                        first_error.append(
                            StepFailed(job.id, jr.steps[-1].kind.value, jr.error)
                        )
                    mark_skipped(job.id)
                submit_ready()

        with state_lock:
            submit_ready()
        done_event.wait()

    if first_error:
        first_error[0].report = report  # let callers inspect partial results
        raise first_error[0]
    return report
