"""Planner: abstract workflow + catalog + sites → executable workflow.

Containers are treated as input data dependencies: for every (container,
staging site) pair that needs a transferable image, exactly one
container-fetch job is inserted, and all dependent compute jobs hang off it.
Compute jobs may be clustered level-by-level so a single image
materialization serves many tasks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .catalog import (
    Catalog,
    ContainerDef,
    ContainerRuntime,
    ImageScheme,
    InstallType,
    TransformationEntry,
    resolve_transformation,
)
from .errors import (
    InconsistentPlacement,
    NotFound,
    RuntimeUnavailable,
    ValidationError,
)
from .workflow import (
    AbstractWorkflow,
    dump_yaml,
    load_yaml,
    read_record,
    read_value,
    refuse_repeats,
    require_acyclic,
    topological_levels,
    validate_dag,  # unused here, but benchmarks/tracing.py wraps planner.validate_dag
    write_record,
)


class JobKind(enum.Enum):
    CONTAINER_FETCH = "container_fetch"
    STAGE_IN = "stage_in"
    COMPUTE = "compute"
    STAGE_OUT = "stage_out"
    CLEANUP = "cleanup"


class PlacementMode(enum.Enum):
    STAGE_COPY = "copy"
    SHARED_FS_SYMLINK = "symlink"
    BYPASS = "bypass"
    SHIFTER_LOCAL = "shifter_local"


@dataclass(frozen=True)
class Shape:
    """What a compute job does with its image.

    ``materialize`` is how the image reaches the job directory: ``"pull"``, a
    copy from the staging site; ``"symlink"``, a link into the shared
    filesystem; or None, not at all.  ``load`` is where ``docker load`` reads
    it from: ``"image"`` in the job directory, ``"site_path"``, the site's own
    copy, or None for no load.
    """

    materialize: str | None
    load: str | None


# the one source of each compute job's image rules, by (backend, placement): a row for each
# shape plan() writes, which wrappers, mock run and simulator read; a Docker image loads once
# per (container, node), and parse_catalog makes sure a container and its load_key name one image
SHAPES: dict[tuple[ContainerRuntime | None, PlacementMode | None], Shape] = {
    (None, None): Shape(None, None),
    (ContainerRuntime.DOCKER, PlacementMode.STAGE_COPY): Shape("pull", "image"),
    (ContainerRuntime.DOCKER, PlacementMode.SHARED_FS_SYMLINK): Shape("symlink", "image"),
    (ContainerRuntime.DOCKER, PlacementMode.BYPASS): Shape(None, "site_path"),
    (ContainerRuntime.SINGULARITY, PlacementMode.STAGE_COPY): Shape("pull", None),
    (ContainerRuntime.SINGULARITY, PlacementMode.SHARED_FS_SYMLINK): Shape("symlink", None),
    (ContainerRuntime.SINGULARITY, PlacementMode.BYPASS): Shape(None, None),
    (ContainerRuntime.SHIFTER, PlacementMode.SHIFTER_LOCAL): Shape(None, None),
}


@dataclass(frozen=True)
class Site:
    name: str
    shared_fs: bool = False
    staging_site: str = ""
    runtimes_available: frozenset[ContainerRuntime] = field(
        default=frozenset(), metadata={"key": "runtimes"})
    cvmfs_like_paths: tuple[str, ...] = ()

    @property
    def staging(self) -> str:
        return self.staging_site or self.name


@dataclass(frozen=True)
class PlanConfig:
    cluster_size: int = 1
    output_site: str = "submit"
    cleanup: bool = True
    placement_override: str | None = None  # copy | symlink | bypass


@dataclass(frozen=True)
class ComputePayload:
    task_ids: tuple[str, ...]
    container: str | None = None
    placement: PlacementMode | None = None
    backend: ContainerRuntime | None = None
    staging_site: str = ""
    level: int = 0
    runtime_s: float = 0.0
    image_bytes: int = 0
    input_files: tuple[tuple[str, int], ...] = ()
    output_files: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class TransferPayload:
    transfers: tuple[tuple[str, str, int], ...]  # (src url, dst url, bytes)
    src_site: str = ""  # "" means external to the modeled topology
    dst_site: str = ""

    @property
    def total_bytes(self) -> int:
        return sum(b for _, _, b in self.transfers)


@dataclass(frozen=True)
class CleanupPayload:
    target_job: str


@dataclass(frozen=True)
class Job:
    id: str
    kind: JobKind
    site: str
    payload: ComputePayload | TransferPayload | CleanupPayload


def job_shape(job: Job) -> Shape:
    """Compute job ``job``'s row of SHAPES.

    Raises InconsistentPlacement when its (backend, placement) is not a row, or
    when it names a container without a backend or a backend without one.
    """
    p = job.payload
    if (p.container is None) != (p.backend is None) or (p.backend, p.placement) not in SHAPES:
        raise InconsistentPlacement(
            f"job {job.id!r}: container {p.container!r} with backend "
            f"{p.backend and p.backend.value!r} and placement "
            f"{p.placement and p.placement.value!r} is not a compute-job shape"
        )
    return SHAPES[(p.backend, p.placement)]


@dataclass(frozen=True)
class ExecutableWorkflow:
    jobs: tuple[Job, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()

    def jobs_of_kind(self, kind: JobKind) -> list[Job]:
        return [j for j in self.jobs if j.kind == kind]

    def parents(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {j.id: [] for j in self.jobs}
        for u, v in self.edges:
            out[v].append(u)
        return out


def validate_executable(ewf: ExecutableWorkflow) -> None:
    """Check an executable workflow, whether plan() made it or a document held it.

    Raise ValidationError for a duplicate job id, an edge that names an unknown
    job, a negative file, transfer or image size, or a compute job whose runtime
    is negative or not finite, whose container name is empty, whose task list
    is empty, or whose image is pulled or symlinked without exactly one
    container-fetch parent; InconsistentPlacement for a compute job whose
    shape is not a row of SHAPES; and CycleDetected for a cycle.
    """
    refuse_repeats((j.id for j in ewf.jobs), ValidationError, "job id")
    kinds = {j.id: j.kind for j in ewf.jobs}
    fetch_parents: dict[str, int] = {}
    for u, v in ewf.edges:
        if u not in kinds or v not in kinds:
            raise ValidationError(f"edge ({u!r}, {v!r}) references unknown job")
        if kinds[u] is JobKind.CONTAINER_FETCH:
            fetch_parents[v] = fetch_parents.get(v, 0) + 1
    for j in ewf.jobs:
        if isinstance(j.payload, TransferPayload):
            _check_sizes(j, ((dst, size) for _, dst, size in j.payload.transfers))
    for j in ewf.jobs_of_kind(JobKind.COMPUTE):
        p = j.payload
        assert isinstance(p, ComputePayload)
        if not (math.isfinite(p.runtime_s) and p.runtime_s >= 0):
            raise ValidationError(
                f"job {j.id!r}: runtime_s must be finite and >= 0, got {p.runtime_s!r}"
            )
        if p.image_bytes < 0:
            raise ValidationError(
                f"job {j.id!r}: image_bytes must be >= 0, got {p.image_bytes}")
        _check_sizes(j, p.input_files + p.output_files)
        if p.container == "":
            raise ValidationError(f"job {j.id!r}: container name must not be empty")
        materialize = job_shape(j).materialize
        if not p.task_ids:
            raise ValidationError(f"compute job {j.id!r} has an empty task list")
        n_fetch = fetch_parents.get(j.id, 0)
        if materialize is not None and n_fetch != 1:
            raise ValidationError(
                f"compute job {j.id!r} must depend on exactly one container-fetch "
                f"job, found {n_fetch}"
            )
    require_acyclic(kinds, ewf.edges)


def _check_sizes(job: Job, files) -> None:
    """Raise ValidationError for the first of ``job``'s (name, bytes) pairs with a negative size."""
    for name, size in files:
        if size < 0:
            raise ValidationError(
                f"job {job.id!r}: size of {name!r} must be >= 0, got {size}")


def bypass_refusal(c: ContainerDef) -> str | None:
    """Why container ``c`` cannot bypass staging, or None when it can.

    A bypassed image is read where the site keeps it, so the container must
    be site-local and its image a ``file://`` path.
    """
    if not c.site_local:
        return f"container {c.name!r}: bypass requires site_local"
    if c.image.scheme is not ImageScheme.FILE:
        return (f"container {c.name!r}: bypass requires a file:// image on the "
                f"site, not {c.image.url()}")
    return None


def decide_placement(c: ContainerDef, s: Site, override: str | None = None) -> PlacementMode:
    """Pick how a container image reaches the workers of a site."""
    if c.runtime not in s.runtimes_available:
        raise RuntimeUnavailable(
            f"runtime {c.runtime.value!r} not available at site {s.name!r}"
        )
    if c.runtime is ContainerRuntime.SHIFTER:
        return PlacementMode.SHIFTER_LOCAL
    if override == "copy":
        return PlacementMode.STAGE_COPY
    if override == "symlink":
        return PlacementMode.SHARED_FS_SYMLINK
    refusal = bypass_refusal(c)
    if override == "bypass":
        if refusal is not None:
            raise InconsistentPlacement(refusal)
        return PlacementMode.BYPASS
    if refusal is None and any(
        c.image.locator.startswith(p.rstrip("/") + "/") or c.image.locator == p
        for p in s.cvmfs_like_paths
    ):
        return PlacementMode.BYPASS
    if s.shared_fs:
        return PlacementMode.SHARED_FS_SYMLINK
    return PlacementMode.STAGE_COPY


def _distinct(names: list[str], given: set[str]) -> list[str]:
    """Ids for the jobs a pass generates, named ``names``: a name that repeats
    a ``given`` id (a job the pass was handed) or an earlier name takes the
    first suffix ``_2``, ``_3``, ... that no given id and no name has or gets."""
    taken = given | set(names)
    seen = set(given)
    out = []
    for base in names:
        new, n = base, 1
        while base in seen and new in taken:
            n += 1
            new = f"{base}_{n}"
        taken.add(new)
        seen.add(base)
        out.append(new)
    return out


def container_def(job: Job, cat: Catalog) -> ContainerDef | None:
    """The catalog's definition of compute job ``job``'s container, or None
    for a job without one; a container the catalog lacks is refused."""
    name = job.payload.container
    if name is None:
        return None
    cdef = cat.containers.get(name)
    if cdef is None:
        raise ValidationError(
            f"job {job.id!r} references container {name!r}, "
            f"which the catalog does not define"
        )
    return cdef


def cluster_jobs(ewf: ExecutableWorkflow, k: int) -> ExecutableWorkflow:
    """Merge same-level, same-site, same-container compute jobs into clusters of <= k.

    k = 1 is the identity.  Tasks inside a cluster keep topological order;
    inter-cluster edges are the union of member edges with self-loops removed.
    A job alone in its chunk, like every job that is not compute, stays as given.
    """
    if k < 1:
        raise ValidationError("cluster size must be >= 1")
    if k == 1:
        return ewf

    groups: dict[tuple[int, str, str | None], list[Job]] = {}
    for j in ewf.jobs_of_kind(JobKind.COMPUTE):
        p = j.payload
        assert isinstance(p, ComputePayload)
        groups.setdefault((p.level, j.site, p.container), []).append(j)

    chunks = []  # (group key, index in group, members)
    for key in sorted(groups, key=lambda g: (g[0], g[1], g[2] or "")):
        members = sorted(groups[key], key=lambda j: j.id)
        chunks += [(key, i, members[i * k:(i + 1) * k])
                   for i in range(math.ceil(len(members) / k))]
    ids = iter(_distinct([
        f"cluster_l{level}_{site}_{container or 'plain'}_{i:03d}"
        for (level, site, container), i, chunk in chunks if len(chunk) > 1
    ], {j.id for j in ewf.jobs}))

    remap: dict[str, str] = {}
    new_jobs: list[Job] = []
    for (_, site, _), _, chunk in chunks:
        if len(chunk) == 1:
            new_jobs.append(chunk[0])
            continue
        cid = next(ids)
        payloads = [m.payload for m in chunk]
        produced = {f for p in payloads for f, _ in p.output_files}
        # dicts keep the first occurrence of each file in member order
        inputs = dict.fromkeys(f for p in payloads for f in p.input_files
                               if f[0] not in produced)
        outputs = dict.fromkeys(f for p in payloads for f in p.output_files)
        merged = replace(
            payloads[0],
            task_ids=tuple(t for p in payloads for t in p.task_ids),
            runtime_s=sum(p.runtime_s for p in payloads),
            input_files=tuple(inputs),
            output_files=tuple(outputs),
        )
        new_jobs.append(Job(id=cid, kind=JobKind.COMPUTE, site=site, payload=merged))
        for m in chunk:
            remap[m.id] = cid
    new_jobs += [j for j in ewf.jobs if j.kind is not JobKind.COMPUTE]

    edges = dict.fromkeys((remap.get(u, u), remap.get(v, v)) for u, v in ewf.edges)
    return ExecutableWorkflow(jobs=tuple(new_jobs),
                              edges=tuple((u, v) for u, v in edges if u != v))


def insert_container_fetch_jobs(ewf: ExecutableWorkflow, cat: Catalog) -> ExecutableWorkflow:
    """Add exactly one fetch job per (container, staging site) pair in use."""
    pairs: dict[tuple[str, str], list[Job]] = {}
    for j in ewf.jobs_of_kind(JobKind.COMPUTE):
        p = j.payload
        assert isinstance(p, ComputePayload)
        if job_shape(j).materialize is None:
            continue
        pairs.setdefault((p.container, p.staging_site), []).append(j)

    new_jobs = list(ewf.jobs)
    new_edges = list(ewf.edges)
    pairs = sorted(pairs.items())
    ids = _distinct([f"fetch_{cname}_{staging}" for (cname, staging), _ in pairs],
                    {j.id for j in ewf.jobs})
    for ((cname, staging), dependents), fetch_id in zip(pairs, ids):
        cdef = container_def(dependents[0], cat)
        dst = f"file:///staging/{staging}/containers/{cname}.img"
        fetch = Job(
            id=fetch_id,
            kind=JobKind.CONTAINER_FETCH,
            site=staging,
            payload=TransferPayload(
                transfers=((cdef.image.url(), dst, cdef.image_size_bytes),),
                src_site="",
                dst_site=staging,
            ),
        )
        new_jobs.append(fetch)
        for dep in dependents:
            new_edges.append((fetch.id, dep.id))
    return ExecutableWorkflow(jobs=tuple(new_jobs), edges=tuple(new_edges))


def _bind_sites(
    wf: AbstractWorkflow, cat: Catalog, sites: list[Site], override: str | None
) -> dict[str, tuple[Site, TransformationEntry, ContainerDef | None, PlacementMode | None]]:
    """Round-robin tasks over sites able to run their transformation."""
    resolved: dict[str, tuple[list, ValidationError | None]] = {}  # once per transformation
    binding = {}
    rr = 0
    for task in wf.tasks:
        if task.transformation not in resolved:
            eligible = []
            refusal: ValidationError | None = None
            for s in sites:
                try:
                    entry, cdef = resolve_transformation(cat, task.transformation, s.name)
                except NotFound:
                    continue
                if cdef is None:
                    eligible.append((s, entry, None, None))
                    continue
                try:
                    placement = decide_placement(cdef, s, override)
                except (RuntimeUnavailable, InconsistentPlacement) as exc:
                    refusal = exc
                    continue
                eligible.append((s, entry, cdef, placement))
            resolved[task.transformation] = eligible, refusal
        eligible, refusal = resolved[task.transformation]
        if not eligible:
            if refusal is not None:  # the last site's refusal, of its own class
                raise type(refusal)(f"task {task.id!r}: {refusal}")
            raise ValidationError(
                f"task {task.id!r}: transformation {task.transformation!r} "
                f"not resolvable at any site"
            )
        binding[task.id] = eligible[rr % len(eligible)]
        rr += 1
    return binding


def plan(
    wf: AbstractWorkflow, cat: Catalog, sites: list[Site], cfg: PlanConfig
) -> ExecutableWorkflow:
    """Produce the executable workflow: compute, fetch, stage and cleanup jobs."""
    levels = topological_levels(wf)  # validates the workflow first
    if not wf.tasks:
        return ExecutableWorkflow()
    binding = _bind_sites(wf, cat, sites, cfg.placement_override)
    producers = wf.producers()

    jobs: list[Job] = []
    edges: list[tuple[str, str]] = []
    compute_id = {t.id: f"compute_{t.id}" for t in wf.tasks}
    sources = {f: meta.initial_location for f, meta in wf.files.items()  # outside input → url
               if f not in producers and meta.initial_location is not None}
    for task in wf.tasks:
        site, entry, cdef, placement = binding[task.id]
        inputs = [(f, wf.file_meta(f).size_bytes) for f in task.inputs]
        if entry.install_type is InstallType.STAGEABLE and entry.pfn:
            sources[entry.pfn] = entry.pfn  # a stageable executable; size unknown → 0
            inputs.append((entry.pfn, 0))
        payload = ComputePayload(
            task_ids=(task.id,),
            container=cdef.name if cdef else None,
            placement=placement,
            backend=cdef.runtime if cdef else None,
            staging_site=site.staging,
            level=levels[task.id],
            runtime_s=task.expected_runtime_s,
            image_bytes=cdef.image_size_bytes if cdef else 0,
            input_files=tuple(inputs),
            output_files=tuple((f, wf.file_meta(f).size_bytes) for f in task.outputs),
        )
        jobs.append(Job(id=compute_id[task.id], kind=JobKind.COMPUTE,
                        site=site.name, payload=payload))
    for u, v in sorted(wf.effective_edges()):
        edges.append((compute_id[u], compute_id[v]))

    ewf = ExecutableWorkflow(jobs=tuple(jobs), edges=tuple(edges))
    ewf = cluster_jobs(ewf, cfg.cluster_size)
    ewf = insert_container_fetch_jobs(ewf, cat)

    jobs = list(ewf.jobs)
    edges = list(ewf.edges)

    # one scan: per staging site, the outside inputs to stage in with the jobs
    # that read them, and the workflow outputs to ship out with the jobs that
    # write them; a file's entry keeps the size its last user gave
    wf_outputs = set(wf.workflow_outputs())
    stage_in: dict[str, tuple[dict[str, int], list[str]]] = {}
    stage_out: dict[str, tuple[dict[str, int], list[str]]] = {}
    for j in ewf.jobs_of_kind(JobKind.COMPUTE):
        p = j.payload
        assert isinstance(p, ComputePayload)
        ins = [(f, size) for f, size in p.input_files if f in sources]
        outs = [(f, size) for f, size in p.output_files if f in wf_outputs]
        for by_site, files in ((stage_in, ins), (stage_out, outs)):
            if files:
                site_files, site_jobs = by_site.setdefault(p.staging_site, ({}, []))
                site_files.update(files)
                site_jobs.append(j.id)

    for staging, (files, readers) in sorted(stage_in.items()):
        sj = Job(
            id=f"stage_in_{staging}",
            kind=JobKind.STAGE_IN,
            site=staging,
            payload=TransferPayload(transfers=tuple(
                (sources[f], f"file:///staging/{staging}/{f}", size)
                for f, size in sorted(files.items())
            ), src_site="", dst_site=staging),
        )
        jobs.append(sj)
        edges.extend((sj.id, r) for r in readers)
    for staging, (files, writers) in sorted(stage_out.items()):
        so = Job(
            id=f"stage_out_{staging}",
            kind=JobKind.STAGE_OUT,
            site=cfg.output_site,
            payload=TransferPayload(transfers=tuple(
                (f"file:///staging/{staging}/{f}", f"file:///output/{cfg.output_site}/{f}", size)
                for f, size in sorted(files.items())
            ), src_site=staging, dst_site=cfg.output_site),
        )
        jobs.append(so)
        edges.extend((w, so.id) for w in writers)

    # cleanup: one job per compute-job directory, after its last consumer
    if cfg.cleanup:
        children: dict[str, list[str]] = {}
        for u, v in edges:
            children.setdefault(u, []).append(v)
        for j in ewf.jobs_of_kind(JobKind.COMPUTE):
            cj = Job(
                id=f"cleanup_{j.id}",
                kind=JobKind.CLEANUP,
                site=j.site,
                payload=CleanupPayload(target_job=j.id),
            )
            jobs.append(cj)
            edges.append((j.id, cj.id))
            for consumer in children.get(j.id, []):
                edges.append((consumer, cj.id))

    result = ExecutableWorkflow(jobs=tuple(jobs), edges=tuple(edges))
    validate_executable(result)
    return result


# --- serialization ---------------------------------------------------------

_PAYLOAD_CLASSES = {JobKind.COMPUTE: ComputePayload, JobKind.CLEANUP: CleanupPayload}


def serialize_executable(ewf: ExecutableWorkflow) -> str:
    return dump_yaml(write_record(ewf))


def parse_executable(text: str) -> ExecutableWorkflow:
    doc = load_yaml(text, "executable")
    jobs = []
    for raw in read_value(list[dict], doc.get("jobs", []), "executable", "jobs"):
        kind = read_value(JobKind, raw.get("kind"), "executable", "kind")
        payload = read_value(_PAYLOAD_CLASSES.get(kind, TransferPayload),
                             raw.get("payload", {}), "executable", "payload")
        jobs.append(read_record(Job, raw, "executable", kind=kind, payload=payload))
    ewf = read_record(ExecutableWorkflow, doc, "executable", jobs=tuple(jobs))
    validate_executable(ewf)
    return ewf


def parse_sites(text: str) -> list[Site]:
    doc = load_yaml(text, "sites", (dict, list))
    if isinstance(doc, list):
        doc = {"sites": doc}
    sites = read_value(list[Site], doc.get("sites", []), "sites", "sites")
    refuse_repeats((site.name for site in sites), ValidationError, "site name")
    return sites
