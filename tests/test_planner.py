"""Planner: placement policy, fetch dedup, clustering, full planning."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from contflow.catalog import (
    Catalog,
    ContainerDef,
    ContainerRuntime,
    InstallType,
    TransformationEntry,
    parse_catalog,
    parse_image_url,
    serialize_catalog,
)
from contflow.errors import InconsistentPlacement, RuntimeUnavailable, ValidationError
from contflow.launcher import build_plans, render_wrapper
from contflow.planner import (
    ComputePayload,
    ExecutableWorkflow,
    JobKind,
    PlacementMode,
    PlanConfig,
    SHAPES,
    Site,
    cluster_jobs,
    decide_placement,
    insert_container_fetch_jobs,
    plan,
    validate_executable,
)
from contflow import planner, workflow
from contflow.workflow import (
    AbstractWorkflow,
    FileMeta,
    Task,
    topological_levels,
    validate_dag,
)

from conftest import IMAGE_URL, TRANSFERABLE_PLACEMENTS, make_chain, plan_random


def make_container(runtime=ContainerRuntime.DOCKER, **kw) -> ContainerDef:
    return ContainerDef(
        name=kw.pop("name", "c1"),
        image=parse_image_url(kw.pop("image", IMAGE_URL[runtime])),
        runtime=runtime,
        image_size_bytes=kw.pop("image_size_bytes", 10_000_000),
        **kw,
    )


def make_site(**kw) -> Site:
    kw.setdefault("name", "compute")
    kw.setdefault("runtimes_available", frozenset(ContainerRuntime))
    return Site(**kw)


def single_container_model(n_tasks: int, runtime=ContainerRuntime.DOCKER):
    """n tasks sharing one container on one compute site with one staging site."""
    cdef = make_container(runtime)
    cat = Catalog(
        transformations=(
            TransformationEntry(namespace="ns", name="tool", version="1",
                                site="compute", pfn="/opt/tool", container="c1"),
        ),
        containers={"c1": cdef},
    )
    sites = [
        Site(name="staging0"),
        make_site(name="compute", staging_site="staging0"),
    ]
    tasks = tuple(
        Task(f"t{i:02d}", "ns::tool:1", inputs=("seed",), outputs=(f"o{i:02d}",))
        for i in range(n_tasks)
    )
    files = {"seed": FileMeta("seed", 100, initial_location="http://x/seed")}
    wf = AbstractWorkflow(tasks=tasks, files=files)
    return wf, cat, sites


class TestDecidePlacement:
    def test_shifter_always_local(self):
        c = make_container(ContainerRuntime.SHIFTER)
        for shared in (True, False):
            s = make_site(shared_fs=shared)
            assert decide_placement(c, s) is PlacementMode.SHIFTER_LOCAL

    def test_site_local_singularity_bypassed(self):
        c = make_container(
            ContainerRuntime.SINGULARITY,
            image="file:///cvmfs/images/tool.sif",
            site_local=True,
        )
        s = make_site(cvmfs_like_paths=("/cvmfs",))
        assert decide_placement(c, s) is PlacementMode.BYPASS

    def test_site_local_without_exposed_path_falls_back(self):
        c = make_container(
            ContainerRuntime.SINGULARITY,
            image="file:///elsewhere/tool.sif",
            site_local=True,
        )
        s = make_site(cvmfs_like_paths=("/cvmfs",))
        assert decide_placement(c, s) is PlacementMode.STAGE_COPY

    def test_shared_fs_symlinks(self):
        c = make_container(ContainerRuntime.DOCKER)
        assert decide_placement(c, make_site(shared_fs=True)) is \
            PlacementMode.SHARED_FS_SYMLINK

    def test_default_is_copy(self):
        c = make_container(ContainerRuntime.DOCKER)
        assert decide_placement(c, make_site()) is PlacementMode.STAGE_COPY

    def test_runtime_unavailable(self):
        c = make_container(ContainerRuntime.DOCKER)
        s = make_site(runtimes_available=frozenset({ContainerRuntime.SINGULARITY}))
        with pytest.raises(RuntimeUnavailable):
            decide_placement(c, s)

    def test_bypass_override_needs_site_local(self):
        c = make_container(ContainerRuntime.DOCKER)
        with pytest.raises(InconsistentPlacement):
            decide_placement(c, make_site(), override="bypass")

    def test_site_local_registry_image_on_a_listed_path_is_copied(self):
        """The automatic bypass keeps the file:// rule too: a registry locator
        under a listed path is no image on the site."""
        c = make_container(ContainerRuntime.DOCKER, site_local=True)
        assert c.image.locator.startswith("acme/")
        s = make_site(cvmfs_like_paths=("acme",))
        assert decide_placement(c, s) is PlacementMode.STAGE_COPY

    @pytest.mark.parametrize("site_local", [False, True], ids=["shared", "site-local"])
    @pytest.mark.parametrize("image", ["file:///cvmfs/sw/tool.img", "docker:///acme/tool:latest"],
                             ids=["file", "registry"])
    def test_bypass_override_refused_exactly_when_the_rule_says(self, site_local, image):
        c = make_container(ContainerRuntime.DOCKER, site_local=site_local, image=image)
        refusal = planner.bypass_refusal(c)
        assert (refusal is None) == (site_local and image.startswith("file://"))
        if refusal is None:
            assert decide_placement(c, make_site(), override="bypass") is PlacementMode.BYPASS
            return
        with pytest.raises(InconsistentPlacement) as exc:
            decide_placement(c, make_site(), override="bypass")
        assert str(exc.value) == refusal

    def test_every_placement_is_a_row_of_the_shape_table(self):
        """Whatever decide_placement returns, the executable check accepts."""
        reached = {(None, None)}  # a job without a container
        for runtime, available, shared_fs, site_local, cvmfs_match, override in \
                itertools.product(ContainerRuntime, (True, False), (False, True),
                                  (False, True), (False, True),
                                  (None, "copy", "symlink", "bypass")):
            c = make_container(runtime, site_local=site_local,
                               image="file:///cvmfs/sw/tool.img" if site_local
                               else IMAGE_URL[runtime])
            s = make_site(shared_fs=shared_fs,
                          runtimes_available=frozenset(ContainerRuntime) if available
                          else frozenset(ContainerRuntime) - {runtime},
                          cvmfs_like_paths=("/cvmfs/sw",) if cvmfs_match else ("/opt",))
            try:
                placement = decide_placement(c, s, override)
            except (RuntimeUnavailable, InconsistentPlacement):
                continue
            assert (runtime, placement) in SHAPES
            assert (SHAPES[runtime, placement].materialize is not None) == \
                (placement in TRANSFERABLE_PLACEMENTS)
            reached.add((runtime, placement))
        assert reached == set(SHAPES)
        assert len(SHAPES) == 8


class TestPlan:
    def test_demo_fixture_counts(self):
        # 63 compute tasks; auxiliary jobs documented here: 1 stage-in,
        # 1 stage-out, 1 container fetch -> 66 jobs without cleanup
        from contflow.scenarios import demo_plan
        ewf = demo_plan("docker", cleanup=False)
        assert len(ewf.jobs_of_kind(JobKind.COMPUTE)) == 63
        assert len(ewf.jobs) == 66

    def test_deep_chain(self):
        cat = Catalog(transformations=(
            TransformationEntry(namespace="ns", name="tool", version="1.0",
                                site="compute", pfn="/opt/tool"),
        ))
        sites = [Site(name="staging0"),
                 make_site(name="compute", staging_site="staging0")]
        ewf = plan(make_chain(3000), cat, sites, PlanConfig())
        assert len(ewf.jobs_of_kind(JobKind.COMPUTE)) == 3000

    def test_empty_workflow(self):
        ewf = plan(AbstractWorkflow(), Catalog(), [], PlanConfig())
        assert ewf == ExecutableWorkflow()

    def test_single_fetch_for_ten_tasks(self):
        wf, cat, sites = single_container_model(10)
        ewf = plan(wf, cat, sites, PlanConfig(cleanup=False))
        fetches = ewf.jobs_of_kind(JobKind.CONTAINER_FETCH)
        # oracle: distinct (container, staging site) pairs over compute jobs
        pairs = {
            (j.payload.container, j.payload.staging_site)
            for j in ewf.jobs_of_kind(JobKind.COMPUTE)
            if j.payload.placement in TRANSFERABLE_PLACEMENTS
        }
        assert len(fetches) == len(pairs) == 1
        downstream = [v for u, v in ewf.edges if u == fetches[0].id]
        assert len(downstream) == 10

    def test_unresolvable_transformation(self):
        wf = AbstractWorkflow(tasks=(Task("a", "ns::missing:9"),))
        with pytest.raises(ValidationError, match="^task 'a': transformation "
                           "'ns::missing:9' not resolvable at any site$"):
            plan(wf, Catalog(), [make_site()], PlanConfig())

    def test_runtime_unavailable_propagates(self):
        wf, cat, sites = single_container_model(1)
        sites = [Site(name="staging0"),
                 make_site(name="compute", staging_site="staging0",
                           runtimes_available=frozenset())]
        with pytest.raises(RuntimeUnavailable):
            plan(wf, cat, sites, PlanConfig())

    @pytest.mark.parametrize("site_local, message", [
        (False, "container 'c1': bypass requires site_local"),
        (True, "container 'c1': bypass requires a file:// image on the site, not "
               "docker:///acme/tool:latest"),
    ], ids=["not-site-local", "registry-image"])
    def test_bypass_refusal_keeps_its_class(self, site_local, message):
        wf, cat, sites = single_container_model(2)
        cat = replace(cat, containers={"c1": make_container(site_local=site_local)})
        with pytest.raises(InconsistentPlacement) as exc:
            plan(wf, cat, sites, PlanConfig(placement_override="bypass"))
        assert type(exc.value) is InconsistentPlacement
        assert str(exc.value) == f"task 't00': {message}"

    def test_stageable_executable_is_staged_in_from_its_pfn(self):
        wf, cat, sites = single_container_model(2)
        entry = replace(cat.transformations[0], install_type=InstallType.STAGEABLE,
                        pfn="http://x/tool")
        cat = replace(cat, transformations=(entry,))
        ewf = plan(wf, cat, sites, PlanConfig(cleanup=False))
        for j in ewf.jobs_of_kind(JobKind.COMPUTE):
            assert j.payload.input_files == (("seed", 100), ("http://x/tool", 0))
        [stage_in] = ewf.jobs_of_kind(JobKind.STAGE_IN)
        assert stage_in.payload.transfers == (
            ("http://x/tool", "file:///staging/staging0/http://x/tool", 0),
            ("http://x/seed", "file:///staging/staging0/seed", 100),
        )
        assert {v for u, v in ewf.edges if u == stage_in.id} == {"compute_t00", "compute_t01"}
        script = render_wrapper(build_plans(ewf, cat)["compute_t00"])
        assert 'stage-in "http://x/tool"  # 0 bytes' in script.splitlines()

    def test_generated_job_ids_that_would_collide_are_all_distinct(self):
        """Container a_b staged at c and container a staged at b_c would both
        fetch as fetch_a_b_c; a container named plain and a container-less
        transformation would both cluster as cluster_l0_p_plain_000.  The
        second of each gets the first suffix that no other id has, and every
        id that does not collide stays as it is: a_b staged at c_2 keeps
        fetch_a_b_c_2."""
        fetch_cat = Catalog(
            transformations=(
                TransformationEntry(namespace="ns", name="t1", version="1", site="p",
                                    container="a_b"),
                TransformationEntry(namespace="ns", name="t2", version="1", site="q",
                                    container="a"),
                TransformationEntry(namespace="ns", name="t3", version="1", site="r",
                                    container="a_b"),
            ),
            containers={"a_b": make_container(name="a_b", image="docker:///x/a_b:1"),
                        "a": make_container(name="a", image="docker:///x/a:1")},
        )
        fetch_sites = [Site(name="c"), Site(name="b_c"), Site(name="c_2"),
                       make_site(name="p", staging_site="c"),
                       make_site(name="q", staging_site="b_c"),
                       make_site(name="r", staging_site="c_2")]
        fetch_wf = AbstractWorkflow(tasks=tuple(Task(f"t{n}", f"ns::t{n}:1") for n in (1, 2, 3)))
        cluster_cat = Catalog(
            transformations=(
                TransformationEntry(namespace="ns", name="t1", version="1", site="p",
                                    container="plain"),
                TransformationEntry(namespace="ns", name="t2", version="1", site="p"),
            ),
            containers={"plain": make_container(name="plain")},
        )
        cluster_wf = AbstractWorkflow(tasks=tuple(
            Task(f"t{n}{i}", f"ns::t{n}:1") for n in (1, 2) for i in range(2)))
        for wf, cat, sites, k, kind, ids in [
            (fetch_wf, fetch_cat, fetch_sites, 1, JobKind.CONTAINER_FETCH,
             ["fetch_a_b_c", "fetch_a_b_c_3", "fetch_a_b_c_2"]),
            (cluster_wf, cluster_cat, [Site(name="s"), make_site(name="p", staging_site="s")],
             2, JobKind.COMPUTE, ["cluster_l0_p_plain_000", "cluster_l0_p_plain_000_2"]),
        ]:
            ewf = plan(wf, cat, sites, PlanConfig(cluster_size=k))
            all_ids = [j.id for j in ewf.jobs]
            assert len(set(all_ids)) == len(all_ids)
            assert [j.id for j in ewf.jobs_of_kind(kind)] == ids

    def test_singularity_containers_with_one_image_get_a_fetch_job_each(self):
        wf, cat, sites = single_container_model(2, ContainerRuntime.SINGULARITY)
        entry, c1 = cat.transformations[0], cat.containers["c1"]
        cat = parse_catalog(serialize_catalog(Catalog(
            transformations=(entry, replace(entry, name="tool2", container="c2")),
            containers={"c1": c1, "c2": replace(c1, name="c2")},
        )))
        wf = replace(wf, tasks=(wf.tasks[0], replace(wf.tasks[1], transformation="ns::tool2:1")))
        ewf = plan(wf, cat, sites, PlanConfig(cleanup=False))
        assert [j.id for j in ewf.jobs_of_kind(JobKind.CONTAINER_FETCH)] == [
            "fetch_c1_staging0", "fetch_c2_staging0"]

    def test_cleanup_jobs_follow_consumers(self):
        wf, cat, sites = single_container_model(3)
        ewf = plan(wf, cat, sites, PlanConfig(cleanup=True))
        cleanups = ewf.jobs_of_kind(JobKind.CLEANUP)
        assert len(cleanups) == 3
        parents = ewf.parents()
        for c in cleanups:
            assert c.payload.target_job in parents[c.id]

    def test_planned_workflow_validates(self):
        wf, cat, sites = single_container_model(5)
        ewf = plan(wf, cat, sites, PlanConfig(cluster_size=2))
        validate_executable(ewf)

    def test_workflow_validated_once_per_plan(self, monkeypatch):
        wf, cat, sites = single_container_model(5)
        calls = []

        def counting(wf):
            calls.append(wf)
            return validate_dag(wf)
        # plan may validate directly or through topological_levels
        monkeypatch.setattr(planner, "validate_dag", counting)
        monkeypatch.setattr(workflow, "validate_dag", counting)
        plan(wf, cat, sites, PlanConfig())
        assert calls == [wf]
        assert topological_levels(wf) and calls == [wf, wf]  # still validates alone

    def test_stage_out_ships_workflow_outputs(self):
        wf, cat, sites = single_container_model(4)
        ewf = plan(wf, cat, sites, PlanConfig(output_site="staging0", cleanup=False))
        outs = ewf.jobs_of_kind(JobKind.STAGE_OUT)
        assert len(outs) == 1
        shipped = {t[0].split("/")[-1] for t in outs[0].payload.transfers}
        assert shipped == {f"o{i:02d}" for i in range(4)}


class TestInsertContainerFetchJobs:
    def test_two_containers_two_staging_sites(self):
        rng = random.Random(0)
        containers = {
            "cA": make_container(name="cA"),
            "cB": make_container(name="cB"),
        }
        jobs = []
        for i in range(8):
            cname = "cA" if i % 2 == 0 else "cB"
            staging = "staging0" if i < 4 else "staging1"
            jobs.append(_compute_job(f"j{i}", cname, staging))
        ewf = ExecutableWorkflow(jobs=tuple(jobs))
        cat = Catalog(containers=containers)
        out = insert_container_fetch_jobs(ewf, cat)
        assert len(out.jobs_of_kind(JobKind.CONTAINER_FETCH)) == 4

    def test_all_shifter_no_fetch(self):
        cat = Catalog(containers={"cS": make_container(ContainerRuntime.SHIFTER, name="cS")})
        jobs = tuple(
            _compute_job(f"j{i}", "cS", "staging0",
                         placement=PlacementMode.SHIFTER_LOCAL)
            for i in range(5)
        )
        out = insert_container_fetch_jobs(ExecutableWorkflow(jobs=jobs), cat)
        assert out.jobs_of_kind(JobKind.CONTAINER_FETCH) == []

    def test_sixty_three_tasks_one_fetch(self):
        cat = Catalog(containers={"c1": make_container()})
        jobs = tuple(_compute_job(f"j{i:02d}", "c1", "staging0") for i in range(63))
        out = insert_container_fetch_jobs(ExecutableWorkflow(jobs=jobs), cat)
        fetches = out.jobs_of_kind(JobKind.CONTAINER_FETCH)
        assert len(fetches) == 1
        assert sum(1 for u, _ in out.edges if u == fetches[0].id) == 63


def _compute_job(jid, container, staging, placement=PlacementMode.STAGE_COPY,
                 level=0, site="compute", tasks=None):
    from contflow.planner import Job
    return Job(
        id=jid, kind=JobKind.COMPUTE, site=site,
        payload=ComputePayload(
            task_ids=tuple(tasks or (jid,)),
            container=container,
            placement=placement if container else None,
            backend=(ContainerRuntime.SHIFTER if placement is PlacementMode.SHIFTER_LOCAL
                     else ContainerRuntime.DOCKER) if container else None,
            staging_site=staging,
            level=level,
            runtime_s=1.0,
            image_bytes=10_000_000 if container else 0,
        ),
    )


class TestClusterJobs:
    def test_identity_for_k1(self):
        jobs = tuple(_compute_job(f"j{i}", "c1", "s0") for i in range(5))
        ewf = ExecutableWorkflow(jobs=jobs)
        assert cluster_jobs(ewf, 1) is ewf

    def test_63_tasks_k12(self):
        jobs = tuple(_compute_job(f"j{i:02d}", "c1", "s0") for i in range(63))
        out = cluster_jobs(ExecutableWorkflow(jobs=jobs), 12)
        compute = out.jobs_of_kind(JobKind.COMPUTE)
        assert len(compute) == 6  # ceil(63 / 12)
        sizes = sorted(len(j.payload.task_ids) for j in compute)
        assert sizes == [3, 12, 12, 12, 12, 12]

    def test_two_levels_single_edge(self):
        level0 = [_compute_job(f"a{i:02d}", "c1", "s0", level=0) for i in range(12)]
        level1 = [_compute_job(f"b{i:02d}", "c1", "s0", level=1) for i in range(12)]
        edges = tuple((f"a{i:02d}", f"b{i:02d}") for i in range(12))
        out = cluster_jobs(
            ExecutableWorkflow(jobs=tuple(level0 + level1), edges=edges), 12
        )
        assert len(out.jobs_of_kind(JobKind.COMPUTE)) == 2
        assert len(out.edges) == 1

    def test_fetch_stage_and_cleanup_jobs_pass_through_with_their_edges_remapped(self):
        from contflow.planner import CleanupPayload, Job, TransferPayload
        fetch = Job("fetch_c1_staging0", JobKind.CONTAINER_FETCH, "staging0",
                    TransferPayload((("docker:///x/y:1", "c1.tar", 10),), "", "staging0"))
        stage_in = Job("in_a", JobKind.STAGE_IN, "compute",
                       TransferPayload((("http://x/f", "f", 5),), "", "compute"))
        a, b = (_compute_job(jid, "c1", "staging0") for jid in ("a", "b"))
        stage_out = Job("out_b", JobKind.STAGE_OUT, "compute",
                        TransferPayload((("ob", "http://x/ob", 5),), "compute", ""))
        cleanup = Job("clean_b", JobKind.CLEANUP, "compute", CleanupPayload("b"))
        ewf = ExecutableWorkflow(
            jobs=(fetch, stage_in, a, b, stage_out, cleanup),
            edges=((fetch.id, "a"), (fetch.id, "b"), ("in_a", "a"), ("b", "out_b"),
                   ("out_b", "clean_b")),
        )
        out = cluster_jobs(ewf, 2)
        [cluster] = out.jobs_of_kind(JobKind.COMPUTE)
        assert (cluster.id, cluster.payload.task_ids) == ("cluster_l0_compute_c1_000", ("a", "b"))
        assert out.jobs == (cluster, fetch, stage_in, stage_out, cleanup)
        assert out.edges == ((fetch.id, cluster.id), ("in_a", cluster.id),
                             (cluster.id, "out_b"), ("out_b", "clean_b"))
        validate_executable(out)

    def test_monotone_in_k(self):
        rng = random.Random(3)
        prev = None
        jobs = tuple(
            _compute_job(f"j{i:02d}", "c1", "s0", level=rng.randrange(3))
            for i in range(40)
        )
        ewf = ExecutableWorkflow(jobs=jobs)
        for k in (1, 2, 4, 8, 16, 40):
            n = len(cluster_jobs(ewf, k).jobs_of_kind(JobKind.COMPUTE))
            if prev is not None:
                assert n <= prev
            prev = n


class TestProperties:
    def test_fetch_dedup_over_random_workflows(self):
        for seed in range(40):
            rng = random.Random(seed)
            ewf, *_ = plan_random(rng, max_tasks=25)
            pairs = {
                (j.payload.container, j.payload.staging_site)
                for j in ewf.jobs_of_kind(JobKind.COMPUTE)
                if j.payload.container is not None
                and j.payload.placement in TRANSFERABLE_PLACEMENTS
            }
            assert len(ewf.jobs_of_kind(JobKind.CONTAINER_FETCH)) == len(pairs)

    def test_cluster_flattening_preserves_precedence(self):
        for seed in range(30):
            rng = random.Random(1000 + seed)
            ewf, wf, cat, sites, cfg = plan_random(rng, max_tasks=30)
            flattened = [
                t for j in sorted(ewf.jobs_of_kind(JobKind.COMPUTE),
                                  key=lambda j: j.id)
                for t in j.payload.task_ids
            ]
            assert sorted(flattened) == sorted(t.id for t in wf.tasks)
            # each original precedence constraint maps to same-cluster order
            # or an inter-cluster path
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


def _reachability(ewf: ExecutableWorkflow) -> dict[str, set[str]]:
    children: dict[str, list[str]] = {j.id: [] for j in ewf.jobs}
    for u, v in ewf.edges:
        children[u].append(v)
    out: dict[str, set[str]] = {}

    def visit(n: str) -> set[str]:
        if n in out:
            return out[n]
        acc: set[str] = set()
        out[n] = acc  # DAG: no back-edges, safe to pre-insert
        for c in children[n]:
            acc.add(c)
            acc |= visit(c)
        return acc

    for j in ewf.jobs:
        visit(j.id)
    return out
