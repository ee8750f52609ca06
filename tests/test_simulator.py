"""Discrete-event simulator: closed-form oracles, conservation, determinism."""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from contflow.catalog import ContainerRuntime
from contflow.errors import SimError
from contflow.planner import (
    ComputePayload,
    ExecutableWorkflow,
    Job,
    JobKind,
    PlacementMode,
    PlanConfig,
    TransferPayload,
    plan,
)
from contflow.scenarios import (
    DOCKER_IMAGE_BYTES,
    GBPS,
    SUBMIT_SITE,
    demo_catalog,
    demo_plan,
    demo_scenarios,
    demo_sites,
    demo_topology,
    demo_workflow,
)
from contflow.simulator import (
    NodeSpec,
    _Engine,
    SimConfig,
    SimResult,
    Topology,
    critical_path_lower_bound,
    parse_topology,
    report,
    serialize_topology,
    simulate,
    sweep,
)


def tiny_topology(workers=1, slots=4, bw=1e8, untar_rate=1e8):
    ws = tuple(NodeSpec(f"site/w{i + 1}", slots=slots,
                        disk_untar_rate=untar_rate) for i in range(workers))
    links = {}
    for w in ws:
        links[("submit", w.name)] = bw
        links[(w.name, "submit")] = bw
    return Topology(submit=NodeSpec("submit"), nfs=None, workers=ws, links=links)


def compute_job(jid="c0", *, container=None, placement=None, backend=None,
                image_bytes=0, runtime_s=10.0, inputs=(("in", 100_000_000),),
                outputs=(("out", 50_000_000),)):
    return Job(
        id=jid, kind=JobKind.COMPUTE, site="site",
        payload=ComputePayload(
            task_ids=(jid,), container=container, placement=placement,
            backend=backend, staging_site="submit", runtime_s=runtime_s,
            image_bytes=image_bytes, input_files=tuple(inputs),
            output_files=tuple(outputs),
        ),
    )


class TestClosedFormOracles:
    def test_single_plain_job(self):
        # 100 MB in at 1e8 B/s = 1.0 s, run 10 s, 50 MB out = 0.5 s
        res = simulate(ExecutableWorkflow(jobs=(compute_job(),)),
                       tiny_topology(), SimConfig())
        assert res.makespan_s == pytest.approx(11.5, rel=1e-6)
        assert res.egress_totals["submit"] == pytest.approx(1e8)
        assert res.ingress_totals["submit"] == pytest.approx(5e7)

    def test_single_docker_job_adds_copy_and_untar(self):
        # + 200 MB image copy (2.0 s) + untar at 1e8 B/s (2.0 s)
        job = compute_job(container="tools", placement=PlacementMode.STAGE_COPY,
                          backend=ContainerRuntime.DOCKER, image_bytes=200_000_000)
        res = simulate(ExecutableWorkflow(jobs=(job,)),
                       tiny_topology(), SimConfig())
        assert res.makespan_s == pytest.approx(15.5, rel=1e-6)
        assert res.container_bytes_from("submit") == pytest.approx(2e8)

    def test_symlink_placement_skips_the_copy(self):
        job = compute_job(container="tools",
                          placement=PlacementMode.SHARED_FS_SYMLINK,
                          backend=ContainerRuntime.SINGULARITY,
                          image_bytes=200_000_000)
        res = simulate(ExecutableWorkflow(jobs=(job,)),
                       tiny_topology(), SimConfig())
        assert res.makespan_s == pytest.approx(11.5, rel=1e-6)
        assert res.container_bytes_from("submit") == 0

    def test_site_without_a_node_of_its_name_stages_on_its_first_node(self):
        # no node is named "site", so a transfer to it lands on site/w1
        job = Job(id="s0", kind=JobKind.STAGE_IN, site="submit",
                  payload=TransferPayload((("a", "b", 100_000_000),), "submit", "site"))
        res = simulate(ExecutableWorkflow(jobs=(job,)), tiny_topology(workers=2), SimConfig())
        assert [(f.src, f.dst) for f in res.flow_ledger] == [("submit", "site/w1")]
        assert res.makespan_s == pytest.approx(1.0, rel=1e-6)

    def test_two_flows_share_the_link_fairly(self):
        # two stage-ins on one 1e8 link: 100 MB each at 5e7 B/s = 2.0 s
        jobs = (compute_job("c0", runtime_s=0.0, outputs=()),
                compute_job("c1", runtime_s=0.0, outputs=()))
        res = simulate(ExecutableWorkflow(jobs=jobs),
                       tiny_topology(slots=2), SimConfig())
        assert res.makespan_s == pytest.approx(2.0, rel=1e-6)

    def test_empty_workflow(self):
        res = simulate(ExecutableWorkflow(jobs=()), tiny_topology(),
                       SimConfig())
        assert res.makespan_s == 0.0
        assert res.flow_ledger == []

    def test_untar_fifo_backlog(self):
        # two docker jobs, one worker, dedup off: untars serialize on the disk
        jobs = tuple(
            compute_job(f"c{i}", container="tools",
                        placement=PlacementMode.STAGE_COPY,
                        backend=ContainerRuntime.DOCKER,
                        image_bytes=100_000_000, runtime_s=0.0,
                        inputs=(), outputs=())
            for i in range(2)
        )
        # copies share the link: both land at t=2.0; untars run 2..3 and 3..4
        res = simulate(ExecutableWorkflow(jobs=jobs), tiny_topology(slots=2),
                       SimConfig(docker_load_dedup=False))
        assert res.makespan_s == pytest.approx(4.0, rel=1e-6)

    def test_dedup_shares_one_untar(self):
        jobs = tuple(
            compute_job(f"c{i}", container="tools",
                        placement=PlacementMode.STAGE_COPY,
                        backend=ContainerRuntime.DOCKER,
                        image_bytes=100_000_000, runtime_s=0.0,
                        inputs=(), outputs=())
            for i in range(4)
        )
        dedup = simulate(ExecutableWorkflow(jobs=jobs), tiny_topology(),
                         SimConfig(docker_load_dedup=True))
        nodedup = simulate(ExecutableWorkflow(jobs=jobs), tiny_topology(),
                           SimConfig(docker_load_dedup=False))
        assert dedup.makespan_s < nodedup.makespan_s


class TestErrors:
    def test_unmapped_site(self):
        job = compute_job()
        topo = Topology(submit=NodeSpec("submit"), nfs=None,
                        workers=(NodeSpec("elsewhere/w1"),),
                        links={("submit", "elsewhere/w1"): 1e8})
        with pytest.raises(SimError, match="^site 'site' maps to no topology node$"):
            simulate(ExecutableWorkflow(jobs=(job,)), topo, SimConfig())

    def test_missing_image_size(self):
        job = compute_job(container="tools", placement=PlacementMode.STAGE_COPY,
                          backend=ContainerRuntime.DOCKER, image_bytes=0)
        with pytest.raises(SimError, match="^job 'c0': container 'tools' has no image size$"):
            simulate(ExecutableWorkflow(jobs=(job,)), tiny_topology(),
                     SimConfig())

    def test_jobs_on_a_cycle_never_become_runnable(self):
        """simulate() takes the executable as given; a caller that skips
        validate_executable gets the jobs the cycle holds back named."""
        jobs = (compute_job("a"), compute_job("b"), compute_job("c"))
        ewf = ExecutableWorkflow(jobs=jobs, edges=(("a", "b"), ("b", "c"), ("c", "b")))
        with pytest.raises(SimError) as exc:
            simulate(ewf, tiny_topology(), SimConfig())
        assert str(exc.value) == "jobs never became runnable: ['b', 'c']"

    def test_bad_topology_link(self):
        with pytest.raises(SimError):
            Topology(submit=NodeSpec("submit"), nfs=None, workers=(),
                     links={("submit", "ghost"): 1e8}).validate()

    @pytest.mark.parametrize("rate", [0.0, -1e8, math.nan])
    def test_disk_untar_rate_must_be_positive(self, rate):
        with pytest.raises(SimError, match="disk_untar_rate must be > 0"):
            NodeSpec("w1", disk_untar_rate=rate)


class TestConservationAndBounds:
    @pytest.mark.parametrize("container,k", [
        (None, 1), ("docker", 1), ("docker", 12), ("singularity", 12),
    ])
    def test_byte_conservation(self, container, k):
        res = simulate(demo_plan(container, cluster_size=k),
                       demo_topology(), SimConfig())
        # every byte leaving a node arrives at exactly one other node
        assert sum(res.egress_totals.values()) == \
            pytest.approx(sum(res.ingress_totals.values()))
        assert res.total_transfer_bytes == \
            pytest.approx(sum(res.egress_totals.values()))
        # brute-force re-count of the ledger agrees with the kind tallies
        by_kind: dict[str, float] = {}
        for f in res.flow_ledger:
            by_kind[f.kind] = by_kind.get(f.kind, 0.0) + f.bytes
        assert by_kind == pytest.approx(res.transfer_bytes_by_kind)

    @pytest.mark.parametrize("container,k", [
        (None, 1), ("docker", 1), ("docker", 12), ("singularity", 1),
    ])
    def test_lower_bound_holds(self, container, k):
        ewf = demo_plan(container, cluster_size=k)
        topo = demo_topology()
        res = simulate(ewf, topo, SimConfig())
        assert critical_path_lower_bound(ewf, topo) <= res.makespan_s + 1e-6

    def test_egress_never_exceeds_port_capacity(self):
        res = simulate(demo_plan("docker"), demo_topology(), SimConfig())
        for bucket in res.per_node_egress["submit"]:
            assert bucket <= GBPS * (1 + 1e-6)

    def test_flow_ledger_times_ordered(self):
        res = simulate(demo_plan("docker"), demo_topology(), SimConfig())
        for f in res.flow_ledger:
            assert 0 <= f.started <= f.ended <= res.makespan_s + 1e-9


class TestContainerTrafficShape:
    def test_stage_copy_sends_one_image_per_compute_job(self):
        res = simulate(demo_plan("docker", cluster_size=1),
                       demo_topology(), SimConfig())
        assert res.transfer_count_by_kind["container"] == 63
        assert res.container_bytes_from("submit") == \
            pytest.approx(63 * DOCKER_IMAGE_BYTES)

    def test_clustering_sends_one_image_per_cluster(self):
        res = simulate(demo_plan("docker", cluster_size=12),
                       demo_topology(), SimConfig())
        assert res.transfer_count_by_kind["container"] == 6

    def test_symlink_sends_exactly_one_image_over_submit_link(self):
        res = simulate(demo_plan("docker", shared_fs=True),
                       demo_topology(), SimConfig())
        assert res.container_bytes_from("submit") == \
            pytest.approx(DOCKER_IMAGE_BYTES)


class TestDeterminism:
    def same_result(self, a: SimResult, b: SimResult) -> bool:
        return (
            a.makespan_s == b.makespan_s
            and a.job_timeline == b.job_timeline
            and a.per_node_egress == b.per_node_egress
            and a.transfer_count_by_kind == b.transfer_count_by_kind
            and [vars(f) for f in a.flow_ledger] == [vars(f) for f in b.flow_ledger]
        )

    def test_identical_runs(self):
        args = (demo_plan("docker", cluster_size=12),
                demo_topology(), SimConfig())
        assert self.same_result(simulate(*args), simulate(*args))

    def test_report_files_byte_identical(self, tmp_path):
        ewf, topo = demo_plan("singularity"), demo_topology()
        files_a = report(simulate(ewf, topo, SimConfig()), tmp_path / "a")
        files_b = report(simulate(ewf, topo, SimConfig()), tmp_path / "b")
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()


class TestReport:
    def test_egress_columns_sum_to_totals(self, tmp_path):
        res = simulate(demo_plan("docker"), demo_topology(), SimConfig())
        report(res, tmp_path)
        header, *rows = (tmp_path / "egress.tsv").read_text().splitlines()
        nodes = header.split("\t")[1:]
        sums = [0.0] * len(nodes)
        for row in rows:
            for i, v in enumerate(row.split("\t")[1:]):
                sums[i] += float(v)
        for node, s in zip(nodes, sums):
            assert s == pytest.approx(res.egress_totals[node], rel=1e-3)

    def test_sub_nanosecond_flows_reach_the_egress_columns(self, tmp_path):
        # 10 B over 4.9e11 B/s lasts 2e-11 s, shorter than the engine's 1e-9 s
        # tolerance; its bytes must still land in a bucket
        topo = Topology(submit=NodeSpec("submit"), nfs=NodeSpec("nfs"),
                        links={("submit", "nfs"): 4.9e11, ("nfs", "submit"): 4.9e11})
        ewf = ExecutableWorkflow(
            jobs=(Job("in", JobKind.STAGE_IN, "nfs",
                      TransferPayload((("a", "b", 10),), "submit", "nfs")),
                  Job("out", JobKind.STAGE_OUT, "submit",
                      TransferPayload((("b", "c", 11),), "nfs", "submit"))),
            edges=(("in", "out"),),
        )
        res = simulate(ewf, topo, SimConfig())
        report(res, tmp_path)
        header, *rows = (tmp_path / "egress.tsv").read_text().splitlines()
        columns = zip(*(row.split("\t")[1:] for row in rows))
        sums = {node: sum(map(float, col)) for node, col in zip(header.split("\t")[1:], columns)}
        assert res.egress_totals == {"submit": 10.0, "nfs": 11.0}
        assert sums == pytest.approx(res.egress_totals, rel=1e-6)

    def test_sliver_after_the_last_whole_second_reaches_the_egress_columns(self, tmp_path):
        # the stage-out sends over [0.5, 3.0000000005) at 1e12 B/s; bucket 3
        # must get the last 5e-10 s, 500 B, although that is under 1e-9 s
        topo = Topology(submit=NodeSpec("submit"), nfs=NodeSpec("nfs"),
                        links={("submit", "nfs"): 1e12, ("nfs", "submit"): 1e12})
        ewf = ExecutableWorkflow(
            jobs=(Job("in", JobKind.STAGE_IN, "nfs",
                      TransferPayload((("a", "b", 500_000_000_000),), "submit", "nfs")),
                  Job("out", JobKind.STAGE_OUT, "submit",
                      TransferPayload((("b", "c", 2_500_000_000_500),), "nfs", "submit"))),
            edges=(("in", "out"),),
        )
        res = simulate(ewf, topo, SimConfig())
        report(res, tmp_path)
        header, *rows = (tmp_path / "egress.tsv").read_text().splitlines()
        columns = zip(*(row.split("\t")[1:] for row in rows))
        sums = {node: sum(map(float, col)) for node, col in zip(header.split("\t")[1:], columns)}
        assert res.egress_totals == {"submit": 5e11, "nfs": 2_500_000_000_500.0}
        assert len(rows) == 4
        assert sums == pytest.approx(res.egress_totals, rel=0, abs=1.0)

    def test_timeline_covers_every_job(self, tmp_path):
        ewf = demo_plan("docker", cluster_size=12)
        res = simulate(ewf, demo_topology(), SimConfig())
        report(res, tmp_path)
        rows = (tmp_path / "timeline.tsv").read_text().splitlines()[1:]
        assert {r.split("\t")[0] for r in rows} == {j.id for j in ewf.jobs}


class TestSweep:
    def test_rows_sorted_and_labeled(self):
        rows = sweep(demo_scenarios(cluster_sizes=(12,)))
        assert [r["label"] for r in rows] == sorted(r["label"] for r in rows)
        assert {r["label"] for r in rows} == {"none_k12", "docker_k12",
                                              "singularity_k12"}

    def test_empty_sweep_rejected(self):
        with pytest.raises(SimError):
            sweep([])


class TestTopologySerialization:
    def test_round_trip(self):
        topo = demo_topology()
        again = parse_topology(serialize_topology(topo))
        assert again == topo

    def test_math_isinf_regression(self):
        # a single instant local transfer must not be mistaken for a stall
        job = Job(id="noop", kind=JobKind.CLEANUP, site="submit", payload=None)
        res = simulate(ExecutableWorkflow(jobs=(job,)), tiny_topology(),
                       SimConfig())
        assert res.makespan_s == 0.0


def simulate_within(ewf, topo, cfg, timeout=10.0) -> SimResult:
    """simulate() in a daemon thread, so a livelock fails the test instead of hanging it."""
    box = {}

    def call():
        try:
            box["result"] = simulate(ewf, topo, cfg)
        except Exception as exc:  # re-raised in the test thread below
            box["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "simulate did not finish"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestFlowCompletion:
    """Flows finish at their projected event time, even when rounding leaves
    a residue of bytes whose remaining time is below the clock's resolution."""

    @pytest.mark.parametrize(
        "n_tasks,input_bytes,output_bytes,k,shared_fs,cleanup,topo,makespan", [
        # three data_in flows each used to be left with 0.00156 B at t = 1004.9 s
        (7, 10_000_000, 1_000_000, 1, False, False,
         demo_topology(submit_bw=1.25e11, worker_bw=1.25e11, slots=1), 2004.907944),
        # the demo's own worker-link speed; used to spin at t = 20005.7 s
        (44, 100_000_000, 100_000, 12, True, True,
         demo_topology(n_workers=3, slots=1, submit_bw=1.25e9, worker_bw=1.25e9),
         20005.677440),
    ], ids=["fast_links", "demo_worker_links"])
    def test_rounding_residue_does_not_livelock(
        self, n_tasks, input_bytes, output_bytes, k, shared_fs, cleanup, topo, makespan
    ):
        wf = demo_workflow(n_tasks=n_tasks, runtime_s=1000.0,
                           input_bytes=input_bytes, output_bytes=output_bytes)
        ewf = plan(wf, demo_catalog("docker"), demo_sites(shared_fs=shared_fs),
                   PlanConfig(cluster_size=k, output_site=SUBMIT_SITE, cleanup=cleanup))
        res = simulate_within(ewf, topo, SimConfig())
        assert f"{res.makespan_s:.6f}" == f"{makespan:.6f}"
        assert sum(res.egress_totals.values()) == sum(res.ingress_totals.values())
        assert res.total_transfer_bytes == sum(res.egress_totals.values())
        assert len(res.job_timeline) == len(ewf.jobs)


def reference_rates(links, pairs, fair_share):
    """Reference rate solve: rebuilds every constraint group per solve and
    rescans all groups for each frozen flow.  Returns one rate per pair."""
    egress_cap: dict[str, float] = {}
    ingress_cap: dict[str, float] = {}
    for (a, b), bw in links.items():
        egress_cap[a] = max(egress_cap.get(a, 0.0), bw)
        ingress_cap[b] = max(ingress_cap.get(b, 0.0), bw)
    flows = [SimpleNamespace(fid=i, src=a, dst=b) for i, (a, b) in enumerate(pairs)]
    if not fair_share:
        return [
            min(links[(f.src, f.dst)], egress_cap[f.src], ingress_cap[f.dst])
            for f in flows
        ]
    groups: dict[tuple, tuple[float, list]] = {}
    for f in flows:
        for key, cap in (
            (("p", f.src, f.dst), links[(f.src, f.dst)]),
            (("e", f.src), egress_cap[f.src]),
            (("i", f.dst), ingress_cap[f.dst]),
        ):
            if key in groups:
                groups[key][1].append(f)
            else:
                groups[key] = (cap, [f])
    alloc: dict[int, float] = {}
    remaining = {k: cap for k, (cap, _) in groups.items()}
    unfrozen = {f.fid for f in flows}
    while unfrozen:
        best_key = None
        best_fair = math.inf
        for key, (_, members) in groups.items():
            n = sum(1 for m in members if m.fid in unfrozen)
            if n == 0:
                continue
            fair = remaining[key] / n
            if fair < best_fair - 1e-9:
                best_fair = fair
                best_key = key
        for m in groups[best_key][1]:
            if m.fid not in unfrozen:
                continue
            alloc[m.fid] = best_fair
            unfrozen.discard(m.fid)
            for key, (_, members) in groups.items():
                if key != best_key and any(x.fid == m.fid for x in members):
                    remaining[key] -= best_fair
        remaining[best_key] = 0.0
    return [alloc[f.fid] for f in flows]


@st.composite
def links_and_flows(draw):
    """Up to 5 nodes, random directed links, and flows over them with repeated
    pairs: up to 12 flows over any of the links, or up to 40 over at most 4."""
    names = ["submit"] + [f"w{i}" for i in range(draw(st.integers(1, 4)))]
    pairs = [(a, b) for a in names for b in names if a != b]
    # round bandwidths often tie, and on a tie the constraint met first saturates
    round_bandwidth = st.sampled_from([1e6, 2.5e6, 3e6, 7e6, 1e7, 1.25e8, 1.25e9])
    bandwidth = draw(st.sampled_from([
        round_bandwidth, st.one_of(round_bandwidth, st.floats(1e6, 1e12))]))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    links = {pair: draw(bandwidth) for pair in chosen}
    if draw(st.booleans()):
        crowded = draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=4, unique=True))
        flows = draw(st.lists(st.sampled_from(crowded), min_size=1, max_size=40))
    else:
        flows = draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=12))
    topo = Topology(submit=NodeSpec("submit"), nfs=None,
                    workers=tuple(NodeSpec(n) for n in names[1:]), links=links)
    return topo, flows


def account_reference(buckets, t0, t1, rate):
    """Reference egress accounting for one flow: walks each 1-second bucket of [t0, t1)."""
    t = t0
    while t < t1:
        idx = int(t)
        while len(buckets) <= idx:
            buckets.append(0.0)
        span = min(t1, idx + 1.0) - t
        buckets[idx] += rate * span
        t = idx + 1.0


@st.composite
def event_times(draw):
    """Non-decreasing event times: whole seconds, within 1e-9 of one, and sub-second."""
    t = draw(st.sampled_from([0.0, 0.25, 3.0, 7.9999999995]))
    times = []
    for step in draw(st.lists(st.sampled_from(["whole", "near", "sub", "same"]),
                              min_size=1, max_size=12)):
        if step == "whole":
            t = float(math.floor(t) + draw(st.integers(1, 4)))
        elif step == "near":
            t = max(t, math.floor(t) + draw(st.integers(0, 4)) + draw(st.sampled_from(
                [-1e-9, -5e-10, -1e-10, 1e-10, 5e-10, 1e-9, 2e-9])))
        elif step == "sub":
            t += draw(st.floats(1e-6, 3.5))
        times.append(t)
    return times


rates = st.one_of(st.sampled_from([0.0, -1e-6, 1.0, 1.25e8, 1.25e9]),
                  st.floats(1e-3, 1e12))


class TestAccounting:
    """Each event's egress and drained bytes equal a flow-by-flow walk, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), event_times())
    def test_buckets_equal_reference(self, data, times):
        names = ["submit", "w0", "w1", "w2"]
        links = {(a, b): 1e9 for a in names for b in names if a != b}
        topo = Topology(submit=NodeSpec("submit"),
                        workers=tuple(NodeSpec(n) for n in names[1:]), links=links)
        engine = _Engine(ExecutableWorkflow(), topo, SimConfig())
        engine.now = times[0]
        # several flows per source, some over the same pair
        pairs = data.draw(st.lists(st.sampled_from(sorted(links)), min_size=1, max_size=10))
        for src, dst in pairs:
            engine.start_flow(src, dst, data.draw(st.floats(1.0, 1e10)), "data_in",
                              lambda: None)
        ref_buckets = {n: [] for n in names}
        ref_remaining = [f.remaining for f in engine.flows]
        for t in times[1:]:
            for pair in engine.pairs.values():
                pair.rate = data.draw(rates)
            for i, f in enumerate(engine.flows):
                if f.pair.rate > 0:
                    ref_remaining[i] = max(ref_remaining[i] - f.pair.rate * (t - engine.now), 0.0)
                    account_reference(ref_buckets[f.src], engine.now, t, f.pair.rate)
            engine._advance(t)
            assert engine.now == t
            assert engine.egress_buckets == ref_buckets
            assert [f.remaining for f in engine.flows] == ref_remaining


def io_wait_reference(spec, records, n_buckets):
    """Reference I/O-wait series: sums every untar record at every second."""
    series = []
    for t in range(n_buckets):
        backlog = 0.0
        for arrival, start, end, nbytes in records:
            if arrival <= t < start:
                backlog += nbytes
            elif start <= t < end:
                backlog += (end - t) * spec.disk_untar_rate
        series.append(
            spec.disk_service_base_ms + 1000.0 * backlog / spec.disk_untar_rate
        )
    return series


class TestIoWaitSeries:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1e8, 3.3e7, 1e9]),
           st.lists(st.tuples(st.one_of(st.just(0.0), st.integers(0, 5).map(float),
                                        st.floats(0.0, 4.0)),
                              st.integers(1, 10**9)), max_size=20),
           st.integers(-3, 3))
    def test_series_equals_reference(self, untar_rate, arrivals, extra):
        node = NodeSpec("w1", disk_untar_rate=untar_rate)
        topo = Topology(submit=NodeSpec("submit"), workers=(node,),
                        links={("submit", "w1"): 1e9})
        engine = _Engine(ExecutableWorkflow(), topo, SimConfig())
        # FIFO untar records, made the way the engine makes them
        for gap, nbytes in arrivals:
            engine.now += gap
            engine.enqueue_untar("w1", nbytes, lambda: None)
        records = engine.untar_records["w1"]
        n_buckets = max(0, math.ceil(max((r[2] for r in records), default=0.0)) + extra)
        assert engine._io_wait_series("w1", n_buckets) == \
            io_wait_reference(node, records, n_buckets)


# Two constraints tie here, and the rates' last bits depend on which saturates first
TIED_LINKS = {("w2", "w0"): 3e6, ("w1", "w2"): 1e6, ("w0", "submit"): 2.5e6,
              ("w2", "submit"): 7e6, ("submit", "w1"): 3e6}
TIED_FLOWS = [("w0", "submit"), ("w2", "w0"), ("w2", "submit"), ("w0", "submit"),
              ("w2", "submit"), ("w2", "submit"), ("w2", "submit"), ("w1", "w2"),
              ("w2", "w0")]


class TestRateSolve:
    @settings(max_examples=300, deadline=None)
    @given(links_and_flows(), st.booleans())
    @example((Topology(submit=NodeSpec("submit"),
                       workers=tuple(NodeSpec(n) for n in ("w0", "w1", "w2")),
                       links=TIED_LINKS), TIED_FLOWS), True)
    def test_rates_equal_reference(self, case, fair_share):
        topo, pairs = case
        engine = _Engine(ExecutableWorkflow(), topo, SimConfig(fair_share=fair_share))
        for src, dst in pairs:
            engine.start_flow(src, dst, 1.0, "data_in", lambda: None)
        engine._solve_rates()
        assert [f.pair.rate for f in engine.flows] == \
            reference_rates(topo.links, pairs, fair_share)



def retry_every_waiting_job(engine):
    """Reference dispatch pass: every parked job asks for a slot, in id order, full
    site or not."""
    released = []
    while engine.ready:
        released.append(engine.ready.pop())
    parked = sorted(jid for queue in engine.parked.values() for jid in queue)
    engine.parked = {}
    for jid in heapq.merge(parked, released):
        job = engine.jobs[jid]
        if not engine.start_job(job):
            heapq.heappush(engine.parked.setdefault(job.site, []), jid)


class CountingJobs(dict):
    """A job table that counts the ids looked up in it."""
    lookups = 0

    def __getitem__(self, jid):
        self.lookups += 1
        return super().__getitem__(jid)


class TestDispatch:
    def job_ids_examined(self, monkeypatch, n_tasks):
        """Job ids the dispatcher looks up, summed over its passes, on the docker demo."""
        real_dispatch = _Engine.dispatch
        examined = []

        def dispatch(engine):
            if not isinstance(engine.jobs, CountingJobs):
                engine.jobs = CountingJobs(engine.jobs)
            before = engine.jobs.lookups
            real_dispatch(engine)
            examined.append(engine.jobs.lookups - before)

        monkeypatch.setattr(_Engine, "dispatch", dispatch)
        simulate(demo_plan("docker", cleanup=True, n_tasks=n_tasks), demo_topology(),
                 SimConfig())
        return sum(examined)

    def test_examined_ids_grow_linearly_with_jobs(self, monkeypatch):
        small = self.job_ids_examined(monkeypatch, 500)
        large = self.job_ids_examined(monkeypatch, 2000)
        assert large <= 5 * small, (small, large)

    def two_one_slot_sites(self):
        ws = (NodeSpec("other/w1", slots=1), NodeSpec("site/w1", slots=1))
        links = {}
        for w in ws:
            links[("submit", w.name)] = 1e8
            links[(w.name, "submit")] = 1e8
        topo = Topology(submit=NodeSpec("submit"), nfs=None, workers=ws, links=links)
        jobs = tuple(
            replace(compute_job(f"c{i:02d}"), site="other" if i % 4 == 0 else "site")
            for i in range(20)
        )
        return ExecutableWorkflow(jobs=jobs), topo

    def test_full_site_is_asked_once_per_pass(self, monkeypatch):
        ewf, topo = self.two_one_slot_sites()
        passes: list[list[tuple[str, str | None]]] = []
        real_dispatch, real_pick = _Engine.dispatch, _Engine._pick_worker

        def dispatch(engine):
            passes.append([])
            real_dispatch(engine)

        def pick(engine, site):
            node = real_pick(engine, site)
            passes[-1].append((site, node))
            return node

        monkeypatch.setattr(_Engine, "dispatch", dispatch)
        monkeypatch.setattr(_Engine, "_pick_worker", pick)
        simulate(ewf, topo, SimConfig())
        # c00 and c01 start, c02 and c04 find their sites full, 16 more wait unasked
        assert passes[0] == [("other", "other/w1"), ("site", "site/w1"),
                             ("site", None), ("other", None)]
        for calls in passes:
            for site in ("other", "site"):
                assert calls.count((site, None)) <= 1

    def test_result_equals_retrying_every_job(self, monkeypatch):
        scenarios = [
            (*self.two_one_slot_sites(), SimConfig()),
            (demo_plan("docker", cleanup=True), demo_topology(slots=1), SimConfig()),
            (demo_plan("singularity", cluster_size=12, shared_fs=True),
             demo_topology(n_workers=2, slots=2), SimConfig(fair_share=False)),
        ]
        skipping = [simulate(ewf, topo, cfg) for ewf, topo, cfg in scenarios]
        monkeypatch.setattr(_Engine, "dispatch", retry_every_waiting_job)
        retrying = [simulate(ewf, topo, cfg) for ewf, topo, cfg in scenarios]
        assert skipping == retrying
