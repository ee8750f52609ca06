"""Discrete-event simulation of executable-workflow runs.

Topology: one submit node (also the data gateway to the outside world), an
optional shared-storage node, and worker nodes.  Network transfers are fluid
flows; with fair sharing on, link bandwidth is split max-min fair across
concurrent flows, where every flow is constrained by its node-pair link, the
sender's egress port and the receiver's ingress port.  Docker image loads
additionally occupy a per-node FIFO disk server (the untar), which inflates
the service time of concurrent I/O requests on that node.

A site name maps onto topology nodes whose name equals the site or starts
with ``<site>/``; workers for a compute site are conventionally named
``<site>/w1``, ``<site>/w2``, ...
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import SimError, ValidationError
from .planner import (
    ComputePayload,
    ExecutableWorkflow,
    Job,
    JobKind,
    TransferPayload,
    job_shape,
)
from .workflow import (
    ReadySet,
    load_yaml,
    read_record,
    read_value,
    refuse_repeats,
    topological_order,
    write_record,
)

_EPS = 1e-9


@dataclass(frozen=True)
class NodeSpec:
    name: str
    slots: int = 1
    disk_untar_rate: float = 1e8  # bytes/s the disk sustains while importing images
    disk_service_base_ms: float = 10.0

    def __post_init__(self):
        if self.slots < 1:
            raise SimError(f"node {self.name!r}: slots must be >= 1")
        if not self.disk_untar_rate > 0:
            raise SimError(f"node {self.name!r}: disk_untar_rate must be > 0")
        if not 0 <= self.disk_service_base_ms < math.inf:  # NaN fails both tests
            raise SimError(f"node {self.name!r}: disk_service_base_ms must be finite and "
                           f">= 0, not {self.disk_service_base_ms!r}")


@dataclass(frozen=True)
class LinkSpec:
    src: str
    dst: str
    bandwidth: float  # bytes/s


@dataclass(frozen=True)
class Topology:
    submit: NodeSpec
    nfs: NodeSpec | None = None
    workers: tuple[NodeSpec, ...] = ()
    links: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def nodes(self) -> list[NodeSpec]:
        out = [self.submit]
        if self.nfs is not None:
            out.append(self.nfs)
        out.extend(self.workers)
        return out

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes()]

    def nodes_for_site(self, site: str) -> list[NodeSpec]:
        out = [
            n for n in self.nodes()
            if n.name == site or n.name.startswith(site + "/")
        ]
        if not out:
            raise SimError(f"site {site!r} maps to no topology node")
        return out

    def validate(self) -> None:
        refuse_repeats(self.node_names(), SimError, "node name")
        names = set(self.node_names())
        for (a, b), bw in self.links.items():
            if a not in names or b not in names:
                raise SimError(f"link ({a!r}, {b!r}) references unknown node")
            if not 0 < bw < math.inf:  # NaN fails both tests
                raise SimError(f"link ({a!r}, {b!r}): bandwidth must be > 0 and finite, "
                               f"not {bw!r}")


@dataclass(frozen=True)
class SimConfig:
    docker_load_dedup: bool = True
    fair_share: bool = True


@dataclass
class FlowRecord:
    src: str
    dst: str
    bytes: int
    kind: str
    started: float
    ended: float


def _same(a: float, b: float) -> bool:
    """Whether two floats print alike: equal, and a 0.0 never a -0.0."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


class Runs:
    """A read-only sequence of floats, held as runs of equal values.

    Run i is ``counts[i]`` copies of ``values[i]``; each count is >= 1 and no
    two neighbouring values are alike, so a series that holds one value for a
    million seconds costs one run.  ``len``, iteration, indexing and ``==``
    against a list or another Runs behave as on the list the runs spell out.
    """
    __slots__ = ("values", "counts", "_len")

    def __init__(self, runs=()):
        self.values: list[float] = []
        self.counts: list[int] = []
        self._len = 0
        for value, count in runs:
            self._append(value, count)

    def runs(self):
        """The ``(value, count)`` pairs, in order."""
        return zip(self.values, self.counts)

    # The engine builds a series with these two: it only appends, and only
    # ever revises the last value.
    def _append(self, value: float, count: int) -> None:
        if count <= 0:
            return
        if self.values and _same(self.values[-1], value):
            self.counts[-1] += count
        else:
            self.values.append(value)
            self.counts.append(count)
        self._len += count

    def _put(self, i: int, value: float) -> None:
        """Set item ``i``, the last item or one past the end, padding with 0.0."""
        if i < self._len:
            self._len -= 1
            if self.counts[-1] > 1:
                self.counts[-1] -= 1
            else:
                self.values.pop()
                self.counts.pop()
        else:
            self._append(0.0, i - self._len)
        self._append(value, 1)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for value, count in self.runs():
            for _ in range(count):
                yield value

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("Runs index out of range")
        for value, count in self.runs():
            if i < count:
                return value
            i -= count

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Runs, list)):
            return NotImplemented
        if len(other) != self._len:
            return False
        if isinstance(other, Runs) and self.counts == other.counts \
                and self.values == other.values:
            return True
        return all(a is b or a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Runs({list(self.runs())!r})"


@dataclass
class SimResult:
    makespan_s: float
    per_node_egress: dict[str, Runs]  # bytes/s per 1-second bucket
    per_node_io_wait_ms: dict[str, Runs]
    transfer_count_by_kind: dict[str, int]
    transfer_bytes_by_kind: dict[str, float]
    job_timeline: list[tuple[str, float, float, str]]
    egress_totals: dict[str, float]
    ingress_totals: dict[str, float]
    flow_ledger: list[FlowRecord] = field(metadata={"rows": True})  # rows in result.json

    def container_bytes_from(self, node: str) -> float:
        return sum(
            f.bytes for f in self.flow_ledger if f.kind == "container" and f.src == node
        )


class _Pair:
    """The flows over one link: they share every constraint, so one rate."""
    __slots__ = ("keys", "rate")

    def __init__(self, keys: tuple[int, int, int]):
        # constraint ids in solve order: the link, sender egress, receiver ingress
        self.keys = keys
        self.rate = 0.0


class _Flow:
    __slots__ = ("src", "dst", "pair", "total", "remaining", "kind", "done_cb",
                 "started")

    def __init__(self, src, dst, pair, total, kind, done_cb, started):
        self.src = src
        self.dst = dst
        self.pair = pair
        self.total = total
        self.remaining = float(total)
        self.kind = kind
        self.done_cb = done_cb
        self.started = started


def _bucket_spans(t0: float, t1: float) -> tuple[int | None, float, int, float | None]:
    """The 1-second buckets an interval [t0, t1) adds to, as a per-second walk finds them.

    The walk starts at t = t0 and, while t < t1, adds min(t1, i + 1) - t
    seconds to bucket i = int(t) and moves t to i + 1, so however short the
    interval or its part past the last whole second, its bytes land.
    Returns ``(first, span0, stop, span1)``: bucket ``first`` gets span0
    seconds (first is None for an empty interval), each bucket in
    ``range(first + 1, stop)`` gets exactly 1.0, and bucket ``stop`` gets span1
    unless span1 is None.
    """
    if not t0 < t1:
        return None, 0.0, 0, None
    first = int(t0)
    span0 = min(t1, first + 1.0) - t0
    stop = max(first + 1, int(t1))
    return first, span0, stop, (t1 - stop if stop < t1 else None)


class _Engine:
    def __init__(self, ewf: ExecutableWorkflow, topo: Topology, cfg: SimConfig):
        self.topo = topo
        self.cfg = cfg
        self.now = 0.0
        self.flows: list[_Flow] = []
        self.timers: list[tuple[float, int, object]] = []
        self._seq = 0

        self.node_by_name = {n.name: n for n in topo.nodes()}
        self.site_nodes: dict[str, list[NodeSpec]] = {}
        self.running_on: dict[str, int] = {n.name: 0 for n in topo.nodes()}
        self.disk_free_at: dict[str, float] = {n.name: 0.0 for n in topo.nodes()}
        self.untar_records: dict[str, list[tuple[float, float, float, float]]] = {
            n.name: [] for n in topo.nodes()
        }
        self.untar_done_at: dict[tuple[str, str], float] = {}

        self.jobs = {j.id: j for j in ewf.jobs}
        self.ready = ReadySet(self.jobs, ewf.edges)
        # per site, an id heap of ready compute jobs that found no free slot
        self.parked: dict[str, list[str]] = {}
        self.done: set[str] = set()
        self.timeline: dict[str, tuple[float, float, str]] = {}

        self.egress_buckets: dict[str, Runs] = {n.name: Runs() for n in topo.nodes()}
        self.egress_totals: dict[str, float] = {n.name: 0.0 for n in topo.nodes()}
        self.ingress_totals: dict[str, float] = {n.name: 0.0 for n in topo.nodes()}
        self.count_by_kind: dict[str, int] = {}
        self.bytes_by_kind: dict[str, float] = {}
        self.ledger: list[FlowRecord] = []

        # capacity per constraint id; the fastest link at a port bounds it
        self.caps: list[float] = []
        self.pairs: dict[tuple[str, str], _Pair] = {}
        ids: dict[tuple, int] = {}
        for (a, b), bw in topo.links.items():
            keys = (("p", a, b), ("e", a), ("i", b))
            p, e, i = (ids.setdefault(key, len(ids)) for key in keys)
            self.caps.extend([0.0] * (len(ids) - len(self.caps)))
            self.caps[p] = bw
            self.caps[e] = max(self.caps[e], bw)
            self.caps[i] = max(self.caps[i], bw)
            self.pairs[(a, b)] = _Pair((p, e, i))

    # -- primitives ---------------------------------------------------------

    def at(self, t: float, cb) -> None:
        self._seq += 1
        heapq.heappush(self.timers, (max(t, self.now), self._seq, cb))

    def start_flow(self, src: str, dst: str, nbytes: float, kind: str, done_cb) -> None:
        if src == dst or nbytes <= 0:
            self.at(self.now, done_cb)
            return
        pair = self.pairs.get((src, dst))
        if pair is None:
            raise SimError(f"no link from {src!r} to {dst!r}")
        self.flows.append(_Flow(src, dst, pair, nbytes, kind, done_cb, self.now))

    def _solve_rates(self) -> None:
        """Set each live pair's rate: max-min fair over its constraints, or its tightest one.

        Every flow of a pair gets the pair's rate.  Pairs are taken in order of
        their first live flow and weighted by their live flow counts, so the
        constraints come up in the order a solve over single flows meets them,
        and a frozen share leaves each other constraint one subtraction per
        flow: the rates equal that solve's to the bit.  A constraint left with
        no unfrozen flow is dropped unsubtracted: its share is never read again.
        """
        caps = self.caps
        live: dict[_Pair, int] = {}  # live flows per pair, in order of its first flow
        for f in self.flows:
            live[f.pair] = live.get(f.pair, 0) + 1
        if not self.cfg.fair_share:
            for p in live:
                p.rate = min(caps[k] for k in p.keys)
            return
        # Water filling: the constraint with the smallest fair share saturates
        # and freezes its unfrozen members at that share.
        count: dict[int, int] = {}  # unfrozen flows per constraint
        for p, n in live.items():
            p.rate = None
            for k in p.keys:
                count[k] = count.get(k, 0) + n
        left = caps.copy()
        while count:
            best_key = None
            best_fair = math.inf
            for k, n in count.items():
                fair = left[k] / n
                if fair < best_fair - _EPS:
                    best_fair = fair
                    best_key = k
            for p, n in live.items():
                if p.rate is not None or best_key not in p.keys:
                    continue
                p.rate = best_fair
                for k in p.keys:
                    if k == best_key:
                        continue
                    if count[k] == n:
                        del count[k]
                        continue
                    rest = left[k]
                    for _ in range(n):
                        rest -= best_fair
                    left[k] = rest
                    count[k] -= n
            del count[best_key]

    def _advance(self, t_next: float) -> None:
        """Send every live flow's bytes up to t_next and move the clock there.

        A flow never drops below zero bytes.  Every flow sends over [now,
        t_next), so all of them add to the same egress buckets.  A bucket
        wholly inside the interval is touched by no other event: it gets its
        source's rates summed in flow order, and the whole stretch is one run.
        The partial first and last buckets get each flow's bytes in flow order
        too, so every bucket rounds as if the flows were added to it one at a
        time.  Only the last bucket of a series is ever added to again: the
        next event starts where this one ends.
        """
        egress = self.egress_buckets
        now = self.now
        dt = t_next - now
        first, span0, stop, span1 = _bucket_spans(now, t_next)
        whole = first is not None and stop > first + 1
        head: dict[str, float] = {}  # bucket first, per source
        tail: dict[str, float] = {}  # bucket stop
        whole_rates: dict[str, float] = {}
        for f in self.flows:
            rate = f.pair.rate
            if rate > 0:
                left = f.remaining - rate * dt
                f.remaining = 0.0 if left < 0.0 else left
                if first is None:
                    continue
                src = f.src
                value = head.get(src)
                if value is None:
                    series = egress[src]
                    value = series.values[-1] if len(series) > first else 0.0
                head[src] = value + rate * span0
                if span1 is not None:
                    tail[src] = tail.get(src, 0.0) + rate * span1
                if whole:
                    whole_rates[src] = whole_rates.get(src, 0.0) + rate
        for src, value in head.items():
            series = egress[src]
            series._put(first, value)
            if whole:
                series._append(whole_rates[src], stop - first - 1)
            if span1 is not None:
                series._append(tail[src], 1)
        self.now = t_next

    # -- disk model ---------------------------------------------------------

    def enqueue_untar(self, node: str, nbytes: float, done_cb) -> float:
        spec = self.node_by_name[node]
        start = max(self.now, self.disk_free_at[node])
        end = start + nbytes / spec.disk_untar_rate
        self.disk_free_at[node] = end
        self.untar_records[node].append((self.now, start, end, nbytes))
        self.at(end, done_cb)
        return end

    # -- job lifecycle ------------------------------------------------------

    def _nodes(self, site: str) -> list[NodeSpec]:
        nodes = self.site_nodes.get(site)
        if nodes is None:
            nodes = self.site_nodes[site] = self.topo.nodes_for_site(site)
        return nodes

    def _pick_worker(self, site: str) -> str | None:
        # least-loaded node with a free slot, ties to the smallest name
        free = [n.name for n in self._nodes(site) if self.running_on[n.name] < n.slots]
        return min(free, key=lambda name: (self.running_on[name], name), default=None)

    def _staging_node(self, site: str) -> str:
        # the site's node of its own name if it has one (its storage node),
        # else its first node, a ``site/...`` worker
        nodes = self._nodes(site)
        for n in nodes:
            if n.name == site:
                return n.name
        return nodes[0].name

    def dispatch(self) -> None:
        # One pass suffices: no job finishes inside it and slots only fill, so
        # a job that finds no slot here cannot find one later in the same pass.
        # The pass merges the released jobs with the head of each site's parked
        # queue, in id order; once a site is full its queue is left unwalked and
        # its later released compute jobs park without a look.
        todo = [(queue[0], site) for site, queue in self.parked.items() if queue]
        while self.ready:
            todo.append((self.ready.pop(), None))
        heapq.heapify(todo)
        full: set[str] = set()
        while todo:
            jid, parked_at = heapq.heappop(todo)
            if parked_at in full:
                continue
            job = self.jobs[jid]
            if job.kind is JobKind.COMPUTE and job.site in full:
                heapq.heappush(self.parked.setdefault(job.site, []), jid)
            elif not self.start_job(job):
                full.add(job.site)
                if parked_at is None:
                    heapq.heappush(self.parked.setdefault(job.site, []), jid)
            elif parked_at is not None:
                queue = self.parked[parked_at]
                heapq.heappop(queue)
                if queue:
                    heapq.heappush(todo, (queue[0], parked_at))

    def start_job(self, job: Job) -> bool:
        if job.kind is JobKind.COMPUTE:
            node = self._pick_worker(job.site)
            if node is None:
                return False
            self.running_on[node] += 1
            self.timeline[job.id] = (self.now, -1.0, node)
            routine = self._compute(job, node, lambda: next(routine, None))
            next(routine)
            return True

        if job.kind is JobKind.CLEANUP:
            self.timeline[job.id] = (self.now, -1.0, "")
            self.at(self.now, lambda j=job: self.finish_job(j))
            return True

        payload = job.payload
        assert isinstance(payload, TransferPayload)
        kind = {
            JobKind.CONTAINER_FETCH: "container",
            JobKind.STAGE_IN: "stage_in",
            JobKind.STAGE_OUT: "stage_out",
        }[job.kind]
        src = (
            self._staging_node(payload.src_site)
            if payload.src_site else self.topo.submit.name
        )
        dst = self._staging_node(payload.dst_site) if payload.dst_site else src
        self.timeline[job.id] = (self.now, -1.0, dst)
        self.start_flow(
            src, dst, payload.total_bytes, kind, lambda j=job: self.finish_job(j)
        )
        return True

    def _compute(self, job: Job, node: str, then):
        """Run compute job ``job`` on ``node``, one phase per ``yield``.

        The phases are the image copy, the image load (untar), stage-in, the
        run and stage-out.  Each hands ``then`` to the flow, untar or timer it
        starts and yields; ``then`` resumes the routine when that one ends.
        """
        p = job.payload
        assert isinstance(p, ComputePayload)
        shape = job_shape(job)
        if shape.materialize and p.image_bytes <= 0:
            raise SimError(
                f"job {job.id!r}: container {p.container!r} has no image size"
            )
        if shape.materialize == "pull":
            staging = self._staging_node(p.staging_site)
            self.start_flow(staging, node, p.image_bytes, "container", then)
        else:
            # symlink / bypass / local registry / no container: no copy to the worker
            self.at(self.now, then)
        yield
        key = (p.container, node)
        if shape.load is None:
            self.at(self.now, then)
        elif self.cfg.docker_load_dedup and key in self.untar_done_at:
            self.at(max(self.now, self.untar_done_at[key]), then)
        else:
            self.untar_done_at[key] = self.enqueue_untar(node, p.image_bytes, then)
        yield
        staging = self._staging_node(p.staging_site)
        self.start_flow(staging, node, sum(s for _, s in p.input_files), "data_in", then)
        yield
        self.at(self.now + p.runtime_s, then)
        yield
        self.start_flow(node, staging, sum(s for _, s in p.output_files), "data_out", then)
        yield
        self.finish_job(job)

    def finish_job(self, job: Job) -> None:
        self.done.add(job.id)
        self.ready.release(job.id)
        start, _, node = self.timeline[job.id]
        self.timeline[job.id] = (start, self.now, node)
        if job.kind is JobKind.COMPUTE:
            self.running_on[node] -= 1
        self.dispatch()

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        self.dispatch()
        while self.flows or self.timers:
            self._solve_rates()
            # A flow finishes at the end it projects here, whatever bytes
            # rounding leaves when _advance sends them.
            now = self.now
            ends = [now + f.remaining / f.pair.rate if f.pair.rate > 0 else math.inf
                    for f in self.flows]
            t_next = min(ends, default=math.inf)
            if self.timers and self.timers[0][0] < t_next:
                t_next = self.timers[0][0]
            if math.isinf(t_next):
                stuck = [j for j in self.jobs if j not in self.done]
                raise SimError(f"simulation stalled; unfinished jobs: {stuck[:5]}")
            self._advance(t_next)
            finished = []
            if t_next in ends:
                finished = [f for f, end in zip(self.flows, ends) if end == t_next]
                self.flows = [f for f, end in zip(self.flows, ends) if end != t_next]

            for f in finished:
                self.egress_totals[f.src] += f.total
                self.ingress_totals[f.dst] += f.total
                self.count_by_kind[f.kind] = self.count_by_kind.get(f.kind, 0) + 1
                self.bytes_by_kind[f.kind] = self.bytes_by_kind.get(f.kind, 0.0) + f.total
                self.ledger.append(FlowRecord(
                    f.src, f.dst, f.total, f.kind, f.started, self.now,
                ))
            for f in finished:
                f.done_cb()
            while self.timers and self.timers[0][0] <= self.now + _EPS:
                _, _, cb = heapq.heappop(self.timers)
                cb()

        unfinished = [j for j in self.jobs if j not in self.done]
        if unfinished:
            raise SimError(f"jobs never became runnable: {unfinished[:5]}")

        makespan = max((end for _, end, _ in self.timeline.values()), default=0.0)
        n_buckets = int(math.ceil(makespan)) if makespan > 0 else 0
        # no bucket lies past the makespan: the last event ends the last job
        for series in self.egress_buckets.values():
            series._append(0.0, n_buckets - len(series))
        io_wait = {
            name: self._io_wait_series(name, n_buckets)
            for name in self.node_by_name
        }
        return SimResult(
            makespan_s=makespan,
            per_node_egress=self.egress_buckets,
            per_node_io_wait_ms=io_wait,
            transfer_count_by_kind=dict(sorted(self.count_by_kind.items())),
            transfer_bytes_by_kind=dict(sorted(self.bytes_by_kind.items())),
            job_timeline=sorted(
                (jid, s, e, n) for jid, (s, e, n) in self.timeline.items()
            ),
            egress_totals=self.egress_totals,
            ingress_totals=self.ingress_totals,
            flow_ledger=self.ledger,
        )

    def _io_wait_series(self, node: str, n_buckets: int) -> Runs:
        spec = self.node_by_name[node]
        rate = spec.disk_untar_rate
        records = self.untar_records[node]
        # The disk serves untars first come, first served, so arrivals and ends
        # never decrease: the records queued or in service at t (arrival <= t <
        # end) are the index range [lo, hi), and both ends only move forward.
        # Where the range is empty the backlog is 0.0: an idle gap is one run.
        idle = spec.disk_service_base_ms + 1000.0 * 0.0 / rate
        series = Runs()
        lo = hi = t = 0
        while t < n_buckets:
            while hi < len(records) and records[hi][0] <= t:
                hi += 1
            while lo < hi and records[lo][2] <= t:
                lo += 1
            if lo == hi:
                if hi == len(records):
                    break
                busy = min(n_buckets, max(t + 1, math.ceil(records[hi][0])))  # next arrival
                series._append(idle, busy - t)
                t = busy
                continue
            backlog = 0.0
            for _, start, end, nbytes in records[lo:hi]:
                if t < start:
                    backlog += nbytes
                else:
                    backlog += (end - t) * rate
            series._append(spec.disk_service_base_ms + 1000.0 * backlog / rate, 1)
            t += 1
        series._append(idle, n_buckets - t)
        return series


def simulate(ewf: ExecutableWorkflow, topo: Topology, cfg: SimConfig) -> SimResult:
    """Run one deterministic simulated execution of an executable workflow."""
    return _Engine(ewf, topo, cfg).run()


def critical_path_lower_bound(ewf: ExecutableWorkflow, topo: Topology) -> float:
    """Makespan lower bound: longest path of runtime + bytes at best link speed."""
    max_bw = max(topo.links.values()) if topo.links else math.inf
    weight: dict[str, float] = {}
    for j in ewf.jobs:
        w = 0.0
        p = j.payload
        if isinstance(p, ComputePayload):
            w += p.runtime_s
            moved = sum(s for _, s in p.input_files) + sum(s for _, s in p.output_files)
            if job_shape(j).materialize == "pull":
                moved += p.image_bytes
            w += moved / max_bw
        elif isinstance(p, TransferPayload):
            if p.src_site != p.dst_site:
                w += p.total_bytes / max_bw
        weight[j.id] = w
    dist: dict[str, float] = {}
    parents = ewf.parents()
    for n in topological_order([j.id for j in ewf.jobs], ewf.edges):
        dist[n] = weight[n] + max((dist[p] for p in parents[n]), default=0.0)
    return max(dist.values(), default=0.0)


# --- reporting -------------------------------------------------------------

WRITE_CHARS = 1 << 16  # characters per write of a long run in result.json or a table


def _write_series_table(f, series_map: dict[str, Runs]) -> None:
    """Write one row per second, ``t`` then each node's value, nodes sorted.

    A series shorter than the longest reads as 0.0 past its end.  The rows
    where every column stays in one run share their cells, each formatted
    once, and go out in pieces of at most WRITE_CHARS characters, or one row.
    """
    nodes = sorted(series_map)
    n = max((len(series_map[x]) for x in nodes), default=0)
    f.write("t\t" + "\t".join(nodes) + "\n")
    columns = []  # per node: [its later (cell, rows) runs, the current cell, its rows left]
    for x in nodes:
        series = series_map[x]
        cells = [("\t%.6f" % value, count) for value, count in series.runs()]
        cells.append(("\t%.6f" % 0.0, n - len(series)))
        runs = iter(cells)
        columns.append([runs, *next(runs)])
    t = 0
    while t < n:
        for col in columns:
            while col[2] == 0:
                col[1:] = next(col[0])
        step = min(col[2] for col in columns)
        row = "".join(col[1] for col in columns) + "\n"
        rows = max(1, WRITE_CHARS // (len(str(t + step)) + len(row)))
        for lo in range(t, t + step, rows):
            f.write(row.join(map(str, range(lo, min(lo + rows, t + step)))) + row)
        for col in columns:
            col[2] -= step
        t += step


def report(res: SimResult, out: str | Path) -> list[Path]:
    """Write the makespan summary and per-node series as delimited text."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    written = []

    summary = out / "summary.txt"
    lines = [f"makespan_s\t{res.makespan_s:.6f}"]
    for kind in sorted(res.transfer_count_by_kind):
        lines.append(
            f"transfers.{kind}\t{res.transfer_count_by_kind[kind]}"
            f"\t{res.transfer_bytes_by_kind[kind]:.0f}"
        )
    for node in sorted(res.egress_totals):
        lines.append(f"egress_total.{node}\t{res.egress_totals[node]:.0f}")
    for node in sorted(res.ingress_totals):
        lines.append(f"ingress_total.{node}\t{res.ingress_totals[node]:.0f}")
    summary.write_text("\n".join(lines) + "\n")
    written.append(summary)

    for fname, series_map in (
        ("egress.tsv", res.per_node_egress),
        ("io_wait.tsv", res.per_node_io_wait_ms),
    ):
        path = out / fname
        with open(path, "w") as f:
            _write_series_table(f, series_map)
        written.append(path)

    timeline = out / "timeline.tsv"
    rows = ["job\tstart\tend\tnode"]
    for jid, start, end, node in res.job_timeline:
        rows.append(f"{jid}\t{start:.6f}\t{end:.6f}\t{node}")
    timeline.write_text("\n".join(rows) + "\n")
    written.append(timeline)
    return written


# --- result.json -------------------------------------------------------------

_SERIES = ("per_node_egress", "per_node_io_wait_ms")
_ENCODER = json.JSONEncoder(indent=1, sort_keys=True)


def _write_series(write, series_map: dict[str, Runs]) -> None:
    """Write a per-node series map as the value of a top-level key.

    A run is one line repeated, in pieces of at most WRITE_CHARS characters.
    """
    opening = "{"
    for node in sorted(series_map):
        write(opening + "\n  " + json.dumps(node) + ": ")
        opening = ","
        series = series_map[node]
        item = "["
        for v, count in series.runs():
            line = ",\n   " + json.dumps(v)
            write(item + line[1:])
            item = ","
            per = max(1, WRITE_CHARS // len(line))
            for done in range(1, count, per):
                write(line * min(per, count - done))
        write("\n  ]" if series else "[]")
    write("\n }" if series_map else "{}")


def write_result(res: SimResult, f) -> None:
    """Write ``res`` to text file ``f`` as ``json.dumps(write_record(res),
    indent=1, sort_keys=True)`` would: each value but the per-node series
    through json's encoder, one level deeper than it would be alone."""
    doc = write_record(replace(res, **dict.fromkeys(_SERIES, {})))
    write = f.write
    opening = "{"
    for key in sorted(doc):
        write(opening + "\n " + json.dumps(key) + ": ")
        opening = ","
        if key in _SERIES:
            _write_series(write, getattr(res, key))
        else:
            for chunk in _ENCODER.iterencode(doc[key]):
                write(chunk.replace("\n", "\n "))
    write("\n}")


def _read_series(value, key: str) -> dict[str, Runs]:
    """The per-node series under ``key``; a node's list not yet read into runs
    is read now."""
    nodes = read_value(dict, value, "result", key)
    return {
        read_value(str, name, "result", key): v if type(v) is Runs else
            Runs((x, 1) for x in read_value(list[float], v, "result", key))
        for name, v in nodes.items()
    }


def _result_from_doc(doc) -> SimResult:
    if not isinstance(doc, dict):
        raise ValidationError(f"result document cannot be a {type(doc).__name__}")
    series = {key: _read_series(doc[key], key) for key in _SERIES if key in doc}
    res = read_record(SimResult, doc, "result", **series)
    for a, b, what in (("transfer_count_by_kind", "transfer_bytes_by_kind", "kinds"),
                       (*_SERIES, "nodes")):
        if set(getattr(res, a)) != set(getattr(res, b)):
            raise ValidationError(f"result document: {a} and {b} name different {what}")
    lengths = {len(s) for m in (res.per_node_egress, res.per_node_io_wait_ms) for s in m.values()}
    if len(lengths) > 1:
        raise ValidationError(
            f"result document: the per-node series differ in length: {sorted(lengths)}"
        )
    for jid, start, end, _ in res.job_timeline:
        if not end >= start:
            raise ValidationError(
                f"result document: job_timeline entry {jid!r} must not end before "
                f"it starts: start {start!r}, end {end!r}"
            )
    return res


READ_CHUNK = 1 << 16  # characters per read of result.json

_WS = re.compile(r"[ \t\n\r]*")
# A number as JSON writes it, or a constant json reads, then each later list
# item with the same text and the same separator: one match is a whole run.  A
# separator starts with whitespace or ",", so only the last copy could be cut
# short, and the end of its item must be seen: a match never stops inside a
# number cut off at the end of the text read.
_RUN = re.compile(r"(-?Infinity|NaN|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
                  r"(?:([ \t\n\r]*,[ \t\n\r]*)\1(?:\2\1)*)?(?=[ \t\n\r]*[,\]])")
_DECODE = json.JSONDecoder().raw_decode


class _Unsure(Exception):
    """The streaming reader met text that json.loads must judge."""


class _ResultReader:
    """Reads a result document from text file ``f`` in pieces of at most
    READ_CHUNK characters, each per-node series list straight into Runs.

    It holds the text not yet consumed, which is one piece unless a single key
    or value spans more, the runs, and the values outside the series.  A step
    that fails is tried again on more text; at the end of the file it raises
    _Unsure.
    """

    def __init__(self, f):
        self.f = f
        self.text = ""
        self.pos = 0
        self.eof = False
        self.bad = None  # the first element of the current list that is not a number

    def _more(self) -> None:
        """Drop the consumed text and read at least as much again as is left."""
        if self.eof:
            raise _Unsure
        left = self.text[self.pos:]
        parts, size = [left], 0
        while size <= len(left):
            piece = self.f.read(READ_CHUNK)
            if not piece:
                self.eof = True
                break
            parts.append(piece)
            size += len(piece)
        self.text, self.pos = "".join(parts), 0

    def _skip(self) -> str:
        """Skip whitespace; the next character, or "" at the end of the file."""
        while True:
            self.pos = _WS.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self._more()

    def _sep(self, ends: str) -> str:
        """Consume the next character, which must be one of ``ends``."""
        c = self._skip()
        if not c or c not in ends:
            raise _Unsure
        self.pos += 1
        return c

    def _value(self, ends: str):
        """The value at pos, and the one of ``ends`` that must follow it.

        The two are read together: a number is only known to be whole once the
        text after it is read.
        """
        while True:
            try:
                value, end = _DECODE(self.text, self.pos)
            except ValueError:
                pass
            else:
                end = _WS.match(self.text, end).end()
                if end < len(self.text) and self.text[end] in ends:
                    self.pos = end + 1
                    return value, self.text[end]
            self._more()

    def _object(self, read) -> dict:
        """The object at pos, just past its "{", each value and the "," or "}"
        after it read by ``read(key, first character)``."""
        out = {}
        if self._skip() == "}":
            self.pos += 1
            return out
        while True:
            self._skip()
            while not self.text.startswith('"', self.pos):
                self._more()
            key, _ = self._value(":")
            out[key], end = read(key, self._skip())
            if end == "}":
                return out

    def _field(self, key: str, first: str):
        if key in _SERIES and first == "{":
            self.pos += 1
            return self._object(self._node), self._sep(",}")
        return self._value(",}")

    def _node(self, key: str, first: str):
        """A node's series as Runs; where read_value turns an element down, a list
        of that element alone; and a value that is not a list, as it is."""
        if first != "[":
            return self._value(",}")
        self.pos += 1
        self.bad = None
        runs = Runs(self._runs(key))
        return runs if self.bad is None else self.bad, self._sep(",}")

    def _runs(self, key: str):
        """Yield the (value, count) runs of the list at pos, just past its "[",
        each value as ``read_value(float, ...)`` reads it, and consume the "]"."""
        if self._skip() == "]":
            self.pos += 1
            return
        while True:
            m = _RUN.match(self.text, self.pos)
            if m:
                value = _DECODE(self.text, self.pos)[0]
                count = 1 + self.text.count(",", m.end(1), m.end())
                self.pos = m.end()
                end = self._sep(",]")
            else:
                (value, end), count = self._value(",]"), 1
            if self.bad is None:
                try:
                    yield read_value(float, value, "result", key), count
                except ValidationError:
                    self.bad = [value]
            if end == "]":
                return
            self._skip()

    def document(self):
        if self._skip() != "{":
            raise _Unsure
        self.pos += 1
        doc = self._object(self._field)
        if self._skip():
            raise _Unsure  # trailing data
        return doc


def read_result(f) -> SimResult:
    """The result in text file ``f``, read as ``json.loads`` reads its text,
    except that each per-node series list is read straight into Runs, in
    bounded memory.

    A list that read_value would turn down stays a short list that
    _result_from_doc turns down the same way.  A document the streaming reader
    does not accept, such as malformed JSON, a top level that is not an
    object or lists nested too deep to decode, is read again whole by
    json.loads, which gives the verdict.  An OSError or UnicodeDecodeError
    from reading ``f`` is left to the caller.
    """
    try:
        doc = _ResultReader(f).document()
    except (ValueError, RecursionError, _Unsure):
        f.seek(0)
        text = f.read()
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"result document is not valid JSON: {exc}") from None
    return _result_from_doc(doc)


def sweep(
    scenarios: list[tuple[str, ExecutableWorkflow, Topology, SimConfig]],
) -> list[dict]:
    """Simulate each scenario; return one row per label, sorted by label."""
    if not scenarios:
        raise SimError("sweep needs at least one scenario")
    rows = []
    for label, ewf, topo, cfg in scenarios:
        res = simulate(ewf, topo, cfg)
        rows.append({
            "label": label,
            "makespan_s": res.makespan_s,
            "transfers": dict(res.transfer_count_by_kind),
            "container_bytes_from_submit": res.container_bytes_from(topo.submit.name),
        })
    return sorted(rows, key=lambda r: r["label"])


def parse_topology(text: str) -> Topology:
    """Parse the topology YAML document (submit / nfs / workers / links)."""
    doc = load_yaml(text, "topology")
    links = read_value(list[LinkSpec], doc.get("links", []), "topology", "links")
    refuse_repeats(((link.src, link.dst) for link in links), SimError, "link")
    return read_record(Topology, doc, "topology",
                       links={(link.src, link.dst): link.bandwidth for link in links})


def format_sweep(rows: list[dict]) -> str:
    out = [f"{'label':<28} {'makespan_s':>12}  transfers"]
    for r in rows:
        transfers = ", ".join(f"{k}={v}" for k, v in sorted(r["transfers"].items()))
        out.append(f"{r['label']:<28} {r['makespan_s']:>12.2f}  {transfers}")
    return "\n".join(out)
