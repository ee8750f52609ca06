"""Abstract workflow validation and level computation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from contflow.errors import CycleDetected, ValidationError
from contflow.workflow import (
    AbstractWorkflow,
    FileMeta,
    ReadySet,
    Task,
    parse_workflow,
    require_acyclic,
    serialize_workflow,
    topological_levels,
    topological_order,
    validate_dag,
)

from conftest import make_chain, make_diamond


def dfs_acyclic_oracle(n_tasks: int, edges: set[tuple[str, str]]) -> bool:
    """Independent acyclicity check by exhaustive DFS from every node."""
    adj: dict[str, list[str]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)

    def reaches_itself(start: str) -> bool:
        stack, seen = list(adj.get(start, [])), set()
        while stack:
            n = stack.pop()
            if n == start:
                return True
            if n in seen:
                continue
            seen.add(n)
            stack.extend(adj.get(n, []))
        return False

    return not any(reaches_itself(f"t{i}") for i in range(n_tasks))


def brute_force_longest_path(tasks: list[str], edges: set[tuple[str, str]]) -> dict[str, int]:
    """Longest path to each node by repeated relaxation (no topological sort)."""
    dist = {t: 0 for t in tasks}
    for _ in range(len(tasks)):
        for u, v in edges:
            dist[v] = max(dist[v], dist[u] + 1)
    return dist


class TestValidateDag:
    def test_two_task_chain_ok(self):
        validate_dag(make_chain(2))

    def test_cycle_detected(self):
        wf = AbstractWorkflow(
            tasks=(Task("A", "ns::x:1"), Task("B", "ns::x:1")),
            edges=(("A", "B"), ("B", "A")),
        )
        with pytest.raises(CycleDetected) as exc:
            validate_dag(wf)
        assert "A" in exc.value.cycle and "B" in exc.value.cycle

    def test_file_flow_cycle_detected(self):
        wf = AbstractWorkflow(tasks=(
            Task("A", "ns::x:1", inputs=("fb",), outputs=("fa",)),
            Task("B", "ns::x:1", inputs=("fa",), outputs=("fb",)),
        ))
        with pytest.raises(CycleDetected):
            validate_dag(wf)

    def test_dangling_edge(self):
        wf = AbstractWorkflow(tasks=(Task("A", "ns::x:1"),), edges=(("A", "Z"),))
        with pytest.raises(ValidationError, match=r"^edge \('A', 'Z'\) references unknown task$"):
            validate_dag(wf)

    def test_multiple_producers(self):
        wf = AbstractWorkflow(tasks=(
            Task("A", "ns::x:1", outputs=("f",)),
            Task("B", "ns::x:1", outputs=("f",)),
        ))
        with pytest.raises(ValidationError, match="^file 'f' produced by both 'A' and 'B'$"):
            validate_dag(wf)

    def test_duplicate_task_id(self):
        wf = AbstractWorkflow(tasks=(Task("A", "ns::x:1"), Task("A", "ns::x:1")))
        with pytest.raises(ValidationError, match="^duplicate task id 'A'$"):
            validate_dag(wf)

    def test_inputs_and_outputs_overlap(self):
        wf = AbstractWorkflow(tasks=(Task("A", "ns::x:1", inputs=("f",), outputs=("f",)),),
                              files={"f": FileMeta("f", 1, initial_location="http://x/f")})
        with pytest.raises(ValidationError, match="^task 'A': inputs and outputs overlap$"):
            validate_dag(wf)

    def test_orphan_input(self):
        wf = AbstractWorkflow(tasks=(Task("A", "ns::x:1", inputs=("mystery",)),))
        with pytest.raises(ValidationError, match="^task 'A' input 'mystery' has no "
                           "producer and no initial location$"):
            validate_dag(wf)

    def test_input_with_location_ok(self):
        wf = AbstractWorkflow(
            tasks=(Task("A", "ns::x:1", inputs=("in",)),),
            files={"in": FileMeta("in", 10, initial_location="http://x/in")},
        )
        validate_dag(wf)

    def test_63_task_fixture_valid(self):
        # 63 parallel compute tasks fanning out from one staged input; the
        # fan-in happens at stage-out.  Checked against the DFS oracle.
        from contflow.scenarios import demo_workflow
        wf = demo_workflow()
        assert len(wf.tasks) == 63
        validate_dag(wf)
        assert dfs_acyclic_oracle(63, wf.effective_edges())

    def test_deep_chain_is_not_recursive(self):
        validate_dag(make_chain(3000))

    def test_back_edge_after_deep_chain(self):
        chain = make_chain(3000)
        wf = AbstractWorkflow(tasks=chain.tasks, edges=(("t2999", "t2997"),),
                              files=chain.files)
        with pytest.raises(CycleDetected) as exc:
            validate_dag(wf)
        assert exc.value.cycle == ["t2997", "t2998", "t2999", "t2997"]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2000), st.integers(0, 3), st.booleans(), st.integers(0, 10**6))
    def test_cycle_report_at_scale(self, n, back_edges, self_loop, seed):
        # forward edges over a shuffled order; each back edge closes a forward walk
        rng = random.Random(seed)
        nodes = [f"t{i}" for i in range(n)]
        order = rng.sample(nodes, n)
        edges = []
        for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
            i = rng.randrange(n - 1)
            edges.append((order[i], order[rng.randint(i + 1, min(i + 10, n - 1))]))
        children: dict[str, list[str]] = {}
        for u, v in edges:
            children.setdefault(u, []).append(v)
        for _ in range(back_edges):
            start = node = rng.choice(nodes)
            for _ in range(rng.randint(1, n)):
                if node not in children:
                    break
                node = rng.choice(children[node])
            if node != start:
                edges.append((node, start))
        if self_loop:
            loop = rng.choice(nodes)
            edges.append((loop, loop))
        edge_set = set(edges)

        def reported(nodes, edges):
            try:
                require_acyclic(nodes, edges)
            except CycleDetected as exc:
                return exc.cycle
            return None

        cycle = reported(nodes, edges)
        assert (cycle is None) == dfs_acyclic_oracle(n, edge_set)
        if cycle is None:
            return
        assert cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        assert all(edge in edge_set for edge in zip(cycle, cycle[1:]))
        if self_loop and not back_edges:  # the self-loop is the only cycle
            assert cycle == [loop, loop]
        assert reported(rng.sample(nodes, n), rng.sample(edges, len(edges))) == cycle

    def test_idempotent(self):
        wf = make_diamond()
        validate_dag(wf)
        validate_dag(wf)  # second call must not raise or mutate anything
        assert wf == make_diamond()


class TestTopologicalLevels:
    def test_chain(self):
        levels = topological_levels(make_chain(3))
        assert levels == {"t0": 0, "t1": 1, "t2": 2}

    def test_diamond(self):
        levels = topological_levels(make_diamond())
        assert levels == {"A": 0, "B": 1, "C": 1, "D": 2}

    def test_random_dag_matches_brute_force(self):
        rng = random.Random(7)
        ids = [f"t{i}" for i in range(50)]
        edges = set()
        for i in range(50):
            for j in range(i + 1, 50):
                if rng.random() < 0.05:
                    edges.add((f"t{i}", f"t{j}"))
        wf = AbstractWorkflow(
            tasks=tuple(Task(t, "ns::x:1") for t in ids),
            edges=tuple(sorted(edges)),
        )
        assert topological_levels(wf) == brute_force_longest_path(ids, edges)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 10**6))
    def test_every_edge_increases_level(self, n, seed):
        rng = random.Random(seed)
        edges = {
            (f"t{i}", f"t{j}")
            for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.2
        }
        wf = AbstractWorkflow(
            tasks=tuple(Task(f"t{i}", "ns::x:1") for i in range(n)),
            edges=tuple(sorted(edges)),
        )
        levels = topological_levels(wf)
        assert all(levels[u] < levels[v] for u, v in edges)


class TestSerialization:
    def test_round_trip(self):
        wf = make_chain(4)
        assert parse_workflow(serialize_workflow(wf)) == wf

    def test_empty_initial_location_round_trips(self):
        # an empty location is still a location: the input needs no producer
        wf = AbstractWorkflow(
            tasks=(Task("t", "ns::x:1", inputs=("f",)),),
            files={"f": FileMeta("f", 1, initial_location="")},
        )
        validate_dag(wf)
        back = parse_workflow(serialize_workflow(wf))
        assert back == wf
        validate_dag(back)

    def test_defaults_applied(self):
        wf = parse_workflow("""
tasks:
  - {id: a, transformation: "ns::x:1"}
files:
  - {name: f1}
""")
        assert wf.tasks[0].expected_runtime_s == 1.0
        assert wf.files["f1"].size_bytes == 1_048_576


def kahn_sort_every_pop(nodes, edges):
    """Reference Kahn order: re-sort the ready list after every pop."""
    children = {n: [] for n in nodes}
    indeg = {n: 0 for n in nodes}
    for u, v in edges:
        children[u].append(v)
        indeg[v] += 1
    order = []
    ready = sorted(n for n, d in indeg.items() if d == 0)
    while ready:
        node = ready.pop(0)
        order.append(node)
        for c in children[node]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort()
    return order


@st.composite
def small_dags(draw):
    """Node names in random order; edges only go forward in that order, repeats allowed."""
    names = draw(st.permutations([f"n{i}" for i in range(draw(st.integers(0, 9)))]))
    if len(names) < 2:
        return names, []
    pairs = st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1))
    edges = [
        (names[min(i, j)], names[max(i, j)])
        for i, j in draw(st.lists(pairs, max_size=30)) if i != j
    ]
    return names, edges


class TestReadySet:
    @settings(max_examples=200, deadline=None)
    @given(small_dags())
    def test_order_matches_sort_on_every_pop(self, dag):
        nodes, edges = dag
        assert topological_order(nodes, edges) == kahn_sort_every_pop(nodes, edges)

    @settings(max_examples=200, deadline=None)
    @given(small_dags(), st.data())
    def test_incremental_release(self, dag, data):
        nodes, edges = dag
        ready = ReadySet(nodes, edges)
        handed_out: list[str] = []
        running: list[str] = []
        released: set[str] = set()
        while ready or running:
            while ready:
                node = ready.pop()
                assert node not in handed_out
                assert all(u in released for u, v in edges if v == node)
                handed_out.append(node)
                running.append(node)
            node = running.pop(data.draw(st.integers(0, len(running) - 1)))
            released.add(node)
            ready.release(node)
        assert sorted(handed_out) == sorted(nodes)

    def test_cycle_members_never_ready(self):
        assert topological_order(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "b")]) == ["a"]
