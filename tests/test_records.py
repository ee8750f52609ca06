"""The record dataclasses declare each document's fields once.

``read_record`` builds a record from a document entry by its fields' keys,
annotations and defaults; ``write_record`` writes it back.  The parsers add
only what is not a field: sections, the payload class by job kind, file names
as keys, link keys and the catalog's URL, mount and profile checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest

from contflow import planner
from contflow.catalog import (
    ContainerDef,
    ContainerRuntime,
    InstallType,
    TransformationEntry,
    parse_catalog,
    parse_image_url,
)
from contflow.cli import main
from contflow.errors import ValidationError
from contflow.planner import (
    CleanupPayload,
    ComputePayload,
    ExecutableWorkflow,
    Job,
    JobKind,
    PlacementMode,
    PlanConfig,
    Site,
    TransferPayload,
    parse_executable,
    parse_sites,
    serialize_executable,
)
from contflow.scenarios import demo_plan, demo_topology, demo_workflow
from contflow.simulator import (
    FlowRecord,
    NodeSpec,
    SimConfig,
    SimResult,
    Topology,
    _result_from_doc,
    parse_topology,
    simulate,
)
from contflow.workflow import (
    AbstractWorkflow,
    FileMeta,
    Task,
    parse_workflow,
    read_record,
    read_value,
    serialize_workflow,
    write_record,
)

from conftest import serialize_topology


def one_job(kind: str, payload: str) -> str:
    return f"jobs:\n- {{id: a, kind: {kind}, site: s, payload: {payload}}}\n"


RESULT_ROW = ["a", "b", 1, "data", 0.0, 1.0]
MINIMAL_RESULT = {
    "makespan_s": 1.0, "per_node_egress": {}, "per_node_io_wait_ms": {},
    "transfer_count_by_kind": {}, "transfer_bytes_by_kind": {}, "job_timeline": [],
    "egress_totals": {}, "ingress_totals": {}, "flow_ledger": [RESULT_ROW],
}

# (class, parse of an entry holding only the required keys, the record from those keys)
REQUIRED_ONLY = [
    (Task, lambda: parse_workflow("tasks:\n- {id: a, transformation: t}\n"),
     AbstractWorkflow(tasks=(Task("a", "t"),))),
    (FileMeta, lambda: parse_workflow("files:\n- {name: f}\n"),
     AbstractWorkflow(files={"f": FileMeta("f")})),
    (ComputePayload, lambda: parse_executable(one_job("compute", "{task_ids: [t]}")),
     ExecutableWorkflow(jobs=(Job("a", JobKind.COMPUTE, "s", ComputePayload(("t",))),))),
    (TransferPayload, lambda: parse_executable(one_job("stage_in", "{transfers: []}")),
     ExecutableWorkflow(jobs=(Job("a", JobKind.STAGE_IN, "s", TransferPayload(())),))),
    (CleanupPayload, lambda: parse_executable(one_job("cleanup", "{target_job: b}")),
     ExecutableWorkflow(jobs=(Job("a", JobKind.CLEANUP, "s", CleanupPayload("b")),))),
    (Site, lambda: parse_sites("- {name: s}\n"), [Site("s")]),
    (NodeSpec, lambda: parse_topology("submit: {name: s}\n"), Topology(NodeSpec("s"))),
    (Topology, lambda: parse_topology(
        "submit: {name: s}\nlinks: [{src: s, dst: s, bandwidth: 5}]\n"),
     Topology(NodeSpec("s"), links={("s", "s"): 5.0})),
    (ContainerDef, lambda: parse_catalog(
        "cont:\n- {name: c, image: 'docker:///x', type: docker}\n").containers["c"],
     ContainerDef("c", parse_image_url("docker:///x"), ContainerRuntime.DOCKER)),
    (TransformationEntry, lambda: parse_catalog(
        "transformations:\n- {namespace: n, name: a, version: '1', site: [{name: s}]}\n"
    ).transformations, (TransformationEntry("n", "a", "1", "s"),)),
    (SimResult, lambda: _result_from_doc(MINIMAL_RESULT), SimResult(
        1.0, {}, {}, {}, {}, [], {}, {}, [FlowRecord("a", "b", 1, "data", 0.0, 1.0)])),
]


@pytest.mark.parametrize("cls, parse, expected", REQUIRED_ONLY,
                         ids=[cls.__name__ for cls, _, _ in REQUIRED_ONLY])
def test_required_keys_alone_read_as_the_dataclass_defaults(cls, parse, expected):
    assert parse() == expected


def test_sweep_scenario_takes_plan_config_defaults(tmp_path, monkeypatch):
    paths = {}
    for name, text in (
        ("workflow", serialize_workflow(demo_workflow(n_tasks=1))),
        ("catalog", "transformations: []\n"),
        ("sites", "- {name: condorpool}\n"),
        ("topology", serialize_topology(demo_topology())),
    ):
        paths[name] = tmp_path / f"{name}.yml"
        paths[name].write_text(text)
    sweep = tmp_path / "sweep.yml"
    sweep.write_text("scenarios:\n- {label: l, "
                     + ", ".join(f"{n}: {p}" for n, p in paths.items()) + "}\n")
    configs = []
    monkeypatch.setattr(planner, "plan",
                        lambda wf, cat, sites, cfg: configs.append(cfg) or ExecutableWorkflow())
    assert main(["sweep", str(sweep)]) == 0
    assert configs == [PlanConfig()]


class TestReader:
    def test_names_read_numbers_as_their_text(self):
        assert parse_workflow("tasks:\n- {id: 1, transformation: 2.5}\n").tasks == (
            Task("1", "2.5"),)

    @pytest.mark.parametrize("value, expected", [(3, 3.0), (2.5, 2.5)])
    def test_numbers_convert_as_before(self, value, expected):
        assert read_value(float, value, "workflow", "runtime") == expected

    def test_int_field_truncates_a_float(self):
        assert read_value(int, 7.9, "executable", "level") == 7

    @pytest.mark.parametrize("tp, value, message", [
        (int, None, "x document: k must be a number, not None"),
        (float, "fast", "x document: k must be a number, not 'fast'"),
        (str, None, "x document: k must be a string, not None"),
        (str, True, "x document: k must be a string, not True"),
        (bool, "no", "x document: k must be true or false, not 'no'"),
        (bool, 1, "x document: k must be true or false, not 1"),
        (PlacementMode, "stage_copy", "x document: k must be one of copy, symlink, "
                                      "bypass, shifter_local, not 'stage_copy'"),
        (tuple[str, ...], "a", "x document: k must be a list, not 'a'"),
        (tuple[tuple[str, int], ...], [[1]],
         "x document: each k entry must be a [str, int] list, not [1]"),
        (dict[str, float], [], "x document: k must be a mapping, not []"),
        (list[Site], [1], "x document: k must list one mapping per entry"),
        (Site, 1, "x document: k must be a mapping, not 1"),
        (frozenset[ContainerRuntime], ["podman"], "x document: k must be one of docker"),
        (float, "4", "x document: k must be a number, not '4'"),
        (float, True, "x document: k must be a number, not True"),
        (list[float], [1.0, True], "x document: k must be a number, not True"),
        (dict[str, int], {"a": "10"}, "x document: k must be a number, not '10'"),
    ])
    def test_wrong_type_names_document_and_key(self, tp, value, message):
        with pytest.raises(ValidationError) as exc:
            read_value(tp, value, "x", "k")
        assert str(exc.value).startswith(message)

    def test_optional_field_reads_null_as_none(self):
        assert read_value(ContainerRuntime | None, None, "x", "k") is None
        assert read_value(ContainerRuntime | None, "docker", "x", "k") is \
            ContainerRuntime.DOCKER

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match="sites document: name is missing"):
            parse_sites("- {shared_fs: true}\n")

    def test_unknown_keys_are_ignored(self):
        assert parse_sites("- {name: s, worker_count: 4}\n") == [Site("s")]

    def test_keys_named_in_field_metadata(self):
        site = parse_sites("- {name: s, runtimes: [shifter]}\n")[0]
        assert site.runtimes_available == frozenset({ContainerRuntime.SHIFTER})
        entry = parse_catalog("transformations:\n- {namespace: n, name: a, version: '1', "
                              "site: [{name: s, type: stageable}]}\n").transformations[0]
        assert (entry.site, entry.install_type) == ("s", InstallType.STAGEABLE)

    def test_given_fields_are_not_read(self):
        @dataclass(frozen=True)
        class Pair:
            a: int
            b: int = field(default=2, metadata={"key": "B"})

        assert read_record(Pair, {"a": "x", "B": 3}, "x", a=1) == Pair(1, 3)
        assert write_record(Pair(1, 3)) == {"a": 1, "B": 3}


class TestWriter:
    def test_executable_payloads_write_in_field_order(self):
        ewf = demo_plan("docker", cluster_size=12, cleanup=True)
        doc = write_record(ewf)
        compute = next(j for j in doc["jobs"] if j["kind"] == "compute")
        assert list(compute) == ["id", "kind", "site", "payload"]
        assert list(compute["payload"]) == [
            "task_ids", "container", "placement", "backend", "staging_site", "level",
            "runtime_s", "image_bytes", "input_files", "output_files"]
        assert compute["payload"]["placement"] == "copy"
        assert parse_executable(serialize_executable(ewf)) == ewf

    def test_result_round_trips_through_json(self):
        res = simulate(demo_plan("docker", cluster_size=12), demo_topology(), SimConfig())
        doc = json.loads(json.dumps(write_record(res)))
        assert doc["flow_ledger"][0] == list(vars(res.flow_ledger[0]).values())
        assert _result_from_doc(doc) == res
