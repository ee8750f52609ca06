"""CLI subcommands, exit codes and output file stability."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
import yaml

from contflow.catalog import parse_image_url, serialize_catalog
from contflow import launcher, planner
from contflow.cli import main
from contflow.planner import JobKind, parse_executable
from contflow.scenarios import demo_catalog, demo_topology, demo_workflow
from contflow.workflow import dump_yaml, require_acyclic, serialize_workflow

from conftest import serialize_topology

SITES_YML = """
sites:
  - {name: submit}
  - {name: nfs, shared_fs: true}
  - name: condorpool
    staging_site: submit
    worker_count: 4
    slots_per_worker: 24
    runtimes: [docker, singularity, shifter]
"""


@pytest.fixture
def inputs(tmp_path):
    paths = {
        "workflow": tmp_path / "workflow.yml",
        "catalog": tmp_path / "catalog.yml",
        "sites": tmp_path / "sites.yml",
        "topology": tmp_path / "topology.yml",
    }
    paths["workflow"].write_text(serialize_workflow(demo_workflow()))
    paths["catalog"].write_text(serialize_catalog(demo_catalog("docker")))
    paths["sites"].write_text(SITES_YML)
    paths["topology"].write_text(serialize_topology(demo_topology()))
    return paths


@pytest.fixture
def small_run(tmp_path):
    """A 3-task demo's documents, each with the commands that read it.

    Maps a document name to (path, argv lists); the executable is planned and
    the result simulated from the other documents.
    """
    paths = {name: tmp_path / f"{name}.yml" for name in (
        "workflow", "catalog", "sites", "topology", "executable", "sweep")}
    paths["result"] = tmp_path / "result.json"
    paths["workflow"].write_text(serialize_workflow(demo_workflow(n_tasks=3)))
    paths["catalog"].write_text(serialize_catalog(demo_catalog("docker")))
    paths["sites"].write_text(SITES_YML)
    paths["topology"].write_text(serialize_topology(demo_topology()))
    out = str(tmp_path / "out")
    plan = ["plan", *(str(paths[n]) for n in ("workflow", "catalog", "sites")), "--out"]
    assert main([*plan, str(paths["executable"])]) == 0
    assert main(["simulate", str(paths["executable"]), str(paths["topology"]),
                 "--out", out]) == 0
    (tmp_path / "out" / "result.json").rename(paths["result"])
    paths["sweep"].write_text(yaml.safe_dump({"scenarios": [{
        "label": "small", **{n: str(paths[n]) for n in ("workflow", "catalog", "sites", "topology")},
        "cluster_size": 2, "output_site": "submit", "cleanup": False,
    }]}))
    plan = [*plan, str(tmp_path / "planned.yml")]
    wrappers = ["wrappers", str(paths["executable"]), str(paths["catalog"]), "--out", out]
    simulate = ["simulate", str(paths["executable"]), str(paths["topology"]), "--out", out]
    commands = {
        "workflow": [plan], "catalog": [plan, wrappers], "sites": [plan],
        "topology": [simulate], "executable": [wrappers, simulate],
        "result": [["report", str(paths["result"]), "--out", out]],
        "sweep": [["sweep", str(paths["sweep"])]],
    }
    return {name: (paths[name], commands[name]) for name in commands}


def load_document(path):
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)


def write_document(path, doc):
    path.write_text(json.dumps(doc) if path.suffix == ".json" else dump_yaml(doc))


def with_value(node, keys, value):
    """A copy of ``node`` with the entry at key path ``keys`` set to ``value``."""
    if not keys:
        return value
    out = list(node) if isinstance(node, list) else dict(node)
    out[keys[0]] = with_value(node[keys[0]], keys[1:], value)
    return out


def key_paths(node, path=()):
    """Every key path in ``node``, with list indices collapsed: a list contributes
    its first entry of each set of keys, and the executable's job list its first
    job of each kind."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        first = {}
        for i, entry in enumerate(node):
            shape = (entry["kind"] if path == ("jobs",)
                     else tuple(entry) if isinstance(entry, dict) else None)
            first.setdefault(shape, (i, entry))
        items = list(first.values())
    else:
        items = []
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


def run_plan(inputs, tmp_path, *extra):
    out = tmp_path / "executable.yml"
    code = main([
        "plan", str(inputs["workflow"]), str(inputs["catalog"]),
        str(inputs["sites"]), "--cleanup", "off", "--out", str(out), *extra,
    ])
    return code, out


class TestPlan:
    def test_unclustered_counts(self, inputs, tmp_path, capsys):
        code, out = run_plan(inputs, tmp_path)
        assert code == 0 and out.exists()
        text = capsys.readouterr().out
        assert "planned 66 jobs" in text
        assert "compute: 63" in text
        assert "container_fetch: 1" in text

    def test_clustered_counts(self, inputs, tmp_path, capsys):
        code, _ = run_plan(inputs, tmp_path, "--cluster-size", "12")
        assert code == 0
        assert "compute: 6" in capsys.readouterr().out

    def test_missing_input_file(self, inputs, tmp_path, capsys):
        code = main([
            "plan", str(tmp_path / "nope.yml"), str(inputs["catalog"]),
            str(inputs["sites"]),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_cluster_size_below_1_exits_1(self, inputs, tmp_path, capsys):
        capsys.readouterr()
        assert run_plan(inputs, tmp_path, "--cluster-size", "0")[0] == 1
        assert capsys.readouterr().err == "error: cluster size must be >= 1\n"

    def test_cleanup_neither_on_nor_off_is_a_usage_error(self, inputs, tmp_path, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_plan(inputs, tmp_path, "--cleanup", "maybe")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --cleanup: expected on|off, got 'maybe'\n")

    def test_malformed_workflow(self, inputs, tmp_path, capsys):
        bad = tmp_path / "bad.yml"
        bad.write_text("{not valid")
        code = main(["plan", str(bad), str(inputs["catalog"]),
                     str(inputs["sites"])])
        assert code == 1

    @pytest.mark.parametrize("placement", ["copy", "symlink"])
    def test_placement_override(self, inputs, tmp_path, placement):
        code, out = run_plan(inputs, tmp_path, "--placement", placement)
        assert code == 0
        compute = parse_executable(out.read_text()).jobs_of_kind(JobKind.COMPUTE)
        assert {j.payload.placement.value for j in compute} == {placement}

    def test_placement_bypass_needs_site_local_container(self, inputs, tmp_path, capsys):
        assert run_plan(inputs, tmp_path, "--placement", "bypass")[0] == 1
        assert "bypass requires site_local" in capsys.readouterr().err
        cat = demo_catalog("docker")
        inputs["catalog"].write_text(serialize_catalog(replace(cat, containers={
            name: replace(cdef, site_local=True,
                          image=parse_image_url(f"file:///cvmfs/images/{name}.img"))
            for name, cdef in cat.containers.items()
        })))
        code, out = run_plan(inputs, tmp_path, "--placement", "bypass")
        assert code == 0
        ewf = parse_executable(out.read_text())
        assert {j.payload.placement.value
                for j in ewf.jobs_of_kind(JobKind.COMPUTE)} == {"bypass"}
        assert ewf.jobs_of_kind(JobKind.CONTAINER_FETCH) == []

    def test_placement_bypass_of_a_registry_image_exits_1(self, inputs, tmp_path, capsys):
        cat = demo_catalog("docker")
        inputs["catalog"].write_text(serialize_catalog(replace(cat, containers={
            name: replace(cdef, site_local=True) for name, cdef in cat.containers.items()
        })))
        capsys.readouterr()
        code, out = run_plan(inputs, tmp_path, "--placement", "bypass")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: task 'nowcast00': container 'radar-tools': bypass requires a "
            "file:// image on the site, not docker:///imaging/radar-tools:latest\n")
        assert not out.exists()


class TestWrappers:
    def test_one_script_per_compute_job(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        out = tmp_path / "wrappers"
        code = main(["wrappers", str(ewf_path), str(inputs["catalog"]),
                     "--out", str(out)])
        assert code == 0
        scripts = sorted(out.glob("*.sh"))
        assert len(scripts) == 6
        assert all(s.read_text().startswith("#!") for s in scripts)

    def test_staging_outside_without_load_dedup(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        out = tmp_path / "wrappers"
        code = main(["wrappers", str(ewf_path), str(inputs["catalog"]), "--out", str(out),
                     "--staging-inside", "off", "--dedup-load", "off"])
        assert code == 0
        for script in sorted(out.glob("*.sh")):
            text = script.read_text()
            assert "flock" not in text
            assert "# [container] stage-in" not in text
            assert (text.index("# [host] stage-in") < text.index("docker run")
                    < text.index("# [host] stage-out"))


class TestRun:
    def test_mock_run_succeeds(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        code = main(["run", str(ewf_path), str(inputs["catalog"]),
                     "--slots", "8"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count(" ok ") >= 9  # 6 compute + fetch + stage in/out

    def test_injected_failure_exits_2(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        code = main(["run", str(ewf_path), str(inputs["catalog"]),
                     "--fail-step",
                     "cluster_l0_condorpool_radar-tools_000:stage-in"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "skipped" in captured.out

    @pytest.mark.parametrize("option", ["--slots", "--nodes"])
    def test_no_slots_or_nodes_exits_1(self, inputs, tmp_path, capsys, option):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        capsys.readouterr()
        assert main(["run", str(ewf_path), str(inputs["catalog"]), option, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: slots=") and "must be at least 1" in captured.err

    def test_cyclic_executable_exits_1(self, tmp_path, capsys):
        ewf_path = tmp_path / "cyclic.yml"
        ewf_path.write_text("""
jobs:
  - {id: a, kind: cleanup, site: submit, payload: {target_job: ""}}
  - {id: b, kind: cleanup, site: submit, payload: {target_job: ""}}
edges: [[a, b], [b, a]]
""")
        catalog = tmp_path / "catalog.yml"
        catalog.write_text(serialize_catalog(demo_catalog("docker")))
        assert main(["run", str(ewf_path), str(catalog)]) == 1
        assert "cycle detected" in capsys.readouterr().err

    def test_checks_for_cycles_once(self, inputs, tmp_path, monkeypatch):
        _, ewf_path = run_plan(inputs, tmp_path)
        calls = []

        def counted(nodes, edges):
            calls.append(1)
            return require_acyclic(nodes, edges)

        monkeypatch.setattr(planner, "require_acyclic", counted)
        monkeypatch.setattr(launcher, "require_acyclic", counted)
        assert main(["run", str(ewf_path), str(inputs["catalog"])]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("jobs,edges,message", [
        (["a"], "[[a, ghost]]", "edge ('a', 'ghost') references unknown job"),
        (["a", "a"], "[]", "duplicate job id 'a'"),
    ], ids=["unknown-job", "duplicate-id"])
    def test_executable_job_ids_checked_on_read(self, inputs, tmp_path, capsys,
                                                jobs, edges, message):
        ewf_path = tmp_path / "executable.yml"
        ewf_path.write_text(
            "jobs:\n"
            + "".join(f"  - {{id: {j}, kind: cleanup, site: submit, "
                      f"payload: {{target_job: ''}}}}\n" for j in jobs)
            + f"edges: {edges}\n"
        )
        for argv in (["simulate", str(ewf_path), str(inputs["topology"]),
                      "--out", str(tmp_path / "sim")],
                     ["run", str(ewf_path), str(inputs["catalog"])],
                     ["wrappers", str(ewf_path), str(inputs["catalog"]),
                      "--out", str(tmp_path / "wrappers")]):
            assert main(argv) == 1, argv[0]
            assert f"error: {message}" in capsys.readouterr().err


    def test_container_missing_from_catalog(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        catalog = tmp_path / "empty_catalog.yml"
        catalog.write_text("transformations: []\n")
        for argv in (["wrappers", str(ewf_path), str(catalog),
                      "--out", str(tmp_path / "wrappers")],
                     ["run", str(ewf_path), str(catalog)]):
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: job 'cluster_l0_condorpool_radar-tools_000' "
                                  "references container 'radar-tools', which the catalog "
                                  "does not define"), err


class TestSimulate:
    def test_same_seed_same_files(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        outs = []
        for name in ("simA", "simB"):
            out = tmp_path / name
            code = main(["simulate", str(ewf_path), str(inputs["topology"]),
                         "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("result.json", "summary.txt", "egress.tsv",
                      "io_wait.tsv", "timeline.tsv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_report_rerenders_from_result_json(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        sim_out = tmp_path / "sim"
        main(["simulate", str(ewf_path), str(inputs["topology"]),
              "--out", str(sim_out)])
        rep_out = tmp_path / "rerender"
        code = main(["report", str(sim_out / "result.json"),
                     "--out", str(rep_out)])
        assert code == 0
        for fname in ("summary.txt", "egress.tsv", "timeline.tsv"):
            assert (rep_out / fname).read_bytes() == (sim_out / fname).read_bytes()

    def test_sharing_and_load_dedup_flags(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        makespan = {}
        for name, flags in (("default", []), ("no_fair_share", ["--no-fair-share"]),
                            ("no_dedup", ["--dedup-load", "off"])):
            out = tmp_path / name
            assert main(["simulate", str(ewf_path), str(inputs["topology"]),
                         "--out", str(out), *flags]) == 0
            makespan[name] = json.loads((out / "result.json").read_text())["makespan_s"]
        # without max-min sharing each flow gets its whole path; without dedup
        # every co-located job untars the image again
        assert makespan["no_fair_share"] < makespan["default"] < makespan["no_dedup"]

    def test_result_json_is_valid(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        out = tmp_path / "sim"
        main(["simulate", str(ewf_path), str(inputs["topology"]),
              "--out", str(out)])
        doc = json.loads((out / "result.json").read_text())
        assert doc["makespan_s"] > 0
        assert "container" in doc["transfer_count_by_kind"]


    @pytest.mark.parametrize("bandwidth,every", [
        (float("nan"), False), (float("nan"), True), (float("inf"), True),
        (float("-inf"), False), (0.0, False),
    ], ids=["nan-one-link", "nan-every-link", "inf-every-link", "-inf", "zero"])
    def test_bandwidth_must_be_positive_and_finite(self, inputs, tmp_path, capsys,
                                                  bandwidth, every):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        doc = load_document(inputs["topology"])
        for link in doc["links"] if every else doc["links"][:1]:
            link["bandwidth"] = bandwidth
        write_document(inputs["topology"], doc)
        assert main(["simulate", str(ewf_path), str(inputs["topology"]),
                     "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert "bandwidth must be > 0 and finite, not" in err and err.startswith("error: ")
        assert not (tmp_path / "sim" / "result.json").exists()


class TestSweep:
    def test_sweep_table(self, inputs, tmp_path, capsys):
        scenarios = tmp_path / "scenarios.yml"
        scenarios.write_text(f"""
scenarios:
  - label: docker_k12
    workflow: {inputs['workflow']}
    catalog: {inputs['catalog']}
    sites: {inputs['sites']}
    topology: {inputs['topology']}
    cluster_size: 12
    cleanup: false
""")
        code = main(["sweep", str(scenarios)])
        assert code == 0
        text = capsys.readouterr().out
        assert "docker_k12" in text and "makespan_s" in text

    def test_bad_scenarios_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.yml"
        empty.write_text("scenarios: []\n")
        assert main(["sweep", str(empty)]) == 2


# (document, key path, wrong value, message): each exits 1 naming the field
WRONG_TYPES = [
    ("catalog", ("cont", 0, "image_size_bytes"), [1], "image_size_bytes must be a number"),
    ("catalog", ("transformations", 0, "site", 0, "pfn"), [1], "pfn must be a string"),
    ("sites", ("sites", 1, "shared_fs"), "no", "shared_fs must be true or false"),
    ("workflow", ("files", 0, "initial_location"), [1], "initial_location must be a string"),
    ("topology", ("submit", "slots"), None, "slots must be a number"),
    ("topology", ("links", 0, "bandwidth"), [1], "bandwidth must be a number"),
    ("topology", ("workers", 0, "disk_untar_rate"), True, "disk_untar_rate must be a number"),
    ("workflow", ("tasks", 0, "runtime"), True, "runtime must be a number"),
    ("workflow", ("files", 0, "size_bytes"), "10000000", "size_bytes must be a number"),
    ("executable", ("jobs", 0, "payload", "staging_site"), [1],
     "staging_site must be a string"),
    ("executable", ("jobs", 0, "payload", "container"), [1], "container must be a string"),
    ("executable", ("jobs", 0, "payload", "task_ids"), [[1]], "task_ids must be a string"),
    ("result", ("makespan_s",), [1], "makespan_s must be a number"),
    ("result", ("per_node_egress",), [1], "per_node_egress must be a mapping"),
    ("sweep", ("scenarios", 0, "cluster_size"), [1], "cluster_size must be a number"),
    ("sweep", ("scenarios", 0, "workflow"), [1], "workflow must be a string"),
]

# Malformed YAML, and a top-level list of scalars where mappings belong.
BAD_DOCUMENTS = ("{not valid", "- a\n- b\n")


class TestMalformedInputs:
    """Each input file kind fails with exit 1 and a message, never a traceback."""

    def test_malformed_sites(self, inputs, tmp_path, capsys):
        for text in BAD_DOCUMENTS:
            inputs["sites"].write_text(text)
            assert run_plan(inputs, tmp_path)[0] == 1
            assert "error" in capsys.readouterr().err

    def test_malformed_executable(self, inputs, tmp_path, capsys):
        bad = tmp_path / "executable.yml"
        for text in BAD_DOCUMENTS:
            bad.write_text(text)
            assert main(["wrappers", str(bad), str(inputs["catalog"]),
                         "--out", str(tmp_path / "wrappers")]) == 1
            assert "error" in capsys.readouterr().err

    def test_malformed_topology(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        for text in BAD_DOCUMENTS:
            inputs["topology"].write_text(text)
            assert main(["simulate", str(ewf_path), str(inputs["topology"]),
                         "--out", str(tmp_path / "sim")]) == 1
            assert "error" in capsys.readouterr().err


    def test_executable_job_not_a_mapping(self, inputs, tmp_path, capsys):
        bad = tmp_path / "executable.yml"
        bad.write_text("jobs: [1]\n")
        for argv in (["wrappers", str(bad), str(inputs["catalog"]),
                      "--out", str(tmp_path / "wrappers")],
                     ["simulate", str(bad), str(inputs["topology"]),
                      "--out", str(tmp_path / "sim")]):
            assert main(argv) == 1
            assert "executable document: jobs" in capsys.readouterr().err

    def test_workflow_task_not_a_mapping(self, inputs, tmp_path, capsys):
        inputs["workflow"].write_text("tasks: [1]\n")
        assert run_plan(inputs, tmp_path)[0] == 1
        assert "workflow document: tasks" in capsys.readouterr().err

    def test_topology_link_not_a_mapping(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        inputs["topology"].write_text(
            inputs["topology"].read_text().replace("links:", "links: [1]\nunused:")
        )
        assert main(["simulate", str(ewf_path), str(inputs["topology"]),
                     "--out", str(tmp_path / "sim")]) == 1
        assert "topology document: links" in capsys.readouterr().err

    def test_edge_not_a_pair(self, inputs, tmp_path, capsys):
        _, ewf_path = run_plan(inputs, tmp_path)
        capsys.readouterr()
        for edge in ("1", "[a]", "[a, b, c]", "ab"):
            inputs["workflow"].write_text(f"edges: [{edge}]\n")
            assert run_plan(inputs, tmp_path)[0] == 1
            assert "workflow document: each edges entry" in capsys.readouterr().err
            ewf_path.write_text(f"edges: [{edge}]\n")
            assert main(["simulate", str(ewf_path), str(inputs["topology"]),
                         "--out", str(tmp_path / "sim")]) == 1
            assert "executable document: each edges entry" in capsys.readouterr().err

    def test_malformed_sweep(self, tmp_path, capsys):
        bad = tmp_path / "scenarios.yml"
        for text in (*BAD_DOCUMENTS, "scenarios: [1]\n"):
            bad.write_text(text)
            assert main(["sweep", str(bad)]) == 1
            assert "error" in capsys.readouterr().err

    def test_executable_payload_not_a_mapping(self, inputs, tmp_path, capsys):
        bad = tmp_path / "executable.yml"
        bad.write_text("jobs:\n  - {id: a, kind: compute, site: condorpool, payload: 1}\n")
        assert main(["simulate", str(bad), str(inputs["topology"]),
                     "--out", str(tmp_path / "sim")]) == 1
        assert "executable document: payload" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, payload, message", [
        ("compute", "{task_ids: [t], input_files: [1]}", "each input_files entry"),
        ("compute", "{task_ids: 5}", "task_ids must be a list"),
        ("stage_in", "{transfers: [1]}", "each transfers entry"),
        ("compute", "{task_ids: [t], input_files: [[a, null]]}",
         "input_files must be a number"),
        ("compute", "{task_ids: [t], level: null}", "level must be a number"),
        ("compute", "{task_ids: [t], runtime_s: [1]}", "runtime_s must be a number"),
        ("stage_in", "{transfers: [[a, b, null]]}", "transfers must be a number"),
    ])
    def test_executable_payload_entry_malformed(self, inputs, tmp_path, capsys,
                                                kind, payload, message):
        bad = tmp_path / "executable.yml"
        bad.write_text(f"jobs:\n  - {{id: a, kind: {kind}, site: condorpool, "
                       f"payload: {payload}}}\n")
        assert main(["wrappers", str(bad), str(inputs["catalog"]),
                     "--out", str(tmp_path / "wrappers")]) == 1
        assert f"executable document: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, text", [
        ("runtime", "tasks:\n  - {id: a, transformation: 'radar::nowcast:1.0', "
                    "runtime: [1]}\n"),
        ("size_bytes", "files:\n  - {name: f, size_bytes: null}\n"),
    ], ids=["runtime", "size_bytes"])
    def test_workflow_number_malformed(self, inputs, tmp_path, capsys, field, text):
        inputs["workflow"].write_text(text)
        assert run_plan(inputs, tmp_path)[0] == 1
        assert f"workflow document: {field} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("runtime: 5.0", "runtime: -5.0", "task 'nowcast00': runtime must be finite and >= 0, "
                                          "got -5.0"),
        ("runtime: 5.0", "runtime: .nan", "task 'nowcast00': runtime must be finite and >= 0, "
                                          "got nan"),
        ("runtime: 5.0", "runtime: .inf", "task 'nowcast00': runtime must be finite and >= 0, "
                                          "got inf"),
        ("size_bytes: 10000000", "size_bytes: -1",
         "file 'radar_volume': size_bytes must be >= 0, got -1"),
    ], ids=["negative-runtime", "nan-runtime", "inf-runtime", "negative-size"])
    def test_workflow_number_out_of_range(self, inputs, tmp_path, capsys, old, new, message):
        text = serialize_workflow(demo_workflow(n_tasks=5))
        inputs["workflow"].write_text(text.replace(old, new, 1))
        assert run_plan(inputs, tmp_path)[0] == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc: [doc], "result document cannot be a list"),
        (lambda doc: {**doc, "flow_ledger": [row[:-1] for row in doc["flow_ledger"]]},
         "result document: each flow_ledger entry"),
        (lambda doc: {**doc, "per_node_io_wait_ms": {
            f"x{name}": s for name, s in doc["per_node_io_wait_ms"].items()}},
         "per_node_egress and per_node_io_wait_ms name different nodes"),
        (lambda doc: {**doc, "per_node_egress": {
            name: s[:-1] if name == "submit" else s for name, s in doc["per_node_egress"].items()}},
         "the per-node series differ in length"),
        (lambda doc: {**doc, "job_timeline": [
            [jid, start, start - 1.0, node] for jid, start, _, node in doc["job_timeline"]]},
         "must not end before it starts"),
    ], ids=["top-level-list", "short-ledger-row", "series-nodes-differ",
            "series-lengths-differ", "job-ends-before-start"])
    def test_malformed_result(self, inputs, tmp_path, capsys, mangle, message):
        _, ewf_path = run_plan(inputs, tmp_path, "--cluster-size", "12")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(ewf_path), str(inputs["topology"]),
                     "--out", str(sim_out)]) == 0
        result = sim_out / "result.json"
        result.write_text(json.dumps(mangle(json.loads(result.read_text()))))
        capsys.readouterr()
        assert main(["report", str(result), "--out", str(tmp_path / "rerender")]) == 1
        assert message in capsys.readouterr().err

    def test_workflow_inputs_not_a_list(self, inputs, tmp_path, capsys):
        inputs["workflow"].write_text(
            "tasks:\n  - {id: a, transformation: 'radar::nowcast:1.0', inputs: 5}\n"
        )
        assert run_plan(inputs, tmp_path)[0] == 1
        assert "workflow document: inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["cont", "transformations"])
    def test_catalog_entry_not_a_mapping(self, inputs, tmp_path, capsys, section):
        inputs["catalog"].write_text(f"{section}: [1]\n")
        assert run_plan(inputs, tmp_path)[0] == 1
        assert f"catalog document: {section}" in capsys.readouterr().err

    def test_sites_runtimes_not_a_list(self, inputs, tmp_path, capsys):
        inputs["sites"].write_text("sites:\n  - {name: condorpool, runtimes: 5}\n")
        assert run_plan(inputs, tmp_path)[0] == 1
        assert "sites document: runtimes" in capsys.readouterr().err

    @pytest.mark.parametrize("name, keys, value, message", WRONG_TYPES,
                             ids=[f"{n}:{'.'.join(map(str, k))}" for n, k, _, _ in WRONG_TYPES])
    def test_wrong_type_names_document_and_field(self, small_run, capsys,
                                                 name, keys, value, message):
        path, commands = small_run[name]
        write_document(path, with_value(load_document(path), keys, value))
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 1
            assert f"{name} document: {message}" in capsys.readouterr().err


# Values of the wrong type for nearly every field, and a wrong shape for every section.
WRONG_VALUES = ([1], {"a": 1}, None, "x")


def test_every_field_replaced_by_a_wrong_value_exits_with_a_code(small_run, capsys):
    """Any field of a valid document, replaced by a wrong value, gives an exit code."""
    raised = []
    for name, (path, commands) in small_run.items():
        original = path.read_text()
        doc = load_document(path)
        for keys in key_paths(doc):
            for value in WRONG_VALUES:
                write_document(path, with_value(doc, keys, value))
                for argv in commands:
                    try:
                        code = main(argv)
                    except Exception as exc:
                        raised.append(f"{argv[0]} {name} {keys}={value!r}: {exc!r}")
                    else:
                        assert code in (0, 1, 2)
        path.write_text(original)
    capsys.readouterr()
    assert raised == []
