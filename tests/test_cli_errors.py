"""Every fault reaches ``cli.main`` as a typed error with its documented exit code.

Exit 1 is an input fault, exit 2 a simulation, run or output fault, and each
prints ``error: <message>``; anything else would escape ``main`` as a program
fault.  A mutation test makes one edit to one document of a 4-task demo and
runs the commands that read it; explicit tests pin the exit code and message
of each fault that has its own check.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from contflow import simulator
from contflow.catalog import parse_image_url, serialize_catalog
from contflow.cli import main
from contflow.planner import parse_executable, serialize_executable
from contflow.scenarios import demo_catalog, demo_topology, demo_workflow
from contflow.workflow import serialize_workflow
from conftest import serialize_topology
from test_cli import SITES_YML

FETCH_JOB = "fetch_radar-tools_submit"


class EngineSkipped(Exception):
    """Stands in for the simulator's engine: the readers before it passed.

    The engine does not run on mutated input because its memory grows with
    simulated seconds: ``disk_untar_rate: true`` reads as 1 B/s, which gives a
    makespan of about 5e8 s.
    """


def demo_documents(d):
    """The 4-task docker demo's six documents under ``d``, each by name."""
    paths = {name: d / f"{name}.yml" for name in (
        "workflow", "catalog", "sites", "topology", "executable")}
    paths["result"] = d / "result.json"
    paths["workflow"].write_text(serialize_workflow(demo_workflow(n_tasks=4)))
    paths["catalog"].write_text(serialize_catalog(demo_catalog("docker")))
    paths["sites"].write_text(SITES_YML)
    paths["topology"].write_text(serialize_topology(demo_topology()))
    p = {name: str(path) for name, path in paths.items()}
    assert main(["plan", p["workflow"], p["catalog"], p["sites"], "--out", p["executable"]]) == 0
    assert main(["simulate", p["executable"], p["topology"], "--out", str(d / "sim")]) == 0
    (d / "sim" / "result.json").rename(paths["result"])
    return paths


def commands(paths, out):
    """The argv lists that read each document; ``simulate`` stops after its readers."""
    p = {name: str(path) for name, path in paths.items()}
    plan = ["plan", p["workflow"], p["catalog"], p["sites"], "--out", str(out / "executable.yml")]
    wrappers = ["wrappers", p["executable"], p["catalog"], "--out", str(out / "wrappers")]
    run = ["run", p["executable"], p["catalog"]]
    simulate = ["simulate", p["executable"], p["topology"], "--out", str(out / "sim")]
    report = ["report", p["result"], "--out", str(out / "report")]
    return {
        "workflow": [plan], "catalog": [plan, wrappers, run], "sites": [plan],
        "topology": [simulate], "executable": [wrappers, run, simulate],
        "result": [report],
    }


def run_main(argv):
    """``main(argv)``'s exit code and stderr; a simulate whose readers pass reads as 0."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch.object(simulator, "simulate", side_effect=EngineSkipped):
        try:
            code = main(argv)
        except EngineSkipped:
            code = 0
    return code, err.getvalue()


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    d = tmp_path_factory.mktemp("demo")
    with contextlib.redirect_stdout(io.StringIO()):
        paths = demo_documents(d)
    return paths, commands(paths, d / "out")


# --- mutation test -----------------------------------------------------------

TOKENS = ("2020-13-45", "!!int 'x'", "!!float 'x'", "-5.0", ".nan", ".inf", "ghost",
          "null", "[]", "{}", "''", "true", "x")

# A line's value: what follows its last ': ' or '- ' (or its indent), up to a
# trailing comma.  A line that opens or closes a nested block, or whose value
# is a flow list or mapping, holds none.
VALUE = re.compile(r"^(.*(?:: |- )|\s*)([^\s\[\]{}](?:(?:(?!: ).)*[^:,])?)(,?)$")

EDITS = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 999), st.sampled_from(TOKENS)),
    st.tuples(st.sampled_from(["delete", "duplicate"]), st.integers(0, 999), st.just("")),
    st.just(("prepend", 0, "")),
)


def mutate(text: str, edit) -> bytes:
    """``text`` with one edit: a value replaced, a line deleted or duplicated,
    or a byte that is not UTF-8 prepended."""
    op, index, token = edit
    if op == "prepend":
        return b"\xff" + text.encode()
    lines = text.split("\n")
    if op == "replace":
        rows = [i for i, line in enumerate(lines) if VALUE.match(line)]
        i = rows[index % len(rows)]
        lines[i] = VALUE.sub(lambda m: m[1] + token + m[3], lines[i])
    elif op == "delete":
        del lines[index % len(lines)]
    else:
        i = index % len(lines)
        lines.insert(i, lines[i])
    return "\n".join(lines).encode()


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["workflow", "catalog", "sites", "topology", "executable",
                             "result"]),
       edit=EDITS)
def test_one_edit_to_a_document_exits_with_a_code(demo, name, edit):
    paths, argvs = demo
    path = paths[name]
    original = path.read_bytes()
    path.write_bytes(mutate(original.decode(), edit))
    try:
        for argv in argvs[name]:
            code, err = run_main(argv)
            assert code in (0, 1, 2), argv
            if code:
                assert err.startswith("error: "), (argv, err)
    finally:
        path.write_bytes(original)


# --- one test per typed check ------------------------------------------------

def edited(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.fixture
def docs(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        paths = demo_documents(tmp_path)
    return {name: str(path) for name, path in paths.items()}, paths


def test_file_not_utf8_exits_1(docs, tmp_path, capsys):
    p, paths = docs
    paths["workflow"].write_bytes(b"\xff" + paths["workflow"].read_bytes())
    capsys.readouterr()
    assert main(["plan", p["workflow"], p["catalog"], p["sites"],
                 "--out", str(tmp_path / "e.yml")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {p['workflow']}: "), err
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("token, message", [
    ("2020-13-45", "month must be in 1..12"),
    ("!!int 'x'", "invalid literal for int() with base 10: 'x'"),
    ("!!float 'x'", "could not convert string to float: 'x'"),
])
@pytest.mark.parametrize("name", ["workflow", "executable"])
def test_value_pyyaml_cannot_construct_exits_1(docs, tmp_path, capsys, name, token, message):
    p, paths = docs
    old = "runtime: 5.0" if name == "workflow" else "runtime_s: 5.0"
    edited(paths[name], old, old.replace("5.0", token))
    argv = (["plan", p["workflow"], p["catalog"], p["sites"], "--out", str(tmp_path / "e.yml")]
            if name == "workflow" else ["wrappers", p["executable"], p["catalog"],
                                        "--out", str(tmp_path / "w")])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} document is not valid YAML: "), err
    assert message in err


def test_result_not_json_exits_1(docs, tmp_path, capsys):
    p, paths = docs
    paths["result"].write_text("makespan_s: 1.0\n")
    capsys.readouterr()
    assert main(["report", p["result"], "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: result document is not valid JSON: Expecting value: line 1 column 1")


def test_result_transfer_kinds_differ_exits_1(docs, tmp_path, capsys):
    p, paths = docs
    edited(paths["result"], '"transfer_bytes_by_kind": {\n  "container"',
           '"transfer_bytes_by_kind": {\n  "other"')
    capsys.readouterr()
    assert main(["report", p["result"], "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        "error: result document: transfer_count_by_kind and transfer_bytes_by_kind "
        "name different kinds\n")


@pytest.mark.parametrize("fail_step, step", [
    (f"{FETCH_JOB}:bogus", "bogus"),
    (f"{FETCH_JOB}:", ""),
    (FETCH_JOB, ""),
])
def test_fail_step_kind_unknown_or_missing_exits_1(docs, capsys, fail_step, step):
    p, _ = docs
    capsys.readouterr()
    assert main(["run", p["executable"], p["catalog"], "--fail-step", fail_step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --fail-step {fail_step!r}: expected JOB_ID:STEP_KIND, "
                            f"and {step!r} is not a step kind\n")


@pytest.mark.parametrize("runtime, expected", [("-5.0", "-5.0"), (".nan", "nan"),
                                               (".inf", "inf")])
def test_executable_runtime_must_be_finite_and_not_negative(docs, tmp_path, capsys,
                                                            runtime, expected):
    p, paths = docs
    edited(paths["executable"], "runtime_s: 5.0", f"runtime_s: {runtime}")
    for argv in (["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")],
                 ["run", p["executable"], p["catalog"]],
                 ["wrappers", p["executable"], p["catalog"], "--out", str(tmp_path / "w")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: job 'compute_nowcast00': runtime_s must be finite and >= 0, "
            f"got {expected}\n")


def test_cyclic_executable_exits_1_in_every_command(docs, tmp_path, capsys):
    p, paths = docs
    edited(paths["executable"], "edges:\n", "edges:\n"
           "- - compute_nowcast00\n  - compute_nowcast01\n"
           "- - compute_nowcast01\n  - compute_nowcast00\n")
    for argv in (["wrappers", p["executable"], p["catalog"], "--out", str(tmp_path / "w")],
                 ["run", p["executable"], p["catalog"]],
                 ["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            "error: cycle detected: compute_nowcast00 -> compute_nowcast01 "
            "-> compute_nowcast00\n"), argv[0]
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("edit, backend, placement", [
    (lambda text: "".join(line for line in text.splitlines(True)
                          if not line.lstrip().startswith("backend:")), "None", "'copy'"),
    (lambda text: text.replace("placement: copy", "placement: shifter_local"),
     "'docker'", "'shifter_local'"),
], ids=["no-backend", "docker-shifter-local"])
def test_executable_with_an_unplanned_shape_exits_1_in_every_command(
        docs, tmp_path, capsys, edit, backend, placement):
    p, paths = docs
    paths["executable"].write_text(edit(paths["executable"].read_text()))
    for argv in (["wrappers", p["executable"], p["catalog"], "--out", str(tmp_path / "w")],
                 ["run", p["executable"], p["catalog"]],
                 ["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: job 'compute_nowcast00': container 'radar-tools' with backend "
            f"{backend} and placement {placement} is not a compute-job shape\n"), argv[0]
    assert not (tmp_path / "w").exists()
    assert not (tmp_path / "s").exists()


def without_fetch_job(ewf):
    return replace(ewf, jobs=tuple(j for j in ewf.jobs if j.id != FETCH_JOB),
                   edges=tuple(e for e in ewf.edges if FETCH_JOB not in e))


def with_empty_task_list(ewf):
    first = ewf.jobs[0]
    return replace(ewf, jobs=(replace(first, payload=replace(first.payload, task_ids=())),
                              *ewf.jobs[1:]))


def with_payload(job_id, **changes):
    """An edit that sets ``changes`` on job ``job_id``'s payload; a callable
    value is applied to the payload."""
    def edit(ewf):
        return replace(ewf, jobs=tuple(
            replace(j, payload=replace(j.payload, **{
                k: v(j.payload) if callable(v) else v for k, v in changes.items()}))
            if j.id == job_id else j for j in ewf.jobs))
    return edit


@pytest.mark.parametrize("edit, message", [
    (without_fetch_job, "compute job 'compute_nowcast00' must depend on exactly one "
                        "container-fetch job, found 0"),
    (with_empty_task_list, "compute job 'compute_nowcast00' has an empty task list"),
    (with_payload("compute_nowcast00", container=""),
     "job 'compute_nowcast00': container name must not be empty"),
    (with_payload("compute_nowcast00", input_files=(("radar_volume", -10_000_000),)),
     "job 'compute_nowcast00': size of 'radar_volume' must be >= 0, got -10000000"),
    (with_payload("compute_nowcast01", output_files=(("grid01", -1),)),
     "job 'compute_nowcast01': size of 'grid01' must be >= 0, got -1"),
    (with_payload("compute_nowcast00", image_bytes=-1),
     "job 'compute_nowcast00': image_bytes must be >= 0, got -1"),
    (with_payload("stage_in_submit", transfers=lambda p: tuple(
        (src, dst, -5) for src, dst, _ in p.transfers)),
     "job 'stage_in_submit': size of 'file:///staging/submit/radar_volume' must be >= 0, "
     "got -5"),
], ids=["no-fetch-job", "empty-task-list", "empty-container-name", "negative-input-size",
        "negative-output-size", "negative-image-size", "negative-stage-in-transfer"])
def test_executable_that_plan_would_refuse_exits_1_in_every_command(
        docs, tmp_path, capsys, edit, message):
    p, paths = docs
    paths["executable"].write_text(
        serialize_executable(edit(parse_executable(paths["executable"].read_text()))))
    for argv in (["wrappers", p["executable"], p["catalog"], "--out", str(tmp_path / "w")],
                 ["run", p["executable"], p["catalog"]],
                 ["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == f"error: {message}\n", argv[0]
    assert not (tmp_path / "w").exists()
    assert not (tmp_path / "s").exists()


def test_catalog_container_with_an_empty_name_exits_1_in_plan(docs, tmp_path, capsys):
    p, paths = docs
    paths["catalog"].write_text(paths["catalog"].read_text()
                                .replace("name: radar-tools", "name: ''")
                                .replace("container: radar-tools", "container: ''"))
    capsys.readouterr()
    assert main(["plan", p["workflow"], p["catalog"], p["sites"],
                 "--out", str(tmp_path / "e.yml")]) == 1
    assert capsys.readouterr().err == "error: cont entry: container name must not be empty\n"
    assert not (tmp_path / "e.yml").exists()


SECOND_DOCKER = "- {name: radar-tools-2, image: 'docker:///%s', type: docker}\n"


@pytest.mark.parametrize("edits, message", [
    ([("  image_size_bytes: 488000000\n", "  image_size_bytes: 488000000\n"
       + SECOND_DOCKER % "imaging/radar-tools:latest")],
     "containers 'radar-tools' and 'radar-tools-2' load as one Docker image "
     "'imaging_radar-tools:latest'"),
    ([("docker:///imaging/radar-tools:latest", "docker:///a/b_c:1"),
      ("  image_size_bytes: 488000000\n", "  image_size_bytes: 488000000\n"
       + SECOND_DOCKER % "a_b/c:1")],
     "containers 'radar-tools' and 'radar-tools-2' load as one Docker image 'a_b_c:1'"),
    ([("    container: radar-tools\n",
       "    container: radar-tools\n    profile: [{env: {TOOL_HOME: /opt/tool}}]\n")],
     "transformation 'nowcast': env profiles go on the container, not the site"),
], ids=["same-url", "same-load-key", "transformation-profile"])
def test_catalog_refusal_exits_1_in_every_command_that_reads_it(docs, tmp_path, capsys,
                                                                edits, message):
    _, paths = docs
    for old, new in edits:
        edited(paths["catalog"], old, new)
    for argv in commands(paths, tmp_path / "out")["catalog"]:
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == f"error: {message}\n", argv[0]
    assert not (tmp_path / "out").exists()


def test_catalog_runtime_other_than_planned_exits_1(docs, tmp_path, capsys):
    p, _ = docs
    catalog = tmp_path / "singularity.yml"
    catalog.write_text(serialize_catalog(demo_catalog("singularity")))
    for argv in (["wrappers", p["executable"], str(catalog), "--out", str(tmp_path / "w")],
                 ["run", p["executable"], str(catalog)]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            "error: job 'compute_nowcast00': planned for runtime 'docker', but the "
            "catalog runs container 'radar-tools' on 'singularity'\n"), argv[0]
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("fail_step, message", [
    ("ghost:stage-in", "no job 'ghost'"),
    (f"{FETCH_JOB}:stage-in", f"job '{FETCH_JOB}' runs no stage-in step"),
])
def test_fail_step_that_injects_nothing_exits_1(docs, capsys, fail_step, message):
    p, _ = docs
    capsys.readouterr()
    argv = ["run", p["executable"], p["catalog"], "--fail-step", fail_step]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot inject a failure: {message}\n"


def run_table(*rows):
    """``contflow run``'s table: a header, then one row per job in id order."""
    return "".join(line + "\n" for line in (
        "job                                  status   node", *rows))


RUN_OK = run_table(
    "cleanup_compute_nowcast00            ok       node0",
    "cleanup_compute_nowcast01            ok       node0",
    "cleanup_compute_nowcast02            ok       node0",
    "cleanup_compute_nowcast03            ok       node0",
    "compute_nowcast00                    ok       node0",
    "compute_nowcast01                    ok       node0",
    "compute_nowcast02                    ok       node0",
    "compute_nowcast03                    ok       node0",
    "fetch_radar-tools_submit             ok       node0",
    "stage_in_submit                      ok       node0",
    "stage_out_submit                     ok       node0",
)
RUN_COMPUTE_FAILED = run_table(
    "cleanup_compute_nowcast00            skipped  ",
    "cleanup_compute_nowcast01            skipped  ",
    "cleanup_compute_nowcast02            skipped  ",
    "cleanup_compute_nowcast03            skipped  ",
    "compute_nowcast00                    failed   node0",
    "compute_nowcast01                    ok       node0",
    "compute_nowcast02                    ok       node0",
    "compute_nowcast03                    ok       node0",
    "fetch_radar-tools_submit             ok       node0",
    "stage_in_submit                      ok       node0",
    "stage_out_submit                     skipped  ",
)
RUN_FETCH_FAILED = run_table(
    "cleanup_compute_nowcast00            skipped  ",
    "cleanup_compute_nowcast01            skipped  ",
    "cleanup_compute_nowcast02            skipped  ",
    "cleanup_compute_nowcast03            skipped  ",
    "compute_nowcast00                    skipped  ",
    "compute_nowcast01                    skipped  ",
    "compute_nowcast02                    skipped  ",
    "compute_nowcast03                    skipped  ",
    "fetch_radar-tools_submit             failed   node0",
    "stage_in_submit                      ok       node0",
    "stage_out_submit                     skipped  ",
)


@pytest.mark.parametrize("fail_step, code, out, err", [
    (None, 0, RUN_OK, ""),
    ("compute_nowcast00:stage-in", 2, RUN_COMPUTE_FAILED,
     "error: job compute_nowcast00: step stage-in failed: injected failure at stage-in\n"),
    (f"{FETCH_JOB}:launch-task", 2, RUN_FETCH_FAILED,
     f"error: job {FETCH_JOB}: step launch-task failed: injected failure at launch-task\n"),
], ids=["no-failure", "compute-stage-in", "fetch-launch-task"])
def test_run_prints_the_same_bytes_and_exit_code(docs, capsys, fail_step, code, out, err):
    """A failed job's table still prints, its descendants skipped on no node;
    the fetch job, which has no wrapper plan, fails at its one launch-task."""
    p, _ = docs
    capsys.readouterr()
    argv = ["run", p["executable"], p["catalog"]]
    if fail_step is not None:
        argv += ["--fail-step", fail_step]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


@pytest.mark.parametrize("command", ["plan", "wrappers", "simulate", "report"])
def test_output_under_a_regular_file_exits_2(docs, tmp_path, capsys, command):
    p, _ = docs
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out")
    argv = {
        "plan": ["plan", p["workflow"], p["catalog"], p["sites"]],
        "wrappers": ["wrappers", p["executable"], p["catalog"]],
        "simulate": ["simulate", p["executable"], p["topology"]],
        "report": ["report", p["result"]],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno "), err
    assert str(blocker) in err


@pytest.mark.parametrize("site_local, image, refusal", [
    (False, "file:///cvmfs/images/radar-tools.img", "bypass requires site_local"),
    (True, "docker:///imaging/radar-tools:latest", "bypass requires a file:// image on the "
                                                   "site, not docker:///imaging/radar-tools:latest"),
], ids=["not-site-local", "registry-image"])
def test_bypass_that_plan_would_refuse_exits_1_in_wrappers_and_run(
        docs, tmp_path, capsys, site_local, image, refusal):
    p, _ = docs
    cat = demo_catalog("docker")

    def catalog(name, **container):
        path = tmp_path / name
        path.write_text(serialize_catalog(replace(cat, containers={
            c: replace(cdef, **container) for c, cdef in cat.containers.items()})))
        return str(path)

    bypassed = str(tmp_path / "bypassed.yml")
    local = catalog("local.yml", site_local=True,
                    image=parse_image_url("file:///cvmfs/images/radar-tools.img"))
    assert main(["plan", p["workflow"], local, p["sites"], "--placement", "bypass",
                 "--out", bypassed]) == 0
    refused = catalog("refused.yml", site_local=site_local, image=parse_image_url(image))
    for argv in (["wrappers", bypassed, refused, "--out", str(tmp_path / "w")],
                 ["run", bypassed, refused]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: job 'compute_nowcast00': container 'radar-tools': {refusal}\n"), argv[0]
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("series, shown", [([True, "10"], "True"), ([1.0, "10"], "'10'")])
def test_result_series_entry_that_is_not_a_number_exits_1(docs, tmp_path, capsys,
                                                           series, shown):
    p, paths = docs
    doc = json.loads(paths["result"].read_text())
    for key in ("per_node_egress", "per_node_io_wait_ms"):  # all of one length
        doc[key] = {node: values[:2] for node, values in doc[key].items()}
    doc["per_node_egress"]["submit"] = series
    paths["result"].write_text(json.dumps(doc, indent=1, sort_keys=True))
    capsys.readouterr()
    assert main(["report", p["result"], "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        f"error: result document: per_node_egress must be a number, not {shown}\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("wrap, message", [
    (lambda text: f"[{text}]", "result document cannot be a list"),
    (json.dumps, "result document cannot be a str"),
], ids=["list", "string"])
def test_result_that_is_not_an_object_exits_1(docs, tmp_path, capsys, wrap, message):
    p, paths = docs
    paths["result"].write_text(wrap(paths["result"].read_text()))
    capsys.readouterr()
    assert main(["report", p["result"], "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("fault, reason", [
    ("missing", "[Errno 2] No such file or directory: {path!r}"),
    ("not-utf8", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("directory", "[Errno 21] Is a directory: {path!r}"),
], ids=["missing", "not-utf8", "directory"])
def test_result_that_cannot_be_read_exits_1(docs, tmp_path, capsys, fault, reason):
    p, paths = docs
    if fault == "missing":
        paths["result"].unlink()
    elif fault == "not-utf8":
        paths["result"].write_bytes(b"\xff" + paths["result"].read_bytes())
    else:
        paths["result"].unlink()
        paths["result"].mkdir()
    capsys.readouterr()
    assert main(["report", p["result"], "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {p['result']}: {reason.format(path=p['result'])}\n")
    assert not (tmp_path / "r").exists()


def test_topology_without_a_link_a_flow_needs_exits_2(docs, tmp_path, capsys):
    p, paths = docs
    topo = demo_topology()
    paths["topology"].write_text(serialize_topology(replace(topo, links={
        k: bw for k, bw in topo.links.items() if k != ("submit", "condorpool/w1")})))
    capsys.readouterr()
    assert main(["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "error: no link from 'submit' to 'condorpool/w1'\n"
    assert not (tmp_path / "s").exists()


def test_flow_whose_end_overflows_exits_2(docs, tmp_path, capsys):
    """A link so slow that a flow's end time overflows to infinity: no event
    is left to come, and the engine says so instead of looping."""
    p, paths = docs
    topo = demo_topology()
    paths["topology"].write_text(serialize_topology(replace(
        topo, links=dict.fromkeys(topo.links, 1e-300))))
    capsys.readouterr()
    assert main(["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: simulation stalled; unfinished jobs: ['compute_nowcast00', ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("old, new, message", [
    ("- name: condorpool/w2\n", "- name: condorpool/w1\n",
     "duplicate node name 'condorpool/w1'"),
    ("- name: condorpool/w4\n", "- name: submit\n", "duplicate node name 'submit'"),
    ("links:\n", "links:\n- src: submit\n  dst: nfs\n  bandwidth: 5.0\n"
     "- src: submit\n  dst: nfs\n  bandwidth: 125000000.0\n",
     "duplicate link ('submit', 'nfs')"),
], ids=["worker-twice", "worker-named-submit", "link-twice"])
def test_topology_with_a_repeated_name_exits_2(docs, tmp_path, capsys, old, new, message):
    p, paths = docs
    edited(paths["topology"], old, new)
    capsys.readouterr()
    assert main(["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("name, old, new, message", [
    ("workflow", "files:\n", "files:\n- name: radar_volume\n  size_bytes: 10000000\n",
     "duplicate file name 'radar_volume'"),
    ("sites", "  - {name: nfs, shared_fs: true}\n",
     "  - {name: nfs, shared_fs: true}\n  - {name: condorpool, runtimes: [docker]}\n",
     "duplicate site name 'condorpool'"),
], ids=["workflow-file", "site"])
def test_workflow_or_sites_with_a_repeated_name_exits_1(docs, tmp_path, capsys,
                                                        name, old, new, message):
    p, paths = docs
    edited(paths[name], old, new)
    out = tmp_path / "plan" / "executable.yml"
    capsys.readouterr()
    assert main(["plan", p["workflow"], p["catalog"], p["sites"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("slots: 24", "slots: 0", "slots must be >= 1"),
    ("disk_service_base_ms: 10.0", "disk_service_base_ms: .nan",
     "disk_service_base_ms must be finite and >= 0, not nan"),
    ("disk_service_base_ms: 10.0", "disk_service_base_ms: -50.0",
     "disk_service_base_ms must be finite and >= 0, not -50.0"),
    ("disk_service_base_ms: 10.0", "disk_service_base_ms: .inf",
     "disk_service_base_ms must be finite and >= 0, not inf"),
], ids=["slots-0", "base-nan", "base-negative", "base-inf"])
def test_topology_node_value_out_of_range_exits_2(docs, tmp_path, capsys, old, new, message):
    """The first worker's field, after the submit and nfs nodes."""
    p, paths = docs
    text = paths["topology"].read_text()
    at = text.index("name: condorpool/w1")
    paths["topology"].write_text(text[:at] + text[at:].replace(old, new, 1))
    capsys.readouterr()
    assert main(["simulate", p["executable"], p["topology"], "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: node 'condorpool/w1': {message}\n"
    assert not (tmp_path / "s").exists()


DEPTH = 3000  # lists nested deeper than Python's recursion limit


@pytest.mark.parametrize("closed", [False, True], ids=["cut-off", "closed"])
def test_result_nested_too_deep_exits_1(docs, tmp_path, capsys, closed):
    p, paths = docs
    paths["result"].write_text(
        '{"makespan_s": ' + "[" * DEPTH + ("]" * DEPTH + "}" if closed else ""))
    capsys.readouterr()
    assert main(["report", p["result"], "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        "error: result document is not valid JSON: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string\n")
    assert not (tmp_path / "r").exists()


def test_yaml_nested_too_deep_exits_1(docs, tmp_path, capsys):
    p, paths = docs
    paths["workflow"].write_text("tasks: " + "[" * DEPTH + "]" * DEPTH + "\n")
    capsys.readouterr()
    assert main(["plan", p["workflow"], p["catalog"], p["sites"],
                 "--out", str(tmp_path / "e.yml")]) == 1
    assert capsys.readouterr().err == (
        "error: workflow document: tasks must list one mapping per entry\n")
