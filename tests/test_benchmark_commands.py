"""The benchmark's command lines must parse with the CLI's own parser.

``benchmarks/run.py`` drives ``contflow.cli.main`` with fixed argument lists; a
removed or renamed flag would otherwise fail every benchmark pass rather than
a test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from contflow.cli import build_parser

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench_run():
    """``benchmarks/run.py`` as a module; it imports its siblings by bare name."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def test_every_workload_command_parses(bench_run, tmp_path):
    parser = build_parser()
    for name in bench_run.workloads.WORKLOADS:
        ctx = bench_run.Context(name, bench_run.DEFAULT_SEED, tmp_path / name)
        commands = ctx.commands(tmp_path / name / "pass0")
        assert [cmd for cmd, _ in commands][:2] == ["plan", "wrappers"]
        for cmd, argv in commands:
            args = parser.parse_args(argv)
            assert args.command == cmd, (name, argv)
            assert args.func.__name__ == f"cmd_{cmd}"
