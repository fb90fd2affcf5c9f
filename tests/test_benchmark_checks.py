"""The benchmark's own report checks (benchmarks/workloads.py) on the current
code.

``workloads.check_points`` composes dfindex calls itself (boundary_sample,
levi_form, annulus_points, criterion_samples, df_bound, s_bound), so an API
change that breaks them breaks every benchmark run.  One round of each
workload runs here, and its checks must find no problem beyond the faults
that ``workloads.KNOWN_FAULTS`` names.
"""

import json
import sys
from pathlib import Path

import pytest

import dfindex
from dfindex import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_benchmark_round_passes_its_checks(tmp_path, workload):
    problems = []
    for i, op in enumerate(workloads.make_ops(workload, 0)):
        out = tmp_path / f"{i}.json"
        assert cli.main(list(op.argv) + ["--output", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        if op.expr not in workloads.KNOWN_FAULTS:
            problems += workloads.check_report(op, report)
            problems += workloads.check_points(op, report, dfindex)
    assert problems == []
