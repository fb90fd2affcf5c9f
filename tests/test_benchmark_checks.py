"""The benchmark's own report checks (benchmarks/workloads.py) on the current
code.

``workloads.check_points`` composes dfindex calls itself (boundary_sample,
levi_form, annulus_points, criterion_samples, df_bound, s_bound), so an API
change that breaks them breaks every benchmark run.  One round of each
workload runs here, and its checks must find no problem beyond the faults
that ``workloads.KNOWN_FAULTS`` names.  The expression workload's domains
must also get DF = S = 1 from a certificate at every seed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import dfindex
from dfindex import cli, exprparse, index

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402
from test_cli import read_report  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_benchmark_round_passes_its_checks(tmp_path, workload):
    problems = []
    for i, op in enumerate(workloads.make_ops(workload, 0)):
        out = tmp_path / f"{i}.json"
        assert cli.main(list(op.argv) + ["--output", str(out)]) == cli.EXIT_OK
        report = read_report(out)
        if op.expr not in workloads.KNOWN_FAULTS:
            problems += workloads.check_report(op, report)
            problems += workloads.check_points(op, report, dfindex)
    assert problems == []


@pytest.mark.parametrize("seed", range(10))
def test_expr_shapes_get_index_one_from_a_certificate(seed):
    # every expression of the workload is a convex domain, so DF = S = 1
    # whichever rays are drawn: a Levi gap or a plurisubharmonic defining
    # function must decide it, never the criterion samples
    for op in workloads.make_ops("expr", seed):
        dm = exprparse.parse_expression(op.expr)
        rep = index.sampled_report(dm, np.zeros(2 * dm.n),
                                   workloads.EXPR_COUNT, seed)
        assert (rep.df_lower, rep.s_upper) == (1.0, 1.0), op.expr
        assert rep.diagnostics["certificate"] != "criterion", op.expr
