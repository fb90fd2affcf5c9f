"""The benchmark's span tracer (benchmarks/tracing.py) on the current code.

The tracer wraps dfindex functions by name and patches class attributes
through their ``__dict__`` (``DomainSpec.rho``, ``DomainSpec.boundary_point``,
``PointCalculus.__init__``, ``RhoFamily.realize``, ``Jet.__init__``), so a
rename or a removed ``__init__`` breaks traced benchmark runs.  One small
analysis of each benchmark workload kind runs under it here, and the spans
of the central fiber's optimizer pin how many jet passes it makes.
"""

import math
import sys
from pathlib import Path

from dfindex import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402

RUNS = (
    ["analyze", "--t", "0", "--annulus-count", "5"],
    ["analyze", "--t", "0.05", "--spc-count", "20"],
    ["analyze", "--expr", "abs2(z1)+abs2(z2)*abs2(z2)-1", "--count", "20"],
)
# the parser looks each function up in exprparse._JET_FN, which the tracer
# rebinds, so this expression's own run must record their jets spans
FUNCTION_RUN = ["analyze", "--expr",
                "exp(abs2(z1))+sqrt(1+abs2(z2))+log(1+abs2(z2))-3",
                "--count", "20"]


def test_traced_analyses_give_finite_layer_metrics(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (*RUNS, FUNCTION_RUN):
            first_span = len(tracer.name)
            out = tmp_path / "r.json"
            assert cli.main(argv + ["--output", str(out)]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1)
    bad = {k: v for k, (v, _) in metrics.items() if not math.isfinite(v)}
    assert bad == {}
    # tracer.names lists every wrapped function; tracer.name holds the
    # name id of each span recorded
    recorded = {tracer.names[i] for i in set(tracer.name)}
    assert {"levi.levi_batch", "dangelo.null_forms", "jets.eval3",
            "index.spc_check"} <= recorded
    last_run = {tracer.names[i] for i in set(tracer.name[first_span:])}
    assert {"jets.exp", "jets.log", "jets.sqrt"} <= last_run
    # the central fiber's optimizer evaluates delta's order-3 jet once and
    # builds every candidate from it, realizing no DomainSpec
    below = _names_below(tracer, "index.optimize_rho")
    assert below.count("jets.eval3") == 1
    assert "index.realize" not in below


def _names_below(tracer, name):
    """Names of the spans that have an ancestor span called ``name``."""
    parent, names = tracer.parent, tracer.names
    out = []
    for i, nid in enumerate(tracer.name):
        p = parent[i]
        while p >= 0 and names[tracer.name[p]] != name:
            p = parent[p]
        if p >= 0:
            out.append(names[nid])
    return out
