"""Benchmark of the dfindex analysis pipeline.

    python3 benchmarks/run.py --workload central --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

One process runs a workload's operations one after another, in-process,
through ``dfindex.cli.main(argv)`` (a closed loop of one caller), repeating
whole rounds of them for about ``--seconds``.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics and the tracing overhead.
Every report is checked after the timed rounds (see ``workloads``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload both ways in fresh processes and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5


def import_program():
    """Import dfindex from this checkout's sources, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import dfindex
    from dfindex import cli  # noqa: F401  (binds dfindex.cli)

    if Path(dfindex.__file__).resolve().parent != SRC / "dfindex":
        raise ImportError(f"dfindex imported from {dfindex.__file__}, not {SRC}")
    return dfindex


def setup_once(workload, seed):
    """Time the import, domain construction and expression parsing."""
    t0 = time.perf_counter()
    program = import_program()
    workloads.construct(workloads.make_ops(workload, seed), program)
    return time.perf_counter() - t0


def setup_seconds(workload, seed):
    """Median set-up time over fresh processes (the import is cold in each)."""
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_round(program, ops, outputs):
    """Run each op once, in order; return the round's wall time and, per op,
    its exit code, captured stderr and report (``outputs`` holds one report
    file per op)."""
    codes = []
    r0 = time.perf_counter()
    for op, path in zip(ops, outputs):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = program.cli.main(list(op.argv) + ["--output", str(path)])
        codes.append((rc, err.getvalue()))
    wall = time.perf_counter() - r0
    return wall, [(rc, msg, _read(path)) for (rc, msg), path in zip(codes, outputs)]


def repeat(budget, step):
    """Call ``step`` at least once, and again while the next call is expected
    to end less than half a call past ``budget`` seconds from the start, so
    that the calls take ``budget`` seconds to the nearest whole call."""
    results = []
    begin = time.perf_counter()
    while True:
        results.append(step())
        spent = time.perf_counter() - begin
        if spent + 0.5 * spent / len(results) > budget:
            return results


def _read(path):
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    report.pop("timestamp", None)
    return report


def check(program, ops, rounds):
    """Count attempted and failed operations and list unexpected problems.

    An operation fails when it exits non-zero, its report breaks a check, or
    an oracle check on its points fails.  Failures of operations listed in
    ``workloads.KNOWN_FAULTS`` are counted but leave the run correct.
    """
    attempted = failed = 0
    unexpected, passed_reports = [], []
    point_problems = {}
    for results in rounds:
        for i, (op, (rc, msg, report)) in enumerate(zip(ops, results)):
            attempted += 1
            if rc != 0 or report is None:
                problems = [f"exit code {rc}: {msg.strip()}"]
            else:
                problems = workloads.check_report(op, report)
                if op.label not in point_problems:
                    point_problems[op.label] = workloads.check_points(
                        op, report, program)
                problems += point_problems[op.label]
                if report != rounds[0][i][2]:
                    problems.append("report differs between rounds")
            if problems:
                failed += 1
                if op.expr not in workloads.KNOWN_FAULTS:
                    unexpected += [f"{op.label}: {p}" for p in problems]
            else:
                passed_reports.append(report)
    return attempted, failed, unexpected, passed_reports


def end_to_end(walls, passed, setup_s, rss_mb):
    def s_value(r):
        return float("inf") if r["s_upper"] == "inf" else float(r["s_upper"])

    df = min((float(r["df_lower"]) for r in passed), default=0.0)
    s = max((s_value(r) for r in passed), default=0.0)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "df_lower": (df, "1"),
        "s_upper": (s, "1"),
    }


def run(args):
    program = import_program()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outputs = [RESULTS / f"{tag}-op{i}.json" for i in range(len(ops))]

    if not args.trace:
        walls, rounds = zip(*repeat(args.seconds,
                                    lambda: run_round(program, ops, outputs)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracing

        tracer = tracing.Tracer()

        def pair():
            # an untraced round, then a traced one, so that the overhead is
            # taken between neighbouring rounds
            plain = run_round(program, ops, outputs)
            tracer.install()
            try:
                traced = run_round(program, ops, outputs)
            finally:
                tracer.uninstall()
            return plain, traced

        pairs = repeat(args.seconds, pair)
        plain_walls = [p[0][0] for p in pairs]
        walls = [p[1][0] for p in pairs]
        rounds = [r[1] for p in pairs for r in p]
        # one file per workload, so repeated runs do not pile up spans on disk
        tracer.save(RESULTS / f"trace-{args.workload}.npz")
        metrics = tracing.layer_metrics(tracer, len(walls))
        metrics["trace.overhead_s"] = (
            statistics.median(walls) - statistics.median(plain_walls), "s")

    attempted, failed, unexpected, passed = check(program, ops, rounds)
    if not args.trace:
        metrics = end_to_end(walls, passed, setup_s, rss_mb)
    for line in unexpected:
        print(f"CHECK FAILED  {line}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=2)
    return result


def print_table(workload, result, file=sys.stdout):
    print(f"[{workload}] attempted {result['attempted']}  failed "
          f"{result['failed']}  correct {result['correct']}", file=file)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}", file=file)


def run_all(args):
    combined = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            if out.returncode != 0:
                raise SystemExit(f"{workload} --trace {trace} exited "
                                 f"{out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print_table(f"{workload} trace={trace}", result)
            combined[f"{workload}.trace{trace}"] = result
    return {
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {f"{key}.{name}": m for key, r in combined.items()
                    for name, m in r["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.setup_only:
            print(repr(setup_once(args.workload, args.seed)))
            return 0
        result = run_all(args) if args.workload == "all" else run(args)
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print_table(args.workload, result, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
