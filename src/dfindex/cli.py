"""Command-line front-end: analysis, sweeps, sampling, and verification.

Subcommands
    analyze      index bounds for one domain (worm, ball, ellipsoid, or an
                 expression) -> report.json
    sweep        deformation sweep over a t-grid -> sweep.csv
    sample       boundary point sampling -> samples.csv
    verify-levi  automatic differentiation vs the closed-form worm Levi value
    schur-test   randomized property suite for the Schur frame transform
    phi-check    profile-function axiom suite

Exit codes: 0 success, 2 input error, 3 numerical-consistency failure.
A flat key=value config file can seed any option; explicit flags win.
Execution is sequential and deterministic for a given --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, dangelo, domains, exprparse, index, levi

__all__ = ["main", "run_verify_levi", "run_schur_suite", "run_phi_check",
           "worm_levi_closed_form", "EXIT_OK", "EXIT_INPUT", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

LEVI_VERIFY_TOL = 1e-8
LEVI_VERIFY_MIN_W = 1e-6     # |w| below this is the w-logarithm's singularity
SCHUR_PROJECTION_TOL = 1e-8
SCHUR_SIZES = (2, 8)         # schur-test draws matrix sizes in this range
SCHUR_TRAILING_COND = 1e6    # condition bound of a drawn trailing block
PHI_CHECK_POINTS = 10000


class VerificationError(RuntimeError):
    """A verification subcommand found a numerical inconsistency."""


# -- small helpers ---------------------------------------------------------------


def _parse_floats(text):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _write_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _stamp(payload):
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    payload["version"] = __version__
    return payload


def _verdict(payload, path, passed, failure):
    """Write a verification subcommand's stamped payload, then raise
    VerificationError(failure) if its check did not pass."""
    _write_json(_stamp(dict(payload)), path)
    if not passed:
        raise VerificationError(failure)
    return EXIT_OK


def _domain_and_anchor(args):
    """The domain that analyze or sample names, the interior anchor of its
    rays, and whether it is the worm.  --dim sets the dimension of the ball
    (2 by default) and of an expression; for the worm and an ellipsoid it
    may only repeat theirs."""
    worm = not args.expr and args.domain == "worm"
    if args.dim is not None and args.dim < 1:
        raise domains.DomainError(f"--dim must be at least 1, got {args.dim}")
    if args.expr:
        domain = exprparse.parse_expression(args.expr, n=args.dim)
    elif worm:
        domain = domains.worm_rho(args.beta, args.t)
    elif args.domain == "ball":
        domain = domains.ball(args.dim or 2)
    elif args.coeffs:
        domain = domains.ellipsoid(args.coeffs)
    else:
        raise domains.DomainError("ellipsoid requires --coeffs")
    if args.dim not in (None, domain.n):
        raise domains.DomainError(f"--dim {args.dim} does not match the "
                                  f"{args.domain}, a domain in C^{domain.n}")
    anchor = index.WORM_ANCHOR.copy() if worm else np.zeros(2 * domain.n)
    if args.anchor is not None:
        anchor = args.anchor  # domains.boundary_scan checks its size
    return domain, anchor, worm


# -- analyze ----------------------------------------------------------------------


def cmd_analyze(args):
    domain, anchor, worm = _domain_and_anchor(args)
    if worm:
        if args.anchor is not None:
            raise domains.DomainError(
                "--anchor does not apply to analyze on the worm: its rays "
                f"start at index.WORM_ANCHOR = {index.WORM_ANCHOR.tolist()}")
        report = index.worm_fiber_report(
            args.beta, args.t, annulus_count=args.annulus_count,
            spc_count=args.spc_count, seed=args.seed)
    else:
        report = index.sampled_report(domain, anchor, args.count, args.seed)
    payload = report.to_dict()
    payload["domain"] = args.expr or args.domain
    _write_json(_stamp(payload), args.output)
    s_text = "inf" if report.s_upper == math.inf else f"{report.s_upper:.6f}"
    print(f"df_lower = {report.df_lower:.6f}  s_upper = {s_text}  "
          f"null_count = {report.null_count}  spc = {report.spc}",
          file=sys.stderr)
    return EXIT_OK


# -- sweep ------------------------------------------------------------------------


def cmd_sweep(args):
    reports = index.deformation_sweep(
        args.beta, args.t, annulus_count=args.annulus_count,
        spc_count=args.spc_count, seed=args.seed)
    with open(args.output, "w") as fh:
        fh.write("t,df_lower,s_upper,null_count,spc\n")
        for rep in reports:
            s_text = "inf" if rep.s_upper == math.inf else repr(rep.s_upper)
            fh.write(f"{rep.t},{rep.df_lower!r},{s_text},"
                     f"{rep.null_count},{rep.spc}\n")
    if args.json:
        payload = {"reports": [rep.to_dict() for rep in reports]}
        _write_json(_stamp(payload), args.json)
    for rep in reports:
        s_text = "inf" if rep.s_upper == math.inf else f"{rep.s_upper:.4f}"
        print(f"t={rep.t:+.3f}  df_lower={rep.df_lower:.4f}  "
              f"s_upper={s_text}  spc={rep.spc}", file=sys.stderr)
    return EXIT_OK


# -- sample -----------------------------------------------------------------------


def cmd_sample(args):
    domain, anchor, _ = _domain_and_anchor(args)
    scan = domains.boundary_scan(domain, anchor, args.count, seed=args.seed)
    domains.samples_to_csv(scan, args.output)
    print(f"wrote {args.count} boundary samples to {args.output}",
          file=sys.stderr)
    return EXIT_OK


# -- verify-levi ------------------------------------------------------------------


def worm_levi_closed_form(phi, z, w, tsq=0.0):
    """Closed-form Levi value of the rescaled worm defining function on the
    tangent vector L = -rho_w d/dz + rho_z d/dw, carrying the e^{2 arg w}
    factor of the local rescaling.

    With g = z - e^{i log|w|^2} the bracket is |i zbar g + phi'|^2
    + |g|^2 (phi + phi'') + |t|^2 |g|^2: on the boundary |g|^2 equals
    1 - phi - |t|^2, which is where the deformation term enters.  The overall
    constant matches this package's Levi normalization.  z and w may be
    numbers or arrays of points.
    """
    u = np.log(np.abs(w) ** 2)
    g = z - np.exp(1j * u)
    value, d1, d2 = phi.derivatives(u, 0, 2)
    first = 1j * np.conj(z) * g + d1
    inner = np.abs(first) ** 2 + np.abs(g) ** 2 * (value + d2 + tsq)
    return np.exp(2.0 * np.angle(w)) / np.abs(w) ** 2 * inner


def run_verify_levi(beta, t, count, seed):
    """Compare AD Levi values against the closed form on sampled points.

    One boundary_scan gives the samples and one levi.levi_batch their Levi
    matrices: in C^2 the one pivoted frame vector is +-L, so M[:, 0, 0] is
    Levi_rho(L, L).  The AD side multiplies it by e^{2 arg w} (the conformal
    rescaling is criterion-neutral on tangent vectors at the boundary); arg
    uses the principal branch, and only this positive factor is consumed.
    """
    domain = domains.worm_rho(beta, t)
    scan = domains.boundary_scan(domain, index.WORM_ANCHOR, count, seed=seed)
    z, w = domains.point_of_coords(scan.coords)
    # |w| below LEVI_VERIFY_MIN_W is the w-logarithm's coordinate singularity
    used = np.abs(w) >= LEVI_VERIFY_MIN_W
    z, w = z[used], w[used]
    lhs = (levi.levi_batch(scan.wirt).M[used, 0, 0].real
           * np.exp(2.0 * np.angle(w)))
    rhs = worm_levi_closed_form(domains.make_phi(beta), z, w, abs(t) ** 2)
    rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                                         1e-10)
    max_rel = float(np.max(rel, initial=0.0))
    return {"beta": beta, "t": t, "count": int(used.sum()), "seed": seed,
            "max_rel_error": max_rel, "tolerance": LEVI_VERIFY_TOL,
            "passed": bool(max_rel < LEVI_VERIFY_TOL)}


def cmd_verify_levi(args):
    if not args.t:
        raise ValueError("verify-levi needs at least one --t value")
    results = [run_verify_levi(args.beta, t, args.count, args.seed)
               for t in args.t]
    return _verdict({"results": results}, args.output,
                    all(r["passed"] for r in results),
                    "closed-form Levi comparison failed: "
                    + json.dumps(results))


# -- schur-test -------------------------------------------------------------------


def _random_null_matrix(rng, size, null_dim):
    """Random PSD Hermitian matrix with an exact null space of the given
    dimension and a well-conditioned trailing block."""
    for _ in range(100):
        G = rng.normal(size=(size - null_dim, size)) \
            + 1j * rng.normal(size=(size - null_dim, size))
        M = G.conj().T @ G
        C = M[null_dim:, null_dim:]
        if np.linalg.cond(C) < SCHUR_TRAILING_COND:
            return M
    raise VerificationError("failed to draw a well-conditioned test matrix")


def run_schur_suite(count=1000, seed=0):
    """Randomized identity and null-containment checks for schur_frame."""
    if count < 1:
        raise ValueError(f"schur-test count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    max_resid = 0.0
    max_proj = 0.0
    for _ in range(count):
        size = int(rng.integers(SCHUR_SIZES[0], SCHUR_SIZES[1] + 1))
        m = int(rng.integers(1, size))
        M = _random_null_matrix(rng, size, m)
        vals, vecs = np.linalg.eigh(M)
        res = levi.schur_frame(M, m)
        # relative to the larger scale of M and of its target, as in
        # schur_frame
        scale = max(np.linalg.norm(M), np.linalg.norm(res.block_pos), 1e-300)
        max_resid = max(max_resid, res.residual / scale)
        # null coefficient vectors must lie in the span of the first m
        # transformed frame vectors, whose coefficients are conj(Psi)'s columns
        kernel = vecs[:, vals < 1e-10 * max(1.0, abs(vals).max())]
        q, _ = np.linalg.qr(np.conj(res.Psi[:, :m]))
        for k in range(kernel.shape[1]):
            b = np.conj(kernel[:, k])
            proj = np.linalg.norm(b - q @ (q.conj().T @ b))
            max_proj = max(max_proj, proj)
    return {"count": count, "seed": seed,
            "max_identity_residual": float(max_resid),
            "max_projection_residual": float(max_proj),
            "identity_tolerance": levi.SCHUR_IDENTITY_TOL,
            "projection_tolerance": SCHUR_PROJECTION_TOL,
            "passed": bool(max_resid < levi.SCHUR_IDENTITY_TOL
                           and max_proj < SCHUR_PROJECTION_TOL)}


def cmd_schur_test(args):
    result = run_schur_suite(count=args.count, seed=args.seed)
    return _verdict(result, args.output, result["passed"],
                    "Schur property suite failed: " + json.dumps(result))


# -- phi-check --------------------------------------------------------------------


def run_phi_check(beta):
    """Axiom suite for the profile function phi."""
    phi = domains.make_phi(beta)
    r, a = phi.r, phi.r + 1.0  # phi(a) = 1
    xs = np.linspace(-a - 1.0, a + 1.0, PHI_CHECK_POINTS)
    vals, _, second = phi.derivatives(xs, 0, 2)
    even_defect = np.abs(vals - phi.derivatives(-xs, 0, 0)[0]).max()
    value_at_a, slope_at_a = phi.derivatives(a, 0, 1)
    inside = np.abs(xs) <= r
    zero_on_interval = float(np.abs(vals[inside]).max())
    # exp(-1/s) underflows for s below ~1/745, so positivity immediately
    # outside [-r, r] is below double precision; check it at representable
    # distance and require monotone growth outward
    outside = np.abs(xs) >= r + 0.01
    positive_outside = bool(np.all(vals[outside] > 0.0))
    right = vals[xs >= r]
    monotone_outward = bool(np.all(np.diff(right) >= 0.0))
    quad_err = domains.phi_quadrature_check(phi)
    checks = {
        "nonnegative": bool(np.all(vals >= 0.0)),
        "even_defect": float(even_defect),
        "min_second_derivative": float(second.min()),
        "zero_on_interval": zero_on_interval,
        "positive_outside_interval": positive_outside,
        "monotone_outward": monotone_outward,
        "value_at_a": float(value_at_a),
        "slope_at_a": float(slope_at_a),
        "quadrature_error": float(quad_err),
    }
    passed = (checks["nonnegative"]
              and checks["even_defect"] == 0.0
              and checks["min_second_derivative"] >= -1e-12
              and checks["zero_on_interval"] <= 1e-12
              and checks["positive_outside_interval"]
              and checks["monotone_outward"]
              and abs(checks["value_at_a"] - 1.0) <= 1e-10
              and checks["slope_at_a"] > 0.0
              and checks["quadrature_error"] < 1e-10)
    return {"beta": beta, "r": r, "a": a, "checks": checks, "passed": passed}


def cmd_phi_check(args):
    result = run_phi_check(args.beta)
    return _verdict(result, args.output, result["passed"],
                    "phi axiom suite failed: " + json.dumps(result))


# -- argument plumbing ------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config", default=None,
                        help="flat key=value config file; explicit flags win")

    # the domain options of analyze and sample
    domain = argparse.ArgumentParser(add_help=False)
    domain.add_argument("--domain", default="worm",
                        choices=["worm", "ball", "ellipsoid"])
    domain.add_argument("--expr", default=None,
                        help="defining function expression in z1..zn")
    domain.add_argument("--dim", type=int, default=None)
    domain.add_argument("--coeffs", type=_parse_floats, default=None)
    domain.add_argument("--anchor", type=_parse_floats, default=None,
                        help="interior anchor: 2n interleaved re/im coordinates, "
                             "or n real parts")
    domain.add_argument("--beta", type=float, default=3.0 * math.pi / 4.0)
    domain.add_argument("--t", type=float, default=0.0)

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=400,
                        help="accepted for interface stability; the central "
                             "fiber's certificate is closed-form and ignores "
                             "it")

    parser = argparse.ArgumentParser(
        prog="dfindex",
        description="Index bound analyses for pseudoconvex domains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common, domain, budget],
                        help="index bounds for one domain")
    pa.add_argument("--annulus-count", type=int, default=33)
    pa.add_argument("--spc-count", type=int, default=index.SPC_SAMPLES)
    pa.add_argument("--count", type=int, default=400,
                    help="boundary samples for non-worm domains")
    pa.add_argument("--output", default="report.json")
    pa.set_defaults(func=cmd_analyze)

    pw = sub.add_parser("sweep", parents=[common, budget],
                        help="deformation sweep over a t-grid")
    pw.add_argument("--beta", type=float, default=3.0 * math.pi / 4.0)
    pw.add_argument("--t", type=_parse_floats, default=[0.0, 0.05, 0.1, 0.3])
    pw.add_argument("--annulus-count", type=int, default=33)
    pw.add_argument("--spc-count", type=int, default=index.SPC_SAMPLES)
    pw.add_argument("--output", default="sweep.csv")
    pw.add_argument("--json", default=None)
    pw.set_defaults(func=cmd_sweep)

    ps = sub.add_parser("sample", parents=[common, domain],
                        help="sample boundary points to CSV")
    ps.add_argument("--count", type=int, default=500)
    ps.add_argument("--output", default="samples.csv")
    ps.set_defaults(func=cmd_sample)

    pv = sub.add_parser("verify-levi", parents=[common],
                        help="AD Levi values vs the closed form")
    pv.add_argument("--beta", type=float, default=3.0 * math.pi / 4.0)
    pv.add_argument("--t", type=_parse_floats, default=[0.0, 0.3])
    pv.add_argument("--count", type=int, default=500)
    pv.add_argument("--output", default="-")
    pv.set_defaults(func=cmd_verify_levi)

    pt = sub.add_parser("schur-test", parents=[common],
                        help="randomized Schur transform property suite")
    pt.add_argument("--count", type=int, default=1000)
    pt.add_argument("--output", default="-")
    pt.set_defaults(func=cmd_schur_test)

    pp = sub.add_parser("phi-check", parents=[common],
                        help="profile function axiom suite")
    pp.add_argument("--beta", type=float, default=3.0 * math.pi / 4.0)
    pp.add_argument("--output", default="-")
    pp.set_defaults(func=cmd_phi_check)

    return parser


def _load_config(path):
    tokens = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"config line {lineno} is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            tokens += [f"--{key.replace('_', '-')}", value]
    return tokens


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's tokens go right after the subcommand, so explicit
            # flags (later tokens) override them
            i = argv.index(args.command) + 1
            args = parser.parse_args(argv[:i] + _load_config(args.config)
                                     + argv[i:])
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (dangelo.DAngeloError, levi.LeviError, VerificationError) as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (exprparse.ParseError, domains.DomainError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
