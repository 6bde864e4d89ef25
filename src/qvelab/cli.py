"""Batch command-line front-end.

Every subcommand calls one module pipeline, reads/writes CSV or JSON files,
and prints a machine-readable JSON summary line on stderr, which carries the
seconds since ``main`` started as ``elapsed_s``.  Same argv + seed gives
byte-identical output files.

Exit codes: 0 success; 1 a check failed (a ``verify`` violation, or a
numerical failure: ``NotConverged``, ``SolveFailure``, ``EigFailure``); 2 bad
usage or input (every other ``QvelabError``, ``OSError``, ``ValueError``).
Each ``QvelabError`` class carries its code as ``exit_code``.  ``verify
--suite`` takes ``identities``, ``inequalities``, ``all`` or one suite name.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import ensembles, kernels, measures, qve, rates, suites, trees
from .errors import DomainError, QvelabError

_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-]\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)i\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (e.g. '0+2i', '1.5-0.25i')."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    return complex(float(m.group("re")), float(m.group("im")))


def parse_grid(text: str) -> qve.SpectralGrid:
    """Parse 'xmin:xmax:npts:eta'."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("grid must be xmin:xmax:npts:eta")
    return qve.SpectralGrid(float(parts[0]), float(parts[1]),
                            int(parts[2]), float(parts[3]))


def _load_law(path) -> rates.EntryLaw:
    if path is None:
        return rates.EntryLaw.rademacher()
    with open(path) as fh:
        return rates.EntryLaw.from_json(fh.read())


def _load_measure(spec: str) -> measures.ProbMeasure1D:
    if spec == "semicircle":
        return qve.semicircle_reference()
    if spec.endswith(".json"):
        return qve.QveMeasure(kernels.load_kernel(spec))
    return measures.load_measure_csv(spec)


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# perf_counter() when main started the running command
_started = 0.0


def _summary(cmd, **extra):
    elapsed = time.perf_counter() - _started
    line = json.dumps({"cmd": cmd, **extra, "elapsed_s": elapsed}, sort_keys=True)
    print(line, file=sys.stderr)


# -- subcommand handlers -----------------------------------------------------


def cmd_qve_solve(args):
    W = kernels.load_kernel(args.kernel)
    sol = qve.solve_qve(W, args.z)
    _write(args.out, qve.solution_to_json(sol))
    _summary("qve-solve", points=len(args.z), max_residual=float(sol.residuals.max()),
             continued=sol.continued)
    return 0


def cmd_qve_measure(args):
    W = kernels.load_kernel(args.kernel)
    grid = args.grid or qve.default_grid(W)
    mu = qve.qve_measure(W, grid)
    if args.out:
        measures.save_measure_csv(mu, args.out)
    _summary("qve-measure", points=grid.n_points, out=args.out)
    return 0


def cmd_moments(args):
    W = kernels.load_kernel(args.kernel)
    rows = trees.moments_table(W, args.max_order)
    text = "order,value\n" + "".join(f"{o},{v!r}\n" for o, v in rows)
    _write(args.out, text)
    _summary("moments", max_order=args.max_order)
    return 0


def cmd_rate(args):
    law = _load_law(args.law)
    if args.num < 1:
        raise DomainError(f"--num must be >= 1, got {args.num}")
    # a finite span needs finite bounds, and keeps linspace from overflowing
    if not math.isfinite(args.u_max - args.u_min):
        raise DomainError("--u-min, --u-max and their span must be finite")
    if args.u_min > args.u_max:
        raise DomainError(f"--u-min {args.u_min!r} exceeds --u-max {args.u_max!r}")
    us = np.linspace(args.u_min, args.u_max, args.num)
    rows = rates.rate_table(law, us)
    text = "u,h_L\n" + "".join(f"{u!r},{h!r}\n" for u, h in rows)
    _write(args.out, text)
    _summary("rate", num=args.num)
    return 0


def cmd_k_alpha(args):
    u = rates.k_alpha(_load_law(args.law), args.alpha, args.eps)
    _write(args.out, json.dumps({"k_alpha": u}))
    _summary("k-alpha", value=u)
    return 0


def cmd_sample(args):
    law = _load_law(args.law)
    s = ensembles.sample_sparse_wigner(args.n, args.p, law, args.seed)
    ensembles.save_sample_csv(s, args.out)
    _summary("sample", n=args.n, p=args.p, seed=args.seed,
             edges=s.edge_count)
    return 0


def cmd_tilt(args):
    law = _load_law(args.law)
    U = kernels.load_kernel(args.kernel)
    s = ensembles.tilted_sample(args.n, args.p, law, U, args.seed)
    ensembles.save_sample_csv(s, args.out)
    _summary("tilt", n=args.n, p=args.p, seed=args.seed, edges=s.edge_count)
    return 0


def cmd_spectrum(args):
    if args.matrix:
        M = ensembles.load_sample_csv(args.matrix, args.n)
    else:
        law = _load_law(args.law)
        M = ensembles.sample_sparse_wigner(args.n, args.p, law, args.seed)
    ensembles.save_eigenvalues_csv(ensembles.esm(M), args.out)
    _summary("spectrum", n=args.n)
    return 0


def cmd_compare(args):
    mu = _load_measure(args.a)
    nu = _load_measure(args.b)
    if args.metric == "d":
        val = measures.metric_d(mu, nu)
    elif args.metric == "ks":
        val = measures.ks_distance(mu, nu)
    elif args.metric == "w1":
        val = measures.wasserstein(mu, nu, 1)
    else:
        val = measures.wasserstein(mu, nu, 2)
    _write(args.out, json.dumps({"metric": args.metric, "value": val}))
    _summary("compare", metric=args.metric, value=val)
    return 0


def cmd_cutnorm(args):
    W = kernels.load_kernel(args.kernel)
    if args.minus:
        W = W.sub(kernels.load_kernel(args.minus))
    res = kernels.cut_norm(W)
    # every cut norm is exact; the flag is part of the output format
    _write(args.out, json.dumps({"value": res.value, "exact": True}))
    _summary("cutnorm", value=res.value, exact=True)
    return 0


def cmd_verify(args):
    names = suites.GROUPS.get(args.suite, [args.suite])
    results = suites.run_suites(names, seed=args.seed, trials=args.trials)
    rows = [{"suite": r.name, "trials": r.trials, "violations": r.violations,
             "worst_margin": r.worst_margin, "worst_trial": r.worst_trial,
             "elapsed_s": r.elapsed_s}
            for r in results]
    text = "".join(
        f"{r['suite']}: {r['violations']} violations / {r['trials']} trials\n"
        for r in rows
    )
    _write(args.out, text)
    ok = all(r.passed for r in results)
    _summary("verify", suites=rows, passed=ok)
    return 0 if ok else 1


# handlers by subcommand name, looked up on each call rather than stored in the
# cached parser, so a handler rebound after the first call is the one that runs
_COMMANDS = {
    "qve-solve": cmd_qve_solve,
    "qve-measure": cmd_qve_measure,
    "moments": cmd_moments,
    "rate": cmd_rate,
    "k-alpha": cmd_k_alpha,
    "sample": cmd_sample,
    "tilt": cmd_tilt,
    "spectrum": cmd_spectrum,
    "compare": cmd_compare,
    "cutnorm": cmd_cutnorm,
    "verify": cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The static parser, built on the first call and shared after that: a
    parse keeps its state in the namespace it returns, never in the parser."""
    p = argparse.ArgumentParser(
        prog="qvelab",
        description="Sparse Wigner / QVE numerical laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def law_flag(sp):
        sp.add_argument("--law", default=None,
                        help="entry-law JSON {'support':[...],'probs':[...]} "
                             "(default: Rademacher)")

    sp = sub.add_parser("qve-solve", help="solve the QVE at given z points")
    sp.add_argument("--kernel", required=True,
                    help="kernel JSON {'boundaries':[...],'values':[[...]]}")
    sp.add_argument("--z", action="append", required=True, type=parse_complex,
                    help="complex point 'a+bi' (repeatable)")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")

    sp = sub.add_parser("qve-measure", help="spectral measure of a kernel")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--grid", type=parse_grid, default=None,
                    help="xmin:xmax:npts:eta")
    sp.add_argument("--out", required=True, help="CSV (x, density, cdf)")

    sp = sub.add_parser("moments", help="QVE-measure moments via the vector Catalan recursion")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--max-order", type=int, default=8)
    sp.add_argument("--out", default=None, help="CSV (order, value)")

    sp = sub.add_parser("rate", help="table of the Legendre conjugate h_L")
    law_flag(sp)
    sp.add_argument("--u-min", type=float, default=0.01)
    sp.add_argument("--u-max", type=float, default=10.0)
    sp.add_argument("--num", type=int, default=200)
    sp.add_argument("--out", default=None, help="CSV (u, h_L)")

    sp = sub.add_parser("k-alpha", help="upper-regularity threshold")
    law_flag(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("sample", help="sample a sparse Wigner matrix")
    law_flag(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed")
    sp.add_argument("--out", required=True, help="triplet CSV (i, j, value)")

    sp = sub.add_parser("tilt", help="sample from the tilted ensemble")
    law_flag(sp)
    sp.add_argument("--kernel", required=True, help="tilting kernel JSON")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of a sample")
    law_flag(sp)
    sp.add_argument("--matrix", default=None, help="triplet CSV to load")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="eigenvalue CSV")

    sp = sub.add_parser("compare", help="distance between two measures")
    sp.add_argument("--a", required=True,
                    help="measure CSV / eigenvalue CSV / kernel JSON / 'semicircle'")
    sp.add_argument("--b", required=True)
    sp.add_argument("--metric", choices=["d", "ks", "w1", "w2"], default="ks")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("cutnorm", help="cut norm of a kernel or difference")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--minus", default=None, help="subtract this kernel first")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", help="run identity/inequality suites")
    sp.add_argument("--suite", default="all",
                    choices=[*suites.GROUPS, *suites.ALL_SUITES],
                    help="a suite group or one suite name")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=None,
                    help="override per-suite trial count")
    sp.add_argument("--out", default=None)

    return p


def main(argv=None) -> int:
    global _started
    _started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (QvelabError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
