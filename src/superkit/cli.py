"""Command-line entry point: identity suites, decompositions, kernel solvers,
transforms, and Wess-Zumino checks, with machine-readable reports.

Every report embeds the convention-ledger snapshot; randomized checks are
reproducible from the seed recorded in the report.  Exit codes: 0 all checks
passed, 1 at least one failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import conventions, linalg
from .exactnum import QC, as_complex
from .grassmann import chiral_kernel, mono_key
from .spin_geometry import (OffOrbit, classify_orbit, gamma_pair, minkowski_norm2,
                            momentum_is_exact)
from .suites import SUITES, rand_qc
from . import symbols as sym
from . import superfourier as sft
from . import components as cmp
from . import repdecomp as rep


class Check:
    def __init__(self, cid, ok, max_error=0.0, detail=""):
        self.cid = cid
        self.ok = bool(ok)
        self.max_error = float(max_error)
        self.detail = detail
        self.runtime_ms = 0.0

    def as_dict(self):
        return {"id": self.cid, "status": "pass" if self.ok else "fail",
                "max_error": self.max_error, "detail": self.detail,
                "runtime_ms": round(self.runtime_ms, 3)}


class Report:
    def __init__(self, suite, seed=None):
        self.suite = suite
        self.seed = seed
        self.checks = []

    def run(self, cid, fn):
        t0 = time.perf_counter()
        try:
            ok, err, detail = fn()
            chk = Check(cid, ok, err, detail)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            chk = Check(cid, False, float("inf"), f"exception: {exc}")
        chk.runtime_ms = (time.perf_counter() - t0) * 1000
        self.checks.append(chk)

    def ok(self):
        return all(c.ok for c in self.checks)

    def as_dict(self):
        return {"suite": self.suite, "seed": self.seed,
                "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.cid)],
                "ledger": conventions.snapshot()}

    def print_human(self):
        print(f"suite: {self.suite}" + (f"  (seed {self.seed})" if self.seed is not None else ""))
        for c in sorted(self.checks, key=lambda c: c.cid):
            status = "PASS" if c.ok else "FAIL"
            print(f"  [{status}] {c.cid:42s} max_err={c.max_error:.3g} "
                  f"({c.runtime_ms:.1f} ms) {c.detail}")
        print(f"result: {'all passed' if self.ok() else 'FAILURES PRESENT'}")


# -- helpers --------------------------------------------------------------------

def _parse_momentum(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"momentum must be JSON: {exc}") from exc
    if not isinstance(raw, list) or len(raw) != 4:
        raise argparse.ArgumentTypeError("momentum must be a 4-element JSON list")
    comps = []
    for x in raw:
        # JSON true/false parse as bool, which is an int subclass: reject them
        if (isinstance(x, list) and len(x) == 2
                and all(type(v) is int for v in x) and x[1] != 0):
            comps.append(Fraction(x[0], x[1]))
        elif type(x) is int:
            comps.append(Fraction(x))
        elif type(x) is float and math.isfinite(x):
            comps.append(x)
        else:
            raise argparse.ArgumentTypeError(f"bad momentum component {x!r}")
    return tuple(comps)


def cmd_identities(args):
    if args.suite != "all" and args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{', '.join(sorted(SUITES))}, all", file=sys.stderr)
        return 2
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    rp = Report(args.suite, args.seed)
    for name in names:
        for cid, check in SUITES[name](random.Random(args.seed), args.float_tol):
            rp.run(f"{name}.{cid}", check)
    _emit(rp, args)
    return 0 if rp.ok() else 1


def cmd_pipeline(args):
    rp = Report("pipeline", args.seed)
    m = args.mass
    p = args.momentum
    rng = random.Random(args.seed)
    exact = momentum_is_exact(p)
    mass = m if exact else float(m)
    seed_a = rand_qc(rng) if exact else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    seed_u = (QC(1), rand_qc(rng)) if exact else (1.0, complex(rng.uniform(-1, 1)))
    try:
        sol = cmp.solution_generator(p, mass, seed_a, seed_u, tol=args.float_tol)
    except OffOrbit as exc:
        print(f"off orbit: {exc}", file=sys.stderr)
        return 2
    f = cmp.chiral_expand(sol)
    tol = 0.0 if exact else args.float_tol

    # chirality is tested once, here; the checks after it do not test it again
    rp.run("chirality", lambda: (cmp.is_chiral(f, tol), 0.0, ""))
    rp.run("momentum_constraints", lambda: (
        sym.superspin0_constraints(p, mass).solution_dims_paired(args.float_tol) == (2, 2),
        0.0, ""))
    rp.run("wz_vanishes", lambda: _wz_vanishes(f, mass, tol, check=False))

    def residuals():
        res = cmp.component_reduce(f, mass, check=False)
        err = max(res["kg_residual"].max_abs(), res["f_relation"].max_abs(),
                  max(r.max_abs() for r in res["dirac_residual"]))
        return err <= tol, err, ""
    rp.run("component_residuals", residuals)

    rp.run("grid_convergence", lambda: _grid_convergence(sol, m, args.grid) if args.grid
           else (True, 0.0, "skipped (no --grid)"))
    _emit(rp, args)
    return 0 if rp.ok() else 1


def _wz_vanishes(f, mass, tol, check):
    w = cmp.wz_operator(f, mass, check=check, tol=tol)
    return w.is_zero(tol), w.max_abs(), ""


def _grid_convergence(sol, m, grid):
    """Halving the grid spacing on the same domain must cut the Klein-Gordon
    and the Dirac residuals about 4x each."""
    n, h = grid
    r1 = cmp.grid_residual(sol, float(m), cmp.Grid4(n, h))
    r2 = cmp.grid_residual(sol, float(m), cmp.Grid4(2 * n - 1, h / 2))
    kg, dirac = ((r1[k] / r2[k]) if r2[k] else float("inf") for k in ("max_kg", "max_dirac"))
    return (3.0 < kg < 5.0 and 3.0 < dirac < 5.0, r2["max_kg"],
            f"kg ratio {kg:.2f}, dirac ratio {dirac:.2f}")


def cmd_decompose(args):
    dec = rep.tensor_sym_decompose(args.alpha, args.beta)
    out = {"alpha": str(args.alpha), "beta": str(args.beta),
           "spins": {str(k): v for k, v in dec.as_spin_dict().items()},
           "dimension": dec.dimension()}
    _emit_data(out, args, title="tensor product decomposition")
    return 0


def cmd_multiplet(args):
    dec = rep.superspin_multiplet(args.sigma)
    dof = rep.dof_check(args.sigma)
    out = {"sigma": str(args.sigma),
           "spins": {str(k): v for k, v in dec.as_spin_dict().items()},
           "bosonic": dof["bosonic"], "fermionic": dof["fermionic"]}
    _emit_data(out, args, title="superspin multiplet")
    return 0


def cmd_content(args):
    dec = rep.scalar_superfield_content(args.sigma)
    out = {"sigma": str(args.sigma),
           "superspins": {str(k): v for k, v in dec.as_spin_dict().items()}}
    _emit_data(out, args, title="superfield superspin content")
    return 0


def cmd_orbit_classify(args):
    out = {"momentum": [str(x) for x in args.momentum],
           "norm2": str(minkowski_norm2(args.momentum)),
           "orbit": classify_orbit(args.momentum, args.tol)}
    _emit_data(out, args, title="orbit classification")
    return 0


def cmd_kernel(args):
    p, m = args.momentum, args.mass
    if args.symbol == "dirac":
        mat = sym.dirac_symbol(p, m)
        tol = 0.0 if momentum_is_exact(p) else args.float_tol
        basis = linalg.null_space(mat, tol)
        out = {"symbol": "dirac", "kernel_dim": len(basis),
               "basis": [[str(as_complex(x)) for x in v] for v in basis],
               "matrix": [[str(as_complex(x)) for x in row] for row in mat]}
    elif args.symbol == "chiral":
        basis = chiral_kernel(gamma_pair(p))
        out = {"symbol": "chiral", "kernel_dim": len(basis),
               "basis": [{mono_key(k): str(as_complex(v)) for k, v in b.coeffs.items()}
                         for b in basis]}
    elif args.symbol == "superspin0":
        basis = chiral_kernel(gamma_pair(p))
        cons = sym.superspin0_constraints(p, m)
        out = {"symbol": "superspin0", "kernel_dim": len(basis),
               "basis": [{mono_key(k): str(as_complex(v)) for k, v in b.coeffs.items()}
                         for b in basis],
               "constraints": {**cons.as_dict(),
                               "solution_dims_paired": cons.solution_dims_paired(args.float_tol)}}
    else:
        print(f"unknown symbol {args.symbol!r}", file=sys.stderr)
        return 2
    _emit_data(out, args, title="kernel report")
    return 0


def cmd_superft(args):
    """A bad input file or an unwritable output is a usage error: one line, exit 2."""
    try:
        with open(args.input, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("the input must be a JSON object")
        data = sft.super_ft(sft.SuperFunction.from_json(raw)).to_json()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2)
            return 0
    except (OSError, ValueError) as exc:
        print(f"superkit superft: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    json.dump(data, sys.stdout, indent=2)
    print()
    return 0


def cmd_solve(args):
    try:
        sol = cmp.solution_generator(args.momentum, args.mass, tol=args.float_tol)
    except OffOrbit as exc:
        print(f"off orbit: {exc}", file=sys.stderr)
        return 2
    _emit_data(sol.to_json(), args, title="superspin-0 solution")
    return 0


def cmd_wz_check(args):
    rp = Report("wz-check")
    try:
        sol = cmp.solution_generator(args.momentum, args.mass, tol=args.float_tol)
    except OffOrbit as exc:
        print(f"off orbit: {exc}", file=sys.stderr)
        return 2
    f = cmp.chiral_expand(sol)
    exact = momentum_is_exact(args.momentum)
    tol = 0.0 if exact else args.float_tol
    # wz_operator tests chirality, once; the residuals do not test it again
    rp.run("wz_vanishes", lambda: _wz_vanishes(f, args.mass, tol, check=True))
    res = cmp.component_reduce(f, args.mass, check=False)
    rp.run("residuals", lambda: (cmp.residuals_vanish(res, tol), 0.0, ""))
    rp.run("lambda_n_equivalence", lambda: _lambda_n_equivalence(args.momentum, args.mass)
           if exact else (True, 0.0, "skipped (float momentum)"))
    if args.grid:
        rp.run("grid_convergence", lambda: _grid_convergence(sol, args.mass, args.grid))
    _emit(rp, args)
    return 0 if rp.ok() else 1


def _lambda_n_equivalence(p, m):
    """Over Lambda_4 the WZ solutions at (p, m) are the Lambda_4 span of the
    scalar ones, taken with matching parities (the functor-of-points reading)."""
    res = cmp.wz_equivalence_check(4, p, m)
    return res["match"], 0.0, (f"Lambda_4 module dim {res['module_dim_real']}, "
                               f"expected {res['expected_dim_real']}")


def _emit(report, args):
    if getattr(args, "json", False):
        json.dump(report.as_dict(), sys.stdout, indent=2)
        print()
    else:
        report.print_human()


def _emit_data(data, args, title=""):
    if getattr(args, "json", False):
        json.dump({**data, "ledger": conventions.snapshot()}, sys.stdout, indent=2)
        print()
    else:
        if title:
            print(title)
        for k, v in data.items():
            print(f"  {k}: {v}")


def _grid_arg(text):
    try:
        n, h = text.split(",")
        n, h = int(n), float(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected n,h") from exc
    if n < 5 or not (h > 0 and math.isfinite(h)):
        raise argparse.ArgumentTypeError(
            f"grid {text!r} needs at least 5 points and a finite spacing h > 0")
    return n, h


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from exc


def _mass(text):
    m = _rational(text)
    if m <= 0:
        raise argparse.ArgumentTypeError(f"mass must be positive, got {text!r}")
    return m


def _tolerance(text):
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc
    if not (tol >= 0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _half_int(text):
    x = _rational(text)
    if x < 0 or (2 * x).denominator != 1:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative half-integer, got {text!r}")
    return x


@functools.cache
def build_parser():
    """The argparse tree, built once per process; parsing does not change it."""
    ap = argparse.ArgumentParser(prog="superkit",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run an identity suite")
    p.add_argument("--suite", default="all",
                   help="all|" + "|".join(sorted(SUITES)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("decompose", help="tensor product spin decomposition")
    p.add_argument("--alpha", type=_half_int, required=True)
    p.add_argument("--beta", type=_half_int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("multiplet", help="superspin multiplet content")
    p.add_argument("--sigma", type=_half_int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_multiplet)

    p = sub.add_parser("content", help="scalar superfield superspin content")
    p.add_argument("--sigma", type=_half_int, default=Fraction(0))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_content)

    p = sub.add_parser("kernel", help="kernel solvers")
    p.add_argument("--symbol", required=True, help="dirac|chiral|superspin0")
    p.add_argument("--mass", type=_mass, default=Fraction(1))
    p.add_argument("--momentum", type=_parse_momentum, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("superft", help="super Fourier transform of a JSON superfunction")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_superft)

    p = sub.add_parser("solve", help="generate an on-shell superspin-0 solution")
    p.add_argument("--mass", type=_mass, default=Fraction(1))
    p.add_argument("--momentum", type=_parse_momentum, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("wz-check", help="verify the Wess-Zumino system for a solution")
    p.add_argument("--mass", type=_mass, default=Fraction(1))
    p.add_argument("--momentum", type=_parse_momentum, required=True)
    p.add_argument("--grid", type=_grid_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_wz_check)

    p = sub.add_parser("orbit-classify", help="classify the orbit of a momentum")
    p.add_argument("--momentum", type=_parse_momentum, required=True)
    p.add_argument("--tol", type=_tolerance, default=0.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_orbit_classify)

    p = sub.add_parser("pipeline", help="end-to-end symbols -> WZ operator -> components")
    p.add_argument("--mass", type=_mass, required=True)
    p.add_argument("--momentum", type=_parse_momentum, required=True)
    p.add_argument("--grid", type=_grid_arg)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_pipeline)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.float_tol = _tolerance(os.environ.get("SUPERKIT_TOL", "1e-9"))
    except argparse.ArgumentTypeError as exc:
        print(f"superkit: SUPERKIT_TOL: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
