"""Command-line entry point: identity suites, decompositions, kernel solvers,
transforms, and Wess-Zumino checks, with machine-readable reports.

Every report embeds the convention-ledger snapshot; randomized checks are
reproducible from the seed recorded in the report.  Exit codes: 0 all checks
passed, 1 at least one failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import conventions, linalg
from .exactnum import QC, as_complex, coerce
from .grassmann import (EndoW, MONOMIALS, Multivector, PairingMatrix,
                        anticommutator, build_d, build_d2, build_d2_factorized,
                        build_dbar, build_dbar2, build_dbar2_factorized,
                        build_ext_minus, build_int_plus, build_q, build_qbar,
                        chiral_kernel, chiral_kernel_nullspace, mono_key, mono_mask)
from .spin_geometry import (OffOrbit, classify_orbit, gamma_pair, gamma_lower,
                            minkowski_norm2)
from . import symbols as sym
from . import superfourier as sft
from . import components as cmp
from . import repdecomp as rep

DEFAULT_TOL = float(os.environ.get("SUPERKIT_TOL", "1e-9"))


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

    def print_human(self, out=sys.stdout):
        print(f"suite: {self.suite}" + (f"  (seed {self.seed})" if self.seed is not None else ""),
              file=out)
        for c in sorted(self.checks, key=lambda c: c.cid):
            status = "PASS" if c.ok else "FAIL"
            print(f"  [{status}] {c.cid:42s} max_err={c.max_error:.3g} "
                  f"({c.runtime_ms:.1f} ms) {c.detail}", file=out)
        print(f"result: {'all passed' if self.ok() else 'FAILURES PRESENT'}", file=out)


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
        elif type(x) is float:
            comps.append(x)
        else:
            raise argparse.ArgumentTypeError(f"bad momentum component {x!r}")
    return tuple(comps)


def _rand_rational(rng, span=5, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_qc(rng):
    return QC(_rand_rational(rng), _rand_rational(rng))


def _rand_pairing(rng):
    while True:
        B = PairingMatrix([[_rand_qc(rng) for _ in range(2)] for _ in range(2)])
        if B.is_invertible():
            return B


def _rand_momentum(rng):
    return tuple(_rand_rational(rng, 6, 4) for _ in range(4))


def _rand_onshell(rng, m):
    k = [rng.uniform(-2, 2) for _ in range(3)]
    return (math.sqrt(m * m + sum(x * x for x in k)), *k)


def _rand_superfunction(rng, nterms=1):
    f = sft.SuperFunction({}, "position")
    for mask in MONOMIALS:
        for _ in range(nterms):
            f = f + sft.single_wave(mask, _rand_qc(rng), _rand_momentum(rng))
    return f


# -- identity suites -------------------------------------------------------------

def suite_algebra(rng):
    rp = Report("algebra", getattr(rng, "_seed", None))
    pairings = [PairingMatrix.identity()] + [_rand_pairing(rng) for _ in range(20)]

    def anticomm():
        for B in pairings:
            for a in (1, 2):
                for b in (1, 2):
                    lhs = anticommutator(build_int_plus(a, B), build_ext_minus(b))
                    if not (lhs - B[a, b] * EndoW.identity()).is_zero():
                        return False, 1.0, f"failed at a={a} b={b}"
        return True, 0.0, f"{len(pairings)} pairings x 4 index pairs"
    rp.run("anticommutation_ie", anticomm)

    def nilpotent():
        for B in pairings[:5]:
            for a in (1, 2):
                for b in (1, 2):
                    i1 = build_int_plus(a, B)
                    i2 = build_int_plus(b, B)
                    e1 = build_ext_minus(a)
                    e2 = build_ext_minus(b)
                    if not anticommutator(i1, i2).is_zero():
                        return False, 1.0, "ii"
                    if not anticommutator(e1, e2).is_zero():
                        return False, 1.0, "ee"
        return True, 0.0, ""
    rp.run("anticommutation_ii_ee", nilpotent)

    def susy():
        for B in pairings[:10]:
            for a in (1, 2):
                for b in (1, 2):
                    for qop in (build_q(a, B), build_qbar(a, B)):
                        for dop in (build_d(b, B), build_dbar(b, B)):
                            if not anticommutator(qop, dop).is_zero():
                                return False, 1.0, f"a={a} b={b}"
        return True, 0.0, "16 graded commutators x 10 pairings"
    rp.run("susy_invariance", susy)

    def routes():
        for B in pairings[:5]:
            if build_d2(B) != build_d2_factorized(B):
                return False, 1.0, "composed != factorized (known inconsistency, ledger L7)"
            if build_dbar2(B) != build_dbar2_factorized(B):
                return False, 1.0, "dbar2 composed != factorized"
        return True, 0.0, ""
    rp.run("d2_route_equivalence", routes)

    def kernel():
        for B in pairings:
            ker = chiral_kernel(B)
            ns = chiral_kernel_nullspace(B)
            if len(ns) != 4:
                return False, 1.0, f"nullspace dim {len(ns)}"
            d1, d2 = build_dbar(1, B), build_dbar(2, B)
            for v in ker:
                if not (d1(v).is_zero() and d2(v).is_zero()):
                    return False, 1.0, "closed form not annihilated"
            if not linalg.same_span([v.to_vector() for v in ker],
                                    [v.to_vector() for v in ns]):
                return False, 1.0, "span mismatch"
        return True, 0.0, f"dim 4 at {len(pairings)} pairings"
    rp.run("chiral_kernel", kernel)

    def parity():
        B = pairings[1]
        for op, want in ((build_d(1, B), "odd"), (build_dbar(2, B), "odd"),
                         (build_d2(B), "even"), (build_dbar2(B), "even")):
            if op.parity() != want:
                return False, 1.0, f"expected {want}"
        return True, 0.0, ""
    rp.run("parity_bookkeeping", parity)
    return rp


def suite_superfourier(rng):
    rp = Report("superfourier", getattr(rng, "_seed", None))

    def star_table():
        checks = [
            (mono_mask((), ()), mono_mask((1, 2), (1, 2)), QC(1)),
            (mono_mask((1,), ()), mono_mask((1,), (1, 2)), QC(0, 1)),
            (mono_mask((), (1,)), mono_mask((1, 2), (1,)), QC(0, 1)),
            (mono_mask((1, 2), ()), mono_mask((), (1, 2)), QC(1)),
            (mono_mask((), (1, 2)), mono_mask((1, 2), ()), QC(1)),
            (mono_mask((1,), (2,)), mono_mask((1,), (2,)), QC(-1)),
            (mono_mask((1, 2), (2,)), mono_mask((), (2,)), QC(0, 1)),
            (mono_mask((2,), (1, 2)), mono_mask((2,), ()), QC(0, 1)),
            (mono_mask((1, 2), (1, 2)), mono_mask((), ()), QC(1)),
        ]
        for src, tgt, fac in checks:
            if sft.hodge_star(Multivector.basis(src)) != Multivector.basis(tgt, fac):
                return False, 1.0, mono_key(src)
        for mask in MONOMIALS:
            mv = Multivector.basis(mask, _rand_qc(rng))
            if sft.hodge_star(sft.hodge_star(sft.hodge_star(sft.hodge_star(mv)))) != mv:
                return False, 1.0, "star^4 != id"
        return True, 0.0, "16 monomials"
    rp.run("hodge_star_table", star_table)

    def exchange():
        worst = 0.0
        for _ in range(30):
            f = _rand_superfunction(rng)
            repx = sft.exchange_check(f)
            worst = max(worst, max(repx.values()))
        return worst == 0.0, worst, "4 identities x 30 random superfunctions"
    rp.run("exchange_identities", exchange)

    def roundtrip():
        for _ in range(10):
            f = _rand_superfunction(rng, 2)
            if sft.inverse_super_ft(sft.super_ft(f)) != f:
                return False, 1.0, ""
        return True, 0.0, ""
    rp.run("ft_round_trip", roundtrip)

    def berezin():
        for _ in range(5):
            f = _rand_superfunction(rng, 2)
            lhs = sft.body_restriction(f)
            rhs = sft.berezin_integral(sft.super_ft(f))
            # the momentum-side coefficients are the plane-wave data itself
            if lhs != rhs:
                return False, 1.0, ""
        return True, 0.0, "body = Berezin of transform"
    rp.run("body_vs_berezin", berezin)

    def intertwine():
        worst = 0.0
        for _ in range(30):
            f = _rand_superfunction(rng)
            fhat = sft.super_ft(f)
            for a in (1, 2):
                lhs = sft.super_ft(sft.apply_Dbar(a, f))
                rhs = sft.SuperFunction({}, "momentum")
                for b in (1, 2):
                    e = conventions.EPS_LOWER[a - 1][b - 1]
                    if e:
                        rhs = rhs + QC(0, e) * sft.apply_zeta_momentum(
                            lambda q, b=b: sym.zeta_dbar_action(q, b), fhat)
                worst = max(worst, (lhs - rhs).max_abs())
            lhs2 = sft.super_ft(sft.apply_D2(f))
            rhs2 = (-1) * sft.apply_zeta_momentum(sym.zeta_d2_action, fhat)
            worst = max(worst, (lhs2 - rhs2).max_abs())
        return worst == 0.0, worst, "Dbar and D2 intertwining, 30 trials"
    rp.run("zeta_intertwining", intertwine)

    def grouplaw():
        alg = sft.AuxGrassmann(4)

        def rand_even():
            out = alg.scalar(rng.randint(-3, 3))
            for i in range(4):
                for j in range(i + 1, 4):
                    out = out + rng.randint(-2, 2) * (alg.gen(i) * alg.gen(j))
            return out

        def rand_odd():
            out = alg.element({})
            for i in range(4):
                out = out + rng.randint(-2, 2) * alg.gen(i)
            return out

        def rand_point():
            return sft.SuperPoint([rand_even() for _ in range(4)],
                                  [rand_odd(), rand_odd()],
                                  [rand_odd(), rand_odd()])
        zero = sft.SuperPoint([alg.scalar(0)] * 4, [alg.element({})] * 2,
                              [alg.element({})] * 2)
        for _ in range(10):
            u, v, w = rand_point(), rand_point(), rand_point()
            if sft.group_law(u, zero) != u:
                return False, 1.0, "unit"
            if sft.group_law(u, u.negate()) != zero:
                return False, 1.0, "inverse"
            if sft.group_law(sft.group_law(u, v), w) != sft.group_law(u, sft.group_law(v, w)):
                return False, 1.0, "associativity"
        return True, 0.0, "unit/inverse/associativity over Lambda_4"
    rp.run("cbh_group_law", grouplaw)
    return rp


def suite_brackets(rng):
    rp = Report("brackets", getattr(rng, "_seed", None))
    momenta = [_rand_momentum(rng) for _ in range(10)]

    def table():
        ops = {"Q": sft.apply_Q, "Qbar": sft.apply_Qbar,
               "D": sft.apply_D, "Dbar": sft.apply_Dbar}
        vanishing = (("Q", "Q"), ("Qbar", "Qbar"), ("D", "D"), ("Dbar", "Dbar"),
                     ("Q", "D"), ("Q", "Dbar"), ("Qbar", "D"), ("Qbar", "Dbar"))
        for q in momenta:
            gl = gamma_lower(q)
            for mask in (0, 5, 10, 15):
                f = sft.single_wave(mask, QC(1), q)
                for a in (1, 2):
                    for b in (1, 2):
                        qq = sft.graded_bracket(lambda g, a=a: ops["Q"](a, g),
                                                lambda g, b=b: ops["Qbar"](b, g), f)
                        dd = sft.graded_bracket(lambda g, a=a: ops["D"](a, g),
                                                lambda g, b=b: ops["Dbar"](b, g), f)
                        if (qq - (-2 * gl[a - 1][b - 1]) * f).max_abs() != 0:
                            return False, 1.0, "[Q,Qbar] != -2 Gamma P"
                        if (dd - (2 * gl[a - 1][b - 1]) * f).max_abs() != 0:
                            return False, 1.0, "[D,Dbar] != +2 Gamma P"
                        for n1, n2 in vanishing:
                            z = sft.graded_bracket(lambda g, a=a, o=ops[n1]: o(a, g),
                                                   lambda g, b=b, o=ops[n2]: o(b, g), f)
                            if not z.is_zero():
                                return False, 1.0, f"[{n1},{n2}] != 0"
        return True, 0.0, "full table at 10 rational momenta"
    rp.run("bracket_table", table)

    def p_brackets():
        for q in momenta[:3]:
            f = sft.single_wave(3, QC(1, 1), q)
            for mu in range(4):
                for op in (sft.apply_Q, sft.apply_Qbar, sft.apply_D, sft.apply_Dbar):
                    for a in (1, 2):
                        c = sft.apply_P(mu, op(a, f)) - op(a, sft.apply_P(mu, f))
                        if not c.is_zero():
                            return False, 1.0, "[P, odd] != 0"
                for nu in range(4):
                    c = sft.apply_P(mu, sft.apply_P(nu, f)) - sft.apply_P(nu, sft.apply_P(mu, f))
                    if not c.is_zero():
                        return False, 1.0, "[P,P] != 0"
        return True, 0.0, ""
    rp.run("p_brackets", p_brackets)
    return rp


def suite_symbols(rng):
    rp = Report("symbols", getattr(rng, "_seed", None))

    def equivariance():
        worst = 0.0
        for _ in range(30):
            m = rng.uniform(0.3, 4.0)
            p = _rand_onshell(rng, m)
            rest = (m, 0.0, 0.0, 0.0)
            for closed, restop in ((sym.zeta_d2(p), build_d2(gamma_pair(rest))),
                                   (sym.zeta_dbar2(p), build_dbar2(gamma_pair(rest))),
                                   (sym.zeta_i2(p), sym.zeta_i2(rest))):
                prop = sym.propagate(restop, p, m)
                worst = max(worst, (closed - prop).max_abs() / max(1.0, m * m))
        return worst <= DEFAULT_TOL, worst, "closed form vs propagation, 30 momenta"
    rp.run("propagation_route", equivariance)

    def dirac():
        for _ in range(50):
            m = rng.uniform(0.3, 4.0)
            p = _rand_onshell(rng, m)
            if sym.dirac_kernel_dim(p, m) != 2:
                return False, 1.0, "on-shell dim != 2"
            off = (2 * p[0], *p[1:])
            if sym.dirac_kernel_dim(off, m) != 0:
                return False, 1.0, "off-shell dim != 0"
        return True, 0.0, "50 momenta"
    rp.run("dirac_kernel", dirac)

    def superspin0():
        worst = 0
        for _ in range(10):
            m = Fraction(rng.randint(1, 4))
            p = _rand_momentum(rng)
            repc = sym.superspin0_constraints(p, m)
            want = coerce(minkowski_norm2(p)) - coerce(m) * coerce(m)
            if repc.bosonic_factor != want:
                return False, 1.0, "bosonic factor"
        rest = sym.superspin0_constraints((1, 0, 0, 0), 1)
        rf = rest.rest_frame_fermionic()
        if not (rf[0][0] == 0 and rf[0][1] == 1 and rf[1][0] == -1 and rf[1][1] == 0):
            return False, 1.0, "rest-frame fermionic reduction"
        return True, worst, "(|p|^2 - m^2) factor and rest-frame reduction"
    rp.run("superspin0_elimination", superspin0)
    return rp


SUITES = {"algebra": suite_algebra, "superfourier": suite_superfourier,
          "brackets": suite_brackets, "symbols": suite_symbols}


def cmd_identities(args):
    if args.suite != "all" and args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{', '.join(sorted(SUITES))}, all", file=sys.stderr)
        return 2
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        rng = random.Random(args.seed)
        rng._seed = args.seed
        reports.append(SUITES[name](rng))
    merged = Report(args.suite, args.seed)
    for r in reports:
        for c in r.checks:
            c.cid = f"{r.suite}.{c.cid}"
            merged.checks.append(c)
    _emit(merged, args)
    return 0 if merged.ok() else 1


def cmd_pipeline(args):
    rp = Report("pipeline", args.seed)
    m = args.mass
    p = args.momentum
    n2 = float(minkowski_norm2(p))
    if abs(n2 - m * m) > DEFAULT_TOL * max(1.0, m * m) or float(p[0]) <= 0:
        print(f"momentum {p} is not on the forward mass-{m} shell "
              f"(|p|^2 = {n2})", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    exact = all(isinstance(x, Fraction) for x in p) \
        and minkowski_norm2(p) == Fraction(m) ** 2
    mass = Fraction(m) if exact else float(m)
    seed_a = QC(_rand_rational(rng), _rand_rational(rng)) if exact \
        else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    seed_u = (QC(1), _rand_qc(rng)) if exact else (1.0, complex(rng.uniform(-1, 1)))
    sol = cmp.solution_generator(p, mass, seed_a, seed_u)
    f = cmp.chiral_expand(sol)
    tol = 0.0 if exact else DEFAULT_TOL

    rp.run("chirality", lambda: (cmp.is_chiral(f, tol), 0.0, ""))
    rp.run("momentum_constraints", lambda: (
        sym.superspin0_constraints(p, mass).solution_dims_paired() == (2, 2), 0.0, ""))
    rp.run("wz_vanishes", lambda: _wz_vanishes(f, mass, tol))

    def residuals():
        res = cmp.component_reduce(f, mass, tol)
        err = max(res["kg_residual"].max_abs(), res["f_relation"].max_abs(),
                  max(r.max_abs() for r in res["dirac_residual"]))
        return err <= tol, err, ""
    rp.run("component_residuals", residuals)

    rp.run("grid_convergence", lambda: _grid_convergence(sol, m, args.grid) if args.grid
           else (True, 0.0, "skipped (no --grid)"))
    _emit(rp, args)
    return 0 if rp.ok() else 1


def _wz_vanishes(f, mass, tol):
    w = cmp.wz_operator(f, mass, tol=tol)
    return w.is_zero(tol), w.max_abs(), ""


def _grid_convergence(sol, m, grid):
    """Halving the grid spacing must cut the Klein-Gordon residual about 4x."""
    n, h = grid
    r1 = cmp.grid_residual(sol, float(m), cmp.Grid4(n, h))
    r2 = cmp.grid_residual(sol, float(m), cmp.Grid4(n, h / 2))
    ratio = (r1["max_kg"] / r2["max_kg"]) if r2["max_kg"] else float("inf")
    return 3.0 < ratio < 5.0, r2["max_kg"], f"kg ratio {ratio:.2f}"


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
        tol = 0.0 if all(isinstance(x, Fraction) for x in p) else DEFAULT_TOL
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
        out = {"symbol": "superspin0", "kernel_dim": len(basis),
               "basis": [{mono_key(k): str(as_complex(v)) for k, v in b.coeffs.items()}
                         for b in basis],
               "constraints": sym.superspin0_constraints(p, m).as_dict()}
    else:
        print(f"unknown symbol {args.symbol!r}", file=sys.stderr)
        return 2
    _emit_data(out, args, title="kernel report")
    return 0


def cmd_superft(args):
    with open(args.input, encoding="utf-8") as fh:
        f = sft.SuperFunction.from_json(json.load(fh))
    fhat = sft.super_ft(f)
    data = fhat.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
    else:
        json.dump(data, sys.stdout, indent=2)
        print()
    return 0


def cmd_solve(args):
    try:
        sol = cmp.solution_generator(args.momentum, args.mass)
    except OffOrbit as exc:
        print(f"off orbit: {exc}", file=sys.stderr)
        return 2
    _emit_data(sol.to_json(), args, title="superspin-0 solution")
    return 0


def cmd_wz_check(args):
    rp = Report("wz-check")
    try:
        sol = cmp.solution_generator(args.momentum, args.mass)
    except OffOrbit as exc:
        print(f"off orbit: {exc}", file=sys.stderr)
        return 2
    f = cmp.chiral_expand(sol)
    exact = all(isinstance(x, Fraction) for x in args.momentum)
    tol = 0.0 if exact else DEFAULT_TOL
    rp.run("wz_vanishes", lambda: _wz_vanishes(f, args.mass, tol))
    res = cmp.component_reduce(f, args.mass, tol)
    rp.run("residuals", lambda: (cmp.residuals_vanish(res, tol), 0.0, ""))
    if args.grid:
        rp.run("grid_convergence", lambda: _grid_convergence(sol, args.mass, args.grid))
    _emit(rp, args)
    return 0 if rp.ok() else 1


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


def build_parser():
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
