"""The identity checks the construction relies on, one function per check.

Each check takes its data (pairings, superfunctions, ``(q, f)`` cases,
``(p, m)`` samples) and returns ``(ok, max_error, detail)``.  The exact
checks compare with zero tolerance; the two checks on float momenta,
``propagation_route`` and ``dirac_kernel``, take their tolerance from the
caller (the CLI passes ``SUPERKIT_TOL``).  The CLI's
``identities`` suites (``SUITES``) and the test suite call the same
functions, each with its own seeds and data sizes.

The ``rand_*`` helpers draw the random data from a ``random.Random``; the
suite drivers call them in a fixed order, so a seed reproduces a report.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import conventions, grassmann, linalg
from . import repdecomp as rep
from . import superfourier as sft
from . import symbols as sym
from .exactnum import QC, coerce
from .grassmann import (BASIS, MONOMIALS, Multivector, PairingMatrix, build_d, build_d2,
                        build_d2_factorized, build_dbar, build_dbar2,
                        build_dbar2_factorized, build_qbar, chiral_kernel_nullspace,
                        d2_action, d_action, dbar_action, ext_minus, int_plus, mono_key,
                        mono_mask, q_action, qbar_action)
from .spin_geometry import gamma_lower, gamma_pair, minkowski_norm2

# The sixteen Hodge-star display entries: (source, target, factor).
STAR_DISPLAY = (
    (mono_mask((), ()), mono_mask((1, 2), (1, 2)), QC(1)),
    (mono_mask((1,), ()), mono_mask((1,), (1, 2)), QC(0, 1)),
    (mono_mask((2,), ()), mono_mask((2,), (1, 2)), QC(0, 1)),
    (mono_mask((), (1,)), mono_mask((1, 2), (1,)), QC(0, 1)),
    (mono_mask((), (2,)), mono_mask((1, 2), (2,)), QC(0, 1)),
    (mono_mask((1, 2), ()), mono_mask((), (1, 2)), QC(1)),
    (mono_mask((), (1, 2)), mono_mask((1, 2), ()), QC(1)),
    (mono_mask((1,), (1,)), mono_mask((1,), (1,)), QC(-1)),
    (mono_mask((1,), (2,)), mono_mask((1,), (2,)), QC(-1)),
    (mono_mask((2,), (1,)), mono_mask((2,), (1,)), QC(-1)),
    (mono_mask((2,), (2,)), mono_mask((2,), (2,)), QC(-1)),
    (mono_mask((1, 2), (1,)), mono_mask((), (1,)), QC(0, 1)),
    (mono_mask((1, 2), (2,)), mono_mask((), (2,)), QC(0, 1)),
    (mono_mask((1,), (1, 2)), mono_mask((1,), ()), QC(0, 1)),
    (mono_mask((2,), (1, 2)), mono_mask((2,), ()), QC(0, 1)),
    (mono_mask((1, 2), (1, 2)), mono_mask((), ()), QC(1)),
)

_ODD_OPS = {"Q": sft.apply_Q, "Qbar": sft.apply_Qbar,
            "D": sft.apply_D, "Dbar": sft.apply_Dbar}
_VANISHING = (("Q", "Q"), ("Qbar", "Qbar"), ("D", "D"), ("Dbar", "Dbar"),
              ("Q", "D"), ("Q", "Dbar"), ("Qbar", "D"), ("Qbar", "Dbar"))


# -- random data ------------------------------------------------------------------

def rand_rational(rng, span=5, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_qc(rng):
    """QC(rand_rational(rng), rand_rational(rng)), from the same four draws."""
    a, d = rng.randint(-5, 5), rng.randint(1, 4)
    b, e = rng.randint(-5, 5), rng.randint(1, 4)
    return QC._of(a * e, b * d, d * e)


def rand_pairing(rng):
    while True:
        B = PairingMatrix([[rand_qc(rng) for _ in range(2)] for _ in range(2)])
        if B.is_invertible():
            return B


def rand_momentum(rng):
    return tuple(rand_rational(rng, 6, 4) for _ in range(4))


def rand_onshell(rng, m):
    """A float momentum on the forward mass-m shell."""
    k = [rng.uniform(-2, 2) for _ in range(3)]
    return (math.sqrt(m * m + sum(x * x for x in k)), *k)


def rand_shell_sample(rng):
    """(p, m): a float mass in [0.3, 4] and a momentum on its shell."""
    m = rng.uniform(0.3, 4.0)
    return rand_onshell(rng, m), m


def rand_divergence_sample(rng):
    """(alpha, beta, p): alpha, beta in {1/2, 1, 3/2} and an exact momentum
    with det B(p) != 0."""
    alpha, beta = (Fraction(rng.randint(1, 3), 2) for _ in range(2))
    while True:
        p = rand_momentum(rng)
        if gamma_pair(p).is_invertible():
            return alpha, beta, p


def rand_superfunction(rng, nterms=1):
    """nterms plane waves per monomial, each at its own random momentum."""
    comps = {}
    for mask in MONOMIALS:
        terms = {}
        for _ in range(nterms):
            a, q = rand_qc(rng), sft.MomentumKey(rand_momentum(rng))
            terms[q] = terms[q] + a if q in terms else a
        comps[mask] = sft.PlaneWaveFn(terms)
    return sft.SuperFunction(comps, "position")


def rand_even(rng, alg):
    """A scalar plus integer multiples of each gen(i) * gen(j), i < j (the
    product is +1 at mask 2^i + 2^j: no Koszul crossing)."""
    coeffs = {0: rng.randint(-3, 3)}
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            coeffs[1 << i | 1 << j] = rng.randint(-2, 2)
    return alg.element(coeffs)


def rand_odd(rng, alg):
    return alg.element({1 << i: rng.randint(-2, 2) for i in range(alg.n)})


def rand_superpoint(rng, alg):
    return sft.SuperPoint([rand_even(rng, alg) for _ in range(4)],
                          [rand_odd(rng, alg), rand_odd(rng, alg)],
                          [rand_odd(rng, alg), rand_odd(rng, alg)])


# -- algebra on W -------------------------------------------------------------------

def _with_images(op):
    """(op, its images of the 16 basis monomials), so a check that pairs op
    with several others applies it to each basis vector once."""
    return op, [op(e) for e in BASIS]


def _anticommutes_to(f, g, scale=None):
    """{f, g} == scale * Id (0 when scale is None), column by column, for f
    and g given as (action, basis images) pairs."""
    (f, fe), (g, ge) = f, g
    for m in MONOMIALS:
        want = Multivector.basis(m, scale) if scale is not None else Multivector({})
        if f(ge[m]) + g(fe[m]) != want:
            return False
    return True


def _ext(b):
    return _with_images(lambda mv: ext_minus(b, mv))


def _int(a, B):
    return _with_images(lambda mv: int_plus(a, B, mv))


def anticommutation_ie(pairings):
    """{i_{tau^a}, e_{taubar^b}} = B[a][b] Id."""
    ext = {b: _ext(b) for b in (1, 2)}
    for B in pairings:
        ints = {a: _int(a, B) for a in (1, 2)}
        for a in (1, 2):
            for b in (1, 2):
                if not _anticommutes_to(ints[a], ext[b], B[a, b]):
                    return False, 1.0, f"failed at a={a} b={b}"
    return True, 0.0, f"{len(pairings)} pairings x 4 index pairs"


def anticommutation_ii_ee(pairings):
    """{i_a, i_b} = 0 and {e_a, e_b} = 0."""
    ext = {b: _ext(b) for b in (1, 2)}
    for B in pairings:
        ints = {a: _int(a, B) for a in (1, 2)}
        for a in (1, 2):
            for b in (1, 2):
                if not _anticommutes_to(ints[a], ints[b]):
                    return False, 1.0, "ii"
                if not _anticommutes_to(ext[a], ext[b]):
                    return False, 1.0, "ee"
    return True, 0.0, ""


def susy_invariance(pairings):
    """Every q/qbar anticommutes with every d/dbar."""
    for B in pairings:
        ops = {(make, a): _with_images(make(a, B))
               for make in (q_action, qbar_action, d_action, dbar_action) for a in (1, 2)}
        for a in (1, 2):
            for b in (1, 2):
                for qmake in (q_action, qbar_action):
                    for dmake in (d_action, dbar_action):
                        if not _anticommutes_to(ops[qmake, a], ops[dmake, b]):
                            return False, 1.0, f"a={a} b={b}"
    return True, 0.0, f"16 graded commutators x {len(pairings)} pairings"


def d2_route_equivalence(pairings):
    """Composed d^2, dbar^2 against the factorized forms, each route up to its
    own first mismatch: red on purpose (L7)."""
    failed = [name for name, composed, factorized in (
        ("d2", build_d2, build_d2_factorized), ("dbar2", build_dbar2, build_dbar2_factorized))
        if any(composed(B) != factorized(B) for B in pairings)]
    if failed:
        return (False, 1.0, f"{' and '.join(failed)}: composed != factorized "
                "(known inconsistency, ledger L7)")
    return True, 0.0, ""


def chiral_kernel(pairings):
    """The closed-form chiral kernel is killed by dbar_1, dbar_2 and spans
    the 4-dimensional exact null space."""
    for B in pairings:
        ker = grassmann.chiral_kernel(B)
        ns = chiral_kernel_nullspace(B)
        if len(ns) != 4:
            return False, 1.0, f"nullspace dim {len(ns)}"
        d1, d2 = dbar_action(1, B), dbar_action(2, B)
        for v in ker:
            if not (d1(v).is_zero() and d2(v).is_zero()):
                return False, 1.0, "closed form not annihilated"
        if not linalg.same_span([v.to_vector() for v in ker],
                                [v.to_vector() for v in ns]):
            return False, 1.0, "span mismatch"
    return True, 0.0, f"dim 4 at {len(pairings)} pairings"


def parity_bookkeeping(B):
    """d, qbar, dbar are odd and d^2, dbar^2 even as 16x16 matrices."""
    for op, want in ((build_d(1, B), "odd"), (build_qbar(2, B), "odd"),
                     (build_dbar(2, B), "odd"), (build_d2(B), "even"), (build_dbar2(B), "even")):
        if op.parity() != want:
            return False, 1.0, f"expected {want}"
    return True, 0.0, ""


# -- the super Fourier transform ------------------------------------------------------

def hodge_star_table(samples, cases=STAR_DISPLAY):
    """The star matches the display entries, and star^4 fixes every sample."""
    for src, tgt, fac in cases:
        if sft.hodge_star(Multivector.basis(src)) != Multivector.basis(tgt, fac):
            return False, 1.0, mono_key(src)
    for mv in samples:
        if sft.hodge_star(sft.hodge_star(sft.hodge_star(sft.hodge_star(mv)))) != mv:
            return False, 1.0, "star^4 != id"
    return True, 0.0, f"{len(samples)} monomials"


def exchange_identities(fs):
    worst = 0.0
    for f in fs:
        worst = max(worst, max(sft.exchange_check(f).values()))
    return worst == 0.0, worst, f"4 identities x {len(fs)} random superfunctions"


def ft_round_trip(fs):
    for f in fs:
        if sft.inverse_super_ft(sft.super_ft(f)) != f:
            return False, 1.0, ""
    return True, 0.0, ""


def body_vs_berezin(fs):
    for f in fs:
        # the momentum-side coefficients are the plane-wave data itself
        if sft.body_restriction(f) != sft.berezin_integral(sft.super_ft(f)):
            return False, 1.0, ""
    return True, 0.0, "body = Berezin of transform"


def zeta_intertwining(fs):
    """star((Dbar_a f)^) = i eps_ab zeta_{dbar_b}(fhat) and
    star((D^2 f)^) = -zeta_{d^2}(fhat)."""
    for f in fs:
        fhat = sft.super_ft(f)
        pairing = functools.cache(gamma_pair)  # B(q) once per momentum of fhat
        for a in (1, 2):
            rhs = sft.SuperFunction({}, "momentum")
            for b in (1, 2):
                e = conventions.EPS_LOWER[a - 1][b - 1]
                if e:
                    rhs = rhs + QC(0, e) * sft.apply_zeta_momentum(
                        lambda q, b=b: dbar_action(b, pairing(q)), fhat)
            if sft.super_ft(sft.apply_Dbar(a, f)) != rhs:
                return False, 1.0, f"Dbar_{a} intertwining"
        if sft.super_ft(sft.apply_D2(f)) != (-1) * sft.apply_zeta_momentum(
                lambda q: d2_action(pairing(q)), fhat):
            return False, 1.0, "D2 intertwining"
    return True, 0.0, f"Dbar and D2 intertwining, {len(fs)} trials"


def cbh_group_law(triples):
    """Left and right unit, inverse and associativity of the group law on
    (u, v, w) triples of B-points over one Lambda_N."""
    n = 0
    for u, v, w in triples:
        alg = u.y[0].alg
        n = alg.n
        zero = sft.SuperPoint([alg.scalar(0)] * 4, [alg.element({})] * 2,
                              [alg.element({})] * 2)
        if sft.group_law(u, zero) != u or sft.group_law(zero, u) != u:
            return False, 1.0, "unit"
        if sft.group_law(u, u.negate()) != zero:
            return False, 1.0, "inverse"
        if sft.group_law(sft.group_law(u, v), w) != sft.group_law(u, sft.group_law(v, w)):
            return False, 1.0, "associativity"
    return True, 0.0, f"unit/inverse/associativity over Lambda_{n}"


# -- the bracket table ----------------------------------------------------------------

def bracket_table(cases):
    """[Q,Qbar] = -2 Gamma P, [D,Dbar] = +2 Gamma P and the eight vanishing
    brackets, on superfunctions f of the single momentum q of each case.
    Each image op_a f, and each op_a op_b f, is computed at most once per case."""
    for q, f in cases:
        gl = gamma_lower(q)
        once = {(n, a): op(a, f) for n, op in _ODD_OPS.items() for a in (1, 2)}

        @functools.cache
        def twice(n1, a, n2, b):
            return _ODD_OPS[n1](a, once[n2, b])

        def bracket(n1, a, n2, b):
            return twice(n1, a, n2, b) + twice(n2, b, n1, a)

        for a in (1, 2):
            for b in (1, 2):
                if bracket("Q", a, "Qbar", b) != (-2 * gl[a - 1][b - 1]) * f:
                    return False, 1.0, "[Q,Qbar] != -2 Gamma P"
                if bracket("D", a, "Dbar", b) != (2 * gl[a - 1][b - 1]) * f:
                    return False, 1.0, "[D,Dbar] != +2 Gamma P"
                for n1, n2 in _VANISHING:
                    if not bracket(n1, a, n2, b).is_zero():
                        return False, 1.0, f"[{n1},{n2}] != 0"
    return True, 0.0, f"full table at {len({tuple(q) for q, _ in cases})} rational momenta"


def p_brackets(fs):
    """P_mu commutes with the odd vector fields and with P_nu."""
    for f in fs:
        for mu in range(4):
            for op in _ODD_OPS.values():
                for a in (1, 2):
                    if not (sft.apply_P(mu, op(a, f)) - op(a, sft.apply_P(mu, f))).is_zero():
                        return False, 1.0, "[P, odd] != 0"
            for nu in range(4):
                c = sft.apply_P(mu, sft.apply_P(nu, f)) - sft.apply_P(nu, sft.apply_P(mu, f))
                if not c.is_zero():
                    return False, 1.0, "[P,P] != 0"
    return True, 0.0, ""


# -- momentum symbols -----------------------------------------------------------------

def propagation_route(samples, tol):
    """Closed-form d^2, dbar^2, i^2 symbols against the rest-frame operators
    propagated along the orbit; the error is relative to max(1, m^2).  ``tol``
    bounds it and is the shell tolerance of the boost."""
    worst = 0.0
    zetas = (sym.zeta_d2, sym.zeta_dbar2, sym.zeta_i2)
    for p, m in samples:
        rest = (m, 0.0, 0.0, 0.0)
        for zeta, prop in zip(zetas, sym.propagate([z(rest) for z in zetas], p, m, tol)):
            worst = max(worst, float(abs(zeta(p) - prop).max()) / max(1.0, m * m))
    return worst <= tol, worst, f"closed form vs propagation, {len(samples)} momenta"


def dirac_kernel(samples, tol=None):
    """The Dirac symbol has a 2-dimensional kernel on shell and none at 2 p0;
    ``tol`` is the rank tolerance (None: ``dirac_kernel_dim``'s default)."""
    for p, m in samples:
        if sym.dirac_kernel_dim(p, m, tol) != 2:
            return False, 1.0, "on-shell dim != 2"
        if sym.dirac_kernel_dim((2 * p[0], *p[1:]), m, tol) != 0:
            return False, 1.0, "off-shell dim != 0"
    return True, 0.0, f"{len(samples)} momenta"


def divergence_kernel(samples):
    """Where det B(p) != 0 the divergence symbol on Sym^{2a} (x) Sym^{2b} has
    the top spin a+b of the tensor decomposition as its kernel: dimension
    2(a+b)+1, exactly."""
    for alpha, beta, p in samples:
        top = max(rep.tensor_sym_decompose(alpha, beta).mult)
        if sym.divergence_kernel_dim(alpha, beta, p) != top + 1:
            return False, 1.0, f"kernel dim != {top + 1} at alpha={alpha}, beta={beta}"
    return True, 0.0, f"{len(samples)} (alpha, beta, p) samples"


def superspin0_elimination(samples):
    """The exact (|p|^2 - m^2) elimination factors, N-bar N = -det(B) Id, and
    the rest-frame fermionic reduction."""
    for p, m in samples:
        report = sym.superspin0_constraints(p, m)
        n2 = coerce(minkowski_norm2(p))
        m2 = coerce(m) * coerce(m)
        if report.bosonic_factor != n2 - m2:
            return False, 1.0, "bosonic factor"
        if (report.fermionic_factor_paired != m2 - n2
                or report.fermionic_factor_pointwise != m2 + n2):
            return False, 1.0, "fermionic factors"
        comp = report.fermionic_comp
        if not (comp[0][0] == -n2 and comp[1][1] == -n2 and comp[0][1] == 0 and comp[1][0] == 0):
            return False, 1.0, "N-bar N != -det(B) Id"
    rf = sym.superspin0_constraints((1, 0, 0, 0), 1).rest_frame_fermionic()
    if not (rf[0][0] == 0 and rf[0][1] == 1 and rf[1][0] == -1 and rf[1][1] == 0):
        return False, 1.0, "rest-frame fermionic reduction"
    return True, 0.0, "(|p|^2 - m^2) factor and rest-frame reduction"


# -- the CLI suites ---------------------------------------------------------------------
#
# A suite maps a seeded rng and the float tolerance to (id, check) pairs; each
# check is a thunk that draws its data when run, so the pairs must be run in
# order.

def suite_algebra(rng, tol):
    pairings = [PairingMatrix.identity()] + [rand_pairing(rng) for _ in range(20)]
    return [
        ("anticommutation_ie", lambda: anticommutation_ie(pairings)),
        ("anticommutation_ii_ee", lambda: anticommutation_ii_ee(pairings[:5])),
        ("susy_invariance", lambda: susy_invariance(pairings[:10])),
        ("d2_route_equivalence", lambda: d2_route_equivalence(pairings[:5])),
        ("chiral_kernel", lambda: chiral_kernel(pairings)),
        ("parity_bookkeeping", lambda: parity_bookkeeping(pairings[1])),
    ]


def suite_superfourier(rng, tol):
    alg = sft.AuxGrassmann(4)
    return [
        ("hodge_star_table", lambda: hodge_star_table(
            [Multivector.basis(mask, rand_qc(rng)) for mask in MONOMIALS])),
        ("exchange_identities", lambda: exchange_identities(
            [rand_superfunction(rng) for _ in range(30)])),
        ("ft_round_trip", lambda: ft_round_trip(
            [rand_superfunction(rng, 2) for _ in range(10)])),
        ("body_vs_berezin", lambda: body_vs_berezin(
            [rand_superfunction(rng, 2) for _ in range(5)])),
        ("zeta_intertwining", lambda: zeta_intertwining(
            [rand_superfunction(rng) for _ in range(30)])),
        ("cbh_group_law", lambda: cbh_group_law(
            [tuple(rand_superpoint(rng, alg) for _ in range(3)) for _ in range(10)])),
    ]


def suite_brackets(rng, tol):
    momenta = [rand_momentum(rng) for _ in range(10)]
    return [
        ("bracket_table", lambda: bracket_table(
            [(q, sft.single_wave(mask, QC(1), q)) for q in momenta for mask in (0, 5, 10, 15)])),
        ("p_brackets", lambda: p_brackets(
            [sft.single_wave(3, QC(1, 1), q) for q in momenta[:3]])),
    ]


def _superspin0_sample(rng):
    m = Fraction(rng.randint(1, 4))
    return rand_momentum(rng), m


def suite_symbols(rng, tol):
    return [
        ("propagation_route", lambda: propagation_route(
            [rand_shell_sample(rng) for _ in range(30)], tol)),
        ("dirac_kernel", lambda: dirac_kernel([rand_shell_sample(rng) for _ in range(50)], tol)),
        ("superspin0_elimination", lambda: superspin0_elimination(
            [_superspin0_sample(rng) for _ in range(10)])),
        ("divergence_kernel", lambda: divergence_kernel(
            [rand_divergence_sample(rng) for _ in range(10)])),
    ]


SUITES = {"algebra": suite_algebra, "superfourier": suite_superfourier,
          "brackets": suite_brackets, "symbols": suite_symbols}
