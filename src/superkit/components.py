"""Chiral superfields, the Wess-Zumino operator, and component equations.

The chiral expansion is derived mechanically from annihilation by both Dbar
covariant derivatives (its middle coefficients carry a factor i relative to
the commonly quoted display; mechanically forced by Dbar-annihilation).
The Wess-Zumino operator is

    wz(f) = WZ_NORM * ( -Dbar^2 (J f) ) + WZ_MASS_SIGN * m * f

with J the graded-reversal conjugation of ledger L8.  Its kernel on
two-frequency plane-wave data is exactly the superspin-0 multiplet: the
component system is Klein-Gordon at mass m, a conjugate-coupled Dirac pair,
and the algebraic F relation.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from . import conventions
from .exactnum import QC, as_complex, coerce, conj, is_exact
from .grassmann import MONOMIALS, minus_set, mono_mask, plus_set
from .spin_geometry import (OffOrbit, gamma_lower, minkowski_norm2,
                            momentum_is_exact)
from .superfourier import (MomentumKey, PlaneWaveFn, SuperFunction, apply_Dbar,
                           apply_Dbar2)


class NotChiral(ValueError):
    pass


class GridTooSmall(ValueError):
    pass


class ChiralData:
    """Component fields (phi, psi_1, psi_2, F) of a chiral superfunction."""

    __slots__ = ("phi", "psi", "F")

    def __init__(self, phi, psi, F):
        self.phi = phi
        self.psi = (psi[0], psi[1])
        self.F = F

    def to_json(self):
        return {"phi": self.phi.to_json(),
                "psi1": self.psi[0].to_json(),
                "psi2": self.psi[1].to_json(),
                "F": self.F.to_json()}


def _lam(b, psi):
    """lambda_b = -i Gamma^mu_{2b} d_mu psi_1 + i Gamma^mu_{1b} d_mu psi_2."""
    g2 = conventions.GAMMA_LOWER[1][b - 1]
    g1 = conventions.GAMMA_LOWER[0][b - 1]
    return QC(0, -1) * psi[0].gamma_derivative(g2) + QC(0, 1) * psi[1].gamma_derivative(g1)


def chiral_expand(c):
    """The 16-component superfunction of a chiral triple (phi, psi, F).

    f = phi + theta^a psi_a + theta^1 theta^2 F
        - i Gamma^mu_{ab} theta^a thetabar^b d_mu phi
        + theta^1 theta^2 thetabar^b lambda_b + theta^(4) box phi
    annihilated identically by both Dbar covariant derivatives.
    """
    comps = {
        0: c.phi,
        mono_mask((1,), ()): c.psi[0],
        mono_mask((2,), ()): c.psi[1],
        mono_mask((1, 2), ()): c.F,
        mono_mask((1, 2), (1, 2)): c.phi.box(),
    }
    for a in (1, 2):
        for b in (1, 2):
            vec = conventions.GAMMA_LOWER[a - 1][b - 1]
            comps[mono_mask((a,), (b,))] = QC(0, -1) * c.phi.gamma_derivative(vec)
    for b in (1, 2):
        comps[mono_mask((1, 2), (b,))] = _lam(b, c.psi)
    return SuperFunction(comps, "position")


def extract_chiral(f, check=True):
    """Inverse of chiral_expand; raises NotChiral when f is not chiral."""
    f.require_side("position")
    if check and not is_chiral(f):
        raise NotChiral("Dbar does not annihilate f")
    return ChiralData(f.comp(0),
                      (f.comp(mono_mask((1,), ())), f.comp(mono_mask((2,), ()))),
                      f.comp(mono_mask((1, 2), ())))


def is_chiral(f, tol=0.0):
    return apply_Dbar(1, f).is_zero(tol) and apply_Dbar(2, f).is_zero(tol)


def _conjugate_with_signs(f, signs):
    out = {}
    for m, g in f.comps.items():
        i, j = plus_set(m), minus_set(m)
        sgn = signs[(len(i), len(j))]
        out[mono_mask(j, i)] = sgn * g.conjugate()
    return f._like(out)


def wz_conjugate(f):
    """The graded-reversal dagger entering the Wess-Zumino operator (L8)."""
    f.require_side("position")
    return _conjugate_with_signs(f, conventions.WZ_CONJ_SIGNS)


def wz_operator(f, m, check=True, tol=0.0):
    """The Wess-Zumino operator WZ_NORM*(-Dbar^2 (J f)) + WZ_MASS_SIGN*m*f."""
    if check and not is_chiral(f, tol):
        raise NotChiral("wz_operator expects a chiral superfunction")
    core = QC(conventions.WZ_NORM) * -apply_Dbar2(wz_conjugate(f))
    return core + (conventions.WZ_MASS_SIGN * coerce(m)) * f


# -- component system ----------------------------------------------------------

def kg_residual(c, m):
    """(box + m^2) phi, term-wise (m^2 - <q,q>) per plane wave."""
    return c.phi.box() + (coerce(m) * coerce(m)) * c.phi


def dirac_residual(c, m):
    """The conjugate-coupled Dirac pair of the component system,

        R_a = i Gamma^mu_{ab} d_mu psibar^b + WZ_MASS_SIGN * m * psi_a ,

    with the conjugate spinor raised by eps: psibar^b = eps^{bc} conj(psi_c).
    This is coefficient-exact for the Wess-Zumino kernel: wz(f) = 0 iff
    R_1 = R_2 = 0 together with the Klein-Gordon and F relations.
    """
    s = conventions.WZ_MASS_SIGN
    eps = conventions.EPS_UPPER
    raised = []
    for b in (1, 2):
        r = PlaneWaveFn.zero()
        for cc in (1, 2):
            e = eps[b - 1][cc - 1]
            if e:
                r = r + e * c.psi[cc - 1].conjugate()
        raised.append(r)
    out = []
    for a in (1, 2):
        term = PlaneWaveFn.zero()
        for b in (1, 2):
            vec = conventions.GAMMA_LOWER[a - 1][b - 1]
            term = term + QC(0, 1) * raised[b - 1].gamma_derivative(vec)
        out.append(term + (s * coerce(m)) * c.psi[a - 1])
    return tuple(out)


def f_residual(c, m):
    """The algebraic F relation: F - 2 * WZ_MASS_SIGN * m * conj(phi).

    The factor 2 is forced by the WZ normalization that keeps the Dirac pair
    coefficient-one (ledger L8); it rescales the F coordinate relative to
    the momentum-space constraint display.
    """
    s = conventions.WZ_MASS_SIGN
    return c.F - (2 * s * coerce(m)) * c.phi.conjugate()


def component_reduce(f, m, check=True):
    """Residuals of the component system for a chiral superfunction; with
    check False the caller has tested its chirality (see extract_chiral)."""
    c = extract_chiral(f, check)
    return {
        "kg_residual": kg_residual(c, m),
        "dirac_residual": dirac_residual(c, m),
        "f_relation": f_residual(c, m),
    }


def residuals_vanish(res, tol=0.0):
    return (res["kg_residual"].is_zero(tol) and res["f_relation"].is_zero(tol)
            and all(r.is_zero(tol) for r in res["dirac_residual"]))


def solution_generator(p, m, seed_a=1, seed_u=(1, 0), tol=1e-9):
    """Exact on-shell solution of the Wess-Zumino system.

    phi = a e^{i<p,x>} + conj(a) e^{-i<p,x>}  (a real-structured scalar),
    F determined by the F relation, psi the two-frequency spinor pairing the
    seed u across frequency sectors via the Dirac system.  A float momentum
    is on shell when |p|^2 - m^2 is within tol * max(1, m^2), plus the
    rounding of the squares.
    """
    n2 = minkowski_norm2(p)
    exact = momentum_is_exact(p) and not isinstance(m, float)
    if exact:
        if n2 != Fraction(m) ** 2:
            raise OffOrbit(f"|p|^2 = {n2} != m^2")
        if p[0] <= 0:
            raise OffOrbit("not on the forward sheet")
    else:
        # a float |p|^2 - m^2 carries the rounding of its squares, even at tol = 0
        m2 = float(m) ** 2
        slack = tol * max(1.0, m2) + 4 * sys.float_info.epsilon * (
            m2 + sum(float(x) ** 2 for x in p))
        if abs(float(n2) - m2) > slack or p[0] <= 0:
            raise OffOrbit(f"|p|^2 = {n2} != m^2")
    p = MomentumKey(p)  # one key for +p and, memoized, one for -p
    a = coerce(seed_a)
    u = (coerce(seed_u[0]), coerce(seed_u[1]))
    s = conventions.WZ_MASS_SIGN
    mm = coerce(m)
    phi = PlaneWaveFn.wave(a, p) + PlaneWaveFn.wave(conj(a), p, sign=-1)
    # conj(phi) = phi for this real-structured scalar, so F = 2 s m phi.
    F = (2 * s * mm) * phi
    # Dirac pair at the -frequency sector: w_a = -(s/m) (g eps)_{ab} conj(u_b)
    # with g = Gamma_lower(p); the +frequency equation then holds on shell.
    g = gamma_lower(p)
    eps = conventions.EPS_UPPER
    w = []
    for a_ in (1, 2):
        acc = coerce(0)
        for b in (1, 2):
            ge = coerce(0)
            for cc in (1, 2):
                e = eps[b - 1][cc - 1]
                if e:
                    ge = ge + e * conj(u[cc - 1])
            acc = acc + g[a_ - 1][b - 1] * ge
        w.append((-s) * acc / mm)
    psi = tuple(PlaneWaveFn.wave(u[b - 1], p) + PlaneWaveFn.wave(w[b - 1], p, sign=-1)
                for b in (1, 2))
    return ChiralData(phi, psi, F)


# -- grid residuals -------------------------------------------------------------

class Grid4:
    """Uniform spacetime grid for the finite-difference residual harness."""

    def __init__(self, n, h, origin=(0.0, 0.0, 0.0, 0.0)):
        if n < 5:
            raise GridTooSmall("need at least 5 points per axis")
        self.n = n
        self.h = float(h)
        self.origin = tuple(float(x) for x in origin)


def _float_coeffs(pw):
    """{float momentum: complex coefficient} of a plane-wave sum."""
    out = {}
    for q, a in pw.terms.items():
        q = tuple(float(x) for x in q)
        out[q] = out.get(q, 0j) + as_complex(a)
    return out


def _max_abs_interior(coeffs, grid):
    """Max of |c_0 e^{i q_0 . x} + c_1 e^{i q_1 . x}| over the interior grid
    points, by a nearest-phase search instead of a sweep.

    With d = q_1 - q_0, the modulus is |c_0 + c_1 e^{i(d_0 t + d_3 x_3)}
    e^{i psi}| with psi = d_1 x_1 + d_2 x_2.  On each (t, x_3) line it falls
    with the circular distance of psi from the shifted target
    arg c_0 - arg c_1 - d_0 t - d_3 x_3, so the line's maximum sits at one of
    the two circular neighbours of that target among the sorted psi mod 2 pi.
    The smallest of those gaps g gives the max, | |c_0| + |c_1| e^{i g} |.
    With m = n - 2 interior points per axis that is a sort of m^2 phases and
    one vectorized binary search for the m^2 lines: O(m^2 log m), not the
    m^3 log m of sorting every spatial phase.  One frequency gives |c|, none
    0; more than two raise ValueError (no residual of grid_residual has more).
    """
    if len(coeffs) > 2:
        raise ValueError(f"nearest-phase max needs at most 2 frequencies, got {len(coeffs)}")
    if len(coeffs) < 2:
        return max((abs(c) for c in coeffs.values()), default=0.0)
    (q0, c0), (q1, c1) = coeffs.items()
    d = np.subtract(q1, q0) / (2 * np.pi)  # phases in turns: x - floor(x) beats np.mod
    x = grid.h * np.arange(1, grid.n - 1)
    t, x1, x2, x3 = (o + x for o in grid.origin)
    psi = np.add.outer(d[1] * x1, d[2] * x2).ravel()
    psi = np.sort(psi - np.floor(psi))
    # per (t, x_3) line, the psi at which the two waves align
    target = (np.angle(c0) - np.angle(c1)) / (2 * np.pi) - np.add.outer(d[0] * t, d[3] * x3)
    target -= np.floor(target)
    right = np.searchsorted(psi, target)
    # index -1 wraps round the circle, and so does a gap beyond half a turn
    gap = np.abs(psi[np.stack([right - 1, right % len(psi)])] - target)
    gap = min(gap.min(), 1 - gap.max())
    # the modulus falls with the circular gap g: | |c_0| + |c_1| e^{2 pi i g} |
    return float(abs(abs(c0) + abs(c1) * np.exp(2j * np.pi * gap)))


def grid_residual(c, m, grid):
    """Max-norm finite-difference residuals of the component system.

    Central second differences for the wave operator, central first
    differences in the Dirac pair; boundaries excluded from the norm.  On
    interior points the stencils multiply a sampled wave e^{i q . x} by their
    discrete symbols -(4/h^2) sin^2(q_mu h/2) and i sin(q_mu h)/h, so each
    residual is built per frequency.  Its max norm comes from a nearest-phase
    search (_max_abs_interior), O(m^2 log m) for m = n - 2 interior points
    per axis instead of a sweep of the m^4 points.  The search takes at most
    two frequencies: that holds for the waves at +-p of solution_generator,
    and a Dirac residual always pairs q with -q.  Data with more frequencies
    raise ValueError.
    """
    h, m = grid.h, float(m)
    s, eps = conventions.WZ_MASS_SIGN, conventions.EPS_UPPER
    gamma = [[[as_complex(v) for v in vec] for vec in row] for row in conventions.GAMMA_LOWER]
    psi = [_float_coeffs(c.psi[0]), _float_coeffs(c.psi[1])]

    def psibar_d(a, b, q):
        # i Gamma^mu_{ab} d_mu psibar^b at q, psibar^b = eps^{bc} conj(psi_c):
        # conjugation moves psi_c's coefficient a at -q to conj(a) at q
        sym = sum(v * 1j * math.sin(k * h) / h for v, k in zip(gamma[a][b], q))
        mq = tuple(-x for x in q)
        return 1j * sym * sum(e * p.get(mq, 0j).conjugate() for e, p in zip(eps[b], psi))

    # box = d_0^2 - d_1^2 - d_2^2 - d_3^2, each d_mu^2 a factor -(2 sin(q_mu h/2)/h)^2
    kg = {q: a * (m * m + sum(g * (2 * math.sin(k * h / 2) / h) ** 2
                              for g, k in zip((-1, 1, 1, 1), q)))
          for q, a in _float_coeffs(c.phi).items()}
    freqs = {w for p in psi for q in p for w in (q, tuple(-x for x in q))}
    dirac = [{q: s * m * psi[a].get(q, 0j) + psibar_d(a, 0, q) + psibar_d(a, 1, q)
              for q in freqs} for a in (0, 1)]
    return {"max_kg": _max_abs_interior(kg, grid),
            "max_dirac": max(_max_abs_interior(r, grid) for r in dirac)}


# -- representability over auxiliary Grassmann coefficients ---------------------

def _unit_chiral(p, idx, val):
    """The two-frequency chiral data (phi+, phi-, psi1+, psi1-, psi2+, psi2-,
    F+, F-) that is `val` in slot `idx` and 0 elsewhere; + slots sit at
    momentum p, - slots at -p."""
    p = MomentumKey(p)
    data = [PlaneWaveFn.zero()] * 8
    data[idx] = PlaneWaveFn({(p if idx % 2 == 0 else -p): val})
    return ChiralData(data[0] + data[1], (data[2] + data[3], data[4] + data[5]),
                      data[6] + data[7])


def _wz_linear_antilinear(p, m):
    """Split the WZ operator on two-frequency chiral data into its complex
    linear part L and antilinear part A: wz(x) = L x + A conj(x)."""
    p = MomentumKey(p)
    keys = [(mono, mom) for mono in MONOMIALS for mom in (p, -p)]
    half = QC(Fraction(1, 2))
    L, A = [], []
    for idx in range(8):
        out1 = wz_operator(chiral_expand(_unit_chiral(p, idx, QC(1))), m, check=False)
        outi = wz_operator(chiral_expand(_unit_chiral(p, idx, QC(0, 1))), m, check=False)
        colL, colA = [], []
        for mono, mom in keys:
            z1 = coerce(out1.comp(mono).terms.get(mom, QC(0)))
            zi = coerce(outi.comp(mono).terms.get(mom, QC(0)))
            colL.append((z1 - QC(0, 1) * zi) * half)
            colA.append((z1 + QC(0, 1) * zi) * half)
        L.append(colL)
        A.append(colA)
    rows = len(L[0])
    Lm = [[L[c][r] for c in range(8)] for r in range(rows)]
    Am = [[A[c][r] for c in range(8)] for r in range(rows)]
    return Lm, Am


def _twisted_matrix(Lm, Am, twist):
    """Real matrix of x -> L x + twist * A conj(x): unknowns are the 8 complex
    data with re and im interleaved, rows re and im of each output
    coefficient."""
    mat = []
    for lrow, arow in zip(Lm, Am):
        re_row, im_row = [], []
        for l, a in zip(lrow, arow):
            l, a = coerce(l), coerce(a * twist)
            re_row.extend([l.re + a.re, -l.im + a.im])
            im_row.extend([l.im + a.im, l.re - a.re])
        mat.append(re_row)
        mat.append(im_row)
    return mat


def _lambda_module_dims(N, dims):
    """(Lambda_N solution-module dimension, number of even monomials).

    ``dims[twist]`` is the (bosonic, fermionic) kernel dimension under the
    reversal twist +-1.  Lambda_N has comb(N, k) monomials of degree k; an
    even one carries the bosonic part and an odd one the fermionic part of
    the kernel twisted by (-1)^(k(k-1)/2).
    """
    module_dim = sum(math.comb(N, k) * dims[(-1) ** (k * (k - 1) // 2)][k % 2]
                     for k in range(N + 1))
    return module_dim, sum(math.comb(N, k) for k in range(0, N + 1, 2))


def wz_equivalence_check(N, p=None, m=1):
    """Representability at coefficient level over Lambda_N.

    Superfields with Lambda_N coefficients (even on the bosonic components,
    odd on the fermionic ones) satisfy the same Lambda-linear WZ system with
    the conjugation acting monomial-wise: on a degree-k monomial the scalar
    antilinear part is twisted by the reversal sign (-1)^(k(k-1)/2).  The
    check computes every twisted kernel exactly and verifies that

      * the scalar kernel splits into pure bosonic and pure fermionic parts,
      * each twisted kernel is the i-rotation of the untwisted one (so the
        Lambda_N solution module is generated by scalar solutions),
      * the resulting dimension equals dim(bosonic)*#even-monomials +
        dim(fermionic)*#odd-monomials, i.e. the Lambda_N span of the scalar
        solution space taken with matching parities.

    The kernels are exact, so a float momentum or mass raises TypeError.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    from . import linalg
    if p is None:
        p = (Fraction(2), Fraction(1), Fraction(1), Fraction(1))
    if not all(is_exact(x) for x in (*p, m)):
        raise TypeError("wz_equivalence_check needs an exact momentum and mass")
    Lm, Am = _wz_linear_antilinear(p, m)
    kernels = {t: linalg.null_space(_twisted_matrix(Lm, Am, t)) for t in (1, -1)}
    scalar_dim = len(kernels[1])
    bos_idx, fer_idx = [0, 1, 6, 7], [2, 3, 4, 5]

    def sector_dim(kernel, dead):
        if not kernel:
            return 0
        proj = [[v[2 * i] for i in dead] + [v[2 * i + 1] for i in dead] for v in kernel]
        return len(kernel) - linalg.rank(proj)

    dims = {}
    for t in (1, -1):
        k = kernels[t]
        dims[t] = (sector_dim(k, fer_idx), sector_dim(k, bos_idx))
    sector_split = all(sum(dims[t]) == len(kernels[t]) for t in (1, -1))

    def rotate(v):
        out = []
        for i in range(8):
            re, im = v[2 * i], v[2 * i + 1]
            out.extend([-im, re])
        return out

    minus_is_rotation = linalg.same_span(kernels[-1], [rotate(v) for v in kernels[1]])
    bos_dim, fer_dim = dims[1]
    module_dim, n_even = _lambda_module_dims(N, dims)
    expected = bos_dim * n_even + fer_dim * (2 ** N - n_even)
    return {
        "N": N,
        "scalar_dim_real": scalar_dim,
        "bosonic_dim_real": bos_dim,
        "fermionic_dim_real": fer_dim,
        "sector_split_exact": sector_split,
        "twisted_kernel_is_rotation": minus_is_rotation,
        "module_dim_real": module_dim,
        "expected_dim_real": expected,
        "match": sector_split and minus_is_rotation and module_dim == expected,
    }
