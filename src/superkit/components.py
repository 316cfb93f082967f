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

from fractions import Fraction

import numpy as np

from . import conventions
from .exactnum import QC, as_complex, coerce, conj
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

    @classmethod
    def from_json(cls, data):
        return cls(PlaneWaveFn.from_json(data["phi"]),
                   (PlaneWaveFn.from_json(data["psi1"]),
                    PlaneWaveFn.from_json(data["psi2"])),
                   PlaneWaveFn.from_json(data["F"]))


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


def extract_chiral(f, tol=0.0, check=True):
    """Inverse of chiral_expand; raises NotChiral when f is not chiral."""
    f.require_side("position")
    if check and not is_chiral(f, tol):
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
    return SuperFunction(out, f.side)


def conjugate_sf(f):
    """The in-place antilinear conjugation c-sharp of the real-superfunction
    discussion: component at (I, J) goes to (J, I) with sign (-1)^(|I||J|)."""
    f.require_side("position")
    return _conjugate_with_signs(f, conventions.CSHARP_SIGNS)


def wz_conjugate(f):
    """The graded-reversal dagger entering the Wess-Zumino operator (L8)."""
    f.require_side("position")
    return _conjugate_with_signs(f, conventions.WZ_CONJ_SIGNS)


def wz_operator(f, m, check=True, tol=0.0):
    """The Wess-Zumino operator WZ_NORM*(-Dbar^2 (J f)) + WZ_MASS_SIGN*m*f."""
    if check and not is_chiral(f, tol):
        raise NotChiral("wz_operator expects a chiral superfunction")
    core = QC(conventions.WZ_NORM) * ((-1) * apply_Dbar2(wz_conjugate(f)))
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


def component_reduce(f, m, tol=0.0):
    """Residuals of the component system for a chiral superfunction."""
    c = extract_chiral(f, tol)
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
    seed u across frequency sectors via the Dirac system.
    """
    n2 = minkowski_norm2(p)
    exact = momentum_is_exact(p) and not isinstance(m, float)
    if exact:
        if n2 != Fraction(m) ** 2:
            raise OffOrbit(f"|p|^2 = {n2} != m^2")
        if p[0] <= 0:
            raise OffOrbit("not on the forward sheet")
    else:
        if abs(float(n2) - float(m) ** 2) > tol * max(1.0, float(m) ** 2) or p[0] <= 0:
            raise OffOrbit(f"|p|^2 = {n2} != m^2")
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

    def axes(self):
        return [self.origin[mu] + self.h * np.arange(self.n) for mu in range(4)]


def _sample_pw(pw, grid):
    ax = grid.axes()
    x0, x1, x2, x3 = np.meshgrid(*ax, indexing="ij", sparse=True)
    out = np.zeros((grid.n,) * 4, dtype=complex)
    for q, a in pw.terms.items():
        phase = (float(q[0]) * x0 + float(q[1]) * x1
                 + float(q[2]) * x2 + float(q[3]) * x3)
        out = out + as_complex(a) * np.exp(1j * phase)
    return out


def _central_diff(arr, mu, h):
    return (np.roll(arr, -1, axis=mu) - np.roll(arr, 1, axis=mu)) / (2 * h)


def _central_diff2(arr, mu, h):
    return (np.roll(arr, -1, axis=mu) - 2 * arr + np.roll(arr, 1, axis=mu)) / (h * h)


def _interior(arr):
    sl = tuple(slice(1, -1) for _ in range(4))
    return arr[sl]


def grid_residual(c, m, grid):
    """Max-norm finite-difference residuals of the component system.

    Central second differences for the wave operator, central first
    differences in the Dirac pair; boundaries excluded from the norm.
    """
    phi = _sample_pw(c.phi, grid)
    psi = [_sample_pw(c.psi[0], grid), _sample_pw(c.psi[1], grid)]
    h = grid.h
    box = _central_diff2(phi, 0, h)
    for mu in (1, 2, 3):
        box = box - _central_diff2(phi, mu, h)
    kg = box + float(m) ** 2 * phi
    s = conventions.WZ_MASS_SIGN
    eps = conventions.EPS_UPPER
    raised = []
    for b in (1, 2):
        r = np.zeros_like(phi)
        for cc in (1, 2):
            e = eps[b - 1][cc - 1]
            if e:
                r = r + e * np.conj(psi[cc - 1])
        raised.append(r)
    dirac_max = 0.0
    for a in (1, 2):
        res = s * float(m) * psi[a - 1]
        for b in (1, 2):
            vec = conventions.GAMMA_LOWER[a - 1][b - 1]
            for mu in range(4):
                cv = as_complex(vec[mu])
                if cv != 0:
                    res = res + 1j * cv * _central_diff(raised[b - 1], mu, h)
        dirac_max = max(dirac_max, float(np.max(np.abs(_interior(res)))))
    return {"max_kg": float(np.max(np.abs(_interior(kg)))), "max_dirac": dirac_max}


# -- representability over auxiliary Grassmann coefficients ---------------------

def _unit_chiral(p, idx, val):
    """Chiral superfunction of the two-frequency data (phi+, phi-, psi1+,
    psi1-, psi2+, psi2-, F+, F-) that is `val` in slot `idx` and 0 elsewhere;
    + slots sit at momentum p, - slots at -p."""
    p = MomentumKey(p)
    data = [PlaneWaveFn.zero()] * 8
    data[idx] = PlaneWaveFn({(p if idx % 2 == 0 else -p): val})
    return chiral_expand(ChiralData(data[0] + data[1],
                                    (data[2] + data[3], data[4] + data[5]),
                                    data[6] + data[7]))


def _wz_linear_antilinear(p, m):
    """Split the WZ operator on two-frequency chiral data into its complex
    linear part L and antilinear part A: wz(x) = L x + A conj(x)."""
    p = MomentumKey(p)
    keys = [(mono, mom) for mono in MONOMIALS for mom in (p, -p)]
    half = QC(Fraction(1, 2))
    L, A = [], []
    for idx in range(8):
        out1 = wz_operator(_unit_chiral(p, idx, QC(1)), m, check=False)
        outi = wz_operator(_unit_chiral(p, idx, QC(0, 1)), m, check=False)
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


def _wz_columns(p, m):
    """Real-linear matrix of the WZ operator on two-frequency chiral data:
    16 real unknowns, rows re/im of every (monomial, momentum) output."""
    return _twisted_matrix(*_wz_linear_antilinear(p, m), 1)


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
    """
    if N > 6:
        raise ValueError("N <= 6 at desk scale")
    from . import linalg
    if p is None:
        p = (Fraction(2), Fraction(1), Fraction(1), Fraction(1))
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
    module_dim = 0
    for mask in range(2 ** N):
        k = bin(mask).count("1")
        twist = (-1) ** (k * (k - 1) // 2)
        module_dim += dims[twist][0] if k % 2 == 0 else dims[twist][1]
    n_even = sum(1 for mask in range(2 ** N) if bin(mask).count("1") % 2 == 0)
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
