"""Superfunctions on Minkowski superspacetime and the super Fourier transform.

A superfunction is a map into the 16-dimensional Grassmann module, stored as
one plane-wave sum per theta monomial.  Spacetime integrals are replaced by
finite plane-wave sums: the bosonic transform of ``a e^{i<q,x>}`` is the
coefficient ``a`` at momentum ``q``, and the purely odd part of the super
Fourier transform is the symplectic Hodge star.

``PlaneWaveFn`` (momentum -> coefficient), ``SuperFunction`` (theta monomial
-> ``PlaneWaveFn``) and ``GrassElt`` (monomial of Lambda_N -> coefficient)
are ``grassmann.SparseSum`` subclasses: the public constructors coerce and
check outside data, values the package builds itself go through the trusted
``_of``/``_like``, and no stored coefficient or component is zero.  Each
class adds only what is its own.
"""

from __future__ import annotations

import math

from . import conventions, grassmann
from .exactnum import QC, as_complex, coerce, conj, scal_is_zero
from .grassmann import (MONOMIALS, Multivector, SparseSum, apply_generators,
                        eps_square, koszul_sign, mono_key, mono_mask, mask_from_key,
                        minus_set, parity, plus_set)
from .spin_geometry import pair_covector


_I = QC(0, 1)


class SideMismatch(ValueError):
    pass


class GradeMismatch(ValueError):
    pass


# -- plane-wave sums ----------------------------------------------------------

class MomentumKey(tuple):
    """A momentum tuple that computes its hash once.

    It equals the plain tuple and hashes the same, so plain tuples still find
    its terms; hashing four exact Fractions on every dict operation is what it
    saves.  ``MomentumKey(k)`` returns ``k`` itself when it already is one, and
    ``-k`` is built once, so ``-(-k) is k``: a sum over the frequencies +-q
    keeps two key objects, and its dict hits compare by identity.
    """

    def __new__(cls, q):
        if type(q) is cls:
            return q
        key = tuple.__new__(cls, q)
        key._hash = tuple.__hash__(key)
        key._neg = None
        return key

    def __hash__(self):
        return self._hash

    def __neg__(self):
        if self._neg is None:
            neg = MomentumKey(-x for x in self)
            neg._neg, self._neg = self, neg
        return self._neg


def _finite_number(x):
    """True for an int or float, not a bool, that is a finite float."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:   # an int beyond the float range
        return False


class PlaneWaveFn(SparseSum):
    """Finite sum of plane waves sum_q a_q e^{i<q,x>}.

    Terms are stored with the frequency sign absorbed into the momentum key,
    which is the canonical merge of (momentum, sign) pairs; every key is a
    ``MomentumKey`` (``_of`` callers pass one), so plain-tuple lookups still
    work.  The same container doubles as a finite delta-coefficient sum in
    momentum space.
    """

    __slots__ = ()
    terms = SparseSum.coeffs
    _key = MomentumKey

    @classmethod
    def wave(cls, amplitude, momentum, sign=1):
        q = MomentumKey(momentum)
        return cls({q if sign >= 0 else -q: amplitude})

    @classmethod
    def zero(cls):
        return cls()

    def derivative(self, mu):
        """d/dx^mu: multiplies each term by i q_mu."""
        return PlaneWaveFn._of({q: a * _I * q[mu] for q, a in self.terms.items()})

    def gamma_derivative(self, gamma_vec):
        """sum_mu gamma^mu d/dx^mu for a covector-table entry gamma_vec."""
        return PlaneWaveFn._of({q: a * _I * pair_covector(q, gamma_vec)
                                for q, a in self.terms.items()})

    def conjugate(self):
        """Pointwise complex conjugate: conj(a) at the reflected momentum."""
        return PlaneWaveFn._of({-q: conj(a) for q, a in self.terms.items()})

    def box(self):
        """The wave operator: each term times -<q,q>."""
        from .spin_geometry import minkowski_norm2
        return PlaneWaveFn._of({q: a * (-minkowski_norm2(q)) for q, a in self.terms.items()})

    def to_json(self):
        out = []
        for q, a in sorted(self.terms.items(), key=lambda kv: str(kv[0])):
            ac = as_complex(a)
            out.append([ac.real, ac.imag, *(float(x) for x in q), 1])
        return out

    @classmethod
    def from_json(cls, rows):
        """Rows [re, im, p0, p1, p2, p3, sign] of ints or finite floats (not
        booleans), sign +-1; rows at one momentum sum.  A bad row raises
        ValueError naming its index."""
        if not isinstance(rows, list):
            raise ValueError(f"expected a list of rows, got {rows!r}")
        terms = {}
        for n, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 7
                    and all(map(_finite_number, row)) and row[6] in (1, -1)):
                raise ValueError(f"row {n}: expected [re, im, p0, p1, p2, p3, sign] "
                                 f"of finite numbers with sign +-1, got {row!r}")
            re, im, p0, p1, p2, p3, sign = row
            q = MomentumKey((p0, p1, p2, p3))
            if sign < 0:
                q = -q
            a, prev = complex(re, im), terms.get(q)
            terms[q] = a if prev is None else prev + a
        return cls(terms)

    def __repr__(self):
        return f"PlaneWaveFn({self.terms!r})"


# -- superfunctions -----------------------------------------------------------

class SuperFunction(SparseSum):
    """16 plane-wave components indexed by Grassmann monomial masks."""

    __slots__ = ("side",)
    comps = SparseSum.coeffs

    def __init__(self, comps=None, side="position"):
        self.side = side
        SparseSum.__init__(self, comps)

    @staticmethod
    def _value(g):
        if not isinstance(g, PlaneWaveFn):
            raise TypeError(f"a superfunction component is a PlaneWaveFn, not {g!r}")
        return g

    def comp(self, mask):
        return self.comps.get(mask, PlaneWaveFn.zero())

    def __add__(self, other):
        if self.side != other.side:
            raise SideMismatch("cannot add superfunctions on different sides")
        return SparseSum.__add__(self, other)

    def __eq__(self, other):
        if isinstance(other, SuperFunction) and self.side != other.side:
            return False
        return SparseSum.__eq__(self, other)

    def is_zero(self, tol=0.0):
        if tol:
            return all(g.is_zero(tol) for g in self.comps.values())
        return SparseSum.is_zero(self)

    def max_abs(self):
        return max((g.max_abs() for g in self.comps.values()), default=0.0)

    def require_side(self, side):
        if self.side != side:
            raise SideMismatch(f"expected a {side}-side superfunction")

    def by_momentum(self):
        """The transpose: momentum key -> Multivector of the coefficients at it."""
        out = {}
        for m, g in self.comps.items():
            for q, c in g.terms.items():
                out.setdefault(q, {})[m] = c
        return {q: Multivector._of(t) for q, t in out.items()}

    def to_json(self):
        return {"side": self.side,
                "components": {mono_key(m): g.to_json()
                               for m, g in sorted(self.comps.items())}}

    @classmethod
    def from_json(cls, data):
        raw = data.get("components", {})
        if not isinstance(raw, dict):
            raise ValueError(f"components must be an object, got {raw!r}")
        comps = {}
        for k, v in raw.items():
            mask = mask_from_key(k)
            try:
                comps[mask] = PlaneWaveFn.from_json(v)
            except ValueError as exc:
                raise ValueError(f"component {k!r}: {exc}") from None
        return cls(comps, data.get("side", "position"))


def single_wave(mask, amplitude, momentum, sign=1, side="position"):
    return SuperFunction({mask: PlaneWaveFn.wave(amplitude, momentum, sign)}, side)


# -- Hodge star and the super Fourier transform -------------------------------

def _sigma(idx):
    """Degree complement on one factor's index set: {} <-> {1,2}, {a} -> {a}."""
    if idx == ():
        return (1, 2)
    if idx == (1, 2):
        return ()
    return idx


def _star_factor(ni, nj):
    if (ni + nj) % 2 == 1:
        return QC(0, 1)
    if ni == 1 and nj == 1:
        return QC(-1)
    return QC(1)


STAR_TABLE = {
    m: (mono_mask(_sigma(plus_set(m)), _sigma(minus_set(m))),
        _star_factor(len(plus_set(m)), len(minus_set(m))))
    for m in MONOMIALS
}


def hodge_star(mv):
    """The purely odd super Fourier transform: the symplectic Hodge dual."""
    out = {}
    for m, c in mv.coeffs.items():
        tgt, fac = STAR_TABLE[m]
        out[tgt] = out.get(tgt, QC(0)) + fac * c
    return Multivector(out)


def super_ft(f):
    """Position-side superfunction -> momentum-side (finite-sum surrogate)."""
    f.require_side("position")
    out = {}
    for m, g in f.comps.items():
        tgt, fac = STAR_TABLE[m]
        g = fac * g
        prev = out.get(tgt)
        out[tgt] = g if prev is None else prev + g
    return SuperFunction(out, "momentum")


def inverse_super_ft(fhat):
    fhat.require_side("momentum")
    out = {}
    for tgt, g in fhat.comps.items():
        m, fac = _STAR_INVERSE[tgt]
        g = g * (QC(1) / fac)
        prev = out.get(m)
        out[m] = g if prev is None else prev + g
    return SuperFunction(out, "position")


_STAR_INVERSE = {tgt: (m, fac) for m, (tgt, fac) in STAR_TABLE.items()}


def berezin_integral(f):
    """Top Grassmann coefficient, sign +1 (ledger L6)."""
    return f.comp(mono_mask((1, 2), (1, 2)))


def body_restriction(f):
    """Set all odd coordinates to zero: the scalar component."""
    return f.comp(0)


# -- odd derivations and the covariant vector fields ---------------------------

def theta_derivative(a, f, barred=False):
    """Left derivative d/d theta^a (or d/d thetabar^a); on the momentum side,
    d/d tau^a (or d/d taubar^a)."""
    gen = (a - 1) + (2 if barred else 0)
    # one generator maps masks one to one, so no component cancels
    return f._like(apply_generators(f.comps, [(None, gen, True)]), nonzero=True)


def theta_multiply(a, f, barred=False):
    """Left multiplication by theta^a (or thetabar^a); on the momentum side,
    by tau^a (or taubar^a)."""
    gen = (a - 1) + (2 if barred else 0)
    # one generator maps masks one to one, so no component cancels
    return f._like(apply_generators(f.comps, [(None, gen, False)]), nonzero=True)


def apply_P(mu, f):
    """The translation vector field P_mu = d/dx^mu."""
    f.require_side("position")
    return SuperFunction({m: g.derivative(mu) for m, g in f.comps.items()}, f.side)


def _odd_operator(a, f, barred, sign):
    """d/dtheta^a + sign i Gamma^mu_{ab} thetabar^b d/dx^mu on f; when barred,
    d/dthetabar^a + sign i Gamma^mu_{ba} theta^b d/dx^mu.

    On a plane wave at q this is a symbol: the contraction by the a-th
    generator plus, for each b, the wedge by the other b-th generator scaled
    by -sign <q, Gamma>, since i * i q_mu = -q_mu.  The tables are read
    through their modules on every call, so a patched table takes effect.
    """
    table = grassmann.GEN_TABLE
    gamma = conventions.GAMMA_LOWER
    # (generator, contract, covector): both wedges, then the contraction, so a
    # float slot sums as (w1 + w2) + c, in the order of the composed operator
    terms = [((b - 1) + (0 if barred else 2), False,
              gamma[b - 1][a - 1] if barred else gamma[a - 1][b - 1]) for b in (1, 2)]
    terms.append(((a - 1) + (2 if barred else 0), True, None))
    out = {}
    for gen, contract, vec in terms:
        scales = {}     # momentum -> -sign <q, vec>, paired once per momentum
        for mask, g in f.comps.items():
            if (mask >> gen & 1) != contract:
                continue
            sgn, nm = table[gen][mask]
            tgt = out.setdefault(nm, {})
            for q, c in g.terms.items():
                if vec is not None:
                    s = scales.get(q)
                    if s is None:
                        s = pair_covector(q, vec)
                        s = scales[q] = s if sign < 0 else -s
                    c = c * s
                if sgn < 0:
                    c = -c
                prev = tgt.get(q)
                tgt[q] = c if prev is None else prev + c
    return f._like({m: g for m, t in out.items() if (g := PlaneWaveFn._of(t)).terms},
                   nonzero=True)


def apply_Q(a, f):
    """Q_a = d/dtheta^a + i Gamma^mu_{ab} thetabar^b d/dx^mu."""
    f.require_side("position")
    return _odd_operator(a, f, barred=False, sign=1)


def apply_Qbar(a, f):
    """Qbar_a = d/dthetabar^a + i Gamma^mu_{ba} theta^b d/dx^mu."""
    f.require_side("position")
    return _odd_operator(a, f, barred=True, sign=1)


def apply_D(a, f):
    """D_a = d/dtheta^a - i Gamma^mu_{ab} thetabar^b d/dx^mu."""
    f.require_side("position")
    return _odd_operator(a, f, barred=False, sign=-1)


def apply_Dbar(a, f):
    """Dbar_a = d/dthetabar^a - i Gamma^mu_{ba} theta^b d/dx^mu."""
    f.require_side("position")
    return _odd_operator(a, f, barred=True, sign=-1)


def apply_D2(f):
    """D^2 = eps^{ab} D_a D_b."""
    return eps_square(apply_D, f, conventions.EPS_UPPER)


def apply_Dbar2(f):
    """Dbar^2 = eps^{ab} Dbar_a Dbar_b (dotted epsilon = undotted, ledger L2)."""
    return eps_square(apply_Dbar, f, conventions.EPS_UPPER)


# -- tau-side operators on momentum superfunctions ------------------------------

def apply_zeta_momentum(zeta_fn, fhat):
    """Apply a momentum-dependent symbol p -> EndoW at each momentum key."""
    fhat.require_side("momentum")
    out = {}
    for q, mv in fhat.by_momentum().items():
        for m, c in zeta_fn(q)(mv).coeffs.items():
            out.setdefault(m, {})[q] = c     # a Multivector's coefficient: never zero
    return fhat._like({m: PlaneWaveFn._of(t) for m, t in out.items()}, nonzero=True)


def exchange_check(f):
    """Evaluate the four exchange identities of the transform on f.

    star((d f / d theta^a)^)    = i eps_{ab} tau^b (star fhat)
    star((d f / d thetabar^a)^) = i eps_{ab} taubar^b (star fhat)
    star((theta^a f)^)          = -i eps^{ab} d/dtau^b (star fhat)
    star((thetabar^a f)^)       = -i eps^{ab} d/dtaubar^b (star fhat)

    Returns a dict id -> max abs discrepancy (all zero in exact mode).
    """
    f.require_side("position")
    fhat = super_ft(f)
    eps_l = conventions.EPS_LOWER
    eps_u = conventions.EPS_UPPER
    report = {}
    for barred in (False, True):
        tag = "bar" if barred else ""
        for a in (1, 2):
            lhs = super_ft(theta_derivative(a, f, barred=barred))
            rhs = SuperFunction({}, "momentum")
            for b in (1, 2):
                e = eps_l[a - 1][b - 1]
                if e:
                    rhs = rhs + QC(0, e) * theta_multiply(b, fhat, barred=barred)
            report[f"d/dtheta{tag}^{a}"] = (lhs - rhs).max_abs()
            lhs2 = super_ft(theta_multiply(a, f, barred=barred))
            rhs2 = SuperFunction({}, "momentum")
            for b in (1, 2):
                e = eps_u[a - 1][b - 1]
                if e:
                    rhs2 = rhs2 + QC(0, -e) * theta_derivative(b, fhat, barred=barred)
            report[f"theta{tag}^{a}*"] = (lhs2 - rhs2).max_abs()
    return report


# -- auxiliary Grassmann algebras and the group law -----------------------------

class AuxGrassmann:
    """Exterior algebra on N auxiliary odd generators with QC coefficients."""

    def __init__(self, n=4):
        self.n = n

    def element(self, coeffs=None):
        return GrassElt(self, coeffs)

    def scalar(self, c):
        return GrassElt(self, {0: c})


class GrassElt(SparseSum):
    """Element of an auxiliary Grassmann algebra Lambda_N: a scalar operand of
    +, -, == is lifted into the algebra, and * by an element is the wedge
    product."""

    __slots__ = ("alg",)

    def __init__(self, alg, coeffs=None):
        self.alg = alg
        SparseSum.__init__(self, coeffs)

    def _lift(self, other):
        return other if isinstance(other, GrassElt) else self._like({0: coerce(other)})

    def __add__(self, other):
        return SparseSum.__add__(self, self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return SparseSum.__sub__(self, self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, GrassElt):
            return SparseSum.__mul__(self, other)
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                if ma & mb:
                    continue
                key = ma | mb
                c = ca * cb if koszul_sign(ma, mb) > 0 else -(ca * cb)
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return self._like(out)

    def __eq__(self, other):
        return SparseSum.__eq__(self, self._lift(other))

    def parity(self):
        """0, 1, or None for mixed."""
        ps = {parity(m) for m in self.coeffs}
        if not ps:
            return 0
        if len(ps) == 1:
            return ps.pop()
        return None

    def __repr__(self):
        return f"GrassElt({self.coeffs!r})"


class SuperPoint:
    """B-point of superspacetime: 4 even and 2+2 odd Grassmann coordinates."""

    __slots__ = ("y", "xi", "xibar")

    def __init__(self, y, xi, xibar):
        for c in y:
            if c.parity() not in (0,):
                raise GradeMismatch("even coordinates must be even elements")
        for c in list(xi) + list(xibar):
            if c.parity() not in (1, 0) or (c.parity() == 0 and not c.is_zero()):
                raise GradeMismatch("odd coordinates must be odd elements")
        self.y = tuple(y)
        self.xi = tuple(xi)
        self.xibar = tuple(xibar)

    def __eq__(self, other):
        return (all(a == b for a, b in zip(self.y, other.y))
                and all(a == b for a, b in zip(self.xi, other.xi))
                and all(a == b for a, b in zip(self.xibar, other.xibar)))

    def negate(self):
        return SuperPoint([-c for c in self.y], [-c for c in self.xi],
                          [-c for c in self.xibar])


def group_law(u, v):
    """Campbell-Baker-Hausdorff product of two superspacetime B-points.

    (y + y' + i Gamma^mu_{ab} (xi^a xibar'^b - xi'^a xibar^b), xi+xi',
    xibar+xibar').
    """
    # each bilinear xi^a xibar'^b - xi'^a xibar^b once, for all four mu
    bilinear = {(a, b): u.xi[a] * v.xibar[b] - v.xi[a] * u.xibar[b]
                for a in (0, 1) for b in (0, 1)}
    y = []
    for mu in range(4):
        shift = None
        for (a, b), bl in bilinear.items():
            g = QC(0, 1) * conventions.GAMMA_LOWER[a][b][mu]
            if scal_is_zero(g):
                continue
            term = bl * g
            shift = term if shift is None else shift + term
        tot = u.y[mu] + v.y[mu]
        if shift is not None:
            tot = tot + shift
        y.append(tot)
    xi = [a + b for a, b in zip(u.xi, v.xi)]
    xibar = [a + b for a, b in zip(u.xibar, v.xibar)]
    return SuperPoint(y, xi, xibar)
