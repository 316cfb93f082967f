"""Minkowski covector geometry, the pairing table, and the SL(2,C) action.

Momenta are 4-tuples of covector components (p0, p1, p2, p3) in an
orthonormal coframe, signature (+,-,-,-).  Components may be exact
(int/Fraction) or floats; exact momenta keep the whole chain exact.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from . import conventions
from .exactnum import QC, as_complex, conj, is_exact
from .grassmann import EndoW, PairingMatrix


class OffOrbit(ValueError):
    pass


class NonPositiveEnergy(ValueError):
    pass


def momentum_is_exact(p):
    return all(isinstance(x, (int, Fraction)) for x in p)


def minkowski_norm2(p):
    p0, p1, p2, p3 = p
    return p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3


def pair_covector(p, vec):
    """Contract momentum p with a complexified-covector table entry of QC
    components, skipping its zero components (every pairing-table covector
    has two).

    An exact momentum (int and Fraction components) is paired in integers
    over one common denominator and gives one canonical QC; any other
    momentum is paired in python complex, term by term in component order.
    """
    a = b = 0
    d = 1
    for pm, c in zip(p, vec):
        if not c:
            continue
        t = type(pm)
        if t is int:
            n, m = pm, 1
        elif t is Fraction:
            n, m = pm.numerator, pm.denominator
        else:
            return _pair_complex(p, vec)
        # (a + b i)/d + (c_a + c_b i) n / (c_d m), over the product denominator
        f = c._d * m
        if f == d:
            a, b = a + c._a * n, b + c._b * n
        else:
            a, b, d = a * f + c._a * n * d, b * f + c._b * n * d, d * f
    return QC._of(a, b, d)


def _pair_complex(p, vec):
    s = 0j
    for pm, c in zip(p, vec):
        if c:
            s = s + complex(c) * pm
    return s


def gamma_pair(p):
    """B(p)[a][b] = p(Gamma_C(tau^a, taubar^b)); det B(p) = |p|^2."""
    return PairingMatrix([[pair_covector(p, conventions.GAMMA_TABLE[a][b])
                           for b in range(2)] for a in range(2)])


def gamma_lower(p):
    """The vector-field coefficient table Gamma^mu_{ab} contracted with p."""
    return [[pair_covector(p, conventions.GAMMA_LOWER[a][b])
             for b in range(2)] for a in range(2)]


def classify_orbit(p, tol=0.0):
    n2 = minkowski_norm2(p)
    p0 = p[0]
    if abs(n2) <= tol:
        if abs(p0) <= tol and all(abs(x) <= tol for x in p):
            return "Zero"
        return "NullPlus" if p0 > 0 else "NullMinus"
    if n2 > 0:
        return "MassivePlus" if p0 > 0 else "MassiveMinus"
    return "ImaginaryMass"


# -- 2x2 complex matrices ---------------------------------------------------

def m2_dagger(a):
    return [[conj(a[0][0]), conj(a[1][0])], [conj(a[0][1]), conj(a[1][1])]]


def m2_det(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def m2_inv_unimodular(a):
    """Inverse of a det-1 matrix: the adjugate."""
    return [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]


def m2_transpose(a):
    return [[a[0][0], a[1][0]], [a[0][1], a[1][1]]]


class SpinElement:
    """Element of SL(2,C) acting on the spinor spaces."""

    __slots__ = ("a",)

    def __init__(self, a, check=True, tol=1e-9):
        self.a = [list(row) for row in a]
        if check:
            d = as_complex(m2_det(self.a))
            if abs(d - 1.0) > tol:
                raise ValueError(f"det {d} != 1")

    def inverse(self):
        return SpinElement(m2_inv_unimodular(self.a), check=False)

    def __matmul__(self, other):
        a, b = self.a, other.a
        return SpinElement([[a[0][0] * b[0][0] + a[0][1] * b[1][0],
                             a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                            [a[1][0] * b[0][0] + a[1][1] * b[1][0],
                             a[1][0] * b[0][1] + a[1][1] * b[1][1]]], check=False)

    def plus_matrix(self):
        """Coefficient action on S_+^* columns: the dual (contragredient) rep."""
        return m2_transpose(m2_inv_unimodular(self.a))

    def minus_matrix(self):
        """Coefficient action on S_-^* columns: (A^dagger)^-1 (ledger L5)."""
        return m2_inv_unimodular(m2_dagger(self.a))


def rest_boost(p, m, tol=1e-9):
    """Hermitian positive h_p with B(p) = h_p (m Id) h_p^dagger.

    Principal square root of B(p)/m; raises OffOrbit / NonPositiveEnergy
    when p is not numerically on the forward mass shell.
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    pf = tuple(float(x) for x in p)
    if pf[0] <= 0:
        raise NonPositiveEnergy(f"p0 = {pf[0]} <= 0")
    n2 = minkowski_norm2(pf)
    if abs(n2 - m * m) > tol * max(1.0, m * m):
        raise OffOrbit(f"|p|^2 = {n2}, expected {m * m}")
    B = [[as_complex(x) / m for x in row] for row in gamma_pair(pf).b]
    det = B[0][0] * B[1][1] - B[0][1] * B[1][0]
    s = cmath.sqrt(det)
    tr = B[0][0] + B[1][1]
    t = cmath.sqrt(tr + 2 * s)
    h = [[(B[0][0] + s) / t, B[0][1] / t], [B[1][0] / t, (B[1][1] + s) / t]]
    return SpinElement(h, check=True, tol=1e-6)


def _exterior_2x2(a):
    """Lambda(A) on the exterior algebra of a 2-dimensional space, basis
    (1, g1, g2, g1^g2): A itself on the generators and det A on the top."""
    return [[1, 0, 0, 0],
            [0, a[0][0], a[0][1], 0],
            [0, a[1][0], a[1][1], 0],
            [0, 0, 0, m2_det(a)]]


def spin_action_endo(h):
    """The induced endomorphism of W as a dense matrix.

    W = Lambda(S_+^*) (x) Lambda(S_-^*), and mask = plus bits + 4 * minus bits,
    so the action is kron(Lambda(minus), Lambda(plus)).  No Koszul signs
    arise: the plus generators precede the minus ones (ledger L1), and each
    factor maps into its own generators.  An exact h gives an exact EndoW, a
    float h a 16x16 complex128 array.
    """
    exact = all(is_exact(x) for row in h.a for x in row)
    dtype = object if exact else np.complex128
    minus = np.array(_exterior_2x2(h.minus_matrix()), dtype=dtype)
    plus = np.array(_exterior_2x2(h.plus_matrix()), dtype=dtype)
    rho = np.kron(minus, plus)
    return EndoW(rho) if exact else rho

