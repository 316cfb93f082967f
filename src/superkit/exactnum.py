"""Exact complex-rational scalars.

Every identity suite in the algebra core runs at zero tolerance, so the
universal coefficient type must never round.  ``QC`` stores ``(a + b i) / d``
as an integer triple ``(a, b, d)`` kept in canonical form: ``d > 0`` and
``gcd(a, b, d) == 1``.  Every value therefore has exactly one triple, so
equality compares components and zero is ``(0, 0, 1)``.  Each +, -, *, /
multiplies out over the product of the denominators and restores canonical
form with one multi-argument ``math.gcd``; adding or subtracting an ``int``
needs none.  +, -, * and unary - build and reduce their result inline, with
no helper call, and test ``type(x) is QC`` and ``type(x) is int`` before
anything slower: they run about a hundred thousand times per identity
suite.  ``QC._of(a, b, d)`` is the trusted constructor for a triple the
package computed in integers (a momentum pairing, a random value): it
reduces but checks nothing.  ``int`` and ``Fraction`` operands enter as
numerator/denominator pairs, and the read-only ``.re`` and ``.im`` return
reduced ``Fraction``s.

QC is closed under +, -, *, / (nonzero divisor).  Mixing a QC with a float or
a python complex silently degrades to python ``complex``.  The float symbol
route (boosts, ``spin_action_endo``, float ``zeta_*``, ``propagate``) does not
use QC: it works on plain ``complex128`` arrays, and a float momentum is
paired with a table entry in python complex.  Float superfunctions and the
float Dirac kernel still rely on the float branch; the divergence kernel is
exact only.  Equality with a float or complex is
exact, and ``hash(QC(a, b)) == hash(complex(a, b))`` whenever floats hold
``a`` and ``b`` exactly, so equal values hash equal.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isfinite

_EXACT = (int, Fraction)
_FLOATY = (float, complex)
_HASH_MASK = (1 << sys.hash_info.width) - 1
_HASH_SIGN = 1 << (sys.hash_info.width - 1)
_new = object.__new__


def _triple(x):
    """(a, b, d) of an exact scalar, or None for anything else."""
    if type(x) is int:
        return x, 0, 1
    if isinstance(x, QC):
        return x._a, x._b, x._d
    if isinstance(x, _EXACT):
        return x.numerator, 0, x.denominator
    return None


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if not isinstance(re, _EXACT):
            re = Fraction(re)
        if not isinstance(im, _EXACT):
            im = Fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr if dr == di else dr * di // gcd(dr, di)
        # over the lcm of two reduced denominators the triple is already canonical
        self._a = re.numerator * (d // dr)
        self._b = im.numerator * (d // di)
        self._d = d

    @classmethod
    def _of(cls, a, b, d):
        """QC (a + b i) / d from ints with d > 0, reduced to canonical form."""
        g = gcd(a, b, d)
        z = _new(cls)
        if g == 1:
            z._a, z._b, z._d = a, b, d
        else:
            z._a, z._b, z._d = a // g, b // g, d // g
        return z

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is QC:
            c, e, f = other._a, other._b, other._d
        elif type(other) is int:
            z = _new(QC)    # gcd(a + c d, b, d) = gcd(a, b, d) = 1
            z._a, z._b, z._d = a + other * d, b, d
            return z
        else:
            t = _triple(other)
            if t is None:
                return complex(self) + other if isinstance(other, _FLOATY) else NotImplemented
            c, e, f = t
        if d == f:
            a, b = a + c, b + e
        else:
            a, b, d = a * f + c * d, b * f + e * d, d * f
        g = gcd(a, b, d)
        z = _new(QC)
        if g == 1:
            z._a, z._b, z._d = a, b, d
        else:
            z._a, z._b, z._d = a // g, b // g, d // g
        return z

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is QC:
            c, e, f = other._a, other._b, other._d
        elif type(other) is int:
            z = _new(QC)    # gcd(a - c d, b, d) = gcd(a, b, d) = 1
            z._a, z._b, z._d = a - other * d, b, d
            return z
        else:
            t = _triple(other)
            if t is None:
                return complex(self) - other if isinstance(other, _FLOATY) else NotImplemented
            c, e, f = t
        if d == f:
            a, b = a - c, b - e
        else:
            a, b, d = a * f - c * d, b * f - e * d, d * f
        g = gcd(a, b, d)
        z = _new(QC)
        if g == 1:
            z._a, z._b, z._d = a, b, d
        else:
            z._a, z._b, z._d = a // g, b // g, d // g
        return z

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        z = _new(QC)
        z._a, z._b, z._d = -self._a, -self._b, self._d
        return z

    def __mul__(self, other):
        if type(other) is QC:
            c, e, f = other._a, other._b, other._d
        else:
            t = _triple(other)
            if t is None:
                return complex(self) * other if isinstance(other, _FLOATY) else NotImplemented
            c, e, f = t
        a, b, d = self._a, self._b, self._d
        a, b, d = a * c - b * e, a * e + b * c, d * f
        g = gcd(a, b, d)
        z = _new(QC)
        if g == 1:
            z._a, z._b, z._d = a, b, d
        else:
            z._a, z._b, z._d = a // g, b // g, d // g
        return z

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = (other._a, other._b, other._d) if type(other) is QC else _triple(other)
        if t is None:
            return complex(self) / other if isinstance(other, _FLOATY) else NotImplemented
        c, e, f = t
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero QC")
        a, b, d = self._a, self._b, self._d
        return QC._of((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT):
            return QC(other) / self
        if isinstance(other, _FLOATY):
            return other / complex(self)
        return NotImplemented

    # -- structure --------------------------------------------------------

    def conjugate(self):
        z = _new(QC)
        z._a, z._b, z._d = self._a, -self._b, self._d
        return z

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, QC):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, _EXACT):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        if isinstance(other, _FLOATY):
            other = complex(other)
            return (isfinite(other.real) and isfinite(other.imag)
                    and self == QC(other.real, other.imag))
        return NotImplemented

    def __hash__(self):
        # CPython's complex hash, so a QC hashes like the complex or Fraction it equals
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) & _HASH_MASK
        if h & _HASH_SIGN:
            h -= _HASH_MASK + 1
        return -2 if h == -1 else h

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        if self._b == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        sign = "+" if im >= 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def is_exact(z):
    return isinstance(z, (QC, int, Fraction))


def conj(z):
    """Complex conjugate for any scalar flavor (QC, complex, real)."""
    if isinstance(z, (QC, complex)):
        return z.conjugate()
    return z


def as_complex(z):
    return complex(z)


def scal_is_zero(z, tol=0.0):
    if isinstance(z, QC):
        return z._a == 0 and z._b == 0
    if isinstance(z, _EXACT):
        return z == 0
    return abs(z) <= tol


def coerce(z):
    """Normalize a scalar to QC when exact, complex otherwise."""
    if type(z) is QC:
        return z
    if type(z) is int:
        q = _new(QC)
        q._a, q._b, q._d = z, 0, 1
        return q
    if isinstance(z, _EXACT):
        return QC(z)
    return complex(z)
