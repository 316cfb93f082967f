"""Exact model of the 16-dimensional Grassmann module W.

W is the exterior algebra on four odd generators, grouped as two "plus"
generators tau^1, tau^2 and two "minus" generators taubar^1, taubar^2.  A
monomial is a 4-bit mask (bit 0 = tau^1, bit 1 = tau^2, bit 2 = taubar^1,
bit 3 = taubar^2) read in that canonical order.  All operator signs are
Koszul crossing counts in the flattened word (ledger L1): the exterior
multiplications are left multiplications and the interior products are
graded contractions, which makes the four d/q families genuine Clifford
creation/annihilation operators.

``koszul_sign`` is the one place that computes such a sign; every other
product of odd generators in the package (the auxiliary algebras Lambda_N
of the group law) calls it.  The spin action on W needs no sign: it is
Lambda(minus) (x) Lambda(plus) on masks ordered plus before minus.
``GEN_TABLE`` holds each generator as a signed permutation of the monomial
basis, and ``apply_generators`` applies sums of them to any
``{mask: coefficient}`` map, so the operators on ``Multivector`` and on
superfunctions share one path.  Each d/q action builds its generator sum
once, when it is made -- the wedge plus the pairing-scaled contractions --
so one application is one pass and one ``Multivector``.

``SparseSum`` is the package's one sparse linear combination ``{key: value}``;
``Multivector`` here and the plane-wave sums, superfunctions and Lambda_N
elements of ``superfourier`` subclass it.  Its constructor takes outside data:
each key passes the class hook ``_key`` (None keeps it), each value ``_value``
(``coerce``), and zero values are dropped.  Values the package computes (sums,
scalar products, generator images) go through the trusted ``_of``, or
``_like``, which also keeps a subclass's ``side`` or ``alg``; neither coerces,
both drop zero values.  So no stored value is ever zero, and ``is_zero()`` at
tolerance 0 is an emptiness test.  ``==`` compares values by their
difference, so exact and float data that round equal compare equal.

``eps_square`` is the one epsilon-square ``eps[a][b] op_a op_b``: the
second-order operators on W contract with ``conventions.EPS_LOWER`` and
``superfourier``'s D^2 with ``EPS_UPPER``, each read on every call.

``EndoW``, the dense 16x16 operator, holds ``QC`` entries only.  Its public
constructor coerces and type-checks every entry; the matrices the package
computes (``from_action``, which tests only the stored images, ``@`` and
``+``) go through the trusted ``EndoW._of``.  A float operator on W is a
plain ``complex128`` array built where floats enter, so this module does not
import numpy.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import QC, as_complex, coerce, scal_is_zero
from . import conventions, linalg

N_GEN = 4
DIM = 16
MONOMIALS = tuple(range(DIM))
_ZERO = QC(0)
_MINUS_HALF = QC(Fraction(-1, 2))
_FLOAT_ENTRIES = "EndoW entries must be exact; a float operator is an array"


def plus_set(mask):
    return tuple(a + 1 for a in (0, 1) if mask & (1 << a))


def minus_set(mask):
    return tuple(a + 1 for a in (0, 1) if mask & (1 << (a + 2)))


def mono_mask(plus, minus):
    m = 0
    for a in plus:
        m |= 1 << (a - 1)
    for a in minus:
        m |= 1 << (a + 1)
    return m


def degree(mask):
    return bin(mask).count("1")


def parity(mask):
    return degree(mask) & 1


def mono_key(mask):
    """JSON key '<I>|<J>' with I, J in {'', '1', '2', '12'}."""
    return "".join(str(a) for a in plus_set(mask)) + "|" + \
        "".join(str(a) for a in minus_set(mask))


_KEY_MASKS = {mono_key(m): m for m in MONOMIALS}


def mask_from_key(key):
    """Inverse of mono_key; any other key raises ValueError."""
    mask = _KEY_MASKS.get(key)
    if mask is None:
        raise ValueError(f"bad monomial key {key!r}: expected '<I>|<J>' with I, J "
                         "each one of '', '1', '2', '12'")
    return mask


def koszul_sign(ma, mb):
    """Sign that sorts the word ma . mb of two disjoint masks into canonical
    order: -1 to the number of (bit of ma, bit of mb) pairs in which the
    bit of ma is the higher one."""
    crossings = 0
    while mb:
        crossings += (ma >> (mb & -mb).bit_length()).bit_count()
        mb &= mb - 1
    return -1 if crossings & 1 else 1


def wedge_gen(gen, mask):
    """Left multiply by generator `gen` (0..3): (sign, new mask) or (0, None)."""
    bit = 1 << gen
    if mask & bit:
        return 0, None
    return koszul_sign(bit, mask), mask | bit


def contract_gen(gen, mask):
    """Remove generator `gen` with its Koszul sign: (sign, new mask) or (0, None)."""
    bit = 1 << gen
    if not mask & bit:
        return 0, None
    return koszul_sign(bit, mask & ~bit), mask & ~bit


# GEN_TABLE[g][m] = (sign, m ^ bit g): generator g as a signed permutation of
# the monomials, a left wedge where bit g of m is clear and a contraction
# where it is set.
GEN_TABLE = tuple(tuple(contract_gen(g, m) if m >> g & 1 else wedge_gen(g, m)
                        for m in MONOMIALS) for g in range(N_GEN))


def apply_generators(coeffs, terms):
    """Image of a {mask: coefficient} map under a sum of generator actions.

    Each term is (scale, gen, contract): the left wedge (contract False) or
    the contraction (contract True) by generator `gen`, times `scale`, or
    unscaled when `scale` is None.  Coefficients need only +, unary - and
    scalar *, so QC and PlaneWaveFn both work; the result is a plain dict.
    """
    out = {}
    for mask, c in coeffs.items():
        for scale, gen, contract in terms:
            if (mask >> gen & 1) != contract:
                continue
            sgn, nm = GEN_TABLE[gen][mask]
            val = c if scale is None else c * scale
            if sgn < 0:
                val = -val
            prev = out.get(nm)
            out[nm] = val if prev is None else prev + val
    return out


class SparseSum:
    """A finite linear combination: ``coeffs`` maps each key to a nonzero
    value.  Values need +, unary -, scalar * and truth as "nonzero"."""

    __slots__ = ("coeffs",)
    _key = None
    _value = staticmethod(coerce)

    def __init__(self, coeffs=None):
        out = {}
        if coeffs:
            key, value = self._key, self._value
            for k, v in coeffs.items():
                v = value(v)
                if v:
                    out[k if key is None else key(k)] = v
        self.coeffs = out

    @classmethod
    def _of(cls, coeffs):
        """A sum of values the package computed: drops zeros, no coercion."""
        obj = object.__new__(cls)
        obj.coeffs = {k: v for k, v in coeffs.items() if v}
        return obj

    def _like(self, coeffs, nonzero=False):
        """``_of`` keeping this sum's own slots (``side``, ``alg``); with
        ``nonzero`` the caller's fresh dict holds no zero and is kept as is."""
        new = object.__new__(type(self))
        for name in self.__slots__:     # on a bare SparseSum, coeffs: replaced below
            setattr(new, name, getattr(self, name))
        new.coeffs = coeffs if nonzero else {k: v for k, v in coeffs.items() if v}
        return new

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            prev = out.get(k)
            if prev is None:
                out[k] = v
            elif v := prev + v:     # only a sum of two stored values can be zero
                out[k] = v
            else:
                del out[k]
        return self._like(out, nonzero=True)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, s):
        if type(s) is not QC:   # coerced once: a sum of sums hands its values the QC
            s = coerce(s)
        return self._like({k: v * s for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()}, nonzero=True)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if a == b:
            return True
        # no stored value is zero, so a key on one side only is a difference
        return a.keys() == b.keys() and all(not (a[k] - b[k]) for k in a)

    def is_zero(self, tol=0.0):
        if not tol:
            return not self.coeffs
        return all(scal_is_zero(v, tol) for v in self.coeffs.values())

    def max_abs(self):
        return max((abs(as_complex(v)) for v in self.coeffs.values()), default=0.0)


class Multivector(SparseSum):
    """Element of W: sparse map monomial mask -> scalar."""

    __slots__ = ()

    @classmethod
    def basis(cls, mask, scale=1):
        return cls({mask: scale})

    def __getitem__(self, mask):
        return self.coeffs.get(mask, _ZERO)

    def to_vector(self):
        return [self[m] for m in MONOMIALS]

    @classmethod
    def from_vector(cls, vec):
        return cls({m: vec[m] for m in MONOMIALS})

    def __repr__(self):
        if not self.coeffs:
            return "Multivector(0)"
        parts = [f"{c!r}*{mono_key(m)}" for m, c in sorted(self.coeffs.items())]
        return "Multivector(" + " + ".join(parts) + ")"


BASIS = tuple(Multivector.basis(m) for m in MONOMIALS)


class PairingMatrix:
    """2x2 matrix b[a][b] pairing tau^a with taubar^b."""

    __slots__ = ("b",)

    def __init__(self, b):
        self.b = tuple(tuple(coerce(x) for x in row) for row in b)

    @classmethod
    def identity(cls):
        return cls(((1, 0), (0, 1)))

    def __getitem__(self, ab):
        a, b = ab
        return self.b[a - 1][b - 1]

    def det(self):
        return self.b[0][0] * self.b[1][1] - self.b[0][1] * self.b[1][0]

    def is_invertible(self):
        return not scal_is_zero(self.det())

    def __repr__(self):
        return f"PairingMatrix({self.b!r})"


# -- primitive operations -------------------------------------------------

def _apply(mv, terms):
    return Multivector._of(apply_generators(mv.coeffs, terms))


def ext_plus(a, mv):
    """Left exterior multiplication by tau^a on the plus factor."""
    return _apply(mv, [(None, a - 1, False)])


def ext_minus(a, mv):
    """Left exterior multiplication by taubar^a, with the Koszul crossing sign."""
    return _apply(mv, [(None, a + 1, False)])


def _contractions(pairs, sign):
    """Contraction terms (sign * scale, gen, True) of the (scale, gen) pairs
    with a nonzero scale."""
    return [(s if sign > 0 else -s, gen, True) for s, gen in pairs if not scal_is_zero(s)]


def _int_plus_terms(a, B, sign=1):
    """Terms of sign * i_{tau^a}: contract taubar^b with coefficient B[a][b]."""
    return _contractions([(B[a, b], b + 1) for b in (1, 2)], sign)


def _int_minus_terms(a, B, sign=1):
    """Terms of sign * i_{taubar^a}: contract tau^b with coefficient B[b][a]."""
    return _contractions([(B[b, a], b - 1) for b in (1, 2)], sign)


def int_plus(a, B, mv):
    """Interior product i_{tau^a}: contracts taubar^b with coefficient B[a][b]."""
    return _apply(mv, _int_plus_terms(a, B))


def int_minus(a, B, mv):
    """Interior product i_{taubar^a}: contracts tau^b with coefficient B[b][a]."""
    return _apply(mv, _int_minus_terms(a, B))


# -- endomorphisms ---------------------------------------------------------

class EndoW:
    """Dense 16x16 endomorphism of W in the monomial basis (columns = inputs),
    with exact entries: a float operator on W is a complex128 array instead."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        rows = [[coerce(x) for x in row] for row in mat]
        if not all(type(x) is QC for row in rows for x in row):
            raise TypeError(_FLOAT_ENTRIES)
        self.mat = rows

    @classmethod
    def _of(cls, rows):
        """An EndoW of QC rows the package computed: no coercion, no scan."""
        obj = object.__new__(cls)
        obj.mat = rows
        return obj

    @classmethod
    def from_action(cls, fn):
        cols = [fn(b).coeffs for b in BASIS]
        # only the stored (nonzero) images need a type test: the rest are _ZERO
        if not all(type(x) is QC for col in cols for x in col.values()):
            raise TypeError(_FLOAT_ENTRIES)
        return cls._of([[col.get(r, _ZERO) for col in cols] for r in MONOMIALS])

    def __call__(self, mv):
        out = {}
        for c, coef in mv.coeffs.items():
            for r in MONOMIALS:
                x = self.mat[r][c]
                if x:
                    out[r] = out.get(r, _ZERO) + x * coef
        return Multivector(out)

    def __matmul__(self, other):
        return EndoW._of(linalg.mat_mul(self.mat, other.mat))

    def __add__(self, other):
        return EndoW._of([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.mat, other.mat)])

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, s):
        return EndoW([[x * s for x in row] for row in self.mat])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, EndoW):
            return NotImplemented
        return self.mat == other.mat

    def parity(self):
        """'even', 'odd', or 'mixed' from the sparsity pattern."""
        has_even = has_odd = False
        for r in MONOMIALS:
            for c in MONOMIALS:
                if not self.mat[r][c]:
                    continue
                if parity(r) == parity(c):
                    has_even = True
                else:
                    has_odd = True
        if has_even and has_odd:
            return "mixed"
        return "odd" if has_odd else "even"


# -- the d / q family ------------------------------------------------------
#
# Operators are assembled as sparse actions (closures Multivector ->
# Multivector); build_* wraps them into dense EndoW matrices when a matrix
# is wanted.  Compositions stay sparse, which keeps exact arithmetic cheap.

def _one_pass(wedge, contractions):
    """The wedge by generator `wedge` plus the contraction terms, as one
    generator sum built here, so each application is one pass."""
    terms = [(None, wedge, False), *contractions]
    return lambda mv: _apply(mv, terms)


def d_action(a, B):
    return _one_pass(a - 1, _int_plus_terms(a, B))


def dbar_action(a, B):
    return _one_pass(a + 1, _int_minus_terms(a, B))


def q_action(a, B):
    return _one_pass(a - 1, _int_plus_terms(a, B, -1))


def qbar_action(a, B):
    return _one_pass(a + 1, _int_minus_terms(a, B, -1))


def eps_square(op, x, eps):
    """sum_{a,b} eps[a][b] op(a, op(b, x)) for a Multivector or a superfunction
    x; ledger L2 pins each entry of eps to 0 or +-1, so each term is added or
    subtracted."""
    out = x._like({}, nonzero=True)
    for a in (1, 2):
        for b in (1, 2):
            e = eps[a - 1][b - 1]
            if e:
                t = op(a, op(b, x))
                out = out + t if e > 0 else out - t
    return out


def _eps_compose(op):
    """The action eps_{ab} op(a, op(b, .)), reading eps_lower from the ledger
    on each call."""
    return lambda mv: eps_square(op, mv, conventions.EPS_LOWER)


def d2_action(B):
    acts = (d_action(1, B), d_action(2, B))
    return _eps_compose(lambda a, mv: acts[a - 1](mv))


def dbar2_action(B):
    acts = (dbar_action(1, B), dbar_action(2, B))
    return _eps_compose(lambda a, mv: acts[a - 1](mv))


def e2_action():
    return _eps_compose(ext_plus)


def i2_action(B):
    inner = _eps_compose(lambda a, mv: int_plus(a, B, mv))
    return lambda mv: _MINUS_HALF * inner(mv)


def e2bar_action():
    return _eps_compose(ext_minus)


def i2bar_action(B):
    inner = _eps_compose(lambda a, mv: int_minus(a, B, mv))
    return lambda mv: _MINUS_HALF * inner(mv)


def build_d(a, B):
    """d_{tau^a} = (e_{tau^a} (x) Id) + (Id (x) i_{tau^a})."""
    return EndoW.from_action(d_action(a, B))


def build_dbar(a, B):
    """dbar_{taubar^a} = (Id (x) e_{taubar^a}) + (i_{taubar^a} (x) Id)."""
    return EndoW.from_action(dbar_action(a, B))


def build_qbar(a, B):
    return EndoW.from_action(qbar_action(a, B))


def build_d2(B):
    """Composed second-order operator eps_{ab} d_a d_b (ledger L7)."""
    return EndoW.from_action(d2_action(B))


def build_dbar2(B):
    return EndoW.from_action(dbar2_action(B))


def build_e2():
    """e^2 = eps_{ab} e_a e_b, which maps scalars to eps_{ab} tau^a ^ tau^b."""
    return EndoW.from_action(e2_action())


def build_i2(B):
    """i^2 = -(1/2) eps_{ab} i_a i_b; sends taubar^1^taubar^2 to det-like pairings."""
    return EndoW.from_action(i2_action(B))


def build_e2bar():
    return EndoW.from_action(e2bar_action())


def build_i2bar(B):
    return EndoW.from_action(i2bar_action(B))


def build_d2_factorized(B):
    """The commonly quoted factorized form (e^2 (x) Id) + (Id (x) i^2).

    NOT equal to build_d2 on all of W (the composed operator carries
    e_a (x) i_b cross terms the factorized form lacks); kept for the
    route-comparison suite.  See ledger L7.
    """
    return build_e2() + build_i2(B)


def build_dbar2_factorized(B):
    return build_e2bar() + build_i2bar(B)


# -- chiral kernel and conjugation ----------------------------------------

def chiral_kernel(B):
    """Basis of Ker dbar_1 and dbar_2, ordered as (phi, psi1, psi2, F) family.

    Closed form (validated against the exact null space): with b = B[a][b],

      X_phi  = -det(B) * 1
               + b22 t1(x)b1 - b21 t1(x)b2 - b12 t2(x)b1 + b11 t2(x)b2
               + (t1^t2)(x)(b1^b2)
      X_psi1 = b12 b1 - b11 b2 + t1(x)(b1^b2)
      X_psi2 = b22 b1 - b21 b2 + t2(x)(b1^b2)
      X_F    = b1^b2

    The scalar and middle coefficients of X_phi differ in sign from the
    commonly quoted display form; that variant is not annihilated by the
    Koszul-correct dbar operators (acceptance criterion 2 keeps it red).
    """
    b11, b12, b21, b22 = B[1, 1], B[1, 2], B[2, 1], B[2, 2]
    top = mono_mask((1, 2), (1, 2))
    x_phi = Multivector({
        0: -B.det(),
        mono_mask((1,), (1,)): b22,
        mono_mask((1,), (2,)): -b21,
        mono_mask((2,), (1,)): -b12,
        mono_mask((2,), (2,)): b11,
        top: coerce(1),
    })
    x_psi1 = Multivector({
        mono_mask((), (1,)): b12,
        mono_mask((), (2,)): -b11,
        mono_mask((1,), (1, 2)): coerce(1),
    })
    x_psi2 = Multivector({
        mono_mask((), (1,)): b22,
        mono_mask((), (2,)): -b21,
        mono_mask((2,), (1, 2)): coerce(1),
    })
    x_f = Multivector({mono_mask((), (1, 2)): coerce(1)})
    return [x_phi, x_psi1, x_psi2, x_f]


def chiral_kernel_nullspace(B):
    """Null space of the stacked dbar operators by exact Gaussian elimination."""
    stacked = [*build_dbar(1, B).mat, *build_dbar(2, B).mat]
    return [Multivector.from_vector(v) for v in linalg.null_space(stacked)]
