import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superkit.exactnum import QC, conj

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
qcs = st.builds(QC, rationals, rationals)
# small denominators make common factors (and so reductions) frequent
wide_rationals = st.one_of(rationals, st.fractions(max_denominator=10 ** 12))
exact_operands = st.one_of(st.builds(QC, wide_rationals, wide_rationals),
                           wide_rationals, st.integers(-10 ** 6, 10 ** 6))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(qcs, qcs, qcs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(qcs)
def test_inverses(a):
    assert a + (-a) == QC(0)
    if a:
        assert a * (QC(1) / a) == QC(1)


@given(qcs, qcs)
def test_conjugation(a, b):
    assert conj(a * b) == conj(a) * conj(b)
    assert conj(conj(a)) == a


def test_mixed_mode_degrades_to_complex():
    z = QC(Fraction(1, 2), Fraction(1, 3))
    assert isinstance(z + 0.25, complex)
    assert isinstance(z * 2j, complex)
    assert abs((z * 2.0) - complex(z) * 2.0) == 0
    # exact partners stay exact
    assert isinstance(z * Fraction(2, 7), QC)
    assert isinstance(z + 3, QC)


# -- the integer-triple representation against a (Fraction, Fraction) reference --

def ref(x):
    """(re, im) Fractions of an exact operand."""
    if isinstance(x, QC):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


REF_OPS = {
    "+": (lambda u, v: u + v, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (lambda u, v: u - v, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (lambda u, v: u * v, ref_mul),
    "/": (lambda u, v: u / v, ref_div),
}


def assert_matches(z, want):
    assert isinstance(z, QC)
    assert (z.re, z.im) == want
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1


@given(st.builds(QC, wide_rationals, wide_rationals), exact_operands,
       st.sampled_from(sorted(REF_OPS)), st.booleans())
def test_arithmetic_matches_fraction_reference(z, w, op, swap):
    fn, want = REF_OPS[op]
    x, y = (w, z) if swap else (z, w)
    if op == "/" and ref(y) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            fn(x, y)
        return
    assert_matches(fn(x, y), want(ref(x), ref(y)))


@given(st.sampled_from([2, 12, 10 ** 9 + 7]), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.sampled_from(sorted(REF_OPS)))
def test_operands_with_a_shared_denominator(d, a, b, c, e, op):
    # (k d + 1) / d is reduced, so both triples carry exactly the denominator d
    z = QC(Fraction(a * d + 1, d), Fraction(b, d))
    w = QC(Fraction(c * d - 1, d), Fraction(e, d))
    assert z._d == w._d == d
    fn, want = REF_OPS[op]
    assert_matches(fn(z, w), want(ref(z), ref(w)))


@given(wide_rationals, wide_rationals)
def test_structure_matches_fraction_reference(a, b):
    z = QC(a, b)
    assert_matches(z, (a, b))
    assert_matches(-z, (-a, -b))
    assert_matches(z.conjugate(), (a, -b))
    assert bool(z) == (a != 0 or b != 0)
    assert z == QC(a, 0) + QC(0, 1) * b
    assert (z == a) == (b == 0)
    assert hash(z) == hash(QC(a, 0) + QC(0, 1) * b)


@given(st.builds(QC, wide_rationals, wide_rationals),
       st.builds(QC, wide_rationals, wide_rationals))
def test_equality_and_hash_match_reference(z, w):
    assert (z == w) == (ref(z) == ref(w))
    if z == w:
        assert hash(z) == hash(w)


@given(exact_operands)
def test_division_by_zero_raises(x):
    for zero in (QC(0), 0, Fraction(0), QC(Fraction(0, 3), 0)):
        with pytest.raises(ZeroDivisionError):
            QC(1, 1) / zero
    with pytest.raises(ZeroDivisionError):
        x / QC(0)


@given(st.builds(QC, wide_rationals, wide_rationals),
       st.one_of(finite_floats.filter(lambda f: abs(f) < 1e300),
                 st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                                    allow_infinity=False)))
def test_float_or_complex_operand_yields_complex(z, f):
    for op in ("+", "-", "*"):
        fn = REF_OPS[op][0]
        assert type(fn(z, f)) is complex and type(fn(f, z)) is complex
    if f:
        assert type(z / f) is complex
    if z:
        assert type(f / z) is complex


@given(st.fractions())
def test_hash_of_real_qc_matches_fraction(x):
    assert hash(QC(x)) == hash(Fraction(x))
    assert QC(x) == x and hash(QC(x)) == hash(x)


@given(finite_floats, finite_floats)
def test_hash_matches_complex_for_float_representable_parts(a, b):
    z = QC(Fraction(a), Fraction(b))
    assert z == complex(a, b)
    assert hash(z) == hash(complex(a, b))
    assert {z: 1}.get(complex(a, b)) == 1


def test_hash_contract_examples():
    assert QC(1, 1) == 1 + 1j and hash(QC(1, 1)) == hash(1 + 1j)
    assert hash(QC(Fraction(1, 2), Fraction(-3, 4))) == hash(0.5 - 0.75j)
    assert hash(QC(-1)) == hash(-1) == hash(Fraction(-1))
    # equality with floats is exact, like Fraction's
    assert QC(Fraction(1, 3)) != 1 / 3
    assert QC(Fraction(1, 2)) == 0.5
