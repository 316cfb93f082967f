import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (act_on_momentum, dense_matrix, m2_mul, pair_covector_reference,
                      rand_momentum, rand_sl2)

from superkit import conventions
from superkit.exactnum import QC, as_complex, coerce
from superkit.grassmann import (EndoW, Multivector, PairingMatrix, ext_minus, int_plus,
                                koszul_sign, mono_mask)
from superkit.spin_geometry import (NonPositiveEnergy, OffOrbit, SpinElement,
                                    classify_orbit, gamma_lower, gamma_pair, m2_dagger,
                                    minkowski_norm2, pair_covector, rest_boost,
                                    spin_action_endo)


def test_minkowski_norm_examples():
    assert minkowski_norm2((1, 0, 0, 0)) == 1
    assert minkowski_norm2((3, 1, 2, 2)) == 0
    assert minkowski_norm2((2, 1, 0, 0)) == 3


def test_gamma_pair_examples():
    assert gamma_pair((1, 0, 0, 0)).b == PairingMatrix.identity().b
    B = gamma_pair((0, 0, 1, 0))
    assert B[1, 1] == 0 and B[2, 2] == 0 and B[1, 2] == 1 and B[2, 1] == 1
    B3 = gamma_pair((0, 0, 0, 1))
    assert B3[1, 2] == QC(0, -1) and B3[2, 1] == QC(0, 1)


def test_det_pairing_is_norm(rng):
    for _ in range(50):
        p = rand_momentum(rng)
        assert gamma_pair(p).det() == minkowski_norm2(p)


def test_gamma_lower_conjugation_symmetry(rng):
    """conj(Gamma_{ab}(p)) = Gamma_{ba}(p) for real momenta."""
    for _ in range(10):
        p = rand_momentum(rng)
        g = gamma_lower(p)
        for a in range(2):
            for b in range(2):
                assert g[a][b].conjugate() == g[b][a]


def test_classify_orbit():
    assert classify_orbit((2, 0, 0, 0)) == "MassivePlus"
    assert classify_orbit((-2, 1, 0, 0)) == "MassiveMinus"
    assert classify_orbit((1, 1, 0, 0)) == "NullPlus"
    assert classify_orbit((-1, 0, 1, 0)) == "NullMinus"
    assert classify_orbit((0, 1, 0, 0)) == "ImaginaryMass"
    assert classify_orbit((0, 0, 0, 0)) == "Zero"
    assert classify_orbit((1.0, 1.0 + 1e-12, 0.0, 0.0), tol=1e-9) == "NullPlus"


def test_rest_boost_identity_and_diagonal():
    h = rest_boost((2.0, 0.0, 0.0, 0.0), 2.0)
    assert abs(as_complex(h.a[0][0]) - 1) < 1e-12
    assert abs(as_complex(h.a[0][1])) < 1e-12
    eta = 0.8
    h = rest_boost((3 * math.cosh(eta), 3 * math.sinh(eta), 0, 0), 3.0)
    assert abs(as_complex(h.a[0][0]) - math.exp(eta / 2)) < 1e-10
    assert abs(as_complex(h.a[1][1]) - math.exp(-eta / 2)) < 1e-10


def test_rest_boost_errors():
    with pytest.raises(OffOrbit):
        rest_boost((2.0, 0.0, 0.0, 0.0), 1.0)
    with pytest.raises(NonPositiveEnergy):
        rest_boost((-1.0, 0.0, 0.0, 0.0), 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 10), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_rest_boost_postcondition(m, k1, k2, k3):
    p = (math.sqrt(m * m + k1 * k1 + k2 * k2 + k3 * k3), k1, k2, k3)
    h = rest_boost(p, m)
    lhs = [[as_complex(x) for x in row] for row in gamma_pair(p).b]
    rhs = m2_mul(m2_mul(h.a, [[m, 0], [0, m]]), m2_dagger(h.a))
    err = max(abs(lhs[i][j] - rhs[i][j]) for i in range(2) for j in range(2))
    assert err <= 1e-10 * max(1.0, m * m)
    # Hermitian positive
    assert abs(as_complex(h.a[0][1]) - as_complex(h.a[1][0]).conjugate()) < 1e-10


def test_momentum_action_preserves_norm_and_pairing(rng):
    for _ in range(20):
        h = rand_sl2(rng)
        p = tuple(rng.uniform(-2, 2) for _ in range(4))
        hp = act_on_momentum(h, p)
        assert abs(minkowski_norm2(hp) - minkowski_norm2(p)) < 1e-8
        # B(h.p) = A B(p) A^dagger
        lhs = [[as_complex(x) for x in row] for row in gamma_pair(hp).b]
        mid = [[as_complex(x) for x in row] for row in gamma_pair(p).b]
        rhs = m2_mul(m2_mul(h.a, mid), m2_dagger(h.a))
        assert max(abs(lhs[i][j] - rhs[i][j]) for i in range(2) for j in range(2)) < 1e-8


def test_spin_action_identity_composition_top(rng):
    assert (spin_action_endo(SpinElement([[1, 0], [0, 1]], check=False))
            == EndoW.from_action(lambda mv: mv))
    h1, h2 = rand_sl2(rng), rand_sl2(rng)
    lhs = spin_action_endo(h1 @ h2)
    rhs = spin_action_endo(h1) @ spin_action_endo(h2)
    assert np.abs(lhs - rhs).max() < 1e-9
    top_plus = mono_mask((1, 2), ())
    out = spin_action_endo(h1)[:, top_plus]
    assert abs(out[top_plus] - 1) < 1e-9
    assert np.count_nonzero(out) == 1
    inv = spin_action_endo(h1) @ spin_action_endo(h1.inverse())
    assert np.abs(inv - np.eye(16)).max() < 1e-10


def _koszul_walk_spin_action(h):
    """Reference: the action of h on W built monomial by monomial, each
    generator image wedged on with its Koszul sign."""
    pm, mm = h.plus_matrix(), h.minus_matrix()
    gen_images = [[(pm[c][a], c) for c in range(2)] for a in range(2)]
    gen_images += [[(mm[c][a], c + 2) for c in range(2)] for a in range(2)]

    def act(mv):
        out = Multivector({})
        for mask, coef in mv.coeffs.items():
            terms = {0: coef}
            for g in range(4):
                if not mask & (1 << g):
                    continue
                nxt = {}
                for cg, tgt in gen_images[g]:
                    bit = 1 << tgt
                    for cur_mask, cur_c in terms.items():
                        if not cur_mask & bit:
                            nm = cur_mask | bit
                            nxt[nm] = (nxt.get(nm, coerce(0))
                                       + cur_c * cg * koszul_sign(cur_mask, bit))
                terms = nxt
            out = out + Multivector(terms)
        return out

    return act


def _rand_rational_sl2(rng):
    """A product of exact unipotent and diagonal SL(2, Q(i)) factors."""
    def q():
        return QC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    d = QC(Fraction(rng.randint(1, 5), rng.randint(1, 5)), Fraction(rng.randint(-2, 2), 3))
    h = SpinElement([[d, 0], [0, QC(1) / d]])
    for _ in range(2):
        h = h @ SpinElement([[1, q()], [0, 1]]) @ SpinElement([[1, 0], [q(), 1]])
    return h


def test_spin_action_kron_matches_koszul_walk(rng):
    for _ in range(10):
        h = rand_sl2(rng)
        got, ref = spin_action_endo(h), dense_matrix(_koszul_walk_spin_action(h))
        assert np.abs(got - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())
    for _ in range(5):
        h = _rand_rational_sl2(rng)
        got = spin_action_endo(h)
        assert all(isinstance(x, QC) for row in got.mat for x in row)
        assert got == EndoW.from_action(_koszul_walk_spin_action(h))


def test_pairing_equivariance_through_w_action(rng):
    """The W action intertwines the momentum pairing: the anticommutator
    relation transported by rho(h) reproduces B(h.p)."""
    h = rand_sl2(rng)
    p = tuple(rng.uniform(-2, 2) for _ in range(4))
    hp = act_on_momentum(h, p)
    rho = spin_action_endo(h)
    rho_inv = spin_action_endo(h.inverse())
    for a in (1, 2):
        for b in (1, 2):
            i_a = dense_matrix(lambda mv: int_plus(a, gamma_pair(p), mv))
            e_b = dense_matrix(lambda mv: ext_minus(b, mv))
            op = rho @ (i_a @ e_b + e_b @ i_a) @ rho_inv
            # conjugating a scalar multiple of Id leaves it fixed: B(p)
            assert abs(op[0, 0] - as_complex(gamma_pair(p)[a, b])) < 1e-8


def boost_x(eta):
    """diag(e^{eta/2}, e^{-eta/2}): pure boost along the x^1 axis."""
    return SpinElement([[math.exp(eta / 2), 0], [0, math.exp(-eta / 2)]], check=False)


def test_boost_x_matches_rest_boost():
    eta = 1.3
    h1 = boost_x(eta)
    h2 = rest_boost((math.cosh(eta), math.sinh(eta), 0.0, 0.0), 1.0)
    assert max(abs(as_complex(h1.a[i][j]) - as_complex(h2.a[i][j]))
               for i in range(2) for j in range(2)) < 1e-10


def test_det_pairing_float_mode(rng):
    for _ in range(20):
        p = tuple(rng.uniform(-3, 3) for _ in range(4))
        d = as_complex(gamma_pair(p).det())
        assert abs(d - minkowski_norm2(p)) <= 1e-12 * max(1.0, abs(d))
        assert abs(d.imag) <= 1e-12


# -- the integer pairing against the term-by-term QC sum -------------------------------

# every entry of both tables, plus patched entries whose non-unit, non-integer
# components have denominators of their own (so dropping one shows)
_COVECTORS = [*(vec for table in (conventions.GAMMA_TABLE, conventions.GAMMA_LOWER)
                for row in table for vec in row),
              (QC(Fraction(3, 7), Fraction(-5, 2)), QC(0), QC(Fraction(2, 9)),
               QC(0, Fraction(-1, 6))),
              (QC(Fraction(-4, 5)), QC(Fraction(7, 3), 2), QC(0, Fraction(5, 8)), QC(0))]
_exact_components = st.one_of(
    st.integers(-2 ** 40, 2 ** 40),
    st.fractions(min_value=-2 ** 32, max_value=2 ** 32, max_denominator=2 ** 32))
_float_components = st.floats(-1e6, 1e6, allow_nan=False)


@given(st.tuples(*[_exact_components] * 4))
def test_pair_covector_matches_the_qc_sum_on_exact_momenta(p):
    for vec in _COVECTORS:
        got, want = pair_covector(p, vec), pair_covector_reference(p, vec)
        assert type(got) is QC and (got._a, got._b, got._d) == (want._a, want._b, want._d)


@given(st.tuples(*[_float_components] * 4))
def test_pair_covector_matches_the_qc_sum_on_float_momenta(p):
    for vec in _COVECTORS:
        got, want = pair_covector(p, vec), pair_covector_reference(p, vec)
        assert type(got) is complex and (got.real, got.imag) == (want.real, want.imag)
