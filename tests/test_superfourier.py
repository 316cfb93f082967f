import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import aux_gen, rand_momentum, rand_qc, rand_superfunction

from superkit import suites
from superkit.conventions import GAMMA_LOWER
from superkit.exactnum import QC
from superkit.grassmann import (MONOMIALS, Multivector, PairingMatrix, d_action, dbar_action,
                                mono_mask, q_action, qbar_action)
from superkit.suites import STAR_DISPLAY, rand_even, rand_superpoint
from superkit.superfourier import (AuxGrassmann, GradeMismatch, GrassElt, MomentumKey,
                                   PlaneWaveFn,
                                   SideMismatch, SuperFunction, SuperPoint,
                                   apply_D, apply_D2, apply_Dbar, apply_Q, apply_Qbar,
                                   berezin_integral, group_law,
                                   single_wave, super_ft,
                                   theta_derivative, theta_multiply)

F2 = Fraction
TOP = mono_mask((1, 2), (1, 2))


# -- plane-wave container -------------------------------------------------------

def test_planewave_merge_and_sign():
    q = (F2(1), F2(0), F2(0), F2(0))
    a = PlaneWaveFn.wave(QC(1), q) + PlaneWaveFn.wave(QC(2), tuple(-x for x in q), sign=-1)
    assert a == PlaneWaveFn.wave(QC(3), q)
    assert (a - a).is_zero()


def test_planewave_derivative_and_box(rng):
    q = rand_momentum(rng)
    g = PlaneWaveFn.wave(QC(2), q)
    d0 = g.derivative(0)
    assert d0.terms[q] == QC(2) * QC(0, 1) * q[0]
    from superkit.spin_geometry import minkowski_norm2
    assert g.box().terms[q] == QC(2) * (-minkowski_norm2(q))


def test_planewave_conjugate_reflects():
    q = (F2(2), F2(1), F2(0), F2(0))
    g = PlaneWaveFn.wave(QC(1, 1), q)
    gc = g.conjugate()
    assert gc.terms[tuple(-x for x in q)] == QC(1, -1)


# -- momentum keys ---------------------------------------------------------------

momenta = st.tuples(*[st.fractions(max_denominator=10 ** 9)] * 4)


@given(momenta)
def test_momentum_key_equals_and_hashes_like_the_tuple(q):
    k = MomentumKey(q)
    assert k == q and hash(k) == hash(q) and tuple(k) == q
    assert MomentumKey(k) is k
    nk = -k
    assert type(nk) is MomentumKey and nk == tuple(-x for x in q)
    assert -nk is k and hash(nk) == hash(tuple(-x for x in q))
    assert -k is nk and MomentumKey(nk) is nk


@given(momenta, st.sampled_from([1, -1]))
def test_plain_tuple_lookups_hit_the_same_terms(q, sign):
    pw = PlaneWaveFn.wave(QC(1, 2), list(q), sign=sign)
    (key, a), = pw.terms.items()
    assert type(key) is MomentumKey
    plain = q if sign > 0 else tuple(-x for x in q)
    assert pw.terms[plain] == a == QC(1, 2)
    f = SuperFunction({TOP: pw})
    by_q = f.by_momentum()
    assert by_q[plain] is by_q[key] and list(by_q) == [key]
    assert by_q[plain] == Multivector({TOP: QC(1, 2)})


def test_planewave_keeps_existing_keys():
    k = MomentumKey((F2(1, 3), F2(0), F2(0), F2(2, 7)))
    pw = PlaneWaveFn({k: QC(1)})
    assert next(iter(pw.terms)) is k
    assert next(iter((pw + pw).terms)) is k
    assert next(iter(PlaneWaveFn.wave(QC(1), k).terms)) is k


def test_float_momentum_keys():
    q = (1.5, 0.25, 0.0, -2.0)
    pw = PlaneWaveFn.wave(QC(1), q, sign=-1)
    assert pw.terms[(-1.5, -0.25, -0.0, 2.0)] == QC(1)
    assert pw.conjugate().terms[q] == QC(1)
    k = MomentumKey(q)
    assert hash(k) == hash(q) and hash(-k) == hash((-1.5, -0.25, 0.0, 2.0))
    assert PlaneWaveFn.from_json(pw.to_json()) == pw


def test_planewave_from_json_sums_duplicate_and_cancelling_rows():
    rows = [[1.0, 2.0, 1, 0, 0, 0, 1], [0.5, 0.0, 1, 0, 0, 0, 1],
            [0.25, -1.0, -1, 0, 0, 0, -1],                  # the same momentum, sign -1
            [3.0, 0.0, 2, 0, 0, 0, 1], [-3.0, 0.0, -2, 0, 0, 0, -1],    # cancel
            [0.0, 1.0, 0, 1, 0, 0, -1]]
    pw = PlaneWaveFn.from_json(rows)
    assert pw.terms == {(1, 0, 0, 0): 1.75 + 1j, (0, -1, 0, 0): 1j}
    assert PlaneWaveFn.from_json(pw.to_json()) == pw


@given(momenta, st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_planewave_equality_independent_of_key_construction(q, re, im):
    a = QC(re, im)
    by_tuple = PlaneWaveFn({q: a})
    by_key = PlaneWaveFn({MomentumKey(q): a})
    assert by_tuple == by_key and by_key == by_tuple
    assert by_tuple.to_json() == by_key.to_json()
    assert by_tuple.conjugate() == by_key.conjugate()
    merged = by_key + by_tuple
    assert len(merged.terms) == (1 if a else 0) and merged == 2 * by_tuple


# -- Hodge star ------------------------------------------------------------------

@pytest.mark.parametrize("src,tgt,fac", STAR_DISPLAY)
def test_hodge_star_all_sixteen(src, tgt, fac):
    assert suites.hodge_star_table([], [(src, tgt, fac)])[0]


def test_hodge_star_fourth_power_identity(rng):
    mv = Multivector({m: rand_qc(rng) for m in MONOMIALS})
    assert suites.hodge_star_table([mv], [])[0]


# -- transform --------------------------------------------------------------------

def test_super_ft_examples():
    q = (F2(1), F2(1), F2(0), F2(0))
    f = single_wave(mono_mask((1,), ()), QC(1), q)
    fhat = super_ft(f)
    assert fhat.comp(mono_mask((1,), (1, 2))).terms[q] == QC(0, 1)
    const = single_wave(0, QC(1), (F2(0),) * 4)
    chat = super_ft(const)
    assert chat.comp(TOP).terms[(F2(0),) * 4] == QC(1)


def test_super_ft_side_check(rng):
    f = rand_superfunction(rng)
    with pytest.raises(SideMismatch):
        super_ft(super_ft(f))
    with pytest.raises(SideMismatch):
        apply_D(1, super_ft(f))


def test_round_trip(rng):
    assert suites.ft_round_trip([rand_superfunction(rng, 2) for _ in range(5)])[0]


def test_berezin_and_body(rng):
    q = rand_momentum(rng)
    g = PlaneWaveFn.wave(QC(2, 3), q)
    f = SuperFunction({TOP: g}, "position")
    assert berezin_integral(f) == g
    assert berezin_integral(single_wave(mono_mask((1,), ()), QC(1), q)).is_zero()
    for _ in range(5):
        assert suites.body_vs_berezin([rand_superfunction(rng)])[0]
        a, b = rand_qc(rng), rand_qc(rng)
        f1, f2 = rand_superfunction(rng), rand_superfunction(rng)
        lin = berezin_integral(a * f1 + b * f2)
        assert lin == a * berezin_integral(f1) + b * berezin_integral(f2)


# -- covariant derivatives ----------------------------------------------------------

def test_apply_d_on_constants():
    q0 = (F2(0),) * 4
    th1 = single_wave(mono_mask((1,), ()), QC(1), q0)
    th2 = single_wave(mono_mask((2,), ()), QC(1), q0)
    assert apply_D(1, th1) == single_wave(0, QC(1), q0)
    assert apply_D(1, th2).is_zero()
    assert apply_Q(1, th1) == single_wave(0, QC(1), q0)


def _composed_odd_operator(a, f, barred, sign):
    """Reference: d/dtheta^a + sign i Gamma^mu (other theta)^b d/dx^mu composed
    from theta_derivative, gamma_derivative and theta_multiply."""
    out = theta_derivative(a, f, barred)
    for b in (1, 2):
        vec = GAMMA_LOWER[b - 1][a - 1] if barred else GAMMA_LOWER[a - 1][b - 1]
        dg = SuperFunction({m: g.gamma_derivative(vec) for m, g in f.comps.items()}, f.side)
        out = out + QC(0, sign) * theta_multiply(b, dg, barred=not barred)
    return out


ODD_OPERATORS = [(apply_Q, False, 1), (apply_Qbar, True, 1),
                 (apply_D, False, -1), (apply_Dbar, True, -1)]


@pytest.mark.parametrize("op,barred,sign", ODD_OPERATORS)
def test_odd_operators_equal_the_composed_route(rng, op, barred, sign):
    for _ in range(3):
        f = rand_superfunction(rng, nterms=3, pool=3)
        assert max(len(g.terms) for g in f.comps.values()) > 1
        for a in (1, 2):
            ref = _composed_odd_operator(a, f, barred, sign)
            assert not ref.is_zero() and op(a, f) == ref


@pytest.mark.parametrize("op,barred,sign", ODD_OPERATORS)
def test_odd_operators_match_the_composed_route_at_float_momenta(rng, op, barred, sign):
    momenta = [tuple(rng.uniform(-2, 2) for _ in range(4)) for _ in range(3)]
    f = SuperFunction({}, "position")
    for mask in MONOMIALS:
        for q in rng.sample(momenta, 2):
            f = f + single_wave(mask, complex(rng.gauss(0, 1), rng.gauss(0, 1)), q)
    for a in (1, 2):
        ref = _composed_odd_operator(a, f, barred, sign)
        assert (op(a, f) - ref).max_abs() <= 1e-12 * ref.max_abs()


def test_exchange_identities_hand_case():
    q0 = (F2(0),) * 4
    f = single_wave(mono_mask((1,), ()), QC(1), q0)  # f = theta^1
    lhs = super_ft(theta_derivative(1, f))
    assert lhs.comp(TOP).terms[q0] == QC(1)
    # i eps_{12} tau^2 (star fhat): star fhat = i tau^1 (x) taubar^12
    fhat = super_ft(f)
    rhs = QC(0, 1) * theta_multiply(2, SuperFunction(fhat.comps, "position"))
    assert rhs.comp(TOP).terms[q0] == QC(1)


def test_exchange_identities_random(rng):
    ok, worst, _ = suites.exchange_identities([rand_superfunction(rng) for _ in range(30)])
    assert ok, worst


def test_bracket_table(rng):
    cases = []
    for _ in range(10):
        q = rand_momentum(rng)
        cases += [(q, single_wave(mask, QC(1), q)) for mask in (0, 6, 9, 15)]
    ok, _, detail = suites.bracket_table(cases)
    assert ok, detail


def test_p_commutes(rng):
    assert suites.p_brackets([single_wave(5, QC(1, 2), rand_momentum(rng))])[0]


# -- intertwining --------------------------------------------------------------------

def test_dbar_intertwining(rng):
    ok, _, detail = suites.zeta_intertwining([rand_superfunction(rng) for _ in range(20)])
    assert ok, detail


def test_d2_intertwining(rng):
    # the same check as above, on two plane waves per component
    ok, _, detail = suites.zeta_intertwining([rand_superfunction(rng, 2) for _ in range(20)])
    assert ok, detail


def test_d2_on_constant_superfunction_vs_rest_contraction():
    """For x-independent f the D^2 action is pure theta-contraction:
    eps^{ab} d_a d_b with the rest pairing scaled to zero momentum, i.e.
    D^2 (theta^1 theta^2) = -2 and everything of lower theta degree dies."""
    q0 = (F2(0),) * 4
    f12 = single_wave(mono_mask((1, 2), ()), QC(1), q0)
    out = apply_D2(f12)
    assert out == single_wave(0, QC(-2), q0)
    assert apply_D2(single_wave(mono_mask((1,), ()), QC(1), q0)).is_zero()
    assert apply_D2(single_wave(0, QC(1), q0)).is_zero()


# -- auxiliary Grassmann algebra and group law -----------------------------------------

def test_grasselt_algebra():
    alg = AuxGrassmann(4)
    g0, g1 = aux_gen(alg, 0), aux_gen(alg, 1)
    assert g0 * g1 == -1 * (g1 * g0)
    assert (g0 * g0).is_zero()
    x = alg.scalar(2) + 3 * (g0 * g1)
    y = alg.scalar(QC(0, 1)) + g0
    assert (x * y) * y == x * (y * y)
    assert x.parity() == 0 and g0.parity() == 1 and (x + g0).parity() is None


def test_group_law_properties(rng):
    alg = AuxGrassmann(4)
    ok, _, detail = suites.cbh_group_law(
        [tuple(rand_superpoint(rng, alg) for _ in range(3)) for _ in range(8)])
    assert ok, detail
    # purely even points add coordinate-wise
    u = SuperPoint([rand_even(rng, alg) for _ in range(4)], [alg.element({})] * 2,
                   [alg.element({})] * 2)
    v = SuperPoint([rand_even(rng, alg) for _ in range(4)], [alg.element({})] * 2,
                   [alg.element({})] * 2)
    s = group_law(u, v)
    assert all(s.y[i] == u.y[i] + v.y[i] for i in range(4))


def test_group_law_noncommutativity_shift():
    """The even shift i Gamma (xi xibar' - xi' xibar) is nonzero for generic
    odd coordinates: the group is noncommutative."""
    alg = AuxGrassmann(4)
    z2 = [alg.element({})] * 2
    u = SuperPoint([alg.scalar(0)] * 4, [aux_gen(alg, 0), alg.element({})], z2)
    v = SuperPoint([alg.scalar(0)] * 4, z2, [aux_gen(alg, 1), alg.element({})])
    uv, vu = group_law(u, v), group_law(v, u)
    assert uv != vu
    diff = uv.y[0] - vu.y[0]
    assert not diff.is_zero()


def test_superpoint_grade_check():
    alg = AuxGrassmann(2)
    with pytest.raises(GradeMismatch):
        SuperPoint([aux_gen(alg, 0)] * 4, [alg.element({})] * 2, [alg.element({})] * 2)
    with pytest.raises(GradeMismatch):
        SuperPoint([alg.scalar(1)] * 4, [alg.scalar(1), alg.element({})],
                   [alg.element({})] * 2)


def test_superfunction_json_round_trip(rng):
    f = SuperFunction({}, "position")
    for mask in (0, 3, 9, 15):
        q = tuple(round(rng.uniform(-2, 2), 6) for _ in range(4))
        f = f + single_wave(mask, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), q)
    f2 = SuperFunction.from_json(f.to_json())
    assert (f - f2).max_abs() < 1e-12
    assert f2.side == "position"


@pytest.mark.parametrize("components, needle", [
    ({"21|": [[1, 0, 1, 0, 0, 0, 1]]}, "bad monomial key '21|'"),
    ({"|": [[1, 0, 1, 0, 0, 0, 1]], "1|": [[1, 0, 1, 0, 0, 0, 1], [1, 0, True, 0, 0, 0, 1]]},
     "component '1|': row 1: "),
    ({"2|": [[float("nan"), 0, 1, 0, 0, 0, 1]]}, "component '2|': row 0: "),
    ({"|1": [[1, 0, 1, 0, 0, 0, 0]]}, "component '|1': row 0: "),
])
def test_superfunction_from_json_names_the_bad_key_or_row(components, needle):
    with pytest.raises(ValueError) as err:
        SuperFunction.from_json({"components": components})
    assert needle in str(err.value)


# -- no stored zeros ------------------------------------------------------------------

# few coefficient values and momenta, so sums and operator images cancel often
_COEF = st.sampled_from([QC(1), QC(-1), QC(0, 1), QC(2, -1), QC(0)])
_MOMENTA = [MomentumKey(q) for q in ((F2(1), F2(0), F2(0), F2(0)),
                                     (F2(2), F2(1), F2(0), F2(1, 2)),
                                     (F2(-1), F2(0), F2(3, 4), F2(0)))]
_PW = st.dictionaries(st.sampled_from(_MOMENTA), _COEF, max_size=3).map(PlaneWaveFn)
_SF = st.dictionaries(st.sampled_from(MONOMIALS), _PW, max_size=5).map(
    lambda comps: SuperFunction(comps, "position"))
_MV = st.dictionaries(st.sampled_from(MONOMIALS), _COEF, max_size=6).map(Multivector)
_ALG = AuxGrassmann(4)
_GE = st.dictionaries(st.sampled_from(MONOMIALS), _COEF, max_size=6).map(
    lambda coeffs: GrassElt(_ALG, coeffs))
_SCALAR = st.sampled_from([0, 1, -1, QC(0), QC(1, 1), F2(-1, 2)])


def _clean_pw(g):
    return all(g.terms.values())


def _clean_sf(f):
    return all(g.terms and _clean_pw(g) for g in f.comps.values())


@given(_SF, _SF, _SCALAR)
def test_superfunctions_never_store_zeros(f, g, s):
    results = [f + g, f - g, f - f, f + (-1) * f, f * s, s * f, apply_D2(f)]
    results += [op(a, f) for op in (apply_Q, apply_Qbar, apply_D, apply_Dbar) for a in (1, 2)]
    assert all(_clean_sf(h) for h in results)
    assert (f - f).is_zero() and not (f - f).comps


@given(_PW, _PW, _SCALAR)
def test_plane_wave_sums_never_store_zeros(g, h, s):
    assert all(_clean_pw(x) for x in (g + h, g - h, g - g, g * s, s * g, -g))
    assert (g - g).is_zero() and not (g - g).terms


@given(_MV, _MV, _SCALAR, st.sampled_from([1, 2]), _GE)
def test_multivectors_never_store_zeros(u, v, s, a, x):
    B = suites.rand_pairing(random.Random(a))
    results = [u + v, u - v, u - u, u * s, s * u, -u]
    results += [act(a, B)(u) for act in (d_action, dbar_action, q_action, qbar_action)]
    results += [act(a, PairingMatrix.identity())(u)
                for act in (d_action, dbar_action, q_action, qbar_action)]
    # Lambda_4 elements: +, - and == lift a scalar; * is by a scalar or the wedge
    results += [x + s, s + x, x - x, x - s, s - x, x * s, s * x, -x, x * x, x * (x + s)]
    assert all(all(y.coeffs.values()) for y in results)
    assert (x - s) + s == x and x - x == 0


def test_superfunction_rejects_a_component_that_is_not_a_plane_wave_sum():
    with pytest.raises(TypeError):
        SuperFunction({0: QC(1)})


def test_sparse_sums_compare_by_difference():
    """Exact and float data that round equal compare equal in all four sparse
    sums; superfunctions on different sides do not; a GrassElt lifts a scalar."""
    third, q = QC(F2(1, 3)), (F2(1), F2(0), F2(0), F2(0))
    alg = AuxGrassmann(2)
    assert Multivector({0: third}) == Multivector({0: 1 / 3})
    assert Multivector({0: third}) != Multivector({0: 1 / 3 + 1e-9})
    assert PlaneWaveFn({q: third}) == PlaneWaveFn({q: 1 / 3})
    assert alg.element({1: third}) == alg.element({1: 1 / 3})
    assert single_wave(3, third, q) == single_wave(3, 1 / 3, q)
    assert single_wave(3, third, q) != single_wave(3, third, q, side="momentum")
    assert alg.scalar(2) == 2 and alg.element({}) == 0 and aux_gen(alg, 0) != 0
