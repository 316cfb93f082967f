from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import rand_momentum, rand_qc, rand_superfunction

from superkit import conventions
from superkit.exactnum import QC
from superkit.grassmann import MONOMIALS, Multivector, mono_mask
from superkit.spin_geometry import gamma_lower
from superkit.superfourier import (AuxGrassmann, GradeMismatch, MomentumKey,
                                   PlaneWaveFn,
                                   SideMismatch, SuperFunction, SuperPoint,
                                   apply_D, apply_D2, apply_Dbar, apply_Dbar2,
                                   apply_P, apply_Q, apply_Qbar,
                                   apply_zeta_momentum, berezin_integral,
                                   body_restriction, exchange_check,
                                   graded_bracket, group_law, hodge_star,
                                   inverse_super_ft, single_wave, super_ft,
                                   theta_derivative, theta_multiply)
from superkit.symbols import zeta_d2_action, zeta_dbar_action

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
    assert -nk == k and hash(-nk) == hash(q) and type(-nk) is MomentumKey


@given(momenta, st.sampled_from([1, -1]))
def test_plain_tuple_lookups_hit_the_same_terms(q, sign):
    pw = PlaneWaveFn.wave(QC(1, 2), list(q), sign=sign)
    (key, a), = pw.terms.items()
    assert type(key) is MomentumKey
    plain = q if sign > 0 else tuple(-x for x in q)
    assert pw.terms[plain] == a == QC(1, 2)
    f = SuperFunction({TOP: pw})
    assert f.at_momentum(plain) == f.at_momentum(key) == f.at_momentum(list(plain))
    assert f.at_momentum(plain) == Multivector({TOP: QC(1, 2)})


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

STAR_CASES = [
    (mono_mask((), ()), TOP, QC(1)),
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
    (TOP, mono_mask((), ()), QC(1)),
]


@pytest.mark.parametrize("src,tgt,fac", STAR_CASES)
def test_hodge_star_all_sixteen(src, tgt, fac):
    assert hodge_star(Multivector.basis(src)) == Multivector.basis(tgt, fac)


def test_hodge_star_fourth_power_identity(rng):
    mv = Multivector({m: rand_qc(rng) for m in MONOMIALS})
    out = mv
    for _ in range(4):
        out = hodge_star(out)
    assert out == mv


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
    for _ in range(5):
        f = rand_superfunction(rng, 2)
        assert inverse_super_ft(super_ft(f)) == f


def test_berezin_and_body(rng):
    q = rand_momentum(rng)
    g = PlaneWaveFn.wave(QC(2, 3), q)
    f = SuperFunction({TOP: g}, "position")
    assert berezin_integral(f) == g
    assert berezin_integral(single_wave(mono_mask((1,), ()), QC(1), q)).is_zero()
    for _ in range(5):
        h = rand_superfunction(rng)
        assert body_restriction(h) == berezin_integral(super_ft(h))
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
    for _ in range(30):
        f = rand_superfunction(rng)
        rep = exchange_check(f)
        assert all(v == 0 for v in rep.values()), rep


def test_bracket_table(rng):
    ops = {"Q": apply_Q, "Qbar": apply_Qbar, "D": apply_D, "Dbar": apply_Dbar}
    vanishing = (("Q", "Q"), ("Qbar", "Qbar"), ("D", "D"), ("Dbar", "Dbar"),
                 ("Q", "D"), ("Q", "Dbar"), ("Qbar", "D"), ("Qbar", "Dbar"))
    for _ in range(10):
        q = rand_momentum(rng)
        gl = gamma_lower(q)
        for mask in (0, 6, 9, 15):
            f = single_wave(mask, QC(1), q)
            for a in (1, 2):
                for b in (1, 2):
                    qq = graded_bracket(lambda g, a=a: apply_Q(a, g),
                                        lambda g, b=b: apply_Qbar(b, g), f)
                    dd = graded_bracket(lambda g, a=a: apply_D(a, g),
                                        lambda g, b=b: apply_Dbar(b, g), f)
                    assert qq == (-2 * gl[a - 1][b - 1]) * f
                    assert dd == (2 * gl[a - 1][b - 1]) * f
                    for n1, n2 in vanishing:
                        z = graded_bracket(lambda g, a=a, o=ops[n1]: o(a, g),
                                           lambda g, b=b, o=ops[n2]: o(b, g), f)
                        assert z.is_zero(), (n1, n2, a, b)


def test_p_commutes(rng):
    q = rand_momentum(rng)
    f = single_wave(5, QC(1, 2), q)
    for mu in range(4):
        for op in (apply_Q, apply_Qbar, apply_D, apply_Dbar):
            for a in (1, 2):
                assert (apply_P(mu, op(a, f)) - op(a, apply_P(mu, f))).is_zero()


# -- intertwining --------------------------------------------------------------------

def test_dbar_intertwining(rng):
    for _ in range(20):
        f = rand_superfunction(rng)
        fhat = super_ft(f)
        for a in (1, 2):
            lhs = super_ft(apply_Dbar(a, f))
            rhs = SuperFunction({}, "momentum")
            for b in (1, 2):
                e = conventions.EPS_LOWER[a - 1][b - 1]
                if e:
                    rhs = rhs + QC(0, e) * apply_zeta_momentum(
                        lambda p, b=b: zeta_dbar_action(p, b), fhat)
            assert lhs == rhs


def test_d2_intertwining(rng):
    for _ in range(20):
        f = rand_superfunction(rng)
        lhs = super_ft(apply_D2(f))
        rhs = (-1) * apply_zeta_momentum(zeta_d2_action, super_ft(f))
        assert lhs == rhs


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
    g0, g1 = alg.gen(0), alg.gen(1)
    assert g0 * g1 == -1 * (g1 * g0)
    assert (g0 * g0).is_zero()
    x = alg.scalar(2) + 3 * (g0 * g1)
    y = alg.scalar(QC(0, 1)) + g0
    assert (x * y) * y == x * (y * y)
    assert x.parity() == 0 and g0.parity() == 1 and (x + g0).parity() is None
    # graded conjugation reverses products
    assert (g0 * g1).conjugate() == g1 * g0
    assert (g0 * g1 * alg.gen(2)).conjugate() == -1 * (g0 * g1 * alg.gen(2))


def test_group_law_properties(rng):
    alg = AuxGrassmann(4)

    def rand_even():
        out = alg.scalar(rng.randint(-3, 3))
        for i in range(4):
            for j in range(i + 1, 4):
                out = out + rng.randint(-2, 2) * (alg.gen(i) * alg.gen(j))
        return out

    def rand_odd():
        out = alg.element({})
        for i in range(4):
            out = out + rng.randint(-2, 2) * alg.gen(i)
        return out

    def rand_point():
        return SuperPoint([rand_even() for _ in range(4)],
                          [rand_odd(), rand_odd()], [rand_odd(), rand_odd()])

    zero = SuperPoint([alg.scalar(0)] * 4, [alg.element({})] * 2,
                      [alg.element({})] * 2)
    for _ in range(8):
        u, v, w = rand_point(), rand_point(), rand_point()
        assert group_law(u, zero) == u and group_law(zero, u) == u
        assert group_law(u, u.negate()) == zero
        assert group_law(group_law(u, v), w) == group_law(u, group_law(v, w))
    # purely even points add coordinate-wise
    u = SuperPoint([rand_even() for _ in range(4)], [alg.element({})] * 2,
                   [alg.element({})] * 2)
    v = SuperPoint([rand_even() for _ in range(4)], [alg.element({})] * 2,
                   [alg.element({})] * 2)
    s = group_law(u, v)
    assert all(s.y[i] == u.y[i] + v.y[i] for i in range(4))


def test_group_law_noncommutativity_shift():
    """The even shift i Gamma (xi xibar' - xi' xibar) is nonzero for generic
    odd coordinates: the group is noncommutative."""
    alg = AuxGrassmann(4)
    z2 = [alg.element({})] * 2
    u = SuperPoint([alg.scalar(0)] * 4, [alg.gen(0), alg.element({})], z2)
    v = SuperPoint([alg.scalar(0)] * 4, z2, [alg.gen(1), alg.element({})])
    uv, vu = group_law(u, v), group_law(v, u)
    assert uv != vu
    diff = uv.y[0] - vu.y[0]
    assert not diff.is_zero()


def test_superpoint_grade_check():
    alg = AuxGrassmann(2)
    with pytest.raises(GradeMismatch):
        SuperPoint([alg.gen(0)] * 4, [alg.element({})] * 2, [alg.element({})] * 2)
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
