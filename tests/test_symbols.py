from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import ONSHELL_EXACT, act_on_momentum, multiplicity, rand_momentum

from superkit import conventions, linalg, suites
from superkit.exactnum import QC, as_complex, coerce
from superkit.grassmann import (EndoW, Multivector, PairingMatrix, build_d2, int_plus,
                                mono_mask)
from superkit.spin_geometry import (gamma_pair, m2_dagger, m2_inv_unimodular,
                                    minkowski_norm2)
from superkit.suites import rand_onshell, rand_shell_sample
from superkit.symbols import (DegenerateOrder, dirac_kernel_dim,
                              dirac_symbol, divergence_kernel_dim, divergence_symbol,
                              gamma_matrix, propagate,
                              superspin0_constraints, sym_tensor_dim,
                              zeta_d2, zeta_dbar2, zeta_i2)

B12 = mono_mask((), (1, 2))
F2 = Fraction


def test_zeta_int_at_rest_equals_rest_operator():
    B = gamma_pair((1, 0, 0, 0))
    assert EndoW.from_action(lambda mv: int_plus(1, B, mv)) == \
        EndoW.from_action(lambda mv: int_plus(1, PairingMatrix.identity(), mv))


def test_zeta_int_table_entry():
    # at p = e^2 the (1,1) pairing vanishes
    B = gamma_pair((0, 0, 1, 0))
    assert int_plus(1, B, Multivector.basis(mono_mask((), (1,)))).is_zero()
    assert int_plus(1, B, Multivector.basis(mono_mask((), (2,)))) == Multivector.basis(0, 1)


def test_zeta_i2_top_gives_norm(rng):
    for _ in range(10):
        p = rand_momentum(rng)
        out = zeta_i2(p)(Multivector.basis(B12))
        assert out == Multivector.basis(0, minkowski_norm2(p))


def test_zeta_d2_display_on_chiral_element(rng):
    """zeta_d2 applied to the chiral family: the top-slot coefficient of the
    output equals the F parameter scaled by 2 and the tau^a slots carry
    -4 |p|^2 psi_a (the composed operator's exact bookkeeping)."""
    from superkit.grassmann import chiral_kernel
    p = rand_momentum(rng)
    B = gamma_pair(p)
    x_phi, x_psi1, x_psi2, x_f = chiral_kernel(B)
    out = zeta_d2(p)(x_f)
    assert out[mono_mask((1, 2), (1, 2))] == 2
    out_psi = zeta_d2(p)(x_psi1)
    assert out_psi[mono_mask((1,), ())] == -4 * coerce(minkowski_norm2(p))


def test_float_symbols_match_the_exact_builders(rng):
    """At a float momentum zeta_d2, zeta_dbar2 and zeta_i2 evaluate their
    polynomial in p; it must agree with the exact symbol at the same point."""
    for _ in range(20):
        p = rand_momentum(rng)
        pf = tuple(float(x) for x in p)
        for zeta in (zeta_d2, zeta_dbar2, zeta_i2):
            exact = zeta(p)
            assert all(isinstance(x, QC) for row in exact.mat for x in row)
            ref = np.array([[complex(x) for x in row] for row in exact.mat])
            got = zeta(pf)
            assert isinstance(got, np.ndarray) and got.dtype == np.complex128
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_propagation_route_equivalence(rng):
    ok, worst, _ = suites.propagation_route([rand_shell_sample(rng) for _ in range(30)], 1e-9)
    assert ok, worst


def test_propagate_at_rest_is_identity_map():
    u = zeta_d2((2.0, 0.0, 0.0, 0.0))
    [prop] = propagate([u], (2.0, 0.0, 0.0, 0.0), 2.0)
    assert np.abs(prop - u).max() < 1e-12


def test_zeta_equivariance_of_d2(rng):
    """zeta_{d^2}(h.p) = rho(h) zeta_{d^2}(p) rho(h)^-1 for random boosts."""
    from superkit.spin_geometry import spin_action_endo
    from conftest import rand_sl2
    for _ in range(10):
        h = rand_sl2(rng)
        p = tuple(rng.uniform(-2, 2) for _ in range(4))
        hp = act_on_momentum(h, p)
        rho = spin_action_endo(h)
        rho_inv = spin_action_endo(h.inverse())
        lhs = zeta_d2(hp)
        rhs = rho @ zeta_d2(p) @ rho_inv
        assert np.abs(lhs - rhs).max() < 1e-7 * max(1.0, np.abs(lhs).max())


def test_gamma_matrix_squares_to_norm(rng):
    for _ in range(10):
        p = rand_momentum(rng)
        g = gamma_matrix(p)
        sq = linalg.mat_mul(g, g)
        n2 = coerce(minkowski_norm2(p))
        for i in range(4):
            for j in range(4):
                assert sq[i][j] == (n2 if i == j else 0)


def test_dirac_kernel_dims():
    assert dirac_kernel_dim((1, 0, 0, 0), 1) == 2
    for p in ONSHELL_EXACT:
        assert dirac_kernel_dim(p, 1) == 2
    assert dirac_kernel_dim((2, 0, 0, 0), 1) == 0  # |p|^2 = 4 m^2


def test_dirac_kernel_dims_float(rng):
    ok, _, detail = suites.dirac_kernel([rand_shell_sample(rng) for _ in range(50)])
    assert ok, detail


def test_divergence_rest_trace_pairing():
    # alpha=beta=1/2 at rest: the map S+* (x) S-* -> C is m * trace pairing
    mat = divergence_symbol(F2(1, 2), F2(1, 2), (3, 0, 0, 0))
    assert len(mat) == 1 and len(mat[0]) == 4
    assert [as_complex(x) for x in mat[0]] == [3, 0, 0, 3]
    assert divergence_kernel_dim(F2(1, 2), F2(1, 2), (3, 0, 0, 0)) == 3


def test_divergence_kernel_dims(rng):
    for alpha, beta in ((F2(1, 2), F2(1, 2)), (1, F2(1, 2)), (1, 1),
                        (F2(3, 2), 1), (2, 1)):
        two_s = int(2 * (alpha + beta))
        for p in ONSHELL_EXACT[:2]:
            dim = divergence_kernel_dim(alpha, beta, p)
            assert dim == two_s + 1
            total = sym_tensor_dim(int(2 * alpha), int(2 * beta))
            rank = total - dim
            assert rank == int(2 * alpha) * int(2 * beta)


def test_divergence_polarization_oracle(rng):
    """Brute-force polarization oracle: embed a symmetric monomial as the
    average of its arrangement words, contract the first slot of each tensor
    factor with the pairing, re-collect symmetric monomials.  The result must
    be the derivative-form matrix divided by (2a)(2b)."""
    from math import comb
    for alpha, beta in ((F2(1, 2), F2(1, 2)), (1, F2(1, 2)), (1, 1), (2, F2(1, 2))):
        two_a, two_b = int(2 * alpha), int(2 * beta)
        p = rand_momentum(rng)
        B = gamma_pair(p)
        mat = divergence_symbol(alpha, beta, p)

        def words(two_s, k):
            return [w for w in product((1, 2), repeat=two_s) if w.count(1) == k]

        for k in range(two_a + 1):
            for l in range(two_b + 1):
                col = k * (two_b + 1) + l
                norm = Fraction(1, comb(two_a, k) * comb(two_b, l))
                oracle = {}
                for wa in words(two_a, k):
                    for wb in words(two_b, l):
                        c = B[wa[0], wb[0]] * norm
                        key = (wa[1:].count(1), wb[1:].count(1))
                        oracle[key] = oracle.get(key, coerce(0)) + c
                for nk in range(two_a):
                    for nl in range(two_b):
                        row = nk * two_b + nl
                        got = oracle.get((nk, nl), coerce(0))
                        want = mat[row][col] * Fraction(1, two_a * two_b)
                        assert got == want


def test_divergence_errors():
    with pytest.raises(DegenerateOrder):
        divergence_symbol(0, 1, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        divergence_symbol(0.3, 1, (1, 0, 0, 0))
    with pytest.raises(TypeError):
        divergence_kernel_dim(1, 1, (1.0, 0, 0, 0))


def test_superspin0_factors(rng):
    ok, _, detail = suites.superspin0_elimination(
        [(rand_momentum(rng), F2(rng.randint(1, 3))) for _ in range(10)])
    assert ok, detail


def test_superspin0_rest_frame_reduction():
    # with no samples, the check is the rest-frame reduction alone
    ok, _, detail = suites.superspin0_elimination([])
    assert ok, detail


def test_superspin0_solution_dims():
    assert superspin0_constraints(ONSHELL_EXACT[0], 1).solution_dims_paired(0.0) == (2, 2)
    assert superspin0_constraints((3, 0, 0, 0), 1).solution_dims_paired(0.0) == (0, 0)
    # a float bosonic factor counts as zero up to and including the tolerance
    exact_zero = superspin0_constraints((1.25, 0.6, 0.0, 0.45), 1)
    assert exact_zero.bosonic_factor == 0 and exact_zero.solution_dims_paired(0.0) == (2, 2)
    near = superspin0_constraints((1.25, 0.6, 0.0, 0.46), 1)
    assert near.solution_dims_paired(1e-9) == (0, 0)
    assert near.solution_dims_paired(0.01) == (2, 2)


def test_symbols_follow_a_patched_eps_lower(monkeypatch):
    """zeta_d2 reads eps_lower from the ledger on each call, exact and float:
    negating eps negates d^2, and the float fit is redone for the new table."""
    B = gamma_pair((F2(13, 12), F2(5, 12), 0, 0))
    p = (1.25, 0.6, 0.0, 0.45)
    exact, fitted = build_d2(B), zeta_d2(p)
    monkeypatch.setattr(conventions, "EPS_LOWER", ((0, -1), (1, 0)))
    assert build_d2(B) == -1 * exact
    assert np.array_equal(zeta_d2(p), -fitted)


def test_multiplicity_ladder():
    assert multiplicity(1, F2(1, 2), F2(1, 2)) == 1
    assert multiplicity(0, F2(1, 2), F2(1, 2)) == 1
    assert multiplicity(2, F2(1, 2), F2(1, 2)) == 0
    assert multiplicity(3, 3, 0) == 1
    assert multiplicity(F2(1, 2), 1, F2(1, 2)) == 1
    assert multiplicity(1, 1, F2(1, 2)) == 0
    assert multiplicity(F2(7, 2), 2, F2(3, 2)) == 1
    assert multiplicity(F2(1, 2), 2, F2(3, 2)) == 1
    assert multiplicity(0, 2, F2(3, 2)) == 0


def dirac_spin_matrix(h):
    """Spin action on Dirac columns: block diag(A, (A^dagger)^-1).

    Conjugation by it carries gamma(p) to gamma(h.p); together with
    gamma(me^0)/m - Id it realizes the propagated Dirac selector
    gamma(p)/m - Id.
    """
    a = h.a
    v = m2_inv_unimodular(m2_dagger(a))
    z = coerce(0)
    return [
        [a[0][0], a[0][1], z, z],
        [a[1][0], a[1][1], z, z],
        [z, z, v[0][0], v[0][1]],
        [z, z, v[1][0], v[1][1]],
    ]


def test_dirac_symbol_propagation_route(rng):
    """gamma(p)/m - Id equals the boost-conjugated rest selector
    S(h_p) (gamma(m e^0)/m - Id) S(h_p)^-1 on Dirac space."""
    from superkit.spin_geometry import rest_boost
    for _ in range(10):
        m = rng.uniform(0.4, 3.0)
        p = rand_onshell(rng, m)
        h = rest_boost(p, m)
        s = [[as_complex(x) for x in row] for row in dirac_spin_matrix(h)]
        s_inv = [[as_complex(x) for x in row]
                 for row in dirac_spin_matrix(h.inverse())]
        rest = [[as_complex(x) for x in row]
                for row in dirac_symbol((m, 0.0, 0.0, 0.0), m)]
        prop = linalg.mat_mul(linalg.mat_mul(s, rest), s_inv)
        closed = [[as_complex(x) for x in row] for row in dirac_symbol(p, m)]
        err = max(abs(prop[i][j] - closed[i][j]) for i in range(4) for j in range(4))
        assert err < 1e-9
