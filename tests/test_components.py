import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (ONSHELL_EXACT, act_on_momentum, apply_matrix, rand_momentum, rand_qc,
                      rand_sl2, wz_columns)

from superkit import conventions, linalg
from superkit.components import (ChiralData, Grid4, GridTooSmall, NotChiral,
                                 chiral_expand, component_reduce,
                                 dirac_residual, extract_chiral, f_residual,
                                 grid_residual, is_chiral, kg_residual,
                                 residuals_vanish, solution_generator, wz_conjugate,
                                 wz_equivalence_check, wz_operator, _conjugate_with_signs,
                                 _lambda_module_dims, _max_abs_interior, _unit_chiral)
from superkit.exactnum import QC, as_complex, coerce, conj
from superkit.grassmann import mono_mask
from superkit.spin_geometry import OffOrbit, gamma_lower, \
    minkowski_norm2, spin_action_endo
from superkit.superfourier import (PlaneWaveFn, SuperFunction, apply_D, apply_Q,
                                   single_wave)

F2 = Fraction
P1 = ONSHELL_EXACT[0]


def _rand_chiral(rng, momenta):
    def pw():
        out = PlaneWaveFn.zero()
        for q in momenta:
            out = out + PlaneWaveFn.wave(rand_qc(rng), q)
        return out
    return ChiralData(pw(), (pw(), pw()), pw())


# -- chiral expansion -------------------------------------------------------------

def test_chiral_expand_constant():
    q0 = (F2(0),) * 4
    c = ChiralData(PlaneWaveFn.wave(QC(1), q0),
                   (PlaneWaveFn.zero(), PlaneWaveFn.zero()), PlaneWaveFn.zero())
    f = chiral_expand(c)
    assert f == single_wave(0, QC(1), q0)


def test_chiral_expand_plane_wave_components(rng):
    q = rand_momentum(rng)
    c = ChiralData(PlaneWaveFn.wave(QC(1), q),
                   (PlaneWaveFn.zero(), PlaneWaveFn.zero()), PlaneWaveFn.zero())
    f = chiral_expand(c)
    gl = gamma_lower(q)
    # theta-thetabar component carries -i Gamma d phi = Gamma(q) phi per wave
    for a in (1, 2):
        for b in (1, 2):
            got = f.comp(mono_mask((a,), (b,))).terms.get(q, QC(0))
            assert got == gl[a - 1][b - 1]
    # top component is box phi = -|q|^2 phi
    assert f.comp(mono_mask((1, 2), (1, 2))).terms[q] == -coerce(minkowski_norm2(q))


def test_chiral_expand_annihilated_by_dbar(rng):
    for _ in range(10):
        momenta = [rand_momentum(rng) for _ in range(2)]
        f = chiral_expand(_rand_chiral(rng, momenta))
        assert is_chiral(f)
        assert not (apply_D(1, f).is_zero() and apply_D(2, f).is_zero())


def test_extract_chiral_round_trip(rng):
    c = _rand_chiral(rng, [rand_momentum(rng)])
    f = chiral_expand(c)
    c2 = extract_chiral(f)
    assert c2.phi == c.phi and c2.F == c.F
    assert c2.psi[0] == c.psi[0] and c2.psi[1] == c.psi[1]
    with pytest.raises(NotChiral):
        extract_chiral(single_wave(mono_mask((), (1,)), QC(1), (F2(1), 0, 0, 0)))


# -- conjugations ------------------------------------------------------------------

def conjugate_sf(f):
    """The in-place antilinear conjugation c-sharp of the real-superfunction
    discussion: component at (I, J) goes to (J, I) with sign (-1)^(|I||J|)."""
    f.require_side("position")
    return _conjugate_with_signs(f, conventions.CSHARP_SIGNS)


def test_conjugate_sf_involution_and_reality(rng):
    for _ in range(5):
        f = SuperFunction({}, "position")
        for mask in (0, 1, 5, 12, 15):
            f = f + single_wave(mask, rand_qc(rng), rand_momentum(rng))
        assert conjugate_sf(conjugate_sf(f)) == f
        assert wz_conjugate(wz_conjugate(f)) == f
    # real superfunction: phi real, eta = conj(psi), G = conj(F), H real
    q = rand_momentum(rng)
    qn = tuple(-x for x in q)
    psi = rand_qc(rng)
    F = rand_qc(rng)
    f = SuperFunction({}, "position")
    f = f + single_wave(0, QC(1), q) + single_wave(0, QC(1), qn)          # real phi
    f = f + single_wave(mono_mask((1,), ()), psi, q)                       # psi_1
    f = f + single_wave(mono_mask((), (1,)), conj(psi), qn, sign=1)        # eta_1 = conj
    f = f + single_wave(mono_mask((1, 2), ()), F, q)
    f = f + single_wave(mono_mask((), (1, 2)), conj(F), qn)
    assert conjugate_sf(f) == f


def test_conjugate_sf_sign_table():
    q0 = (F2(0),) * 4
    # c-sharp on the (1,1) sector picks up the in-place reordering sign
    f = single_wave(mono_mask((1,), (2,)), QC(1), q0)
    out = conjugate_sf(f)
    assert out.comp(mono_mask((2,), (1,))).terms[q0] == QC(-1)
    # the graded dagger keeps the (1,1) sector positive but flips (2,0)
    out2 = wz_conjugate(f)
    assert out2.comp(mono_mask((2,), (1,))).terms[q0] == QC(1)
    g = single_wave(mono_mask((1, 2), ()), QC(1), q0)
    assert wz_conjugate(g).comp(mono_mask((), (1, 2))).terms[q0] == QC(-1)
    assert conjugate_sf(g).comp(mono_mask((), (1, 2))).terms[q0] == QC(1)


def test_conjugation_kernels(rng):
    """The graded dagger maps the chiral kernel to the antichiral one; the
    in-place conjugation lands in the Q kernel instead (decisions ledger)."""
    f = chiral_expand(_rand_chiral(rng, [rand_momentum(rng)]))
    dag = wz_conjugate(f)
    assert apply_D(1, dag).is_zero() and apply_D(2, dag).is_zero()
    csh = conjugate_sf(f)
    assert apply_Q(1, csh).is_zero() and apply_Q(2, csh).is_zero()
    assert not (apply_D(1, csh).is_zero() and apply_D(2, csh).is_zero())


# -- Wess-Zumino operator ------------------------------------------------------------

def test_wz_zero_mass_constant():
    q0 = (F2(0),) * 4
    f = single_wave(0, QC(1), q0)
    assert wz_operator(f, 0).is_zero()


def test_wz_requires_chiral():
    with pytest.raises(NotChiral):
        wz_operator(single_wave(mono_mask((), (1,)), QC(1), (F2(1), 0, 0, 0)), 1)


def test_wz_vanishes_on_generated_solutions(rng):
    for p in ONSHELL_EXACT:
        sol = solution_generator(p, 1, seed_a=rand_qc(rng),
                                 seed_u=(rand_qc(rng), rand_qc(rng)))
        f = chiral_expand(sol)
        assert wz_operator(f, 1).is_zero()
        assert residuals_vanish(component_reduce(f, 1))


def test_wz_nonzero_off_shell():
    c = ChiralData(PlaneWaveFn.wave(QC(1), (F2(3), F2(1), F2(1), F2(1))),
                   (PlaneWaveFn.zero(), PlaneWaveFn.zero()), PlaneWaveFn.zero())
    f = chiral_expand(c)
    assert not wz_operator(f, 1).is_zero()
    res = component_reduce(f, 1)
    assert not res["kg_residual"].is_zero()


def test_wz_kernel_equals_component_system(rng):
    """wz(f) = 0 iff the Klein-Gordon, Dirac, and F residuals vanish: the two
    linear systems on two-frequency chiral data have identical kernels."""
    for p in (ONSHELL_EXACT[2], ONSHELL_EXACT[3]):
        wz_mat = wz_columns(p, 1)
        wz_kernel = linalg.null_space(wz_mat)
        pneg = tuple(-x for x in p)
        cols = []
        for idx in range(8):
            for val in (QC(1), QC(0, 1)):
                c = _unit_chiral(p, idx, val)
                res = [kg_residual(c, 1), f_residual(c, 1), *dirac_residual(c, 1)]
                col = []
                for r in res:
                    for mom in (p, pneg):
                        z = coerce(r.terms.get(mom, QC(0)))
                        col.append(z.re)
                        col.append(z.im)
                cols.append(col)
        res_mat = [[cols[c][r] for c in range(16)] for r in range(len(cols[0]))]
        res_kernel = linalg.null_space(res_mat)
        assert len(wz_kernel) == len(res_kernel) == 8
        assert linalg.same_span(wz_kernel, res_kernel)


def test_residual_examples(rng):
    # on-shell plane wave: kg residual vanishes
    c = ChiralData(PlaneWaveFn.wave(QC(1), P1),
                   (PlaneWaveFn.zero(), PlaneWaveFn.zero()), PlaneWaveFn.zero())
    assert kg_residual(c, 1).is_zero()
    # generated fermion pairing: dirac residual vanishes at rest
    sol = solution_generator((F2(1), 0, 0, 0), 1, seed_a=0, seed_u=(QC(1), QC(2, 1)))
    for r in dirac_residual(sol, 1):
        assert r.is_zero()
    # rest-frame generated pairing: w = eps conj(u) up to the ledger sign
    u = (QC(1), QC(2, 1))
    w = [sol.psi[b - 1].terms[(F2(-1), 0, 0, 0)] for b in (1, 2)]
    assert w[0] == conj(u[1]) and w[1] == -conj(u[0])
    # random off-shell data: residuals generically nonzero
    bad = _rand_chiral(rng, [rand_momentum(rng)])
    res = [kg_residual(bad, 1), f_residual(bad, 1), *dirac_residual(bad, 1)]
    assert any(not r.is_zero() for r in res)


def test_solution_generator_off_orbit():
    with pytest.raises(OffOrbit):
        solution_generator((F2(3), F2(1), F2(1), F2(1)), 1)
    with pytest.raises(OffOrbit):
        solution_generator((F2(-2), F2(1), F2(1), F2(1)), 1)


def test_solution_generator_boost_equivariance(rng):
    """Transporting a rest solution with a random boost gives a solution at
    the boosted momentum: the WZ kernel is Poincare-invariant."""
    for _ in range(5):
        h = rand_sl2(rng)
        rest = (1.0, 0.0, 0.0, 0.0)
        sol = solution_generator(rest, 1.0, seed_a=0.3 + 0.1j, seed_u=(1.0, 0.5j))
        f = chiral_expand(sol)
        rho = spin_action_endo(h)
        out = {}
        for q in f.all_momenta():
            mv = apply_matrix(rho, f.at_momentum(q))
            hq = act_on_momentum(h, q)
            for mask, coeff in mv.coeffs.items():
                out.setdefault(mask, {})[hq] = coeff
        fb = SuperFunction({m: PlaneWaveFn(t) for m, t in out.items()}, "position")
        assert is_chiral(fb, 1e-9)
        assert wz_operator(fb, 1.0, tol=1e-9).is_zero(1e-9)


# -- grids -----------------------------------------------------------------------------

def test_grid_requires_five_points():
    with pytest.raises(GridTooSmall):
        Grid4(4, 0.1)


def test_grid_residual_convergence(rng):
    sol = solution_generator(P1, 1, seed_a=QC(1, F2(1, 2)), seed_u=(QC(1), QC(0, 1)))
    r1 = grid_residual(sol, 1, Grid4(9, 0.2))
    r2 = grid_residual(sol, 1, Grid4(9, 0.1))
    assert 3.8 < r1["max_kg"] / r2["max_kg"] < 4.2
    assert 3.8 < r1["max_dirac"] / r2["max_dirac"] < 4.2


def test_grid_residual_zero_fields_and_off_shell():
    zero = ChiralData(PlaneWaveFn.zero(), (PlaneWaveFn.zero(), PlaneWaveFn.zero()),
                      PlaneWaveFn.zero())
    r = grid_residual(zero, 1, Grid4(6, 0.1))
    assert r["max_kg"] == 0 and r["max_dirac"] == 0
    q = (F2(3), F2(1), F2(1), F2(1))  # |q|^2 = 6, m = 1: residual ~ 5
    off = ChiralData(PlaneWaveFn.wave(QC(1), q),
                     (PlaneWaveFn.zero(), PlaneWaveFn.zero()), PlaneWaveFn.zero())
    r = grid_residual(off, 1, Grid4(7, 0.02))
    assert abs(r["max_kg"] - abs(1 - 6)) < 0.05


def _stencil_residual(c, m, grid):
    """Reference for grid_residual: sample each field on the whole grid, take
    np.roll central differences and the max norm over the interior."""
    axes = [grid.origin[mu] + grid.h * np.arange(grid.n) for mu in range(4)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)

    def sample(pw):
        out = np.zeros((grid.n,) * 4, dtype=complex)
        for q, a in pw.terms.items():
            out = out + as_complex(a) * np.exp(1j * sum(float(k) * xk for k, xk in zip(q, x)))
        return out

    def diff(arr, mu):
        return (np.roll(arr, -1, mu) - np.roll(arr, 1, mu)) / (2 * grid.h)

    def diff2(arr, mu):
        return (np.roll(arr, -1, mu) - 2 * arr + np.roll(arr, 1, mu)) / grid.h ** 2

    def interior_max(arr):
        return float(np.abs(arr[(slice(1, -1),) * 4]).max())

    phi, psi = sample(c.phi), [sample(c.psi[0]), sample(c.psi[1])]
    kg = diff2(phi, 0) - diff2(phi, 1) - diff2(phi, 2) - diff2(phi, 3) + float(m) ** 2 * phi
    eps, s = conventions.EPS_UPPER, conventions.WZ_MASS_SIGN
    raised = [sum(eps[b][cc] * np.conj(psi[cc]) for cc in range(2)) for b in range(2)]
    dirac = []
    for a in range(2):
        res = s * float(m) * psi[a]
        for b in range(2):
            for mu, v in enumerate(conventions.GAMMA_LOWER[a][b]):
                res = res + 1j * as_complex(v) * diff(raised[b], mu)
        dirac.append(interior_max(res))
    return {"max_kg": interior_max(kg), "max_dirac": max(dirac)}


@pytest.mark.parametrize("n", [5, 7, 9, 17])
def test_grid_residual_matches_stencil(n):
    rng = random.Random(n)
    eta = 1.3
    boosted = (math.cosh(eta), 0.0, math.sinh(eta) * 0.6, math.sinh(eta) * 0.8)
    q = tuple(rng.uniform(-2, 2) for _ in range(4))
    waves = [PlaneWaveFn.wave(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), q)
             for _ in range(4)]
    cases = [
        # on-shell two-frequency solutions, exact and float coefficients
        solution_generator(rng.choice(ONSHELL_EXACT), 1, seed_a=rand_qc(rng),
                           seed_u=(rand_qc(rng), rand_qc(rng))),
        solution_generator(boosted, 1.0, seed_a=complex(rng.uniform(-1, 1), 0.4),
                           seed_u=(1.0, complex(0.3, rng.uniform(-1, 1)))),
        # a single off-shell wave in every field, exact and float
        _rand_chiral(rng, [rand_momentum(rng)]),
        ChiralData(waves[0], (waves[1], waves[2]), waves[3]),
    ]
    for c in cases:
        for grid in (Grid4(n, rng.uniform(0.1, 0.3)),
                     Grid4(n, rng.uniform(0.1, 0.3),
                           origin=tuple(rng.uniform(-3, 3) for _ in range(4)))):
            got, ref = grid_residual(c, 1, grid), _stencil_residual(c, 1, grid)
            for key in ("max_kg", "max_dirac"):
                assert abs(got[key] - ref[key]) <= 1e-9 * ref[key], (key, got, ref)


def _brute_max_abs_interior(coeffs, grid):
    """Reference for _max_abs_interior: |sum_k c_k e^{i q_k . x}| at every
    interior point."""
    axes = [o + grid.h * np.arange(1, grid.n - 1) for o in grid.origin]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    return float(np.abs(sum(c * np.exp(1j * sum(k * xk for k, xk in zip(q, x)))
                            for q, c in coeffs.items())).max())


def test_nearest_phase_max_matches_brute_force():
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(40):
        grid = Grid4(int(rng.integers(5, 12)), rng.uniform(0.05, 0.5),
                     origin=tuple(rng.uniform(-5, 5, 4)))
        qs = rng.uniform(-4, 4, (2, 4))
        cases.append(({tuple(q): complex(*rng.uniform(-1, 1, 2)) for q in qs}, grid))
    # d = q1 - q0 = e_1 puts the spatial phases at o_1 + 0.5 j; with
    # arg c0 - arg c1 = +-1e-9 the target sits just above 0 or just below 2 pi,
    # and the nearest phase (-0.01 or 0.01) lies across the wrap
    q0 = (0.4, 0.2, -0.3, 0.7)
    q1 = (0.4, 1.2, -0.3, 0.7)
    for o1 in (-0.51, -0.49):
        for e in (1e-9, -1e-9):
            grid = Grid4(7, 0.5, origin=(0.3, o1, 0.7, 1.1))
            cases.append(({q0: complex(math.cos(e), math.sin(e)), q1: 1 + 0j}, grid))
    cases.append(({q0: 0j, q1: 0.3 - 0.4j}, Grid4(6, 0.2, origin=(1.0, -2.0, 0.5, 3.0))))
    # the benchmark's grids (n = 17 and its halving 33), every component of d
    # nonzero, the frequency pair in both orders
    for n in (17, 33):
        for h in (0.2, 0.1):
            qs = rng.uniform(-4, 4, (2, 4))
            qs[1] += np.where(np.abs(qs[1] - qs[0]) < 0.1, 0.5, 0.0)
            c = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
            grid = Grid4(n, h, origin=tuple(rng.uniform(-5, 5, 4)))
            for i, j in ((0, 1), (1, 0)):
                cases.append(({tuple(qs[i]): c[i], tuple(qs[j]): c[j]}, grid))
    # d = (0, 1, 0, 0.1) in turns puts the x_1 x_2 phases at 0.99 and 0.49 (o_1 =
    # -0.01) or 0.01 and 0.51 (o_1 = 0.01); the target of the (t, x_3) line
    # x_3 = 0.5 j steps by -+0.05 from 0.151 (or 0.849), so its nearest phase
    # lies across the wrap for j <= 3 only, and the max sits on j = 3
    for o1, theta, sgn in ((-0.01, 0.151, 1), (0.01, 0.849, -1)):
        d = 2 * np.pi * np.array([0.0, 1.0, 0.0, 0.1 * sgn])
        grid = Grid4(7, 0.5, origin=(0.3, o1, 0.7, 0.0))
        cases.append(({q0: complex(np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)),
                       tuple(np.add(q0, d)): 1 + 0j}, grid))
    for coeffs, grid in cases:
        got, ref = _max_abs_interior(coeffs, grid), _brute_max_abs_interior(coeffs, grid)
        assert abs(got - ref) <= 1e-12 * ref, (coeffs, got, ref)


def test_nearest_phase_max_frequency_count():
    grid = Grid4(6, 0.2, origin=(0.1, 0.2, 0.3, 0.4))
    assert _max_abs_interior({}, grid) == 0.0
    one = {(0.3, -1.0, 2.0, 0.5): 0.6 + 0.8j}
    assert _max_abs_interior(one, grid) == abs(0.6 + 0.8j)
    assert abs(_brute_max_abs_interior(one, grid) - 1.0) <= 1e-12
    three = {(float(k), 0.0, 0.0, 0.0): 1 + 0j for k in range(3)}
    with pytest.raises(ValueError):
        _max_abs_interior(three, grid)


# -- representability over Lambda_N -----------------------------------------------------

@pytest.mark.parametrize("N", [0, 2, 4])
def test_wz_equivalence(N):
    rep = wz_equivalence_check(N)
    assert rep["match"], rep
    assert rep["scalar_dim_real"] == 8
    assert rep["bosonic_dim_real"] == 4 and rep["fermionic_dim_real"] == 4
    if N:
        assert rep["module_dim_real"] == 4 * 2 ** (N - 1) + 4 * 2 ** (N - 1)
    else:
        assert rep["module_dim_real"] == 4


def _lambda_module_dims_by_loop(N, dims):
    """Reference: walk all 2^N monomials of Lambda_N."""
    module_dim = n_even = 0
    for mask in range(2 ** N):
        k = bin(mask).count("1")
        twist = (-1) ** (k * (k - 1) // 2)
        module_dim += dims[twist][0] if k % 2 == 0 else dims[twist][1]
        n_even += k % 2 == 0
    return module_dim, n_even


def test_lambda_module_dims_equal_the_monomial_loop():
    # distinct dimensions per twist and parity, so a mixed-up index shows
    dims = {1: (3, 5), -1: (7, 11)}
    for N in range(11):
        assert _lambda_module_dims(N, dims) == _lambda_module_dims_by_loop(N, dims), N


def test_wz_equivalence_beyond_six_generators():
    rep = wz_equivalence_check(16)
    assert rep["match"], rep
    assert rep["module_dim_real"] == rep["expected_dim_real"] == 8 * 2 ** 15
    with pytest.raises(ValueError):
        wz_equivalence_check(-1)
    with pytest.raises(TypeError, match="needs an exact momentum"):
        wz_equivalence_check(4, (1.25, 0.6, 0.0, 0.45), 1)


def test_conjugate_sf_full_reality_structure(rng):
    """A superfunction with phi, A, H real-valued, eta = conj(psi),
    G = conj(F), mu = conj(lambda) is a fixed point of the in-place
    conjugation, across every sector."""
    from superkit import conventions
    q = rand_momentum(rng)
    qn = tuple(-x for x in q)

    def real_pw():
        a = rand_qc(rng)
        return PlaneWaveFn.wave(a, q) + PlaneWaveFn.wave(conj(a), qn)

    f = SuperFunction({}, "position")
    f = f + SuperFunction({0: real_pw()}, "position")
    f = f + SuperFunction({mono_mask((1, 2), (1, 2)): real_pw()}, "position")
    psi = [PlaneWaveFn.wave(rand_qc(rng), q) for _ in range(2)]
    for a in (1, 2):
        f = f + SuperFunction({mono_mask((a,), ()): psi[a - 1]}, "position")
        f = f + SuperFunction({mono_mask((), (a,)): psi[a - 1].conjugate()},
                              "position")
    F = PlaneWaveFn.wave(rand_qc(rng), q)
    f = f + SuperFunction({mono_mask((1, 2), ()): F,
                           mono_mask((), (1, 2)): F.conjugate()}, "position")
    lam = [PlaneWaveFn.wave(rand_qc(rng), q) for _ in range(2)]
    for a in (1, 2):
        f = f + SuperFunction({mono_mask((1, 2), (a,)): lam[a - 1]}, "position")
        f = f + SuperFunction({mono_mask((a,), (1, 2)): lam[a - 1].conjugate()},
                              "position")
    # middle sector: components i A_mu Gamma^mu_{ab} with real A_mu
    amps = [rand_qc(rng) for _ in range(4)]
    for a in (1, 2):
        for b in (1, 2):
            comp = PlaneWaveFn.zero()
            for mu in range(4):
                g = QC(0, 1) * conventions.GAMMA_LOWER[a - 1][b - 1][mu]
                amp = amps[mu]
                comp = comp + g * (PlaneWaveFn.wave(amp, q)
                                   + PlaneWaveFn.wave(conj(amp), qn))
            f = f + SuperFunction({mono_mask((a,), (b,)): comp}, "position")
    assert conjugate_sf(f) == f
