import pytest

from conftest import chiral_kernel_display_form, rand_qc, run_python

from superkit import linalg, suites
from superkit.exactnum import QC, coerce, conj, scal_is_zero
from superkit.grassmann import (DIM, EndoW, MONOMIALS, Multivector,
                                PairingMatrix, build_d, build_d2,
                                build_d2_factorized, build_dbar, build_dbar2,
                                build_dbar2_factorized, build_e2, build_i2,
                                chiral_kernel, chiral_kernel_nullspace,
                                contract_gen, d_action, dbar_action, degree,
                                ext_minus, ext_plus, int_minus, int_plus, koszul_sign,
                                mono_mask, mono_key, mask_from_key, parity, plus_set,
                                minus_set, q_action, qbar_action, wedge_gen)
from superkit.suites import rand_pairing


# -- independent sign oracle --------------------------------------------------

def _word(mask):
    return [g for g in range(mask.bit_length()) if mask & (1 << g)]


def _inversion_sign(seq):
    s = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                s = -s
    return s


def oracle_wedge(gen, mask):
    """Sign of g ^ (sorted word) via inversion counting; None if g repeats."""
    if mask & (1 << gen):
        return 0, None
    word = [gen] + _word(mask)
    return _inversion_sign(word), mask | (1 << gen)


def oracle_contract(gen, mask):
    """Sign to bring g to the front before removing it."""
    if not mask & (1 << gen):
        return 0, None
    word = _word(mask)
    k = word.index(gen)
    moved = [gen] + word[:k] + word[k + 1:]
    return _inversion_sign(moved) * _inversion_sign(word), mask & ~(1 << gen)


def test_sign_oracle_all_monomials():
    for gen in range(4):
        for mask in MONOMIALS:
            assert wedge_gen(gen, mask) == oracle_wedge(gen, mask)
            assert contract_gen(gen, mask) == oracle_contract(gen, mask)
    # the sign core itself, on words of up to six generators, as the Lambda_N
    # product (N <= 6) uses it
    for ma in range(64):
        for mb in range(64):
            if not ma & mb:
                assert koszul_sign(ma, mb) == _inversion_sign(_word(ma) + _word(mb))


# -- monomial bookkeeping ------------------------------------------------------

def test_monomials_and_keys():
    assert len(MONOMIALS) == 16
    seen = set()
    for m in MONOMIALS:
        assert parity(m) == (len(plus_set(m)) + len(minus_set(m))) % 2
        key = mono_key(m)
        assert mask_from_key(key) == m
        seen.add(key)
    assert len(seen) == 16
    evens = [m for m in MONOMIALS if parity(m) == 0]
    assert len(evens) == 8


# -- exterior / interior examples ---------------------------------------------

ID = PairingMatrix.identity()
T1 = mono_mask((1,), ())
T2 = mono_mask((2,), ())
B1 = mono_mask((), (1,))
B2 = mono_mask((), (2,))
T12 = mono_mask((1, 2), ())
B12 = mono_mask((), (1, 2))
TOP = mono_mask((1, 2), (1, 2))


def test_ext_plus_examples():
    one = Multivector.basis(0, 1)
    assert ext_plus(1, one) == Multivector.basis(T1)
    assert ext_plus(1, Multivector.basis(T1)).is_zero()
    assert ext_plus(2, Multivector.basis(T1)) == Multivector.basis(T12, -1)


def test_ext_minus_examples():
    one = Multivector.basis(0, 1)
    assert ext_minus(1, one) == Multivector.basis(B1)
    assert ext_minus(2, Multivector.basis(B1)) == Multivector.basis(B12, -1)
    # crossing the odd plus factor picks up the ledger sign
    assert ext_minus(1, Multivector.basis(T1)) == \
        Multivector.basis(mono_mask((1,), (1,)), -1)


def test_int_plus_examples():
    assert int_plus(1, ID, Multivector.basis(B1)) == Multivector.basis(0, 1)
    assert int_plus(1, ID, Multivector.basis(B12)) == Multivector.basis(B2)
    assert int_plus(1, ID, Multivector.basis(0, 1)).is_zero()


def test_int_minus_examples():
    assert int_minus(1, ID, Multivector.basis(T1)) == Multivector.basis(0, 1)
    # second-degree branch: pairing(r, s)r' - pairing(r', s)r evaluates to -t1
    assert int_minus(2, ID, Multivector.basis(T12)) == Multivector.basis(T1, -1)
    assert int_minus(1, ID, Multivector.basis(B1)).is_zero()


def test_interior_is_general_pairing(rng):
    for _ in range(5):
        B = rand_pairing(rng)
        assert int_plus(1, B, Multivector.basis(B1)) == Multivector.basis(0, B[1, 1])
        assert int_plus(2, B, Multivector.basis(B12)) == \
            Multivector.basis(B2, B[2, 1]) + Multivector.basis(B1, -B[2, 2])
        assert int_minus(1, B, Multivector.basis(T2)) == Multivector.basis(0, B[2, 1])


# -- d / q family ---------------------------------------------------------------

def test_build_d_on_vacuum():
    assert build_d(1, ID)(Multivector.basis(0, 1)) == Multivector.basis(T1)
    assert q_action(1, ID)(Multivector.basis(0, 1)) == Multivector.basis(T1)


def test_build_dbar_two_summands():
    out = build_dbar(1, ID)(Multivector.basis(T1))
    assert out == ext_minus(1, Multivector.basis(T1)) + \
        int_minus(1, ID, Multivector.basis(T1))
    assert out == Multivector.basis(mono_mask((1,), (1,)), -1) + Multivector.basis(0, 1)


def test_anticommutators_rest_and_random(rng):
    pairings = [ID] + [rand_pairing(rng) for _ in range(20)]
    assert suites.anticommutation_ie(pairings)[0]
    assert suites.anticommutation_ii_ee(pairings)[0]


def test_d_dbar_clifford_relation(rng):
    """{d_a, dbar_b} = 2 B[a][b] Id: each tensor factor contributes one
    pairing unit, so the lift of the rest-frame relation carries a factor 2."""
    one = EndoW.from_action(lambda mv: mv)
    zero = EndoW.from_action(lambda mv: Multivector({}))
    for B in (ID, rand_pairing(rng)):
        for a in (1, 2):
            for b in (1, 2):
                da, db, dbar_b = build_d(a, B), build_d(b, B), build_dbar(b, B)
                assert da @ dbar_b + dbar_b @ da == (2 * B[a, b]) * one
                assert da @ db + db @ da == zero


def test_susy_invariance(rng):
    pairings = [ID] + [rand_pairing(rng) for _ in range(20)]
    assert suites.susy_invariance(pairings)[0]


def test_parity_pattern(rng):
    assert suites.parity_bookkeeping(rand_pairing(rng))[0]


# -- second-order operators ------------------------------------------------------

def test_i2_and_e2_closed_forms(rng):
    for B in (ID, rand_pairing(rng), rand_pairing(rng)):
        i2 = build_i2(B)
        out = i2(Multivector.basis(B12))
        assert out == Multivector.basis(0, B.det())
        for low in (0, T1, B1, mono_mask((1,), (1,))):
            if degree(low) < 2 or plus_set(low):
                assert i2(Multivector.basis(low)).coeffs.get(0, QC(0)) == \
                    (B.det() if low == B12 else QC(0))
    e2 = build_e2()
    # e2(lambda) = lambda * eps_ab tau^a ^ tau^b = 2 lambda tau1^tau2
    assert e2(Multivector.basis(0, 3)) == Multivector.basis(T12, 6)


def test_d2_composition_value():
    d2 = build_d2(ID)
    assert d2(Multivector.basis(0, 1)) == Multivector.basis(T12, 2)
    # eps_ab d_a d_b = 2 d_1 d_2 when the d's anticommute
    d1, dd2 = build_d(1, ID), build_d(2, ID)
    assert build_d2(ID) == 2 * (d1 @ dd2)


def test_d2_factorized_form_differs(rng):
    """The composed operator carries e_a (x) i_b cross terms that the
    factorized (e^2 (x) Id) + (Id (x) i^2) form lacks (ledger L7); the two
    routes agree only on inputs the cross terms kill."""
    B = rand_pairing(rng)
    comp, fact = build_d2(B), build_d2_factorized(B)
    assert comp != fact
    diff = comp - fact
    # on the vacuum both routes agree
    assert diff(Multivector.basis(0, 1)).is_zero()
    # cross terms surface on mixed-degree inputs
    assert not diff(Multivector.basis(B1)).is_zero()
    assert build_dbar2(B) != build_dbar2_factorized(B)


# -- chiral kernel -----------------------------------------------------------------

def test_chiral_kernel_nullspace_dimension(rng):
    pairings = [ID] + [rand_pairing(rng) for _ in range(20)]
    ok, _, detail = suites.chiral_kernel(pairings)
    assert ok, detail


def test_chiral_kernel_f_vector():
    ker = chiral_kernel(ID)
    assert ker[3] == Multivector.basis(B12)


def test_chiral_kernel_phi_vector_identity_pairing():
    """At B = Id the phi-family vector is -1 + t1 b1 + t2 b2 + top; the
    scalar and middle signs are opposite to the quoted display variant,
    which is not annihilated by the Koszul-correct dbar operators."""
    x_phi = chiral_kernel(ID)[0]
    want = Multivector({0: QC(-1), mono_mask((1,), (1,)): QC(1),
                        mono_mask((2,), (2,)): QC(1), TOP: QC(1)})
    assert x_phi == want


# -- conjugation ---------------------------------------------------------------------

def conjugate_w(mv):
    """Antilinear involution on W: swap plus and minus index sets, conjugate
    coefficients, all signs +1 (the momentum-space conjugate display)."""
    return Multivector({mono_mask(minus_set(m), plus_set(m)): conj(c)
                        for m, c in mv.coeffs.items()})


def test_conjugate_w_involution_and_antilinearity(rng):
    for m in MONOMIALS:
        mv = Multivector.basis(m, rand_qc(rng))
        assert conjugate_w(conjugate_w(mv)) == mv
    assert conjugate_w(Multivector.basis(0, QC(0, 1))) == Multivector.basis(0, QC(0, -1))
    assert conjugate_w(Multivector.basis(T1)) == Multivector.basis(B1)
    assert conjugate_w(Multivector.basis(mono_mask((1,), (1, 2)))) == \
        Multivector.basis(mono_mask((1, 2), (1,)))


def test_conjugate_w_reproduces_momentum_conjugate_display(rng):
    """Pointwise conjugation of the display-form chiral element reproduces
    the displayed conjugate: plain swap with coefficients conjugated."""
    from superkit.spin_geometry import gamma_pair
    from conftest import rand_momentum
    p = rand_momentum(rng)
    B = gamma_pair(p)
    phi, psi1, psi2, F = rand_qc(rng), rand_qc(rng), rand_qc(rng), rand_qc(rng)
    x_phi, x_psi1, x_psi2, x_f = chiral_kernel_display_form(B)
    f = phi * x_phi + psi1 * x_psi1 + psi2 * x_psi2 + F * x_f
    fbar = conjugate_w(f)
    # display: top coefficient conj(phi), t1 t2 coefficient conj(F),
    # tau^a column built from conj(psi) with the pairing entries swapped,
    # A entries moved across the diagonal.
    assert fbar[TOP] == phi.conjugate()
    assert fbar[T12] == F.conjugate()
    assert fbar[T1] == (B[1, 2] * psi1 + B[2, 2] * psi2).conjugate()
    assert fbar[T2] == (-B[1, 1] * psi1 - B[2, 1] * psi2).conjugate()
    assert fbar[mono_mask((2,), (1,))] == (B[2, 1] * phi).conjugate()
    assert fbar[mono_mask((1, 2), (1,))] == psi1.conjugate()


# -- EndoW is exact only ---------------------------------------------------------------

def test_endow_rejects_float_entries(rng):
    """A float operator on W is a complex128 array, never an EndoW: float
    entries, and so the dbar matrices of a float pairing, raise TypeError."""
    with pytest.raises(TypeError):
        EndoW([[0.5] * DIM] * DIM)
    B = rand_pairing(rng)
    with pytest.raises(TypeError):
        chiral_kernel_nullspace(PairingMatrix([[complex(B[a, b]) for b in (1, 2)]
                                               for a in (1, 2)]))


def test_exact_core_imports_without_numpy():
    """numpy is the float engine only: the exact scalar, exact elimination and
    the Grassmann module import with numpy blocked."""
    proc = run_python("-c", 'import sys; sys.modules["numpy"] = None; '
                            "import superkit.exactnum, superkit.linalg, superkit.grassmann")
    assert proc.returncode == 0, proc.stderr


# -- one-pass d/q actions against the two-pass ext +- int reference ------------

def _two_pass(kind, a, B, mv):
    """The action as the sum of its exterior and interior parts."""
    ext, inner = (ext_plus, int_plus) if kind in ("d", "q") else (ext_minus, int_minus)
    e, i = ext(a, mv), inner(a, B, mv)
    return e + i if kind in ("d", "dbar") else e - i


ACTIONS = {"d": d_action, "dbar": dbar_action, "q": q_action, "qbar": qbar_action}


def _rand_multivector(rng):
    return Multivector({m: rand_qc(rng) for m in rng.sample(MONOMIALS, rng.randint(1, 16))})


@pytest.mark.parametrize("kind", sorted(ACTIONS))
def test_one_pass_actions_equal_ext_plus_minus_int(rng, kind):
    for B in [PairingMatrix.identity()] + [rand_pairing(rng) for _ in range(4)]:
        for a in (1, 2):
            act = ACTIONS[kind](a, B)
            vectors = [Multivector.basis(m) for m in MONOMIALS]
            vectors += [_rand_multivector(rng) for _ in range(6)]
            for mv in vectors:
                assert act(mv) == _two_pass(kind, a, B, mv)


@pytest.mark.parametrize("kind", sorted(ACTIONS))
def test_one_pass_actions_match_ext_plus_minus_int_at_float_pairings(rng, kind):
    B = PairingMatrix([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                       for _ in range(2)])
    for a in (1, 2):
        act = ACTIONS[kind](a, B)
        for _ in range(6):
            mv = Multivector({m: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in MONOMIALS})
            assert (act(mv) - _two_pass(kind, a, B, mv)).max_abs() <= 1e-12


# -- sparse elimination against a dense Gauss-Jordan reference -----------------

def _dense_row_echelon(mat, tol=0.0):
    """Gauss-Jordan elimination that touches every entry of every row."""
    m = [[coerce(x) for x in row] for row in mat]
    rows, cols = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not scal_is_zero(m[i][c], tol)), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and not scal_is_zero(m[i][c], tol):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _dense_null_space(mat, tol=0.0):
    rref, pivots = _dense_row_echelon(mat, tol)
    basis = []
    for fc in (c for c in range(len(mat[0])) if c not in pivots):
        v = [QC(0)] * len(mat[0])
        v[fc] = QC(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def _rand_matrix(rng, entry, density, zero=0):
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    return [[entry() if rng.random() < density else zero for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("density", [0.15, 0.4, 1.0])
def test_sparse_elimination_equals_dense_reference_exact(rng, density):
    for _ in range(40):
        mat = _rand_matrix(rng, lambda: rand_qc(rng), density)
        if rng.random() < 0.3:  # a dependent row
            mat.append([2 * x - y for x, y in zip(mat[0], mat[-1])])
        assert linalg.row_echelon(mat) == _dense_row_echelon(mat)
        assert linalg.rank(mat) == len(_dense_row_echelon(mat)[1])
        assert linalg.null_space(mat) == _dense_null_space(mat)


@pytest.mark.parametrize("density,zero", [(0.3, 0j), (1.0, 0j), (0.3, 0)],
                         ids=["sparse", "dense", "exact-zeros"])
def test_sparse_elimination_equals_dense_reference_float(rng, density, zero):
    tol = 1e-9
    for _ in range(40):
        mat = _rand_matrix(rng, lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                           density, zero)
        mat.append([x + 1e-12 * y for x, y in zip(mat[0], mat[-1])])  # rank-deficient to tol
        got, want = linalg.row_echelon(mat, tol), _dense_row_echelon(mat, tol)
        got_ns, want_ns = linalg.null_space(mat, tol), _dense_null_space(mat, tol)
        assert linalg.rank(mat, tol) == len(want[1])
        if zero == 0:
            # exact zeros are skipped: equal values, though QC(0) may stand for 0j
            assert got == want and got_ns == want_ns
        else:
            # float entries are never skipped: bit for bit, signed zeros included
            assert repr(got) == repr(want) and repr(got_ns) == repr(want_ns)
