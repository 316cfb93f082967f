from fractions import Fraction

import pytest

from conftest import multiplicity

from superkit.repdecomp import (NotARepresentation, SpinDecomposition,
                                WeightMultiset, dof_check, scalar_superfield_content,
                                superspin_multiplet, tensor_sym_decompose,
                                weight_decompose, weights_of_sym)

F2 = Fraction


def test_weights_of_sym():
    assert weights_of_sym(0) == WeightMultiset({0: 1})
    assert weights_of_sym(F2(1, 2)) == WeightMultiset({-1: 1, 1: 1})
    assert weights_of_sym(1) == WeightMultiset({-2: 1, 0: 1, 2: 1})


def test_weight_decompose_examples():
    w = weights_of_sym(F2(1, 2)).tensor(weights_of_sym(F2(1, 2)))
    assert w == WeightMultiset({-2: 1, 0: 2, 2: 1})
    assert weight_decompose(w) == SpinDecomposition({2: 1, 0: 1})
    assert weight_decompose(WeightMultiset({0: 1})) == SpinDecomposition({0: 1})
    w2 = weights_of_sym(F2(1, 2)).tensor(weights_of_sym(1))
    assert weight_decompose(w2) == SpinDecomposition({3: 1, 1: 1})


def test_weight_decompose_rejects_non_representations():
    with pytest.raises(NotARepresentation):
        weight_decompose(WeightMultiset({2: 1}))
    with pytest.raises(NotARepresentation):
        weight_decompose(WeightMultiset({2: 1, 0: -1, -2: 1}))


def to_weights(dec):
    """The weight multiset of a spin decomposition: each doubled spin s
    contributes the weights -s, -s+2, ..., s."""
    out = {}
    for s, k in dec.mult.items():
        for w in range(-s, s + 1, 2):
            out[w] = out.get(w, 0) + k
    return WeightMultiset(out)


def test_weight_reconstruction_round_trip():
    for two_a in range(0, 11):
        for two_b in range(0, 11 - two_a):
            w = weights_of_sym(F2(two_a, 2)).tensor(weights_of_sym(F2(two_b, 2)))
            dec = weight_decompose(w)
            assert to_weights(dec) == w


def test_tensor_sym_decompose():
    assert tensor_sym_decompose(F2(1, 2), F2(1, 2)) == SpinDecomposition({2: 1, 0: 1})
    assert tensor_sym_decompose(1, F2(1, 2)) == SpinDecomposition({3: 1, 1: 1})
    assert tensor_sym_decompose(3, 0) == SpinDecomposition({6: 1})
    # agrees with the weight route and the dimension audit
    for two_a in range(0, 21):
        for two_b in range(0, 21 - two_a):
            a, b = F2(two_a, 2), F2(two_b, 2)
            dec = tensor_sym_decompose(a, b)
            assert dec.dimension() == (two_a + 1) * (two_b + 1)
            w = weights_of_sym(a).tensor(weights_of_sym(b))
            assert weight_decompose(w) == dec


def test_multiplicity_agrees_with_decomposition():
    for two_a in range(0, 13):
        for two_b in range(0, 13):
            dec = tensor_sym_decompose(F2(two_a, 2), F2(two_b, 2))
            for two_s in range(0, 13):
                want = dec[two_s]
                assert multiplicity(F2(two_s, 2), F2(two_a, 2), F2(two_b, 2)) == want


def test_superspin_multiplets():
    assert superspin_multiplet(0) == SpinDecomposition({0: 2, 1: 1})
    assert superspin_multiplet(1) == SpinDecomposition({2: 2, 1: 1, 3: 1})
    assert superspin_multiplet(F2(1, 2)) == SpinDecomposition({1: 2, 0: 1, 2: 1})


def test_dof_equality():
    for two_s in range(0, 21):
        d = dof_check(F2(two_s, 2))
        assert d["bosonic"] == d["fermionic"] == 2 * two_s + 2


def test_scalar_superfield_content():
    assert scalar_superfield_content(0) == SpinDecomposition({0: 2, 1: 1})
    assert scalar_superfield_content(1) == SpinDecomposition({2: 2, 1: 1, 3: 1})
    # dimension audit: 16 (2 sigma + 1) equals 4x the sum of multiplet sizes
    for two_s in range(0, 9):
        sigma = F2(two_s, 2)
        content = scalar_superfield_content(sigma)
        total = sum(mult * 4 * (s + 1) for s, mult in content.mult.items())
        assert total == 16 * (two_s + 1)


def test_half_integer_validation():
    with pytest.raises(ValueError):
        weights_of_sym(0.3)
    with pytest.raises(ValueError):
        superspin_multiplet(-1)
