import random
from fractions import Fraction

import pytest

from superkit.grassmann import MONOMIALS
from superkit.suites import rand_momentum, rand_qc
from superkit.superfourier import SuperFunction, single_wave


@pytest.fixture
def rng():
    return random.Random(20260808)


def rand_superfunction(rng, nterms=1, pool=4):
    """Like suites.rand_superfunction, but with the momenta drawn from a pool
    of `pool`, so the components share momenta."""
    momenta = [rand_momentum(rng) for _ in range(pool)]
    f = SuperFunction({}, "position")
    for mask in MONOMIALS:
        for _ in range(nterms):
            f = f + single_wave(mask, rand_qc(rng), rng.choice(momenta))
    return f


# exact momenta on the forward mass-1 shell
ONSHELL_EXACT = [
    (Fraction(2), Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(5, 4), Fraction(3, 4), Fraction(0), Fraction(0)),
    (Fraction(5, 3), Fraction(0), Fraction(4, 3), Fraction(0)),
    (Fraction(13, 12), Fraction(0), Fraction(0), Fraction(5, 12)),
    (Fraction(3), Fraction(2), Fraction(2), Fraction(0)),
]


def rand_sl2(rng):
    from superkit.spin_geometry import SpinElement, m2_det
    while True:
        m = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
             for _ in range(2)]
        d = m2_det(m)
        if abs(d) > 0.1:
            s = d ** -0.5
            return SpinElement([[x * s for x in row] for row in m])
