import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from superkit import components as cmp
from superkit.exactnum import as_complex, coerce
from superkit.grassmann import MONOMIALS, Multivector, chiral_kernel, mono_mask
from superkit.spin_geometry import gamma_pair, m2_dagger
from superkit.suites import rand_momentum, rand_qc
from superkit.superfourier import SuperFunction, single_wave


@pytest.fixture
def rng():
    return random.Random(20260808)


def run_python(*args):
    """Run a fresh interpreter with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


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


def dense_matrix(act):
    """The 16x16 complex128 matrix (columns = inputs) of an action on W, for
    float actions, which EndoW does not hold."""
    return np.array([[complex(x) for x in act(Multivector.basis(m)).to_vector()]
                     for m in MONOMIALS]).T


def apply_matrix(mat, mv):
    """A 16x16 complex128 operator on W applied to a Multivector."""
    return Multivector.from_vector(mat @ np.array([complex(x) for x in mv.to_vector()]))


def aux_gen(alg, i):
    """The i-th generator of an auxiliary Grassmann algebra."""
    return alg.element({1 << i: 1})


def pair_covector_reference(p, vec):
    """The term-by-term QC sum that spin_geometry.pair_covector replaced: a
    float component degrades the running sum to python complex."""
    s = coerce(0)
    for pm, c in zip(p, vec):
        if c:
            s = s + c * pm
    return s


def m2_mul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def act_on_momentum(h, p):
    """The Lorentz action through B(h.p) = A B(p) A^dagger; returns floats."""
    m = [[as_complex(x) for x in row] for row in gamma_pair(p).b]
    a = [[as_complex(x) for x in row] for row in h.a]
    out = m2_mul(m2_mul(a, m), m2_dagger(a))
    p0 = (out[0][0] + out[1][1]) / 2
    p1 = (out[0][0] - out[1][1]) / 2
    p2 = (out[0][1] + out[1][0]) / 2
    p3 = (out[1][0] - out[0][1]) / (2j)
    return tuple(x.real for x in (p0, p1, p2, p3))


def multiplicity(sigma, alpha, beta):
    """Multiplicity of spin sigma in Sym^{2a} (x) Sym^{2b}: 1 on the ladder
    |a-b| <= sigma <= a+b with integer steps from a+b, else 0.  A second
    route to repdecomp.tensor_sym_decompose."""
    two_s, two_a, two_b = int(2 * sigma), int(2 * alpha), int(2 * beta)
    if (two_s, two_a, two_b) != (2 * sigma, 2 * alpha, 2 * beta):
        raise ValueError("arguments must be half-integers")
    if two_s < 0 or two_a < 0 or two_b < 0:
        return 0
    lo, hi = abs(two_a - two_b), two_a + two_b
    if two_s < lo or two_s > hi:
        return 0
    return 1 if (hi - two_s) % 2 == 0 else 0


def chiral_kernel_display_form(B):
    """The commonly quoted closed-form variant: chiral_kernel with the scalar
    and the four middle coefficients of X_phi negated.  Kept for the
    comparison tests -- it is NOT annihilated by the dbar operators."""
    x_phi, x_psi1, x_psi2, x_f = chiral_kernel(B)
    flip = (0, mono_mask((1,), (1,)), mono_mask((1,), (2,)),
            mono_mask((2,), (1,)), mono_mask((2,), (2,)))
    x_phi = Multivector({m: -c if m in flip else c for m, c in x_phi.coeffs.items()})
    return [x_phi, x_psi1, x_psi2, x_f]


def wz_columns(p, m):
    """Real-linear matrix of the WZ operator on two-frequency chiral data:
    16 real unknowns, rows re/im of every (monomial, momentum) output."""
    return cmp._twisted_matrix(*cmp._wz_linear_antilinear(p, m), 1)
