"""Momentum-dependent equivariant symbols on the mass orbit.

All closed-form symbols are the rest-frame operators of the algebra core
with the identity pairing replaced by the momentum pairing B(p); the
propagation route conjugates the rest-frame operator by the boost action
and must agree with the closed forms for the little-group-equivariant
operators (d^2, dbar^2, i^2, the Dirac selector).
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import conventions, grassmann, linalg
from .exactnum import coerce, conj, is_exact, scal_is_zero
from .grassmann import build_d2, build_dbar2, build_i2
from .spin_geometry import (gamma_pair, minkowski_norm2, momentum_is_exact,
                            rest_boost, spin_action_endo)


class DegenerateOrder(ValueError):
    pass


# -- closed-form zeta family -------------------------------------------------

def zeta_d2(p):
    if not momentum_is_exact(p):
        return _float_symbol(zeta_d2, p)
    return build_d2(gamma_pair(p))


def zeta_dbar2(p):
    if not momentum_is_exact(p):
        return _float_symbol(zeta_dbar2, p)
    return build_dbar2(gamma_pair(p))


def zeta_i2(p):
    if not momentum_is_exact(p):
        return _float_symbol(zeta_i2, p)
    return build_i2(gamma_pair(p))


# At a float momentum each of zeta_d2, zeta_dbar2, zeta_i2 is evaluated as a
# polynomial in p: B(p) is linear in p and each operator is at most quadratic
# in B, so the symbol is  sum_k mono_k(p) C_k  over the 15 monomials 1, p_mu,
# p_mu p_nu (mu <= nu).  The C_k are read off the exact symbol at the 15 exact
# momenta 0, +-e_mu and e_mu + e_nu, once per process.

_UNITS = tuple(tuple(int(mu == nu) for nu in range(4)) for mu in range(4))


def _builder_tables():
    """The convention tables the exact builders read."""
    return grassmann.GEN_TABLE, conventions.GAMMA_TABLE, conventions.EPS_LOWER


def _float_symbol(zeta, p):
    coeffs, _ = _symbol_coefficients(zeta, tuple(map(id, _builder_tables())))
    pf = np.array(p, dtype=float)
    mono = np.concatenate(([1.0], pf, [pf[mu] * pf[nu] for mu in range(4) for nu in range(mu, 4)]))
    return np.tensordot(mono, coeffs, 1)


@functools.cache
def _symbol_coefficients(zeta, table_ids):
    """(C_k as a read-only (15, 16, 16) array, the tables it was fitted under).

    Keyed by the ids of the convention tables the exact builders read, so a
    patched table gets its own fit; the entry holds those tables, so their
    ids stay unique while it lives.
    """
    def at(p):
        return np.array(zeta(tuple(Fraction(x) for x in p)).mat, dtype=np.complex128)

    c0 = at((0, 0, 0, 0))
    plus = [at(e) for e in _UNITS]
    minus = [at(tuple(-x for x in e)) for e in _UNITS]
    linear = [(a - b) / 2 for a, b in zip(plus, minus)]
    quadratic = []
    for mu in range(4):
        for nu in range(mu, 4):
            if mu == nu:
                quadratic.append((plus[mu] + minus[mu]) / 2 - c0)
            else:
                e = tuple(a + b for a, b in zip(_UNITS[mu], _UNITS[nu]))
                quadratic.append(at(e) - plus[mu] - plus[nu] + c0)
    coeffs = np.stack([c0, *linear, *quadratic])
    coeffs.setflags(write=False)
    return coeffs, _builder_tables()


def propagate(ops, p, m, tol=1e-9):
    """[zeta_u(p) = rho(h_p) u rho(h_p)^-1 for u in ops] along the forward orbit.

    ``ops`` are 16x16 complex128 arrays.  One boost h_p serves every
    operator; it is float, so rho is an array too and the two products per
    operator run in numpy."""
    h = rest_boost(p, m, tol)
    rho = spin_action_endo(h)
    rho_inv = spin_action_endo(h.inverse())
    return [rho @ u @ rho_inv for u in ops]


# -- Dirac symbol -------------------------------------------------------------

def gamma_matrix(p):
    """gamma(p) on Dirac space C^4 in the basis (f1, f2, fbar1, fbar2).

    Block form [[0, B(p)], [adj B(p), 0]]; squares to |p|^2 Id.
    """
    B = gamma_pair(p).b
    adj = [[B[1][1], -B[0][1]], [-B[1][0], B[0][0]]]
    z = coerce(0)
    return [
        [z, z, B[0][0], B[0][1]],
        [z, z, B[1][0], B[1][1]],
        [adj[0][0], adj[0][1], z, z],
        [adj[1][0], adj[1][1], z, z],
    ]


def dirac_symbol(p, m):
    """zeta_u(p) = gamma(p)/m - Id; kernel dim 2 exactly on the forward shell."""
    if m <= 0:
        raise ValueError("mass must be positive")
    g = gamma_matrix(p)
    minv = Fraction(1, 1) / Fraction(m) if is_exact(m) and momentum_is_exact(p) else 1.0 / m
    out = [[g[i][j] * minv for j in range(4)] for i in range(4)]
    for i in range(4):
        out[i][i] = out[i][i] - 1
    return out


def dirac_kernel_dim(p, m, tol=None):
    mat = dirac_symbol(p, m)
    if tol is None:
        tol = 0.0 if momentum_is_exact(p) and is_exact(m) else 1e-9
    return 4 - linalg.rank(mat, tol)


# -- divergence symbol on symmetric powers ------------------------------------

def sym_tensor_dim(two_a, two_b):
    return (two_a + 1) * (two_b + 1)


def divergence_symbol(alpha, beta, p):
    """Polarize-and-contract map Sym^{2a}(x)Sym^{2b} -> Sym^{2a-1}(x)Sym^{2b-1}.

    Basis: x^k y^{2a-k} (x) u^l v^{2b-l}, k and l descending powers of the
    first variable.  The normalized inclusion followed by the B(p) pairing is
    (1/(2a*2b)) * sum_{c,d} B[c][d] d/d(c-th plus var) (x) d/d(d-th minus var);
    the matrix below drops the positive 1/(4ab) factor (kernel unchanged),
    which is exactly the combinatorial-coefficient claim the polarization
    oracle in the test suite checks.
    """
    two_a, two_b = int(2 * alpha), int(2 * beta)
    if two_a <= 0 or two_b <= 0:
        raise DegenerateOrder("alpha and beta must be positive half-integers")
    if 2 * alpha != two_a or 2 * beta != two_b:
        raise ValueError("alpha, beta must be half-integers")
    B = gamma_pair(p)
    rows = sym_tensor_dim(two_a - 1, two_b - 1)
    cols = sym_tensor_dim(two_a, two_b)
    mat = [[coerce(0)] * cols for _ in range(rows)]
    for k in range(two_a + 1):
        for l in range(two_b + 1):
            col = k * (two_b + 1) + l
            # derivative in the plus variables: d/dx -> k, d/dy -> 2a-k
            for c, kk in ((1, k), (2, two_a - k)):
                if kk == 0:
                    continue
                nk = k - 1 if c == 1 else k
                for d, ll in ((1, l), (2, two_b - l)):
                    if ll == 0:
                        continue
                    nl = l - 1 if d == 1 else l
                    row = nk * two_b + nl
                    mat[row][col] = mat[row][col] + B[c, d] * kk * ll
    return mat


def divergence_kernel_dim(alpha, beta, p):
    """Exact kernel dimension; a float momentum raises TypeError."""
    if not momentum_is_exact(p):
        raise TypeError("divergence_kernel_dim needs an exact momentum")
    mat = divergence_symbol(alpha, beta, p)
    return sym_tensor_dim(int(2 * alpha), int(2 * beta)) - linalg.rank(mat)


# -- superspin-0 constraint system --------------------------------------------

class Superspin0Report:
    """The momentum-space superspin-0 constraint system at a fixed p.

    Relations (on the chiral parameters phi, psi, F):

        bosonic:    F = m conj(phi)          m conj(F) = |p|^2 phi
        fermionic:  m conj(psi_1) = B12 psi_1 + B22 psi_2
                    m conj(psi_2) = -B11 psi_1 - B21 psi_2

    ``bosonic_factor`` is the exact scalar (|p|^2 - m^2) obtained by
    eliminating F; ``fermionic_factor_pointwise`` is the self-conjugation
    factor (|p|^2 + m^2) of the fixed-p antilinear system, and
    ``fermionic_factor_paired`` the factor (|p|^2 - m^2) of the
    frequency-paired system in which the conjugated relation is evaluated at
    the reflected momentum.  Only the paired reading admits nonzero on-shell
    fermions; see decisions ledger.
    """

    def __init__(self, p, m):
        self.p = p
        self.m = coerce(m)
        self.B = gamma_pair(p)
        self.norm2 = minkowski_norm2(p)
        b = self.B
        self.fermionic_matrix = [[b[1, 2], b[2, 2]], [-b[1, 1], -b[2, 1]]]
        m2 = self.m * self.m
        self.bosonic_factor = coerce(self.norm2) - m2
        n = self.fermionic_matrix
        nbar = [[conj(x) for x in row] for row in n]
        comp = linalg.mat_mul(nbar, n)
        # comp = -det(B) Id; the pointwise self-consistency reads
        # (m^2 - comp) psi = 0, i.e. (m^2 + |p|^2) psi = 0.
        self.fermionic_comp = comp
        self.fermionic_factor_pointwise = m2 + coerce(self.norm2)
        self.fermionic_factor_paired = m2 - coerce(self.norm2)

    def bosonic_relations(self):
        return [
            ("F = m*conj(phi)", self.m),
            ("m*conj(F) = |p|^2*phi", coerce(self.norm2)),
        ]

    def rest_frame_fermionic(self):
        """At p = m e^0 the system reduces to (conj(psi1), conj(psi2)) = M psi / m."""
        return [[x / self.m for x in row] for row in self.fermionic_matrix]

    def solution_dims_paired(self, tol):
        """Complex dimensions (bosonic, fermionic) of the two-frequency
        on-shell solution space: one free phi pair and one free psi pair.
        A float bosonic factor counts as zero up to and including ``tol``."""
        return (2, 2) if scal_is_zero(self.bosonic_factor, tol) else (0, 0)

    def as_dict(self):
        return {
            "momentum": [str(x) for x in self.p],
            "mass": str(self.m),
            "bosonic_relations": [name for name, _ in self.bosonic_relations()],
            "fermionic_matrix": [[str(x) for x in row]
                                 for row in self.fermionic_matrix],
            "bosonic_factor": str(self.bosonic_factor),
            "fermionic_factor_pointwise": str(self.fermionic_factor_pointwise),
            "fermionic_factor_paired": str(self.fermionic_factor_paired),
        }


def superspin0_constraints(p, m):
    return Superspin0Report(p, m)
