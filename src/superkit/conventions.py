"""Convention ledger: the single authoritative record of every sign and
ordering choice the construction leaves open.

Everything in this module is validated by the identity suites; nothing may be
changed without re-running ``pytest`` and the CLI identity suites.  Reports
embed :func:`snapshot` so a result is reproducible with the conventions in
force when it was produced.

Ledger entries
--------------
L1  Canonical odd-generator order is  tau^1 < tau^2 < taubar^1 < taubar^2,
    and all operator lifts take Koszul crossing signs in that flattened
    order.  Exterior multiplications are Clifford creation operators, the
    interior products are graded contractions.  This is the unique choice
    (up to a global basis sign) under which the rest-frame anticommutation
    suite and the supersymmetric-invariance commutators hold together.
    The sign is computed in one place, ``grassmann.koszul_sign``.
L2  eps_lower = eps_upper = [[0, 1], [-1, 0]] in the index pair (a, b), for
    both undotted and dotted (minus-chirality) indices.  In particular
    eps^{12} = +1, i.e. NOT the inverse convention eps^{ab}eps_{bc} =
    delta^a_c.  Pinned by the theta exchange identities of the super
    Fourier transform and the D^2 intertwining identity.  No module keeps a
    copy: grassmann.eps_square contracts with the table read here on each
    call (eps_lower for d^2 on W, eps_upper for D^2 on superspace), and each
    entry must be 0 or +-1.
L3  The momentum pairing table is
        B(p) = [[p0+p1, p2-i*p3], [p2+i*p3, p0-p1]],
    whose determinant is the Minkowski norm in signature (+,-,-,-).
L4  The vector-field coefficient table GAMMA_LOWER (the Gamma^mu_{ab} used
    in Q, Qbar, D, Dbar, the chiral expansion, and the Dirac residual) is
    minus the transposed adjugate of the pairing table:
        Gamma_{11} = -e0+e1   Gamma_{12} = e2+i*e3
        Gamma_{21} = e2-i*e3  Gamma_{22} = -e0-e1
    Pinned by requiring  star((D_a f)^) = i eps_{ab} zeta_{d_b}(star fhat)
    with the + sign as stated.
L5  The minus-chirality spin action on coefficient columns is (A^dagger)^-1
    (equivalently: basis covectors transform by the contragredients), the
    unique composition-law-respecting reading of the conventional
    "-A^dagger" prescription;
    it makes B(h.p) = A B(p) A^dagger exact.
L6  Berezin integral extracts the theta^1 theta^2 thetabar^1 thetabar^2
    coefficient with sign +1.
L7  d^2 and dbar^2 mean the composed contractions eps_{ab} d_a d_b.  The
    commonly quoted factorized form (e^2 (x) Id) + (Id (x) i^2) is NOT
    equal to the composed one on W (cross terms e_a (x) i_b survive); the
    composed operator is the one validated by the super Fourier transform,
    and it is what zeta_d2 / build_d2 return.  See decisions ledger.
L8  The conjugation entering the Wess-Zumino operator is the graded
    (reversing) dagger WZ_CONJ_SIGNS below, not the in-place conjugation
    c-sharp of the real-superfunction discussion; the WZ operator carries
    the normalization WZ_NORM and mass sign WZ_MASS_SIGN.  All three are
    pinned by requiring the WZ solution space at an exact on-shell momentum
    to be the full superspin-0 multiplet (2 bosonic + 2 fermionic complex
    parameters) with Klein-Gordon / Dirac component content at mass m.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import QC

# L2: symplectic structures.  eps[a][b] with a, b in {0, 1} (one-based 1, 2).
EPS_LOWER = ((0, 1), (-1, 0))
EPS_UPPER = ((0, 1), (-1, 0))

# L3: momentum pairing table Gamma_C(tau^a, taubar^b) as covector components
# (coefficients of e0, e1, e2, e3; an entry (c0, c1, c2, c3) pairs with p as
# c0*p0 + c1*p1 + c2*p2 + c3*p3).  Imaginary units stored as QC.
GAMMA_TABLE = (
    ((QC(1), QC(1), QC(0), QC(0)), (QC(0), QC(0), QC(1), QC(0, -1))),
    ((QC(0), QC(0), QC(1), QC(0, 1)), (QC(1), QC(-1), QC(0), QC(0))),
)

# L4: vector-field coefficient table Gamma^mu_{ab} (undotted a, dotted b).
GAMMA_LOWER = (
    ((QC(-1), QC(1), QC(0), QC(0)), (QC(0), QC(0), QC(1), QC(0, 1))),
    ((QC(0), QC(0), QC(1), QC(0, -1)), (QC(-1), QC(-1), QC(0), QC(0))),
)

# L8: Wess-Zumino conjugation sign by (|I|, |J|) of the theta monomial; the
# component at (I, J) is conjugated and moved to (J, I) with this sign.
# This is the graded reversal dagger: sign = (-1)^(k(k-1)/2 + l(l-1)/2).
WZ_CONJ_SIGNS = {
    (0, 0): 1, (1, 0): 1, (0, 1): 1,
    (2, 0): -1, (0, 2): -1, (1, 1): 1,
    (2, 1): -1, (1, 2): -1, (2, 2): 1,
}

# L8: wz(f) = WZ_NORM * ( -Dbar^2 (J f) ) + WZ_MASS_SIGN * m * f  -- the
# normalization and mass sign validated by tests/test_components.py.
WZ_NORM = Fraction(1, 4)
WZ_MASS_SIGN = 1

# c-sharp: the in-place antilinear conjugation of the real-superfunction
# discussion; sign = (-1)^(|I| * |J|).
CSHARP_SIGNS = {
    (i, j): (-1) ** (i * j) for i in range(3) for j in range(3)
}


def snapshot():
    """JSON-serializable record of the conventions in force."""
    return {
        "canonical_order": "tau1 < tau2 < taubar1 < taubar2 (Koszul lifts)",
        "eps_lower": [list(r) for r in EPS_LOWER],
        "eps_upper": [list(r) for r in EPS_UPPER],
        "pairing_table": "B(p) = [[p0+p1, p2-i p3], [p2+i p3, p0-p1]]",
        "gamma_lower": "[[-e0+e1, e2+i e3], [e2-i e3, -e0-e1]]",
        "minus_spin_action": "(A^dagger)^-1 on coefficient columns",
        "berezin": "top coefficient, sign +1",
        "d2_definition": "composed eps_{ab} d_a d_b",
        "wz_conjugation": "graded reversal dagger",
        "wz_norm": str(WZ_NORM),
        "wz_mass_sign": WZ_MASS_SIGN,
    }
