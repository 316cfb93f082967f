"""Negative controls: every identity check in superkit.suites can fail.

The CLI and the tests call the same check functions, so a check that could
not fail would pass both.  Each case runs a check on small seeded data and
expects a pass, then breaks one sign convention, table or operator that the
check depends on and expects a fail.
"""

import json
import random
from fractions import Fraction

import pytest

from superkit import cli, conventions, grassmann, suites
from superkit import superfourier as sft
from superkit import symbols as sym
from superkit.exactnum import QC
from superkit.grassmann import PairingMatrix, build_d2, build_dbar2


def _gen_table(gen, mask, target=None):
    """GEN_TABLE with the entry of generator `gen` on `mask` sign-flipped, or
    sent to `target` instead."""
    table = [list(row) for row in grassmann.GEN_TABLE]
    sign, nm = table[gen][mask]
    table[gen][mask] = (-sign, nm) if target is None else (sign, target)
    return tuple(tuple(row) for row in table)


def _star_table(mask):
    """STAR_TABLE with the factor of `mask` negated."""
    tgt, fac = sft.STAR_TABLE[mask]
    return {**sft.STAR_TABLE, mask: (tgt, -fac)}


def _flip(table, a, b, mu):
    """A 2x2 table of covectors with component mu of entry (a, b) negated."""
    rows = [[list(v) for v in row] for row in table]
    rows[a][b][mu] = -rows[a][b][mu]
    return tuple(tuple(tuple(v) for v in row) for row in rows)


def _pairings(rng):
    return [PairingMatrix.identity()] + [suites.rand_pairing(rng) for _ in range(3)]


def _superfunctions(rng):
    return [suites.rand_superfunction(rng) for _ in range(3)]


def _shell(rng):
    return [suites.rand_shell_sample(rng) for _ in range(3)]


def _odd_only_negate(u):
    return sft.SuperPoint([-c for c in u.y], u.xi, u.xibar)


_divergence_symbol = sym.divergence_symbol


def _divergence_symbol_minus_one_row(alpha, beta, p):
    """The divergence symbol with its last output coefficient dropped."""
    return _divergence_symbol(alpha, beta, p)[:-1]


# check name -> (data from a seeded rng, (object, attribute, broken value))
CASES = {
    # tau-bar^1 wedged onto tau^1 with the wrong Koszul sign
    "anticommutation_ie": (_pairings, (grassmann, "GEN_TABLE", _gen_table(2, 1))),
    "anticommutation_ii_ee": (_pairings, (grassmann, "GEN_TABLE", _gen_table(2, 1))),
    # tau^1 wedged onto tau-bar^1 with the wrong Koszul sign
    "susy_invariance": (_pairings, (grassmann, "GEN_TABLE", _gen_table(0, 4))),
    # tau-bar^2 wedged onto 1 with the wrong sign
    "chiral_kernel": (_pairings, (grassmann, "GEN_TABLE", _gen_table(3, 0))),
    # tau^1 wedged onto 1 lands on 1: d_1 is no longer odd
    "parity_bookkeeping": (lambda rng: suites.rand_pairing(rng),
                           (grassmann, "GEN_TABLE", _gen_table(0, 0, target=0))),
    "hodge_star_table": (lambda rng: [grassmann.Multivector.basis(5, suites.rand_qc(rng))],
                         (sft, "STAR_TABLE", _star_table(5))),
    "exchange_identities": (_superfunctions, (conventions, "EPS_LOWER", ((0, -1), (1, 0)))),
    "ft_round_trip": (_superfunctions, (sft, "STAR_TABLE", _star_table(5))),
    "body_vs_berezin": (_superfunctions, (sft, "STAR_TABLE", _star_table(0))),
    "zeta_intertwining": (_superfunctions,
                          (conventions, "GAMMA_LOWER", _flip(conventions.GAMMA_LOWER, 0, 1, 2))),
    # an inverse that keeps the odd coordinates
    "cbh_group_law": (lambda rng: [tuple(suites.rand_superpoint(rng, sft.AuxGrassmann(4))
                                         for _ in range(3))],
                      (sft.SuperPoint, "negate", _odd_only_negate)),
    "bracket_table": (lambda rng: [(q, sft.single_wave(mask, QC(1), q))
                                   for q in [suites.rand_momentum(rng)] for mask in (0, 5, 10, 15)],
                      (grassmann, "GEN_TABLE", _gen_table(0, 4))),
    # a "momentum" that multiplies by theta^1 does not commute with Q, D
    "p_brackets": (lambda rng: [sft.single_wave(3, QC(1, 1), suites.rand_momentum(rng))],
                   (sft, "apply_P", lambda mu, f: sft.theta_multiply(1, f))),
    "dirac_kernel": (_shell, (conventions, "GAMMA_TABLE", _flip(conventions.GAMMA_TABLE, 0, 0, 1))),
    "superspin0_elimination": (lambda rng: [(suites.rand_momentum(rng), Fraction(1))],
                               (conventions, "GAMMA_TABLE",
                                _flip(conventions.GAMMA_TABLE, 0, 0, 1))),
    "divergence_kernel": (lambda rng: [suites.rand_divergence_sample(rng) for _ in range(3)],
                          (sym, "divergence_symbol", _divergence_symbol_minus_one_row)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_check_fails_when_a_convention_breaks(name, monkeypatch):
    make, (obj, attr, broken) = CASES[name]
    check, data = getattr(suites, name), make(random.Random(11))
    assert check(data)[0] is True
    monkeypatch.setattr(obj, attr, broken)
    assert check(data)[0] is False


def test_zeta_intertwining_fails_when_eps_upper_flips(monkeypatch):
    """D^2 on superspace squares with eps^{ab} and zeta_{d^2} with eps_{ab}
    (ledger L2), so negating eps_upper alone breaks the D^2 intertwining."""
    fs = _superfunctions(random.Random(11))
    assert suites.zeta_intertwining(fs)[0] is True
    monkeypatch.setattr(conventions, "EPS_UPPER", ((0, -1), (1, 0)))
    assert suites.zeta_intertwining(fs) == (False, 1.0, "D2 intertwining")


def test_float_check_fails_when_a_koszul_sign_breaks(monkeypatch):
    samples = _shell(random.Random(11))
    assert suites.propagation_route(samples, 1e-9)[0] is True
    monkeypatch.setattr(grassmann, "GEN_TABLE", _gen_table(2, 1))
    ok, worst, _ = suites.propagation_route(samples, 1e-9)
    assert ok is False and worst > 1e-3


def test_documented_red_check_can_pass(monkeypatch):
    """d2_route_equivalence is red on purpose (ledger L7); it turns green when
    the factorized routes are replaced by the composed ones."""
    pairings = _pairings(random.Random(11))
    assert suites.d2_route_equivalence(pairings)[0] is False
    monkeypatch.setattr(suites, "build_d2_factorized", build_d2)
    monkeypatch.setattr(suites, "build_dbar2_factorized", build_dbar2)
    assert suites.d2_route_equivalence(pairings)[0] is True


def test_documented_red_check_names_each_failing_route(monkeypatch):
    """d2_route_equivalence compares both routes: a d^2 mismatch does not hide
    the d-bar^2 one, and the detail names exactly the routes that differ."""
    pairings = _pairings(random.Random(11))
    assert suites.d2_route_equivalence(pairings)[2].startswith("d2 and dbar2: composed")
    monkeypatch.setattr(suites, "build_d2_factorized", build_d2)
    assert suites.d2_route_equivalence(pairings)[2].startswith("dbar2: composed")
    monkeypatch.undo()
    monkeypatch.setattr(suites, "build_dbar2_factorized", build_dbar2)
    assert suites.d2_route_equivalence(pairings)[2].startswith("d2: composed")


def test_generator_sign_break_fails_brackets_intertwining_and_wz(monkeypatch, capsys):
    """Under this break (tau^1 wedged onto tau-bar^2 with the wrong sign) the
    bracket table, the zeta intertwining and the pipeline's wz_vanishes all
    fail.  D-bar^2 stays composed from four odd passes: the two-pass form
    (eps^12 - eps^21) Dbar_1 Dbar_2, which assumes {Dbar_1, Dbar_2} = 0,
    leaves wz_vanishes green under this break and under 7 other single-sign
    breaks of GEN_TABLE."""
    rng = random.Random(11)
    q = suites.rand_momentum(rng)
    cases = [(q, sft.single_wave(mask, QC(1), q)) for mask in (0, 5, 10, 15)]
    fs = _superfunctions(rng)
    argv = ["pipeline", "--mass", "1", "--momentum", "[[5,4],[3,4],0,0]", "--json"]

    def wz_status():
        cli.main(argv)
        checks = json.loads(capsys.readouterr().out)["checks"]
        return {c["id"]: c["status"] for c in checks}["wz_vanishes"]

    assert suites.bracket_table(cases)[0] and suites.zeta_intertwining(fs)[0]
    assert wz_status() == "pass"
    monkeypatch.setattr(grassmann, "GEN_TABLE", _gen_table(0, 8))
    assert not suites.bracket_table(cases)[0]
    assert not suites.zeta_intertwining(fs)[0]
    assert wz_status() == "fail"
