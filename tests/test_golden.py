"""Golden CLI outputs: every file in tests/golden/ must be reproduced.

Each file holds an argv, its exit code and its JSON output without the
per-check ``runtime_ms`` (``tests/golden/regenerate.py`` writes them).  Reports
of data commands (``kernel``, ``solve``, ``superft``, ...) have no checks and
must match byte for byte.  The
exit code, the statuses, the ledger and every exact field must match byte for
byte; the float fields listed in the file's ``tolerances`` must agree within
the absolute tolerance written there (for ``detail``, each number in it).
"""

import json
import random
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from regenerate import MATRIX, run  # noqa: E402

from conftest import aux_gen  # noqa: E402

from superkit.cli import build_parser  # noqa: E402
from superkit.exactnum import QC  # noqa: E402
from superkit.suites import rand_even, rand_odd, rand_qc, rand_rational  # noqa: E402
from superkit.superfourier import AuxGrassmann  # noqa: E402

NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _exact(x):
    return json.dumps(x, sort_keys=True)


def _field_diff(field, want, got, tol):
    if tol is None:
        return None if _exact(want) == _exact(got) else f"{field}: {want!r} != {got!r}"
    if isinstance(want, str):
        wn, gn = NUMBER.findall(want), NUMBER.findall(got)
        if NUMBER.split(want) != NUMBER.split(got) or len(wn) != len(gn):
            return f"{field}: {want!r} != {got!r}"
        pairs = [(float(a), float(b)) for a, b in zip(wn, gn)]
    else:
        pairs = [(want, got)]
    if any(abs(a - b) > tol for a, b in pairs):
        return f"{field}: {want!r} vs {got!r} beyond {tol}"
    return None


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_cli_output_matches_golden(path):
    entry = json.loads(path.read_text(encoding="utf-8"))
    code, report = run(entry["argv"])
    want = entry["report"]
    assert code == entry["exit_code"]
    assert _exact({k: v for k, v in report.items() if k != "checks"}) == \
        _exact({k: v for k, v in want.items() if k != "checks"})
    got_checks, want_checks = report.get("checks", []), want.get("checks", [])
    assert [c["id"] for c in got_checks] == [c["id"] for c in want_checks]
    diffs = []
    for w, g in zip(want_checks, got_checks):
        tols = entry["tolerances"].get(w["id"], {})
        assert set(g) == set(w), w["id"]
        diffs += [f"{w['id']}.{d}" for field in w
                  if (d := _field_diff(field, w[field], g[field], tols.get(field)))]
    assert not diffs


def test_every_command_has_a_golden_case():
    [sub] = [a for a in build_parser()._actions if a.dest == "command"]
    covered = {argv[0] for argv, _ in MATRIX.values()}
    assert set(sub.choices) - covered == set()


# -- the identities_seed* cases keep testing the same data --------------------------------

def _rand_qc_reference(rng):
    return QC(rand_rational(rng), rand_rational(rng))


def _rand_even_reference(rng, alg):
    out = alg.scalar(rng.randint(-3, 3))
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            out = out + rng.randint(-2, 2) * (aux_gen(alg, i) * aux_gen(alg, j))
    return out


def _rand_odd_reference(rng, alg):
    out = alg.element({})
    for i in range(alg.n):
        out = out + rng.randint(-2, 2) * aux_gen(alg, i)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_random_data_matches_the_fraction_and_product_constructions(seed):
    """rand_qc, rand_even and rand_odd give the values of the Fraction and
    GrassElt-product constructions they replaced and consume the same draws."""
    alg = AuxGrassmann(4)
    got, want = random.Random(seed), random.Random(seed)
    for _ in range(20):
        x, y = rand_qc(got), _rand_qc_reference(want)
        assert type(x) is QC and (x._a, x._b, x._d) == (y._a, y._b, y._d)
        for fast, ref in ((rand_even, _rand_even_reference), (rand_odd, _rand_odd_reference)):
            x, y = fast(got, alg), ref(want, alg)
            assert list(x.coeffs.items()) == list(y.coeffs.items())
            assert all(type(c) is QC for c in x.coeffs.values())
        assert got.getstate() == want.getstate()
