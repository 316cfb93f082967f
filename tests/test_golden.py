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
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from regenerate import MATRIX, run  # noqa: E402

from superkit.cli import build_parser  # noqa: E402

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
