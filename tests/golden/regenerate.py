"""Regenerate the golden CLI outputs in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

Each command of MATRIX runs in-process through ``superkit.cli.main``, from the
repository root, so file arguments are relative to it (inputs live in
``inputs/``).  Its JSON output, without the per-check ``runtime_ms``, goes to
``<name>.json`` next to the argv, the exit code and the tolerances of its float
fields.
``tests/test_golden.py`` reruns every file and compares.  Regenerate only to
absorb a change that is explained, and list every changed field with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from superkit import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

EXACT_P = "[[5,4],[3,4],0,0]"
EXACT_P2 = "[2,1,1,1]"
FLOAT_P = "[1.25,0.6,0.0,0.45]"  # on the mass-1 shell up to rounding
GRID = ["--grid", "9,0.2"]

# Absolute tolerances of the float fields, by check id.  A "detail" entry
# applies to every number in the detail string; every other field and every
# check not listed must match exactly.
IDENTITIES_TOL = {"symbols.propagation_route": {"max_error": 1e-12}}
PIPELINE_FLOAT_TOL = {"wz_vanishes": {"max_error": 1e-12},
                      "component_residuals": {"max_error": 1e-12},
                      "grid_convergence": {"max_error": 1e-9, "detail": 0.01}}
GRID_TOL = {"grid_convergence": {"max_error": 1e-9, "detail": 0.01}}

MATRIX = {
    **{f"identities_seed{s}": (["identities", "--suite", "all", "--seed", str(s), "--json"],
                               IDENTITIES_TOL) for s in range(10)},
    "pipeline_exact": (["pipeline", "--mass", "1", "--momentum", EXACT_P, "--json"], {}),
    "pipeline_exact_grid": (["pipeline", "--mass", "1", "--momentum", EXACT_P, *GRID,
                             "--json"], GRID_TOL),
    "pipeline_float": (["pipeline", "--mass", "1", "--momentum", FLOAT_P, "--json"],
                       PIPELINE_FLOAT_TOL),
    "pipeline_float_grid": (["pipeline", "--mass", "1", "--momentum", FLOAT_P, *GRID,
                             "--json"], PIPELINE_FLOAT_TOL),
    "pipeline_float_grid17": (["pipeline", "--mass", "1", "--momentum", FLOAT_P,
                               "--grid", "17,0.2", "--json"], PIPELINE_FLOAT_TOL),
    **{f"kernel_{sym}_{kind}": (["kernel", "--symbol", sym, "--momentum", p, "--json"], {})
       for sym in ("dirac", "chiral", "superspin0")
       for kind, p in (("exact", EXACT_P2), ("float", FLOAT_P))},
    "solve_exact": (["solve", "--momentum", EXACT_P2, "--json"], {}),
    "wz_check_exact": (["wz-check", "--momentum", EXACT_P2, "--json"], {}),
    "wz_check_float": (["wz-check", "--momentum", FLOAT_P, "--json"],
                       {"wz_vanishes": {"max_error": 1e-12}}),
    "wz_check_exact_grid": (["wz-check", "--momentum", EXACT_P2, *GRID, "--json"], GRID_TOL),
    "orbit_classify": (["orbit-classify", "--momentum", EXACT_P2, "--json"], {}),
    "superft_exact": (["superft", "--input", "tests/golden/inputs/superft_exact.json"], {}),
    "decompose": (["decompose", "--alpha", "1", "--beta", "3/2", "--json"], {}),
    "multiplet": (["multiplet", "--sigma", "1/2", "--json"], {}),
    "content": (["content", "--sigma", "1", "--json"], {}),
}


def run(argv):
    """(exit code, JSON output without runtime_ms) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.chdir(ROOT):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    for check in report.get("checks", []):
        check.pop("runtime_ms", None)
    return code, report


def main():
    for name, (argv, tolerances) in MATRIX.items():
        code, report = run(argv)
        entry = {"argv": argv, "exit_code": code, "tolerances": tolerances, "report": report}
        (HERE / f"{name}.json").write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    main()
