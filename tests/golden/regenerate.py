"""Regenerate the golden CLI outputs in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

Each command of MATRIX runs in-process through ``superkit.cli.main``; its JSON
report, without the per-check ``runtime_ms``, goes to ``<name>.json`` next to
the argv, the exit code and the tolerances of its float fields.
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

EXACT_P = "[[5,4],[3,4],0,0]"
FLOAT_P = "[1.25,0.6,0.0,0.45]"  # on the mass-1 shell up to rounding
GRID = ["--grid", "9,0.2"]

# Absolute tolerances of the float fields, by check id.  A "detail" entry
# applies to every number in the detail string; every other field and every
# check not listed must match exactly.
IDENTITIES_TOL = {"symbols.propagation_route": {"max_error": 1e-12}}
PIPELINE_FLOAT_TOL = {"wz_vanishes": {"max_error": 1e-12},
                      "component_residuals": {"max_error": 1e-12},
                      "grid_convergence": {"max_error": 1e-9, "detail": 0.01}}

MATRIX = {
    **{f"identities_seed{s}": (["identities", "--suite", "all", "--seed", str(s), "--json"],
                               IDENTITIES_TOL) for s in range(10)},
    "pipeline_exact": (["pipeline", "--mass", "1", "--momentum", EXACT_P, "--json"], {}),
    "pipeline_exact_grid": (["pipeline", "--mass", "1", "--momentum", EXACT_P, *GRID,
                             "--json"], {"grid_convergence": {"max_error": 1e-9,
                                                              "detail": 0.01}}),
    "pipeline_float": (["pipeline", "--mass", "1", "--momentum", FLOAT_P, "--json"],
                       PIPELINE_FLOAT_TOL),
    "pipeline_float_grid": (["pipeline", "--mass", "1", "--momentum", FLOAT_P, *GRID,
                             "--json"], PIPELINE_FLOAT_TOL),
}


def run(argv):
    """(exit code, JSON report without runtime_ms) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
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
