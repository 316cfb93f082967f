"""Locate the superkit sources of the checkout this benchmark lives in.

The benchmark always measures the package under ``<checkout>/src``, never an
installed copy, so a run from a directory without the sources fails instead
of silently timing some other build.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingSources(RuntimeError):
    pass


def use_checkout_src():
    """Put ``<checkout>/src`` first on ``sys.path`` and import superkit from it."""
    if not (SRC / "superkit" / "__init__.py").is_file():
        raise MissingSources(f"no superkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import superkit
    if Path(superkit.__file__).resolve().parent != SRC / "superkit":
        raise MissingSources(f"superkit imported from {superkit.__file__}, not {SRC}")
    return superkit
