"""The benchmark's tracer still reads what it needs from superkit.

``perfbench/tracer.py`` wraps superkit's public callables and reads the
superfunction width from ``SuperFunction.comps`` and ``PlaneWaveFn.terms``.
A rename there would otherwise surface only in a traced benchmark run.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402

from superkit import cli  # noqa: E402


def test_traced_exact_pipeline_unit_counts_width_and_qc_ops():
    tracer = Tracer().install()
    try:
        with tracer.unit(1), redirect_stdout(io.StringIO()):
            code = cli.main(["pipeline", "--mass", "1", "--momentum",
                             "[[13,12],[5,12],[0,1],[0,1]]", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counters["superfourier.width_n"] > 0
    assert tracer.qc_ops() == 489
