"""Named per-layer microbenchmarks: the baseline rows later changes cite.

Each row times one library call on a fixed input, independent of the
workload seed, untraced, and reports the median time per call.  Import only
after ``checkout.use_checkout_src()``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction as F

from superkit import components, grassmann, spin_geometry, superfourier
from superkit.exactnum import QC

P_FIXED = (F(2), F(1), F(1), F(1))   # exact, on the mass-1 shell, generic pairing
QC_PAIR = (QC(F(3, 7), F(-5, 11)), QC(F(2, 9), F(13, 4)))
ROW_SECONDS = 0.15                   # timing budget per row (at least MIN_REPS calls)
MIN_REPS = 3
QC_BATCH = 2000                      # multiplies per timed batch


def _median_call_s(fn):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < ROW_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def qc_mul_us(pairs):
    """Median microseconds per QC x QC multiply over batches of `pairs`."""
    reps = max(1, QC_BATCH // len(pairs))

    def batch():
        for _ in range(reps):
            for a, b in pairs:
                a * b
    return _median_call_s(batch) / (reps * len(pairs)) * 1e6


def _random_superfunction(rng):
    """One plane wave per monomial with small exact amplitude and momentum."""
    def rat():
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    f = superfourier.SuperFunction({}, "position")
    for mask in grassmann.MONOMIALS:
        q = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4))
        f = f + superfourier.single_wave(mask, QC(rat(), rat()), q)
    return f


def rows():
    """(name, unit, value) for every baseline row."""
    B = spin_geometry.gamma_pair(P_FIXED)
    d1, dbar2 = grassmann.build_d(1, B), grassmann.build_dbar(2, B)
    sf = _random_superfunction(random.Random(0))
    sol = components.solution_generator(P_FIXED, 1, seed_a=QC(F(1, 3), F(-2, 5)),
                                        seed_u=(QC(1), QC(F(1, 2), F(1, 3))))
    chiral = components.chiral_expand(sol)
    ms = 1e3
    return [
        ("baseline.qc_mul.us", "us", qc_mul_us([QC_PAIR])),
        ("baseline.endow_matmul.ms", "ms", ms * _median_call_s(lambda: d1 @ dbar2)),
        ("baseline.build_d2.ms", "ms", ms * _median_call_s(lambda: grassmann.build_d2(B))),
        ("baseline.chiral_kernel_nullspace.ms", "ms",
         ms * _median_call_s(lambda: grassmann.chiral_kernel_nullspace(B))),
        ("baseline.apply_D2.ms", "ms", ms * _median_call_s(lambda: superfourier.apply_D2(sf))),
        ("baseline.wz_operator.ms", "ms",
         ms * _median_call_s(lambda: components.wz_operator(chiral, 1))),
        ("baseline.wz_equivalence_check_4.ms", "ms",
         ms * _median_call_s(lambda: components.wz_equivalence_check(4))),
        ("baseline.grid_residual_9.ms", "ms",
         ms * _median_call_s(lambda: components.grid_residual(sol, 1.0, components.Grid4(9, 0.2)))),
        ("baseline.grid_residual_17.ms", "ms",
         ms * _median_call_s(lambda: components.grid_residual(sol, 1.0, components.Grid4(17, 0.2)))),
    ]
