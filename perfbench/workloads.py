"""The benchmark's four workloads: seeded inputs, one unit each, and the check
of every unit's output.

Import this module only after ``checkout.use_checkout_src()``.  Units call
superkit through module attributes (``components.wz_operator``, not a name
imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

from superkit import cli, components, grassmann, linalg, spin_geometry, symbols

EXACT_BITS = (8, 32)   # component bit-length range of exact momenta
# Exact momenta cycle through these sizes (summed parameter bits), so every run
# gets the same mix of small and large denominators whatever the seed.
EXACT_LEVELS = range(5, 20)
GRID = (17, 0.2)       # pipeline-grid: points per axis, spacing
# Below rapidity ~0.2 the CLI's grid_convergence check (kg ratio in (3, 5))
# fails at h = 0.2, so the workload stays clear of near-rest momenta.
RAPIDITY = (0.4, 2.0)
FLOAT_TOL = 1e-9       # the CLI's default float tolerance


class ExactnessError(RuntimeError):
    pass


# -- input generators ------------------------------------------------------------

def _rational(rng, bits):
    """A rational in (-1, 1) with a `bits`-bit denominator."""
    den = rng.randrange(2 ** (bits - 1), 2 ** bits) + 1
    return Fraction(rng.randrange(1, den) * rng.choice((-1, 1)), den)


def component_bits(p):
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in p)


def exact_momentum(rng, level, m=1):
    """The rest momentum (m,0,0,0) under a rational boost along x and two
    Pythagorean rotations (x-y, then x-z), with component bit lengths in
    EXACT_BITS.  `level` is the total bit count of the three rational
    parameters.  Exactly on the forward mass-m shell, or ExactnessError."""
    lo, hi = EXACT_BITS
    while True:
        b_t = rng.randint(max(1, level - 16), min(8, level - 2))
        b_1 = rng.randint(max(1, level - b_t - 8), min(8, level - b_t - 1))
        t = _rational(rng, b_t)
        p = [m * (1 + t * t) / (1 - t * t), m * 2 * t / (1 - t * t), Fraction(0), Fraction(0)]
        for j, bits in ((2, b_1), (3, level - b_t - b_1)):
            s = _rational(rng, bits)
            c, sn = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
            p[1], p[j] = c * p[1] - sn * p[j], sn * p[1] + c * p[j]
        if lo <= component_bits(p) <= hi:
            break
    if spin_geometry.minkowski_norm2(p) != Fraction(m) ** 2 or not p[0] > 0:
        raise ExactnessError(f"generated momentum {p} is off the forward mass-{m} shell")
    return tuple(p)


def float_momentum(rng, m=1.0):
    """The rest momentum (m,0,0,0) under a boost of random rapidity and direction."""
    eta = rng.uniform(*RAPIDITY)
    n = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in n))
    return (m * math.cosh(eta), *(m * math.sinh(eta) * x / norm for x in n))


def momentum_json(p):
    if all(isinstance(x, Fraction) for x in p):
        return json.dumps([[x.numerator, x.denominator] for x in p])
    return json.dumps(list(p))


def _seed(rng):
    return rng.randrange(1, 2 ** 31)


# -- running the CLI in-process ------------------------------------------------------

def run_cli(argv):
    """``superkit.cli.main(argv)`` with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _report(out, want_rc):
    rc, text = out
    try:
        checks = {c["id"]: c for c in json.loads(text)["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"exit code {rc}, unreadable report: {exc}") from exc
    if rc != want_rc:
        failing = {cid: c["detail"] for cid, c in checks.items() if c["status"] != "pass"}
        raise CheckFailed(f"exit code {rc}, expected {want_rc}; failing checks {failing}")
    return checks


def _require(checks, ids):
    missing = sorted(set(ids) - set(checks))
    if missing:
        raise CheckFailed(f"missing checks {missing}")


class CheckFailed(Exception):
    pass


# -- workloads -------------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    rate_cap = 1.0     # inputs generated per run second; units cycle past that
    warmup = 1         # untimed units before the timed loop

    def generate(self, seed, seconds):
        rng = random.Random(f"{self.name}:{seed}")
        return [self.draw(rng, k) for k in range(max(4, math.ceil(self.rate_cap * seconds)))]

    def draw(self, rng, k):
        """Input k of the run."""
        raise NotImplementedError

    def unit(self, inp):
        raise NotImplementedError

    def verify(self, inp, out):
        """Raise CheckFailed unless `out` is the correct output for `inp`."""
        raise NotImplementedError

    def properties(self, inputs):
        raise NotImplementedError


class Identities(Workload):
    name = "identities"
    why = ("the full identity suite: exact QC, dense EndoW assembly and matmul, "
           "wide superfunctions and the float propagation route")
    rate_cap = 1.0
    warmup = 0
    # every check but the documented red passes; that one must stay red (ledger L7)
    RED = "algebra.d2_route_equivalence"
    FLOAT_CHECKS = ("symbols.propagation_route",)
    CHECKS = ("algebra.anticommutation_ie", "algebra.anticommutation_ii_ee",
              "algebra.chiral_kernel", RED, "algebra.parity_bookkeeping",
              "algebra.susy_invariance", "brackets.bracket_table", "brackets.p_brackets",
              "superfourier.body_vs_berezin", "superfourier.cbh_group_law",
              "superfourier.exchange_identities", "superfourier.ft_round_trip",
              "superfourier.hodge_star_table", "superfourier.zeta_intertwining",
              "symbols.dirac_kernel", "symbols.propagation_route",
              "symbols.superspin0_elimination")

    def draw(self, rng, k):
        return _seed(rng)

    def unit(self, seed):
        return run_cli(["identities", "--suite", "all", "--seed", str(seed), "--json"])

    def verify(self, seed, out):
        checks = _report(out, want_rc=1)
        _require(checks, self.CHECKS)
        for cid, c in checks.items():
            if cid == self.RED:
                if c["status"] != "fail":
                    raise CheckFailed(f"{cid} passed; the documented red must stay red")
                continue
            if c["status"] != "pass":
                raise CheckFailed(f"{cid} failed: {c['detail']}")
            if cid not in self.FLOAT_CHECKS and c["max_error"] != 0.0:
                raise CheckFailed(f"{cid} exact check reports error {c['max_error']}")

    def properties(self, seeds):
        return {"suite": "all", "suite_seeds": len(seeds),
                "data": "the CLI draws its own rationals (denominators <= 4) from each seed"}


class PipelineExact(Workload):
    name = "pipeline-exact"
    why = ("narrow two-frequency superfunctions with 8-32 bit rational momenta: "
           "superfourier Dbar/D2 and wz_operator, no linalg, no dense EndoW")
    rate_cap = 40.0
    EXACT_IDS = ("chirality", "wz_vanishes", "component_residuals")

    def draw(self, rng, k):
        return exact_momentum(rng, EXACT_LEVELS[k % len(EXACT_LEVELS)]), _seed(rng)

    def unit(self, inp):
        p, seed = inp
        return run_cli(["pipeline", "--mass", "1", "--momentum", momentum_json(p),
                        "--seed", str(seed), "--json"])

    def verify(self, inp, out):
        checks = _report(out, want_rc=0)
        _require(checks, self.EXACT_IDS)
        for cid, c in checks.items():
            if c["status"] != "pass":
                raise CheckFailed(f"{cid} failed: {c['detail']}")
            if c["max_error"] != 0.0:
                raise CheckFailed(f"{cid} exact check reports error {c['max_error']}")

    def properties(self, inputs):
        bits = [component_bits(p) for p, _ in inputs]
        return {"mass": 1, "component_bits": [min(bits), max(bits)],
                "distinct_momenta": len({p for p, _ in inputs}),
                "superfunction_width": 2}


class PipelineGrid(Workload):
    name = "pipeline-grid"
    why = ("float on-shell momenta with the n=17 finite-difference grid: numpy "
           "residuals dominate and exact arithmetic is bypassed")
    rate_cap = 40.0

    def draw(self, rng, k):
        return float_momentum(rng), _seed(rng)

    def unit(self, inp):
        p, seed = inp
        n, h = GRID
        return run_cli(["pipeline", "--mass", "1", "--momentum", momentum_json(p),
                        "--grid", f"{n},{h}", "--seed", str(seed), "--json"])

    def verify(self, inp, out):
        checks = _report(out, want_rc=0)
        _require(checks, ("wz_vanishes", "grid_convergence"))
        for cid, c in checks.items():
            if c["status"] != "pass":
                raise CheckFailed(f"{cid} failed: {c['detail']}")
        if not checks["wz_vanishes"]["max_error"] <= FLOAT_TOL:
            raise CheckFailed(f"wz residual {checks['wz_vanishes']['max_error']}")

    def properties(self, inputs):
        p0 = [p[0] for p, _ in inputs]
        return {"mass": 1.0, "grid_n": GRID[0], "grid_h": GRID[1],
                "rapidity_range": list(RAPIDITY), "p0": [min(p0), max(p0)],
                "superfunction_width": 2}


class Kernels(Workload):
    name = "kernels"
    why = ("exact kernel solvers at 8-32 bit momenta: the one workload where "
           "linalg elimination is a large share (criterion 9 path)")
    rate_cap = 20.0

    def draw(self, rng, k):
        return exact_momentum(rng, EXACT_LEVELS[k % len(EXACT_LEVELS)])

    def unit(self, p):
        wz = components.wz_equivalence_check(4, p)
        B = spin_geometry.gamma_pair(p)
        null = grassmann.chiral_kernel_nullspace(B)
        closed = grassmann.chiral_kernel(B)
        span = linalg.same_span([v.to_vector() for v in closed], [v.to_vector() for v in null])
        return wz, len(null), span, symbols.dirac_kernel_dim(p, 1)

    def verify(self, p, out):
        wz, null_dim, span, dirac = out
        if not wz["match"] or wz["scalar_dim_real"] != 8:
            raise CheckFailed(f"wz_equivalence_check: {wz}")
        if null_dim != 4 or not span:
            raise CheckFailed(f"chiral null space dim {null_dim}, same span {span}")
        if dirac != 2:
            raise CheckFailed(f"Dirac kernel dim {dirac}")

    def properties(self, inputs):
        bits = [component_bits(p) for p in inputs]
        return {"mass": 1, "component_bits": [min(bits), max(bits)],
                "distinct_momenta": len(set(inputs)), "wz_equivalence_N": 4}


WORKLOADS = {w.name: w for w in (Identities(), PipelineExact(), PipelineGrid(), Kernels())}


def digest(inputs):
    """Short fingerprint of a generated input list, to confirm seeding is deterministic."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]
