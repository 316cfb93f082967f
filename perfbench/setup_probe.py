"""One fresh-process set-up: import superkit (and numpy) from the checkout and
generate a workload's inputs, then print their fingerprint and exit.

``run.py`` times this process from spawn to exit to get ``setup_s``.

    python3 perfbench/setup_probe.py --workload kernels --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import sys

from checkout import MissingSources, use_checkout_src


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    try:
        use_checkout_src()
    except MissingSources as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        return 2
    import numpy  # noqa: F401 - part of the set-up a CLI user pays
    import workloads
    inputs = workloads.WORKLOADS[args.workload].generate(args.seed, args.seconds)
    print(workloads.digest(inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
