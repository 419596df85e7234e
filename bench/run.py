"""Benchmark entry point.

    python3 bench/run.py --workload ring_chord --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and drives ``nhent`` from ``src/``.  It
prints progress lines and then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics of a traced run with
``--trace 1``.  See ``bench/README.md``.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ring_chord", "open_ladder", "no_jump", "oracle_cli")
# Pinned before numpy loads.  One thread: on two shared cores the second
# OpenBLAS thread mostly spins, and single-threaded passes are both faster
# and steadier for these matrix sizes.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nhent", "__init__.py")):
        print(f"bench: no nhent package under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # a run leaves nothing under src/
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import harness
    if args.setup_child:
        harness.setup_child(args.workload, args.seed, t0)
        return 0
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
