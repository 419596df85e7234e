"""Per-call cost of the dense eigen-solve, the route from kernel to half
cut, the Fock sector build and a no-jump run.

    python tools/solve_timing.py [SRC] [--repeat N]

Imports ``nhent`` from SRC (default: the ``src`` next to this script's
directory) and prints one JSON line.  For each case it holds the best of N
wall-clock timings of one call, in microseconds, the number of function
calls (Python and built-in) that ``cProfile`` counts in one call, and the
peak of one call's allocations under ``tracemalloc``, in KiB:

- ``balanced_eig`` on 10 x 10 kernels, one per solver path: Hermitian,
  real, general complex, PT-symmetric (the open ``nh_ssh`` chain, with its
  lattice mirrors) and gauge-Hermitian (the open Hatano-Nelson chain);
- ``balanced_eig`` on the 252 x 252 five-particle sector of a random
  10-mode oracle kernel; on that sector of the open 5-cell ``nh_ssh``
  chain, with the Fock image (state s to sum_i bit_i(s) << p(i)) of each
  mirror p the chain keeps exactly, as the oracle solves it; and on the
  496-site open ``eb_ssh`` ladder;
- ``ground_state_system`` and the half-cut ``correlation_matrix`` of that
  ladder, the route from kernel to cut that the A06 runs take;
- ``oracle.fock_block`` of that 10-mode kernel at five particles;
- ``evolve_no_jump`` of the open 128-site measurement chain at
  Gamma = 0.25 from the staggered state, half cut, over the 81 output
  times 0, 0.25, ..., 20 (the bench's ``NJ-L128-G0.25`` run).

The sector cases take at most 20 timed calls, the two ladder cases and the
no-jump run 5.  The record also
names the machine, the numpy and scipy versions and the BLAS thread count.
OpenBLAS reads its thread count when numpy loads; it is pinned to one here
unless ``OPENBLAS_NUM_THREADS`` is already set.  To compare two trees, run
the script on each in turn, several times, alternating which goes first.
"""

import argparse
import cProfile
import json
import os
import platform
import pstats
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the most timed calls of a large case
_LARGE = {"balanced_eig/sector-252": 20, "balanced_eig/pt-sector-252": 20,
          "balanced_eig/ladder-496": 5,
          "biorthogonal_eig+half-cut/ladder-496": 5,
          "evolve_no_jump/measurement-128": 5}


def _best_us(call, repeat: int) -> float:
    call()  # warm-up: lazy imports and caches
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e6, 1)


def _peak_kib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()


def _calls(call) -> int:
    profile = cProfile.Profile()
    profile.runcall(call)
    return pstats.Stats(profile).total_calls


def cases(nhent, np):
    """name -> zero-argument call, one per timed case."""
    from nhent._linalg import _arithmetic, balanced_eig
    from nhent.oracle import fock_block
    from nhent.spectra import _mirrors

    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    # an oracle-style random kernel: Hermitian base plus 0.35 G
    G = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    oracle_kernel = nhent.KernelMatrix(10, 0.5 * (X + X.conj().T) + 0.35 * G,
                                       "open")
    sector = fock_block(oracle_kernel, 5)[0]
    pt = nhent.build_nh_ssh_real(5, 1.0, 0.4, 0.3, "open")
    pt_sector, states = fock_block(pt, 5)
    bits = (states >> np.arange(10)[:, None]) & 1
    fock_mirrors = tuple(
        np.searchsorted(states, (bits << p[:, None]).sum(axis=0))
        for p in _mirrors(pt) if _arithmetic(pt.entries, (p,))[1] == 0)
    gauge = nhent.build_hatano_nelson(10, 1.0, 0.5, "open")
    ladder = nhent.build_eb_ssh(248, 1.0, 0.5, 4.0, "open")
    solves = {
        "hermitian-10": (X + X.conj().T, ()),
        "real-10": (X.real, ()),
        "general-10": (X, ()),
        "pt-10": (pt.entries, _mirrors(pt)),
        "gauge-hermitian-10": (gauge.entries, _mirrors(gauge)),
        "sector-252": (sector, ()),
        "pt-sector-252": (pt_sector, fock_mirrors),
        "ladder-496": (ladder.entries, _mirrors(ladder)),
    }
    out = {f"balanced_eig/{name}": (lambda A=A, m=m: balanced_eig(A, m))
           for name, (A, m) in solves.items()}
    half = nhent.Partition.half(ladder.dim)

    def ladder_cut():
        sys_, sel = nhent.ground_state_system(ladder, 0.5)
        return nhent.correlation_matrix(sys_, sel, half).entries
    out["biorthogonal_eig+half-cut/ladder-496"] = ladder_cut
    out["fock_block/10-modes"] = lambda: fock_block(oracle_kernel, 5)
    chain = nhent.build_measurement_heff(128, 1.0, 0.25, "open")
    out["evolve_no_jump/measurement-128"] = lambda: nhent.evolve_no_jump(
        chain, nhent.staggered_state(128), np.linspace(0.0, 20.0, 81),
        nhent.Partition.half(128))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeat", type=int, default=300,
                        help="timed calls per case (best of these)")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import scipy

    import nhent

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    record = {
        "machine": {"cpu": cpu, "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeat": args.repeat, "cases": {},
    }
    for name, call in cases(nhent, np).items():
        # the sector, ladder and no-jump calls take 0.03-0.3 s, nearly all
        # of it in LAPACK: a few calls give a stable best
        repeat = min(args.repeat, _LARGE.get(name, args.repeat))
        record["cases"][name] = {"best_us": _best_us(call, repeat),
                                 "calls": _calls(call),
                                 "peak_kib": _peak_kib(call)}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
