"""One SHA-256 per named output of ``nhent``: which outputs a change moves.

    python tools/output_digest.py [SRC]

Imports ``nhent`` from SRC (default: the ``src`` next to this script's
directory) and prints one line ``<name> <sha256>`` per output, sorted by
name.  A digest covers the dtype, the shape and the bytes of an array, so
two trees agree on a name exactly when that output is bit for bit the same.
Run it on two trees and compare the lines to list the outputs that differ:

    python tools/output_digest.py old/src > old.txt
    python tools/output_digest.py src > new.txt
    LC_ALL=C comm -3 old.txt new.txt | tr -d '\t' | cut -d ' ' -f 1 | sort -u

The outputs are the solver fields (eigenvalues, right, left, condition) of
dense kernels on every solver path and of Bloch rings, the half-cut
correlation matrix, projector and entanglement report of each, and the
entropy series of the rings.  A call that raises is digested as its error
type and message.
"""

import hashlib
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HALF = Fraction(1, 2)


def dense_kernels(nhent):
    """Dense kernels, one or more per solver path."""
    rng = np.random.default_rng(2)
    random40 = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    return {
        "hermitian-ssh": nhent.build_nh_ssh_real(12, 1.0, 0.5, 0.0, "open"),
        # Hermitian only to rounding
        "momentum-ring": nhent.momentum_transform(
            nhent.build_uniform_chain(64)),
        "gauge-hatano-nelson": nhent.build_hatano_nelson(64, 1.0, 0.5, "open"),
        "gauge-hatano-nelson-512": nhent.build_hatano_nelson(
            512, 1.0, 0.5, "open"),
        "real-eb-ssh": nhent.build_eb_ssh(16, 1.0, 0.5, 0.0, "open"),
        "pt-eb-ssh": nhent.build_eb_ssh(24, 1.0, 0.5, 4.0, "open"),
        "pt-nh-ssh": nhent.build_nh_ssh_real(12, 1.0, 0.4, 0.3, "periodic"),
        "random-complex-40": nhent.KernelMatrix(40, random40, "open"),
        "quasicrystal": nhent.build_quasicrystal(13, 0.4, 1.0, 0.7,
                                                 Fraction(8, 13)),
        "measurement-chain": nhent.build_measurement_heff(16, 1.0, 0.5,
                                                          "open"),
        "guo-open": nhent.build_guo_chain(64, 4, 1.0, 3.5, "open"),
        # the plain periodic A02 rings
        "a02-ring-64": nhent.build_nh_ssh_real(32, 1.0, 0.3, 0.7, "periodic"),
        "a02-ring-128": nhent.build_nh_ssh_real(64, 1.0, 0.3, 0.7,
                                                "periodic"),
    }


def bloch_kernels(nhent):
    """Periodic, translation-invariant rings solved momentum by momentum."""
    return {
        "guo-n2": nhent.build_guo_chain(24, 2, 1.0, 3.5),
        "guo-n3": nhent.build_guo_chain(27, 3, 1.0, 0.8),
        "nh-ssh": nhent.build_nh_ssh_real(10, 1.0, 0.4, 0.3, "periodic"),
        "uniform-16": nhent.build_uniform_chain(16),
        "uniform-33": nhent.build_uniform_chain(33),
        "hatano-nelson-ring": nhent.build_hatano_nelson(20, 1.0, 0.5,
                                                        "periodic"),
        "measurement-ring": nhent.build_measurement_heff(18, 1.0, 0.5,
                                                         "periodic"),
        "guo-2d-4x4": nhent.build_guo_2d(4, 4, 0.6),
        "eb-ssh-ring": nhent.build_eb_ssh(12, 1.0, 1.0, 0.3),
        # the A05 rings
        "a05-g3.5": nhent.build_guo_chain(256, 2, 1.0, 3.5, "periodic"),
        "a05-g4.5": nhent.build_guo_chain(256, 2, 1.0, 4.5, "periodic"),
    }


def digest(value) -> str:
    a = np.ascontiguousarray(np.asarray(value))
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def outputs(nhent):
    """(name, thunk) of every digested output."""

    def system(kind, km):
        sys_ = (nhent.bloch_system(km) if kind == "bloch"
                else nhent.biorthogonal_eig(km))
        sel = nhent.select_occupied(sys_, HALF)
        half = nhent.Partition.half(km.dim)
        C = nhent.correlation_matrix(sys_, sel, half)
        rep = nhent.build_report(C)
        out = {"eigenvalues": sys_.eigenvalues, "right": sys_.right,
               "left": sys_.left, "condition": sys_.condition_estimate,
               "occupied": sel.occupied, "half-correlation": C.entries,
               "projector": nhent.projector(sys_, sel),
               "half-spectrum": rep.correlation_eigenvalues,
               "half-entropy": rep.entropy_vn,
               "half-renyi-2": rep.entropy_renyi[2]}
        if kind == "bloch":
            out.update(u_k=sys_.u_k, l_k=sys_.l_k)
            series = nhent.entropy_series(sys_, sel,
                                          sizes=range(1, km.dim, 3))
            out["entropy-series"] = np.array(series.points)
        return out

    for kind, kernels in (("dense", dense_kernels(nhent)),
                          ("bloch", bloch_kernels(nhent))):
        for name, km in kernels.items():
            yield f"{kind}/{name}", (lambda kind=kind, km=km:
                                     system(kind, km))


def main(argv) -> int:
    src = os.path.abspath(argv[1] if len(argv) > 1
                          else os.path.join(ROOT, "src"))
    sys.path.insert(0, src)
    import nhent
    if not os.path.abspath(nhent.__file__).startswith(src + os.sep):
        print(f"nhent was imported from {nhent.__file__}, not {src}",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    lines = []
    for prefix, thunk in outputs(nhent):
        try:
            fields = thunk()
        except Exception as exc:  # a refusal is an output too
            fields = {"error": f"{type(exc).__name__}: {exc}".encode()}
        lines += [f"{prefix}/{field} {digest(value)}"
                  for field, value in fields.items()]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
