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
entropy series of the rings.  The ``route/`` outputs take their system from
``ground_state_system``, which picks the Bloch or the dense solver itself,
and add the type of system it returned.  The ``momentum/`` outputs cut the
momentum half cut from the system of ``ground_state_system``: its
correlation matrix, entanglement report and duality spectra.  The
``dynamics/`` outputs are no-jump runs of ``evolve_no_jump``, with starts
and kernels that run in float64 and in complex128: the last record's
correlation matrix, the trace residuals, and every field of every
record's half-cut entanglement report (spectrum, entropies with Renyi
orders 2 and 3, modified entropy, entanglement energies, clamped and
mid-gap indices, realness residual).  The ``models/<family>-<bc>`` outputs
are the entries and site labels of ``ModelSpec(family, params, bc).build()``
for every family and every boundary condition it supports.  The
``bloch-reduce/<family>`` outputs are ``bloch_reduce`` of the periodic
kernel of each family on its momentum grid, and of a kernel given by a copy
of its entries and labels, which a tree whose Bloch route follows the
construction refuses.  The
``oracle/<case>`` outputs are the Fock-space oracle's ground energy of the
half-filled sector and the rho_A spectrum of the five leading modes, for
each kernel of ``oracle_equivalence_suite`` at seed 1 with three random
cases of 10 modes, as ``nhent oracle`` draws them.
A call that raises is digested as its error type and message, in place of
the output, or of the one field, that it would give.  ``momentum-ring`` is
the uniform ring conjugated by the unitary DFT over its cells
(``fourier_kernel``).
"""

import hashlib
import os
import sys
import warnings
from fractions import Fraction

import numpy as np
import scipy.linalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HALF = Fraction(1, 2)


def fourier_kernel(nhent, K):
    """K conjugated by F[m, x] = exp(-2 pi i m x / N) / sqrt(N) on the cell
    index of its cell-major modes: mode m * ns + s is sublattice s at k_m."""
    nc, ns = K.cell_sites.shape
    F = scipy.linalg.dft(nc) / np.sqrt(nc)
    A = np.einsum("mx,xayb,ny->manb", F, K.entries.reshape(nc, ns, nc, ns),
                  F.conj(), optimize=True)
    return nhent.KernelMatrix(K.dim, A.reshape(K.dim, K.dim), "periodic",
                              [(m, s) for m in range(nc) for s in range(ns)])


def dense_kernels(nhent):
    """Dense kernels, one or more per solver path."""
    rng = np.random.default_rng(2)
    random40 = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    return {
        "hermitian-ssh": nhent.build_nh_ssh_real(12, 1.0, 0.5, 0.0, "open"),
        # Hermitian only to rounding
        "momentum-ring": fourier_kernel(nhent, nhent.build_uniform_chain(64)),
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


def route_kernels(nhent):
    """Kernels on either side of the route of ``ground_state_system``."""
    ring = nhent.build_nh_ssh_real(32, 1.0, 0.3, 0.7, "periodic")
    entries = ring.entries.copy()
    entries[[0, 63], [63, 0]] *= -1
    pi_flux = nhent.KernelMatrix(ring.dim, entries, ring.bc, ring.site_labels)
    return {
        "uniform-128": nhent.build_uniform_chain(128),
        "a02-ring-64": nhent.build_nh_ssh_real(32, 1.0, 0.3, 0.7, "periodic"),
        "pi-flux-ring-64": pi_flux,
        "guo-n2": nhent.build_guo_chain(64, 2, 1.0, 3.5),
        "quasicrystal-34": nhent.build_quasicrystal(34, 0.5, 1.0, 0.5,
                                                    Fraction(21, 34)),
        "eb-ssh-open": nhent.build_eb_ssh(24, 1.0, 0.5, 1e-3, "open"),
    }


def momentum_kernels(nhent):
    """Periodic kernels, Bloch-solved and dense, cut in momentum space."""
    guo = nhent.build_guo_chain(27, 3, 1.0, 0.8)
    # the same ring with mode s * N + x at sublattice s of cell x
    nc, ns = guo.cell_sites.shape
    old = guo.cell_sites.T.ravel()
    return {
        "uniform-33": nhent.build_uniform_chain(33),
        "nh-ssh": nhent.build_nh_ssh_real(10, 1.0, 0.4, 0.3, "periodic"),
        "guo-n3-sublattice-major": nhent.KernelMatrix(
            guo.dim, guo.entries[np.ix_(old, old)], guo.bc,
            [(x, s) for s in range(ns) for x in range(nc)]),
        "quasicrystal-34": nhent.build_quasicrystal(34, 0.5, 1.0, 0.5,
                                                    Fraction(21, 34)),
    }


def dynamics_cases(nhent):
    """(kernel, start) of no-jump runs.  The first two run in float64, in
    the site frame that makes the generator and the start real; the other
    two run in complex128 in the identity frame: the on-site chain has no
    site frame, and the ground-state start is complex in the chain's."""
    chain = nhent.build_measurement_heff(64, 1.0, 0.5, "open")
    uniform = nhent.build_uniform_chain(32, bc="open")
    onsite = nhent.KernelMatrix(
        32, uniform.entries + np.diag(np.cos(np.arange(32.0))), "open")
    return {
        "measurement-staggered": (chain, nhent.staggered_state(64)),
        "measurement-domain-wall": (chain, nhent.domain_wall_state(64)),
        "uniform-onsite": (onsite, nhent.domain_wall_state(32)),
        "measurement-hermitian-ground": (
            chain, nhent.hermitian_ground_state(chain, 32)),
    }


def oracle_kernels(nhent, seed=1, n_cases=3, n_modes=10):
    """The kernels of ``oracle_equivalence_suite(n_cases, n_modes,
    seed=seed)``, drawn here as the suite draws them, so that the same
    kernels are digested on a tree whose suite does not expose them."""
    rng = np.random.default_rng(seed)
    kernels = {}
    for i in range(n_cases):
        H0 = rng.normal(size=(n_modes, n_modes)) \
            + 1j * rng.normal(size=(n_modes, n_modes))
        G = rng.normal(size=(n_modes, n_modes)) \
            + 1j * rng.normal(size=(n_modes, n_modes))
        kernels[f"random-{i}"] = nhent.KernelMatrix(
            n_modes, 0.5 * (H0 + H0.conj().T) + 0.35 * G, "open")
    kernels["nh-ssh"] = nhent.build_nh_ssh_real(n_modes // 2, 1.0, 0.4, 0.3,
                                                "open")
    kernels["hatano-nelson"] = nhent.build_hatano_nelson(n_modes, 1.0, 0.5,
                                                         "open")
    return kernels


def model_params():
    """ModelSpec parameters of every family; the quasicrystals take their
    approximant as a "p/q" string and as a [p, q] pair."""
    return {
        "hatano_nelson": {"L": 6, "t": 1.0, "alpha": 0.3},
        "uniform_chain": {"L": 6, "t": 0.8},
        "nh_ssh": {"N_cells": 4, "omega": 1.0, "upsilon": 0.4, "u": 0.3},
        "quasicrystal_exp": {"L": 13, "J_L": 0.3, "J_R": 1.1, "V": 0.5,
                             "alpha": "8/13"},
        "quasicrystal_mobility": {"L": 13, "J_L": 1.0, "J_R": 0.6, "V": 0.5,
                                  "alpha": [8, 13], "a": 0.4},
        "guo_chain": {"L": 12, "n": 3, "t": 1.0, "gamma": 0.4},
        "guo_2d": {"Lx": 4, "Ly": 6, "gamma": 0.4},
        "chern_ribbon": {"L": 5, "k_perp": 0.7, "t": 1.0, "m": -1.0,
                         "gamma": 0.5, "cut_axis": "y"},
        "eb_ssh": {"L": 6, "nu": 1.0, "w": 0.5, "gamma0": 0.7},
        "measurement_chain": {"L": 6, "t": 1.0, "Gamma": 0.5},
    }


def digest(value) -> str:
    """SHA-256 of the dtype, shape and bytes of an array; a tuple is
    digested part after part, for arrays of unequal shapes."""
    h = hashlib.sha256()
    for part in value if isinstance(value, tuple) else (value,):
        a = np.ascontiguousarray(np.asarray(part))
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def eigenvectors(sys_):
    """The dim x dim right and left eigenvectors of a system, through
    ``vectors``."""
    everything = np.arange(sys_.dim)
    return sys_.vectors(everything, everything)


def attempt(thunk):
    """thunk(), or its error type and message if it raises: a refusal is
    an output too."""
    try:
        return thunk()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}".encode()


def outputs(nhent):
    """(name, thunk) of every digested output."""

    def system(kind, km):
        if kind == "route":
            sys_, sel = nhent.ground_state_system(km, HALF)
        else:
            sys_ = (nhent.bloch_system(km) if kind == "bloch"
                    else nhent.biorthogonal_eig(km))
            sel = nhent.select_occupied(sys_, HALF)
        half = nhent.Partition.half(km.dim)
        C = nhent.correlation_matrix(sys_, sel, half)
        rep = nhent.build_report(C)
        out = {"eigenvalues": sys_.eigenvalues,
               "condition": sys_.condition_estimate,
               "occupied": sel.occupied, "half-correlation": C.entries,
               "half-spectrum": rep.correlation_eigenvalues,
               "half-entropy": rep.entropy_vn,
               "half-renyi-2": rep.entropy_renyi[2]}
        if kind == "route":
            out["system-type"] = type(sys_).__name__.encode()
        else:
            right, left = eigenvectors(sys_)
            out.update(right=right, left=left,
                       projector=nhent.projector(sys_, sel))
        if kind == "bloch":
            out.update(u_k=sys_.u_k, l_k=sys_.l_k)
        if kind != "dense":
            series = nhent.entropy_series(sys_, sel,
                                          sizes=range(1, km.dim, 3))
            out["entropy-series"] = np.array(series.points)
        return out

    def momentum(km):
        sys_, sel = nhent.ground_state_system(km, HALF)
        half = nhent.Partition.half(km.dim, "momentum")
        C = nhent.correlation_matrix(sys_, sel, half)
        rep = nhent.build_report(C)
        dual = nhent.check_duality(sys_, sel, half)
        return {"half-correlation": C.entries,
                "half-spectrum": rep.correlation_eigenvalues,
                "half-entropy": rep.entropy_vn,
                "half-renyi-2": rep.entropy_renyi[2],
                "duality-rpr": dual.spectrum_rpr,
                "duality-prp": dual.spectrum_prp,
                "duality-mismatch": dual.max_mismatch}

    def dynamics(km, psi0):
        records = nhent.evolve_no_jump(km, psi0, np.linspace(0.0, 20.0, 21),
                                       nhent.Partition.half(km.dim),
                                       renyi_orders=(2, 3))
        reps = [rep for _, _, rep in records]
        return {"entropies": [rep.entropy_vn for rep in reps],
                "last-correlation": records[-1][1].entries,
                "trace-residuals": [C.source[2] for _, C, _ in records],
                "spectra": [rep.correlation_eigenvalues for rep in reps],
                **{f"renyi-{n}": [rep.entropy_renyi[n] for rep in reps]
                   for n in (2, 3)},
                "modified": [rep.entropy_modified for rep in reps],
                "realness-residuals": [rep.realness_residual for rep in reps],
                **{name: tuple(getattr(rep, field) for rep in reps)
                   for name, field in (
                       ("xi", "single_particle_spectrum"),
                       ("clamped", "clamped_modes"),
                       ("midgap", "midgap_modes"))}}

    def oracle(km):
        n = km.dim
        G_R, G_L, energy = nhent.manybody_biortho_ground(km, n // 2)
        rho_A = nhent.reduced_density(G_R, G_L, n, n // 2)
        return {"ground-energy": energy,
                "rho-spectrum": nhent.oracle_report(rho_A).spectrum}

    def model(spec):
        km = spec.build()
        return {"entries": km.entries, "site-labels": np.array(km.site_labels)}

    def bloch(spec):
        km = spec.build()
        k = nhent.bloch_momenta(km.cell_sites.shape[0])
        dense = nhent.KernelMatrix(km.dim, km.entries.copy(), km.bc,
                                   list(km.site_labels))
        return {"h-k": attempt(lambda: nhent.bloch_reduce(km, k)),
                "h-k-dense-copy": attempt(lambda: nhent.bloch_reduce(dense, k))}

    for family, params in model_params().items():
        for bc in ("open", "periodic"):
            try:
                spec = nhent.ModelSpec(family, params, bc)
            except nhent.UnsupportedError:  # a bc the family has no form for
                continue
            yield f"models/{family}-{bc}", lambda spec=spec: model(spec)
            if bc == "periodic":
                yield f"bloch-reduce/{family}", lambda spec=spec: bloch(spec)
    for name, (km, psi0) in dynamics_cases(nhent).items():
        yield f"dynamics/{name}", lambda km=km, psi0=psi0: dynamics(km, psi0)
    for name, km in oracle_kernels(nhent).items():
        yield f"oracle/{name}", lambda km=km: oracle(km)
    for name, km in momentum_kernels(nhent).items():
        yield f"momentum/{name}", lambda km=km: momentum(km)
    for kind, kernels in (("dense", dense_kernels(nhent)),
                          ("bloch", bloch_kernels(nhent)),
                          ("route", route_kernels(nhent))):
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
        fields = attempt(thunk)
        if isinstance(fields, bytes):
            fields = {"error": fields}
        lines += [f"{prefix}/{field} {digest(value)}"
                  for field, value in fields.items()]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
