"""Central-charge fits and Fermi-point counting.

Critical entanglement grows as S = (c/3) x + b with x = ln[sin(pi L_A / L)]
(chord geometry, periodic systems) or x = ln L_A (open_log).  The chord form
is fitted without the (L/pi) prefactor, which is absorbed into the
intercept.  For momentum-resolved systems each boundary between occupied and
unoccupied states contributes 1/2 to c, so c = N_f / 2 with N_f the number
of Fermi points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import min_cost_matching
from .errors import InsufficientDataError, UnsupportedError
from .spectra import BiorthogonalSystem, GroundStateSelection, select_occupied

__all__ = [
    "ScalingSeries",
    "FitResult",
    "fit_central_charge",
    "count_fermi_points",
    "lifshitz_scan",
]

FIT_IMAG_TOL = 1e-6
# extra matching cost, relative to the spectral scale, of pairing band
# energies across an occupation change; it only breaks ties
MATCH_TIE_WEIGHT = 1e-9


@dataclass
class ScalingSeries:
    """Entropy-vs-subsystem-size data for one system size."""

    total_length: int
    points: list  # of (L_A, complex S), L_A strictly increasing
    geometry: str = "chord"

    def __post_init__(self):
        if self.geometry not in ("chord", "open_log"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        sizes = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("L_A values must be strictly increasing")
        if sizes and (sizes[0] < 1 or sizes[-1] >= self.total_length):
            raise ValueError("L_A values must satisfy 1 <= L_A < L")


@dataclass
class FitResult:
    """Fitted central charge c, intercept, rms residual, and window used."""

    c: float
    intercept: float
    rms_residual: float
    window: tuple
    n_points: int = 0


def fit_central_charge(series: ScalingSeries, window=None,
                       imag_tol: float = FIT_IMAG_TOL) -> FitResult:
    """Least-squares fit of Re S against (c/3) x + b.

    Points outside the window or with |Im S| above ``imag_tol`` are dropped.
    The default window excludes L_A < 4 and L_A > L - 4, where lattice
    corrections dominate.

    Raises
    ------
    InsufficientDataError
        Fewer than 4 usable points remain; carries the window used.
    """
    L = series.total_length
    if window is None:
        window = (4, L - 4)
    lo, hi = window
    xs, ys = [], []
    for la, s in series.points:
        s = complex(s)
        if la < lo or la > hi or abs(s.imag) > imag_tol:
            continue
        if series.geometry == "chord":
            xs.append(np.log(np.sin(np.pi * la / L)))
        else:
            xs.append(np.log(la))
        ys.append(s.real)
    if len(xs) < 4:
        raise InsufficientDataError(
            f"only {len(xs)} usable points in window {window}", window=window)
    x = np.asarray(xs)
    y = np.asarray(ys)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return FitResult(c=float(3.0 * coef[0]), intercept=float(coef[1]),
                     rms_residual=rms, window=(lo, hi), n_points=len(xs))


def _band_chains(sys: BiorthogonalSystem):
    """Group state indices by momentum, ordered along the grid."""
    ks = sys.momenta
    order = np.argsort(ks, kind="stable")
    groups = []
    current_k = None
    for idx in order:
        if current_k is None or abs(ks[idx] - current_k) > 1e-12:
            groups.append([])
            current_k = ks[idx]
        groups[-1].append(int(idx))
    return groups


def count_fermi_points(sys: BiorthogonalSystem, sel: GroundStateSelection) -> int:
    """Number of occupied/unoccupied boundaries along the momentum grid.

    Traverses the grid cyclically; between adjacent momenta the band
    energies are matched by minimal total distance
    (``_linalg.min_cost_matching``), and every matched pair whose
    occupation differs counts one switch.  A filled band gives 0, a
    half-filled single band gives 2.

    Raises
    ------
    UnsupportedError
        The system carries no momentum resolution (build it with
        ``bloch_system``).
    """
    if sys.momenta is None:
        raise UnsupportedError(
            "Fermi-point counting needs a momentum-resolved system")
    occ = np.zeros(sys.dim, dtype=bool)
    occ[sel.occupied] = True
    groups = [np.asarray(g) for g in _band_chains(sys)]
    scale = max(1.0, float(np.abs(sys.eigenvalues).max()))
    switches = 0
    for a, b in zip(groups, groups[1:] + groups[:1]):
        # tie-break degenerate matchings toward occupation-preserving
        # pairs; exact touchings are counted as clusters below instead
        cost = np.abs(sys.eigenvalues[a][:, None]
                      - sys.eigenvalues[b][None, :])
        cost += ((MATCH_TIE_WEIGHT * scale)
                 * (occ[a][:, None] != occ[b][None, :]))
        perm = min_cost_matching(cost)
        switches += int(np.count_nonzero(occ[a] != occ[b[perm]]))
    # Bands degenerate at a single momentum with mixed occupation touch the
    # Fermi level exactly there; each occupied/unoccupied coincidence is a
    # band entering and leaving the occupied set (the limit of an
    # infinitesimally split touching), so it contributes 2.
    for grp in groups:
        if len(grp) < 2:
            continue
        ev = sys.eigenvalues[grp]
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                if (abs(ev[i] - ev[j]) < 1e-8 * scale
                        and occ[grp[i]] != occ[grp[j]]):
                    switches += 2
    return switches


def lifshitz_scan(values, system_factory, filling, policy: str = "real_part"):
    """Scan a parameter and report the first value where N_f changes.

    ``system_factory(v)`` must return a momentum-resolved
    BiorthogonalSystem.  Returns (v_below, v_above, N_f_below, N_f_above),
    or None if N_f never changes over the scan.
    """
    prev_v = None
    prev_nf = None
    for v in values:
        sys = system_factory(v)
        sel = select_occupied(sys, filling, policy)
        nf = count_fermi_points(sys, sel)
        if prev_nf is not None and nf != prev_nf:
            return prev_v, v, prev_nf, nf
        prev_v, prev_nf = v, nf
    return None
