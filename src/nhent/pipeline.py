"""End-to-end drivers: kernel -> spectrum -> selection -> reports.

These helpers wire the stages together for the CLI, the acceptance suite,
and parameter sweeps: ground-state preparation, per-partition entanglement
reports, entropy-versus-subsystem-size series, and the real/momentum
transition scan used for self-dual models.  A kernel has one ground state,
and partitions in either space are cut from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eigenvalues
from .correlations import Partition, correlation_matrices, correlation_matrix
from .entanglement import (CLAMP_TOL, MIDGAP_TOL, EntanglementReport,
                           build_report, vn_entropy)
from .errors import SizeError, UnsupportedError
from .models import KernelMatrix
from .scaling import ScalingSeries
from .spectra import (BiorthogonalSystem, BlochSystem, GroundStateSelection,
                      biorthogonal_eig, bloch_system, select_occupied)

__all__ = [
    "ground_state_system",
    "report_for_partition",
    "entropy_series",
    "TransitionScan",
    "self_dual_scan",
    "dual_momentum_partition",
]


def ground_state_system(K: KernelMatrix, filling, policy: str = "real_part"):
    """Diagonalize a kernel and select the occupied set.

    The kernel's construction picks the solver.  A ring kept as its cell
    blocks, on the labels it was built with, is solved momentum block by
    momentum block and gives a ``BlochSystem`` (``bloch_system``); every
    other kernel (open, given by its dense entries, relabelled, or with
    labels that tile no cell grid) is solved dense by ``biorthogonal_eig``.
    """
    try:
        sys = bloch_system(K)
    except (UnsupportedError, SizeError):
        # not a block kernel on its own labels (bloch_reduce's refusal), or
        # labels that tile no cell grid
        sys = biorthogonal_eig(K)
    sel = select_occupied(sys, filling, policy)
    return sys, sel


def report_for_partition(sys: BiorthogonalSystem, sel: GroundStateSelection,
                         part: Partition, renyi_orders=(2,),
                         clamp_tol: float = CLAMP_TOL,
                         midgap_tol: float = MIDGAP_TOL) -> EntanglementReport:
    C = correlation_matrix(sys, sel, part)
    return build_report(C, renyi_orders=renyi_orders, clamp_tol=clamp_tol,
                        midgap_tol=midgap_tol)


def entropy_series(sys: BiorthogonalSystem, sel: GroundStateSelection,
                   sizes=None, geometry: str = "chord") -> ScalingSeries:
    """Entropy S(L_A) over leading contiguous position cuts of growing size.

    Each cut is diagonalized on its smaller side: for n/2 < L_A < n the
    spectrum comes from the complement [L_A, n).  The selected state is a
    pure Gaussian state, so P^2 = P and the nontrivial spectrum of C_B is
    1 - spec(C_A); the von Neumann kernel is symmetric under eps -> 1 - eps,
    also on the principal branch, so S_A = S_B.  Where P is not a projector
    to working precision (near an exceptional point) the two sides differ.

    Each distinct block is formed and diagonalized once, all of them in one
    ``correlation_matrices`` pass (on a ``BlochSystem``, from one FFT of
    the occupied Bloch projectors).  On a ``BlochSystem`` a cut is keyed by
    its translate that starts in cell 0 (``BlochSystem.translation_key``):
    a complement [L_A, n) that starts on a cell boundary is then the
    leading block of size n - L_A, and S(L_A) equals S(n - L_A) exactly.
    On any other system every cut is its own key.
    """
    n = sys.dim
    if sizes is None:
        sizes = range(1, n)
    cuts = {}  # key -> its first cut
    points = []
    for la in sizes:
        la = int(la)
        cut = (la, n) if n / 2 < la < n else (0, la)
        part = Partition.contiguous(*cut, n)
        key = (sys.translation_key(part.indices)
               if isinstance(sys, BlochSystem) else cut)
        cuts.setdefault(key, cut)
        points.append((la, key))
    # partitions made one at a time: all of them would hold O(n^2) indices
    parts = (Partition.contiguous(*cut, n) for cut in cuts.values())
    entropies = {key: vn_entropy(eigenvalues(C.entries))
                 for key, C in zip(cuts, correlation_matrices(sys, sel, parts))}
    points = [(la, entropies[key]) for la, key in points]
    return ScalingSeries(n, points, geometry)


@dataclass
class TransitionScan:
    """Real- vs momentum-space entropies over a parameter scan."""

    values: np.ndarray
    entropy_real: np.ndarray
    entropy_momentum: np.ndarray
    crossing: float | None


def _interp_crossing(xs, f, g):
    d = np.asarray(f) - np.asarray(g)
    for i in range(len(d) - 1):
        if d[i] == 0:
            return float(xs[i])
        if d[i] * d[i + 1] < 0:
            t = d[i] / (d[i] - d[i + 1])
            return float(xs[i] + t * (xs[i + 1] - xs[i]))
    return None


def dual_momentum_partition(L: int, p: int) -> Partition:
    """Momentum partition dual to the contiguous real-space half cut.

    A commensurate potential exp(-2 pi i p n / L) acts in momentum space as
    a hopping by p grid steps, so the dual lattice is the momentum grid
    relabeled by multiplication with p (mod L).  The returned partition is
    contiguous in that relabeling, which is what maps onto a contiguous
    real-space cut under the model's self-duality; it holds L // 2 momenta.
    """
    idx = tuple(sorted((p * t) % L for t in range(L // 2)))
    return Partition("momentum", idx, L)


def self_dual_scan(values, kernel_factory, filling, policy: str = "real_part",
                   momentum_partition: Partition | None = None) -> TransitionScan:
    """Scan a parameter and compare half-system entropies in both spaces.

    ``kernel_factory(v)`` must return a periodic kernel.  Both curves are
    cuts of one ground state per value: the real-space half cut and a
    momentum partition.  The localization transition of a self-dual model
    shows up as a crossing between the two curves; the crossing point is
    located by linear interpolation and reported, not asserted.  Pass a
    duality-relabeled ``momentum_partition`` (see
    ``dual_momentum_partition``) to make the two curves exact mirrors of
    each other around the self-dual point.
    """
    vs, s_real, s_mom = [], [], []
    for v in values:
        K = kernel_factory(v)
        sys, sel = ground_state_system(K, filling, policy)
        part_m = momentum_partition or Partition.half(K.dim, "momentum")
        rep_r, rep_m = (report_for_partition(sys, sel, part)
                        for part in (Partition.half(K.dim), part_m))
        vs.append(float(v))
        s_real.append(rep_r.entropy_vn.real)
        s_mom.append(rep_m.entropy_vn.real)
    crossing = _interp_crossing(vs, s_real, s_mom)
    return TransitionScan(np.asarray(vs), np.asarray(s_real),
                          np.asarray(s_mom), crossing)
