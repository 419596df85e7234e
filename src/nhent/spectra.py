"""Biorthogonal eigendecomposition, occupation selection, non-orthogonality.

A non-Hermitian kernel K is diagonalized by paired right/left eigenvectors
with <L_a|R_b> = delta_ab.  Left vectors are always obtained from the inverse
of the right-eigenvector matrix, never by eigenvalue matching, so the pairing
is structural.  Skin-effect kernels produce right-eigenvector matrices whose
raw condition number is inflated by a benign diagonal grading (they are
diagonal similarity transforms of well-behaved matrices).  The decomposition
therefore works in a rebalanced frame: a diagonal read off the entry ratios
|K_ij| / |K_ji| makes an open nonreciprocal chain magnitude-symmetric before
the one solve.  Real kernels are solved in real arithmetic, and so are
PT-symmetric ones: a kernel with K* = P K P exactly, where P is the lattice
mirror read off the site labels (cell x -> N - 1 - x, sublattice kept or
reversed), is unitarily similar to the real matrix Re K - (Im K) P through
T = (I + iP) / sqrt(2); that matrix is diagonalized and its eigenvectors
are mapped back by T, which leaves the condition estimate unchanged.
Kernels that are PT-symmetric only to rounding, or whose labels do not
tile a lattice, take the complex solver.  A gauge-Hermitian kernel, one
that the entry-ratio diagonal makes Hermitian (the open Hatano-Nelson
chain), is solved by ``eigh`` in that frame and reports a condition of
exactly 1.0.  Any other kernel reports the largest eigenvalue condition
number max_a ||R_a|| ||L_a|| of the rebalanced eigenvector matrix, which
measures genuine (near-)defectiveness rather than grading.  The solver,
``_linalg.balanced_eig``, alone decides defectiveness (by the 2-norm
condition number of that matrix), refuses a grading too steep for
float64, and raises ``DefectiveError``; this module only packs its
result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import balanced_eig
from .errors import DegeneracyWarning, SizeError
from .models import KernelMatrix, bloch_momenta, bloch_reduce

__all__ = [
    "BiorthogonalSystem",
    "GroundStateSelection",
    "biorthogonal_eig",
    "bloch_system",
    "select_occupied",
    "petermann_factor",
    "OCCUPATION_POLICIES",
]

@dataclass
class BiorthogonalSystem:
    """Matched right/left eigenvector sets of a kernel matrix.

    Columns of ``right`` are |R_a>, columns of ``left`` are |L_a>, normalized
    so that every |R_a> has unit 2-norm and left.conj().T @ right = identity.
    ``momenta`` is set when the system was assembled momentum block by
    momentum block and gives the Bloch momentum of each eigenstate.

    ``condition_estimate`` is the largest eigenvalue condition number
    s_a = ||R_a|| ||L_a|| in the solver's rebalanced frame (s_a^2 is the
    Petermann factor there), at least 1 and at most the 2-norm condition
    number that the defectiveness gate reads; exactly 1.0 for a Hermitian
    or gauge-Hermitian kernel.  A Bloch-assembled system reports the
    largest over its momentum blocks.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition_estimate: float
    hermitian: bool = False
    momenta: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruction(self) -> np.ndarray:
        """sum_a eps_a |R_a><L_a| (equals the kernel up to conditioning)."""
        return (self.right * self.eigenvalues) @ self.left.conj().T


@dataclass
class GroundStateSelection:
    """Occupied single-particle indices plus the policy that produced them."""

    occupied: np.ndarray
    policy: str
    filling: Fraction
    degenerate_boundary: bool = False

    def __post_init__(self):
        self.occupied = np.asarray(sorted(self.occupied), dtype=int)

    @property
    def n_occupied(self) -> int:
        return len(self.occupied)


def _mirrors(K: KernelMatrix) -> tuple:
    """Candidate PT mirrors of a kernel's lattice, as index permutations.

    Cell x maps to N - 1 - x with the sublattice kept, or reversed (the
    whole chain reversed).  No candidates when the site labels do not tile.
    """
    try:
        pos = K.cell_sites
    except SizeError:
        return ()
    keep = np.empty(K.dim, dtype=int)
    keep[pos] = pos[::-1]
    if pos.shape[1] == 1:
        return (keep,)
    flip = np.empty(K.dim, dtype=int)
    flip[pos] = pos[::-1, ::-1]
    return keep, flip


def biorthogonal_eig(K: KernelMatrix) -> BiorthogonalSystem:
    """Diagonalize a kernel into a biorthonormal right/left system.

    Hermitian kernels take the unitary path (left is right).  Otherwise the
    right eigenvectors come from a dense general solver; the left set is the
    conjugate transpose of the inverse of the right matrix.

    Raises
    ------
    DefectiveError
        From the solver (``_linalg.balanced_eig``) if the rebalanced
        right-eigenvector matrix is (near-)defective; the error carries the
        clustered eigenvalues so the caller can retry with a parameter
        nudge.  Also raised when the unit-normalized right or left vectors
        are not finite in float64.
    """
    w, V, Vinv, cond = balanced_eig(K.entries, mirrors=_mirrors(K))
    # the solver's Hermitian path reports the literal 1.0, so any other
    # condition settles the test without a second pass over the kernel
    hermitian = cond == 1.0 and K.is_hermitian()
    left = V if hermitian else np.conjugate(Vinv, out=Vinv).T
    return BiorthogonalSystem(w, V, left, cond, hermitian=hermitian)


def bloch_system(K: KernelMatrix) -> BiorthogonalSystem:
    """Momentum-resolved decomposition of a periodic, translation-invariant kernel.

    Diagonalizes the Bloch matrix on each grid momentum and assembles
    full-size eigenvectors R(x, s) = exp(i k x) u(s) / sqrt(N).  The returned
    system carries per-state momenta for Fermi-point counting.
    """
    pos = K.cell_sites
    nc, ns = pos.shape
    pos = pos.ravel()
    ks = bloch_momenta(nc)
    dim = K.dim

    eigenvalues = np.empty(dim, dtype=complex)
    right = np.zeros((dim, dim), dtype=complex)
    left = np.zeros((dim, dim), dtype=complex)
    momenta = np.repeat(ks, ns)
    worst = 1.0
    cells = np.arange(nc)
    # a block's candidate PT mirror reverses its sublattice index
    sublattice_mirror = np.arange(ns)[::-1]
    for m, (k, h) in enumerate(zip(ks, bloch_reduce(K, ks))):
        if ns == 1:
            wb = np.array([h[0, 0]])
            ub = np.array([[1.0 + 0j]])
            lb = np.array([[1.0 + 0j]])
        else:
            wb, ub, vinv, cond = balanced_eig(h, (sublattice_mirror,))
            lb = vinv.conj().T
            worst = max(worst, cond)
        phase = np.exp(1j * k * cells)[:, None, None] / np.sqrt(nc)
        cols = slice(m * ns, (m + 1) * ns)
        eigenvalues[cols] = wb
        right[pos, cols] = (phase * ub).reshape(dim, ns)
        left[pos, cols] = (phase * lb).reshape(dim, ns)
    return BiorthogonalSystem(eigenvalues, right, left, worst,
                              hermitian=worst == 1.0 and K.is_hermitian(),
                              momenta=momenta)


OCCUPATION_POLICIES = ("real_part", "imag_part", "modulus")

# policy keys closer than this, relative to max(1, spectral radius), tie
TIE_TOL = 1e-12

_POLICY_PRIMARY = {
    "real_part": lambda z: z.real,
    "imag_part": lambda z: z.imag,
    "modulus": np.abs,
}
_POLICY_SECONDARY = {
    "real_part": lambda z: z.imag,
    "imag_part": lambda z: z.real,
    "modulus": lambda z: z.real,
}


def _group_within(values: np.ndarray, tol: float) -> np.ndarray:
    """Group ids for sorted-adjacent values closer than tol (tie clusters)."""
    order = np.argsort(values, kind="stable")
    group = np.empty(len(values), dtype=int)
    gid = 0
    prev = None
    for i in order:
        if prev is not None and values[i] - prev > tol:
            gid += 1
        group[i] = gid
        prev = values[i]
    return group


def policy_order(eigenvalues: np.ndarray, policy: str) -> np.ndarray:
    """Ascending ordering under a policy with tolerance-aware ties.

    Primary keys within ``TIE_TOL`` (scaled by the spectral radius) of each
    other form a tie cluster resolved by the secondary key, then by index.
    Exact float comparison would otherwise let rounding noise in degenerate
    real parts scramble which member of a conjugate pair fills first.
    """
    if policy not in _POLICY_PRIMARY:
        raise ValueError(f"unknown occupation policy {policy!r}")
    eigenvalues = np.asarray(eigenvalues)
    scale = max(1.0, float(np.abs(eigenvalues).max(initial=0.0)))
    primary = np.asarray(_POLICY_PRIMARY[policy](eigenvalues), dtype=float)
    secondary = np.asarray(_POLICY_SECONDARY[policy](eigenvalues), dtype=float)
    group = _group_within(primary, TIE_TOL * scale)
    return np.lexsort((np.arange(len(eigenvalues)), secondary, group))


def select_occupied(sys: BiorthogonalSystem, filling,
                    policy: str = "real_part") -> GroundStateSelection:
    """Indices of the filling * N lowest eigenvalues under a policy.

    filling * N is rounded half up, exactly: half filling of an odd chain
    of N sites occupies (N + 1) / 2 states.  Ordering is lexicographic
    ascending in (policy key, remaining parts, index), which makes sweeps
    reproducible.  Keys within ``TIE_TOL`` at the Fermi boundary raise a
    DegeneracyWarning and mark the selection; the computation proceeds
    with the deterministic tie-break.
    """
    filling = Fraction(filling).limit_denominator(10 ** 9) if not isinstance(filling, Fraction) else filling
    if not 0 < filling <= 1:
        raise ValueError(f"filling must be in (0, 1], got {filling}")
    n = sys.dim
    n_occ = int(filling * n + Fraction(1, 2))
    order = policy_order(sys.eigenvalues, policy)
    occupied = order[:n_occ]
    degenerate = False
    if 0 < n_occ < n:
        lo, hi = sys.eigenvalues[order[n_occ - 1]], sys.eigenvalues[order[n_occ]]
        key = _POLICY_PRIMARY[policy]
        scale = max(1.0, float(np.abs(sys.eigenvalues).max()))
        if abs(key(lo) - key(hi)) < TIE_TOL * scale:
            degenerate = True
            warnings.warn(
                f"occupation boundary degenerate under policy {policy!r}: "
                f"{lo} vs {hi}", DegeneracyWarning, stacklevel=2)
    return GroundStateSelection(occupied, policy, filling, degenerate)


def petermann_factor(sys: BiorthogonalSystem, m: int, n: int) -> float:
    """Normalized right-eigenvector overlap |<R_m|R_n>|^2 / (<R_m|R_m><R_n|R_n>).

    0 for mutually orthogonal eigenstates, 1 for coalescent ones.
    """
    if m == n:
        raise ValueError("Petermann factor is defined for distinct states")
    rm, rn = sys.right[:, m], sys.right[:, n]
    overlap = np.vdot(rm, rn)
    return float(abs(overlap) ** 2 /
                 (np.vdot(rm, rm).real * np.vdot(rn, rn).real))
