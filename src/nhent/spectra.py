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
tile a lattice, take the complex solver.  The Fock oracle hands its
sector solve the sector images of these mirrors, so the many-body block
of a PT-symmetric chain is solved in real arithmetic too.  A
gauge-Hermitian kernel, one that the entry-ratio diagonal makes Hermitian
(the open Hatano-Nelson chain), is solved by ``eigh`` in that frame and
reports a condition of exactly 1.0.  Any other kernel reports the largest
eigenvalue condition number max_a ||R_a|| ||L_a|| of the rebalanced
eigenvector matrix, which measures genuine (near-)defectiveness rather
than grading.  The solver,
``_linalg.eig_factors``, alone tests whether a kernel is Hermitian,
decides defectiveness (by the 2-norm condition number of that matrix),
refuses a grading too steep for float64, and raises ``DefectiveError``; it
returns the balanced-frame factors that a ``BiorthogonalSystem`` keeps, and
whose ``vectors`` forms just the rows and states asked for.  A ring that
``models`` keeps as its cell blocks, on the labels it was built with, can
instead be solved momentum block by momentum block (``bloch_system``, one
``balanced_eig`` call on the stack of all blocks); its ``BlochSystem``
keeps only the per-momentum eigenvector blocks, and its ``vectors``
forms just the rows and states asked for.  ``bloch_system`` refuses
every other kernel with ``UnsupportedError`` (a ring given by its dense
entries or relabelled too: the route follows the construction), and
``pipeline.ground_state_system`` sends exactly the kernels it accepts
there, and every other one to ``biorthogonal_eig``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import EigFactors, balanced_eig, eig_factors
from .errors import DegeneracyWarning, SizeError
from .models import KernelMatrix, bloch_momenta, bloch_reduce

__all__ = [
    "BiorthogonalSystem",
    "BlochSystem",
    "GroundStateSelection",
    "biorthogonal_eig",
    "bloch_system",
    "select_occupied",
    "petermann_factor",
    "OCCUPATION_POLICIES",
]

class BiorthogonalSystem:
    """Matched right/left eigenvector sets of a kernel matrix.

    Columns of ``right`` are |R_a>, columns of ``left`` are |L_a>, normalized
    so that every |R_a> has unit 2-norm and left.conj().T @ right = identity;
    a Hermitian kernel gives ``left is right``.  Both system kinds keep
    factors and gather through ``vectors``, which forms just the rows and
    states asked for: a dense system keeps the balanced-frame factors of
    its one solve (``_linalg.EigFactors``), and forms ``right`` and ``left``
    on their first read, complex and whole; a system solved momentum block
    by momentum block is a ``BlochSystem``, which keeps only the
    per-momentum blocks and has no ``right`` or ``left``.  Code outside
    this module reads the vectors through ``vectors``.

    ``condition_estimate`` is the largest eigenvalue condition number
    s_a = ||R_a|| ||L_a|| in the solver's rebalanced frame (s_a^2 is the
    Petermann factor there), at least 1 and at most the 2-norm condition
    number that the defectiveness gate reads; exactly 1.0 for a Hermitian
    or gauge-Hermitian kernel.  A ``BlochSystem`` reports the largest
    over its momentum blocks.  ``cells`` is the kernel's cell map
    (``KernelMatrix.cell_sites``), or None unless the kernel is periodic
    and its labels tile a cell grid: momentum partitions need it.
    """

    def __init__(self, factors: EigFactors, cells: np.ndarray | None = None):
        self.factors = factors
        self.eigenvalues = factors.eigenvalues
        self.condition_estimate = factors.condition_estimate
        self.cells = cells

    def __repr__(self) -> str:
        return (f"BiorthogonalSystem(dim={self.dim}, "
                f"condition_estimate={self.condition_estimate!r})")

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def __getattr__(self, name: str):
        # right and left are formed whole, complex and together, on the
        # first read of either, and then kept; a BlochSystem has neither
        if name in ("right", "left") and "factors" in vars(self):
            self.right, self.left = self.factors.vectors(dtype=complex)
            return vars(self)[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def vectors(self, rows, cols) -> tuple:
        """(R, L): rows ``rows`` of the right and left vectors of ``cols``,
        float64 where the solve's eigenvectors are real and no PT map
        takes them back (``EigFactors.dtype``), else complex."""
        return self.factors.vectors(rows, cols)

    def reconstruction(self) -> np.ndarray:
        """sum_a eps_a |R_a><L_a| (equals the kernel up to conditioning)."""
        R, L = self.vectors(range(self.dim), range(self.dim))
        return (R * self.eigenvalues) @ L.conj().T


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
        From the solver (``_linalg.eig_factors``) if the rebalanced
        right-eigenvector matrix is (near-)defective; the error carries the
        clustered eigenvalues so the caller can retry with a parameter
        nudge.  Also raised when the unit-normalized right or left vectors
        are not finite in float64.
    """
    mirrors = _mirrors(K)  # none when the labels tile no cell grid
    cells = K.cell_sites if mirrors and K.bc == "periodic" else None
    return BiorthogonalSystem(eig_factors(K.entries, mirrors), cells)


class BlochSystem(BiorthogonalSystem):
    """Biorthogonal system of a periodic block kernel, kept momentum block
    by block.

    The kernel's modes are cell-major, as ``models`` builds a ring: mode
    i is sublattice s of cell x with (x, s) = divmod(i, ns).  State
    m * ns + b is band b at momentum k_m = 2 pi m / N, so states
    m * ns .. m * ns + ns - 1 are the bands at k_m, and ``momenta`` gives
    each state's k_m.  ``u_k`` and ``l_k`` are (N, ns, ns) stacks: column b
    of u_k[m] and l_k[m] is that state's right and left Bloch vector, with
    l_k[m]^dag u_k[m] = identity.  No dense eigenvector matrix is kept:
    ``vectors`` forms the requested entries of
    R(x ns + s, m ns + b) = exp(i k_m x) u_k[m, s, b] / sqrt(N), and
    likewise from l_k, and the correlation path reads the blocks alone
    (see ``correlations.correlation_matrix``).
    """

    def __init__(self, eigenvalues, u_k, l_k, cells, condition_estimate):
        self.eigenvalues = eigenvalues
        self.u_k, self.l_k, self.cells = u_k, l_k, cells
        self.condition_estimate = condition_estimate

    def __repr__(self) -> str:
        return (f"BlochSystem(dim={self.dim}, u_k={self.u_k!r}, "
                f"l_k={self.l_k!r})")

    @property
    def momenta(self) -> np.ndarray:
        nc, ns = self.cells.shape
        return np.repeat(bloch_momenta(nc), ns)

    def vectors(self, rows, cols) -> tuple:
        """(R, L) at modes ``rows`` and states ``cols`` (slices or index
        arrays), from u_k and l_k."""
        nc, ns = self.cells.shape
        modes = np.arange(self.dim)
        x, s = np.divmod(modes[rows][:, None], ns)
        m, b = np.divmod(modes[cols], ns)
        phase = np.exp(1j * bloch_momenta(nc)[m] * x) / np.sqrt(nc)
        return phase * self.u_k[m, s, b], phase * self.l_k[m, s, b]

    def translation_key(self, indices) -> bytes:
        """The modes' (cell, sublattice) sequence, translated by whole cells
        so that the first mode sits in cell 0.

        Two mode sequences with one key have the bitwise-identical
        block-Toeplitz correlation matrix (``correlations.correlation_matrix``
        reads only cell differences mod N and sublattices).
        """
        nc, ns = self.cells.shape
        cell, sub = np.divmod(np.asarray(indices), ns)
        return ((cell - cell[0]) % nc).tobytes() + sub.tobytes()


def bloch_system(K: KernelMatrix) -> BlochSystem:
    """Momentum-resolved decomposition of a periodic block kernel.

    Diagonalizes the Bloch matrices of all grid momenta in one stacked
    ``_linalg.balanced_eig`` call (a one-sublattice block is its own
    eigenvalue), whose LAPACK calls do not grow with the number of cells,
    and keeps only the per-momentum eigenvector blocks: no dim x dim array
    is formed.

    Raises
    ------
    UnsupportedError
        From ``bloch_reduce``, if the kernel is not periodic, or not a ring
        kept as its cell blocks on the labels it was built with (a kernel
        given by its dense entries, a relabelled ring).
    """
    cells = K.cell_sites
    nc, ns = cells.shape
    h = bloch_reduce(K, bloch_momenta(nc))
    if ns == 1:
        # a one-sublattice block's Bloch vectors are 1
        return BlochSystem(h.ravel(), np.ones((nc, 1, 1), dtype=complex),
                           np.ones((nc, 1, 1), dtype=complex), cells, 1.0)
    # a block's candidate PT mirror reverses its sublattice index
    eigenvalues, u_k, l_k, cond = balanced_eig(h, (np.arange(ns)[::-1],))
    return BlochSystem(eigenvalues.ravel(), u_k, l_k, cells,
                       max(1.0, float(cond.max())))


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
    group = np.zeros(len(values), dtype=int)
    # a gap involving a NaN compares False, so a NaN joins the group before
    group[order[1:]] = np.cumsum(np.diff(values[order]) > tol)
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
    if m == n or not (0 <= m < sys.dim and 0 <= n < sys.dim):
        raise ValueError("Petermann factor is defined for distinct states "
                         f"in [0, {sys.dim}), got {m} and {n}")
    rm, rn = sys.vectors(range(sys.dim), [m, n])[0].T
    overlap = np.vdot(rm, rn)
    return float(abs(overlap) ** 2 /
                 (np.vdot(rm, rm).real * np.vdot(rn, rn).real))
