"""Ground-state correlation matrices on real- or momentum-space partitions.

The biorthogonal two-point function C^A_ij = <G_L| c+_j c_i |G_R>, with i, j
restricted to subsystem A, equals the A-block of R P R where
P = sum_{a occ} |R_a><L_a| is the occupied-state projector and R the
restriction to A.  Spec(R P R) and Spec(P R P) agree on their nonzero
parts, which is the position-momentum duality check.

A partition is cut in its own space from the one system of a kernel.  A
momentum partition indexes the modes of F P F^dag, with F[m, x] =
exp(-2 pi i m x / N) / sqrt(N) on the cell index of a periodic kernel:
mode m * ns + s is sublattice s at k_m.

On a system solved momentum block by momentum block (a ``BlochSystem``), P
is block-Toeplitz: its (x, s; y, s') entry depends on x - y mod N only, and
one inverse FFT of the occupied Bloch projectors P(k) gives every entry
with no eigenvector read; the partitions of one state share that FFT
(``correlation_matrices``).  In momentum space P is block-diagonal,
delta_{m m'} P(k_m)[s, s'].  Other reads use ``BiorthogonalSystem.vectors``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._linalg import _real_if_real_valued, match_spectra
from .errors import PartitionError, UnsupportedError
from .spectra import BiorthogonalSystem, BlochSystem, GroundStateSelection

__all__ = [
    "Partition",
    "CorrelationMatrix",
    "DualityReport",
    "correlation_matrix",
    "correlation_matrices",
    "projector",
    "check_duality",
    "sorted_by_re_im",
]


@dataclass(frozen=True)
class Partition:
    """Subset of mode indices, in position or momentum space.

    Entanglement partitions are proper subsets; the full index set is also
    accepted because trace checks and mutual-information unions need it
    (its complement is then empty).
    """

    space: str
    indices: tuple
    n_total: int

    def __post_init__(self):
        if self.space not in ("position", "momentum"):
            raise PartitionError(f"unknown partition space {self.space!r}")
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise PartitionError("partition must be nonempty")
        if idx[0] < 0 or idx[-1] >= self.n_total:
            raise PartitionError(
                f"indices out of range [0, {self.n_total})")

    @classmethod
    def contiguous(cls, start: int, stop: int, n_total: int,
                   space: str = "position") -> "Partition":
        return cls(space, tuple(range(start, stop)), n_total)

    @classmethod
    def half(cls, n_total: int, space: str = "position") -> "Partition":
        return cls.contiguous(0, n_total // 2, n_total, space)

    @classmethod
    def central_half(cls, n_total: int, space: str = "position") -> "Partition":
        return cls.contiguous(n_total // 4, n_total // 4 + n_total // 2,
                              n_total, space)

    def complement(self) -> "Partition":
        inside = set(self.indices)
        rest = tuple(i for i in range(self.n_total) if i not in inside)
        return Partition(self.space, rest, self.n_total)

    @property
    def size(self) -> int:
        return len(self.indices)

    def overlaps(self, other: "Partition") -> bool:
        return bool(set(self.indices) & set(other.indices))

    def union(self, other: "Partition") -> "Partition":
        return Partition(self.space, tuple(set(self.indices) | set(other.indices)),
                         self.n_total)


class CorrelationMatrix:
    """Two-point function restricted to a partition.

    ``correlation_matrix`` stores ``entries`` as float64 when every entry
    has an imaginary part of exactly zero (a real kernel with a real
    spectrum, for instance), and as complex128 otherwise.

    A no-jump record (``dynamics.evolve_no_jump``) holds instead the site
    phases g_A and the block C_g of the frame its run took, and forms
    ``entries`` = g_A C_g g_A* on first read; it then keeps the entries
    and drops C_g.
    """

    def __init__(self, partition: Partition, entries: np.ndarray,
                 source: tuple = ()):
        self.partition, self.entries, self.source = partition, entries, source

    @classmethod
    def _framed(cls, partition: Partition, g_A: np.ndarray, C_g: np.ndarray,
                source: tuple) -> "CorrelationMatrix":
        C = cls.__new__(cls)
        C.partition, C.source, C._frame = partition, source, (g_A, C_g)
        return C

    @functools.cached_property
    def entries(self) -> np.ndarray:
        g_A, C_g = self._frame
        del self._frame
        return g_A[:, None] * C_g * g_A.conj()

    def __repr__(self) -> str:
        return (f"CorrelationMatrix(partition={self.partition!r}, "
                f"entries={self.entries!r})")

    @property
    def size(self) -> int:
        return self.partition.size


def _bloch_block(c: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """C[i, j] = c[(x_i - x_j) mod N, s_i, s_j] for the cell-major modes
    i, j in idx, (x, s) = divmod(i, ns)."""
    x, s = np.divmod(idx, c.shape[1])
    return c[(x[:, None] - x) % len(c), s[:, None], s]


def _occupied_rows(sys: BiorthogonalSystem, sel: GroundStateSelection,
                   part: Partition) -> tuple:
    """(R_A, L_A), the partition's rows of the occupied right and left
    vectors in its space: C = R_A L_A^dag."""
    idx, occ = np.asarray(part.indices), sel.occupied
    if part.space == "position":
        return sys.vectors(idx, occ)
    if sys.cells is None:
        raise UnsupportedError("momentum partitions need a periodic cell grid")
    return tuple(np.fft.fft(v.reshape(len(sys.cells), -1), axis=0,
                            norm="ortho").reshape(sys.dim, -1)[idx]
                 for v in sys.vectors(sys.cells.ravel(), occ))


def correlation_matrices(sys: BiorthogonalSystem, sel: GroundStateSelection,
                         parts):
    """``correlation_matrix`` of each partition in ``parts`` (any iterable,
    read one at a time), in order, as a generator; on a ``BlochSystem`` the
    FFT behind every block is done once."""
    bloch = isinstance(sys, BlochSystem)
    if bloch:
        # the occupied Bloch projectors P(k) = sum_{b occ} u_k[:, b]
        # l_k[:, b]^dag, and c[d] = N^-1 sum_k exp(i k d) P(k)
        occ = np.isin(np.arange(sys.dim), sel.occupied)
        P = ((sys.u_k * occ.reshape(len(sys.u_k), 1, -1))
             @ sys.l_k.conj().transpose(0, 2, 1))
        c = np.fft.ifft(P, axis=0)
    for part in parts:
        if part.n_total != sys.dim:
            raise PartitionError(f"partition of {part.n_total} modes, the "
                                 f"system has {sys.dim}")
        idx = np.asarray(part.indices)
        if bloch and part.space == "momentum":
            m, s = np.divmod(idx, P.shape[1])
            C = P[m[:, None], s[:, None], s] * (m[:, None] == m)
        elif bloch:
            C = _bloch_block(c, idx)
        else:
            R, L = map(_real_if_real_valued, _occupied_rows(sys, sel, part))
            C = R @ L.conj().T
        yield CorrelationMatrix(part, _real_if_real_valued(C),
                                source=(sys, sel))


def correlation_matrix(sys: BiorthogonalSystem, sel: GroundStateSelection,
                       part: Partition) -> CorrelationMatrix:
    """C_ij = sum_{a occ} R_a(i) L*_a(j) for i, j in the partition, with
    R_a and L_a in the partition's space.

    On a ``BlochSystem`` the block is gathered from P(k): a position block
    from the block-Toeplitz correlations C(x - y) = N^-1 sum_k
    exp(i k (x - y)) P(k) (Peschel, J. Phys. A 36, L205 (2003)), one FFT
    over the momentum grid and one |A|^2 gather with no eigenvector matrix;
    a momentum block from delta_{m m'} P(k_m)[s, s'].  On any other system
    it is the product R_A L_A^dag of the partition's rows of the occupied
    vectors (for a momentum partition, their FFT over the cells), taken in
    float64 when both factors are real-valued.  ``correlation_matrices``
    gives several partitions of one state for one FFT.  A momentum
    partition of a system without ``cells`` raises ``UnsupportedError``, and
    a partition of other than ``sys.dim`` modes ``PartitionError``.
    """
    return next(correlation_matrices(sys, sel, [part]))


def projector(sys: BiorthogonalSystem, sel: GroundStateSelection) -> np.ndarray:
    """Occupied-state projector P = sum_{a occ} |R_a><L_a| (idempotent): the
    correlation matrix of the partition of all modes, with its dtype rule."""
    everything = Partition("position", range(sys.dim), sys.dim)
    return correlation_matrix(sys, sel, everything).entries


def sorted_by_re_im(values: np.ndarray) -> np.ndarray:
    """Sort complex values lexicographically by (Re, Im)."""
    values = np.asarray(values)
    order = np.lexsort((values.imag, values.real))
    return values[order]


@dataclass
class DualityReport:
    """Spectra of R P R and P R P on their nontrivial blocks."""

    spectrum_rpr: np.ndarray
    spectrum_prp: np.ndarray
    max_mismatch: float


def check_duality(sys: BiorthogonalSystem, sel: GroundStateSelection,
                  part: Partition) -> DualityReport:
    """Compare Spec(R P R) with Spec(P R P) as multisets, at the rank of the
    cut.

    R P R is evaluated on the partition block C (size |A|), P R P on the
    occupied-state block B_ab = <L_a| R |R_b> (size n_occ), both in the
    partition's space.  Both products share their nonzero spectrum, and
    each has rank at most k = min(|A|, n_occ), which is the rank argument:
    the k largest-modulus eigenvalues of each are paired, and every
    eigenvalue left over (of the larger product) should be zero, so its
    modulus is a residual too.  Pairing uses an optimal assignment rather
    than sorted-order matching: clusters of eigenvalues with nearly equal
    real parts but opposite imaginary parts would otherwise cross-pair and
    report a spurious mismatch.  Both returned spectra have length k.
    """
    C = correlation_matrix(sys, sel, part).entries
    Ra, La = _occupied_rows(sys, sel, part)
    B = La.conj().T @ Ra
    ev_rpr = np.linalg.eigvals(C)
    ev_prp = np.linalg.eigvals(B)
    k = min(len(ev_rpr), len(ev_prp))
    kept, dropped = [], [0.0]
    for ev in (ev_rpr, ev_prp):
        by_modulus = np.argsort(-np.abs(ev), kind="stable")
        kept.append(sorted_by_re_im(ev[by_modulus[:k]]))
        dropped.extend(np.abs(ev[by_modulus[k:]]))
    a, b = kept
    perm, residual = match_spectra(a, b)
    return DualityReport(a, b[perm], float(max(residual, *dropped)))
