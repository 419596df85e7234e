"""Ground-state correlation matrices on real- or momentum-space partitions.

The biorthogonal two-point function C^A_ij = <G_L| c+_j c_i |G_R>, with i, j
restricted to subsystem A, equals the A-block of R P R where
P = sum_{a occ} |R_a><L_a| is the occupied-state projector and R the
real-space restriction.  Spec(R P R) and Spec(P R P) agree on their nonzero
parts, which is the position-momentum duality check.

On a system solved momentum block by momentum block (a ``BlochSystem``), P
is block-Toeplitz: its (x, s; y, s') entry depends on x - y mod N only, and
one inverse FFT of the occupied Bloch projectors gives every entry, so no
block is formed from the dense eigenvector matrices, and the blocks of many
partitions of one state (``correlation_matrices``) share that one FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._linalg import _real_if_real_valued, match_spectra
from .errors import PartitionError, UnsupportedError
from .models import KernelMatrix
from .spectra import BiorthogonalSystem, BlochSystem, GroundStateSelection

__all__ = [
    "Partition",
    "CorrelationMatrix",
    "DualityReport",
    "correlation_matrix",
    "correlation_matrices",
    "projector",
    "momentum_transform",
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


@dataclass
class CorrelationMatrix:
    """Two-point function restricted to a partition.

    ``correlation_matrix`` stores ``entries`` as float64 when every entry
    has an imaginary part of exactly zero (a real kernel with a real
    spectrum, for instance), and as complex128 otherwise.
    """

    partition: Partition
    entries: np.ndarray
    source: tuple = field(default=(), repr=False)

    @property
    def size(self) -> int:
        return self.partition.size


def _bloch_correlations(sys: BlochSystem,
                        sel: GroundStateSelection) -> np.ndarray:
    """c[d] = N^-1 sum_k exp(i k d) P(k), the (N, ns, ns) block-Toeplitz
    correlations: one inverse FFT over the grid of the occupied Bloch
    projectors P(k) = sum_{b occ} u_k[:, b] l_k[:, b]^dag."""
    nc, ns = sys.cells.shape
    occ = np.zeros(sys.dim, dtype=bool)
    occ[sel.occupied] = True
    P = (sys.u_k * occ.reshape(nc, 1, ns)) @ sys.l_k.conj().transpose(0, 2, 1)
    return np.fft.ifft(P, axis=0)


def _bloch_block(sys: BlochSystem, c: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """C[i, j] = c[(x_i - x_j) mod N, s_i, s_j] for modes i, j in idx."""
    x, s = sys.cell_of[idx], sys.sublattice_of[idx]
    return c[(x[:, None] - x) % len(c), s[:, None], s]


def correlation_matrices(sys: BiorthogonalSystem, sel: GroundStateSelection,
                         parts):
    """``correlation_matrix`` of each partition in ``parts`` (any iterable,
    read one at a time), in order, as a generator; on a ``BlochSystem`` the
    FFT behind every block is done once."""
    c = _bloch_correlations(sys, sel) if isinstance(sys, BlochSystem) else None
    for part in parts:
        idx = np.asarray(part.indices)
        if c is not None:
            C = _bloch_block(sys, c, idx)
        else:
            R = _real_if_real_valued(sys.right[np.ix_(idx, sel.occupied)])
            L = _real_if_real_valued(sys.left[np.ix_(idx, sel.occupied)])
            C = R @ L.conj().T
        yield CorrelationMatrix(part, _real_if_real_valued(C),
                                source=(sys, sel))


def correlation_matrix(sys: BiorthogonalSystem, sel: GroundStateSelection,
                       part: Partition) -> CorrelationMatrix:
    """C_ij = sum_{a occ} R_a(i) L*_a(j) for i, j in the partition.

    On a ``BlochSystem`` the block is gathered from the block-Toeplitz
    correlations C(x - y) = N^-1 sum_k exp(i k (x - y)) P(k) (Peschel,
    J. Phys. A 36, L205 (2003)), for any position partition: one FFT over
    the momentum grid and one |A|^2 gather, with no eigenvector matrix.  On
    any other system it is the product R_A L_A^dag of the partition's rows
    of the occupied vectors, taken in float64 when both factors are
    real-valued.  The partition indexes the basis the system was
    diagonalized in; for momentum-space partitions diagonalize the
    Fourier-transformed kernel first (see ``momentum_transform``) and reuse
    this position pathway.  ``correlation_matrices`` gives several
    partitions of one state for one FFT.
    """
    return next(correlation_matrices(sys, sel, [part]))


def projector(sys: BiorthogonalSystem, sel: GroundStateSelection) -> np.ndarray:
    """Occupied-state projector P = sum_{a occ} |R_a><L_a| (idempotent): the
    correlation matrix of the partition of all modes, with its dtype rule."""
    everything = Partition("position", range(sys.dim), sys.dim)
    return correlation_matrix(sys, sel, everything).entries


def momentum_transform(K: KernelMatrix) -> KernelMatrix:
    """Kernel conjugated by the unitary discrete Fourier matrix.

    Acts on the cell index with F[m, x] = exp(-2 pi i m x / N) / sqrt(N),
    leaving sublattice structure untouched; site labels become momentum
    labels.  Applying it twice returns the original kernel up to inversion
    of the cell labels.
    """
    if K.bc != "periodic":
        raise UnsupportedError("momentum transform requires periodic bc")
    pos = K.cell_sites
    nc, ns = pos.shape
    F = scipy.linalg.dft(nc) / np.sqrt(nc)
    # permute to (cell, sub) blocks, transform cells, permute back
    perm = pos.reshape(-1)
    A = K.entries[np.ix_(perm, perm)]
    A = A.reshape(nc, ns, nc, ns)
    A = np.einsum("mx,xayb,ny->manb", F, A, F.conj(), optimize=True)
    out = A.reshape(nc * ns, nc * ns)
    labels = [(m, s) for m in range(nc) for s in range(ns)]
    return KernelMatrix(K.dim, out, "periodic", labels)


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
    """Compare Spec(R P R) with Spec(P R P) as multisets.

    R P R is evaluated on the partition block (size |A|); P R P on the
    occupied-state block B_ab = <L_a| R |R_b> (size n_occ).  The shorter
    spectrum is padded with exact zeros, which is the rank argument: both
    products share their nonzero spectrum.  Pairing uses an optimal
    assignment rather than sorted-order matching: clusters of eigenvalues
    with nearly equal real parts but opposite imaginary parts would
    otherwise cross-pair and report a spurious mismatch.
    """
    idx = np.asarray(part.indices)
    C = correlation_matrix(sys, sel, part).entries
    Ra = sys.right[np.ix_(idx, sel.occupied)]
    La = sys.left[np.ix_(idx, sel.occupied)]
    B = La.conj().T @ Ra
    ev_rpr = np.linalg.eigvals(C)
    ev_prp = np.linalg.eigvals(B)
    n = max(len(ev_rpr), len(ev_prp))
    pad_rpr = np.concatenate([ev_rpr, np.zeros(n - len(ev_rpr), dtype=complex)])
    pad_prp = np.concatenate([ev_prp, np.zeros(n - len(ev_prp), dtype=complex)])
    a = sorted_by_re_im(pad_rpr)
    b = sorted_by_re_im(pad_prp)
    perm, residual = match_spectra(a, b)
    return DualityReport(a, b[perm], residual)
