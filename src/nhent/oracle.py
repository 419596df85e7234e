"""Brute-force many-body verification in the Fock space.

Deliberately independent of the correlation-matrix machinery: states are
built by exact diagonalization of the many-body Hamiltonian, reduced
density matrices by an explicit partial trace, entropies from the spectrum
of rho_A.  Disagreement with the fast path is a bug in the fast path.

The Hamiltonian conserves particle number, so the ground states live in one
n-particle sector of C(N, n) occupation states.  ``fock_block`` builds that
sector's dense matrix and ``manybody_biortho_ground`` diagonalizes only it;
the returned |G_R>, |G_L> are 2^N vectors, zero outside the sector.
``reduced_density`` traces |G_R><G_L| down to the 2^keep x 2^keep rho_A
without forming rho.  Built in full, 2^N x 2^N: ``fock_hamiltonian`` (the
direct sum of all sector blocks) and any rho handed to ``partial_trace``
as a ``FockOperator``.

Sector blocks and rho_A go through the fast path's eigen-solve
(``_linalg.eig_with_balanced_inverse``), so both refuse a (near-)defective
matrix by one rule, raising ``DefectiveError``.

Mode ordering is fixed with the kept (A) modes first, occupying the low
bits of the basis-state integer.  Jordan-Wigner strings then act entirely
inside A for A-mode operators, so tracing out B is a plain block trace with
no residual signs; arbitrary partitions are handled by relabeling the
kernel before Fock construction (``reorder_modes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eig_with_balanced_inverse
from .errors import DegeneracyError, OrderingError, SizeError
from .models import KernelMatrix
from .spectra import policy_order

__all__ = [
    "FockOperator",
    "fock_block",
    "fock_hamiltonian",
    "manybody_biortho_ground",
    "partial_trace",
    "reduced_density",
    "sector_states",
    "oracle_report",
    "OracleReport",
    "fock_correlation",
    "reorder_modes",
]

MAX_MODES = 14


def _popcount(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.int64)
    count = np.zeros_like(a)
    while np.any(a):
        count += a & 1
        a >>= 1
    return count


@dataclass
class FockOperator:
    """Dense operator on the 2^N-dimensional Fock space."""

    n_modes: int
    matrix: np.ndarray
    mode_order: list

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes


def reorder_modes(K: KernelMatrix, order) -> KernelMatrix:
    """Kernel with modes permuted so that ``order`` lists the new 0, 1, ...

    Used to bring an arbitrary partition to the leading positions before
    Fock construction.
    """
    order = list(order)
    if sorted(order) != list(range(K.dim)):
        raise OrderingError("order must be a permutation of all modes")
    idx = np.asarray(order)
    return KernelMatrix(K.dim, K.entries[np.ix_(idx, idx)], K.bc,
                        [K.site_labels[i] for i in order])


def sector_states(n_modes: int, n_particles: int) -> np.ndarray:
    """Occupation-basis states with ``n_particles`` set bits, ascending."""
    states = np.arange(2 ** n_modes, dtype=np.int64)
    return states[_popcount(states) == n_particles]


def fock_block(K: KernelMatrix, n_particles: int):
    """n-particle block of sum_ij K_ij c+_i c_j and its basis states.

    Basis state s has mode i occupied iff bit i of s is set (mode 0 in the
    lowest bit), with the Jordan-Wigner string of mode i covering modes
    j < i.  Rows and columns follow ``states`` (see ``sector_states``).
    """
    N = K.dim
    if N > MAX_MODES:
        raise SizeError(f"Fock space guard: N={N} exceeds {MAX_MODES}")
    states = sector_states(N, n_particles)
    H = np.zeros((len(states), len(states)), dtype=complex)
    pos = np.arange(len(states))
    for i in range(N):
        for j in range(N):
            amp = K.entries[i, j]
            if amp == 0:
                continue
            if i == j:
                nj = (states >> j) & 1
                H[pos, pos] += amp * nj
                continue
            mask = (((states >> j) & 1) == 1) & (((states >> i) & 1) == 0)
            src = states[mask]
            mid = src ^ (1 << j)
            dst = mid ^ (1 << i)
            sign = (-1.0) ** (_popcount(src & ((1 << j) - 1))
                              + _popcount(mid & ((1 << i) - 1)))
            H[np.searchsorted(states, dst), pos[mask]] += amp * sign
    return H, states


def fock_hamiltonian(K: KernelMatrix) -> FockOperator:
    """Many-body matrix of sum_ij K_ij c+_i c_j in the occupation basis.

    The direct sum of ``fock_block`` over all particle numbers: the
    Hamiltonian is number conserving by construction.
    """
    # blocks first, so that fock_block's size guard runs before the
    # 2^N x 2^N allocation
    blocks = [fock_block(K, n) for n in range(K.dim + 1)]
    H = np.zeros((2 ** K.dim, 2 ** K.dim), dtype=complex)
    for Hb, states in blocks:
        H[np.ix_(states, states)] = Hb
    return FockOperator(K.dim, H, list(range(K.dim)))


def manybody_biortho_ground(K: KernelMatrix, n_particles: int,
                            policy: str = "real_part",
                            degeneracy_tol: float = 1e-9):
    """Right and left ground vectors of the kernel's n-particle block.

    The ground eigenvalue is the policy-minimal eigenvalue of the block
    (with the same tolerance-aware tie ordering as the single-particle
    selection); vectors are normalized so <G_L|G_R> = 1 and returned in
    the full 2^N occupation basis.  If the ground eigenvalue itself is
    degenerate within ``degeneracy_tol`` the oracle declines
    (DegeneracyError) rather than guessing a state; a (near-)defective
    block raises DefectiveError from the eigen-solve.
    """
    Hb, block_states = fock_block(K, n_particles)
    w, V, Vinv, _, _ = eig_with_balanced_inverse(Hb)
    order = policy_order(w, policy)
    idx = order[0]
    if len(order) > 1 and abs(w[order[0]] - w[order[1]]) < degeneracy_tol:
        raise DegeneracyError(
            f"many-body ground eigenvalue degenerate: {w[order[0]]} vs {w[order[1]]}")
    dim = 2 ** K.dim
    G_R = np.zeros(dim, dtype=complex)
    G_L = np.zeros(dim, dtype=complex)
    G_R[block_states] = V[:, idx]
    G_L[block_states] = Vinv[idx, :].conj()
    return G_R, G_L, w[idx]


def partial_trace(rho: FockOperator, keep: int) -> np.ndarray:
    """Trace out the trailing modes, keeping the leading ``keep`` modes.

    With A-modes in the low bits the basis factorizes as
    s = s_A + 2^keep * s_B, so rho_A[sA, sA'] = sum_{sB} rho[(sB,sA), (sB,sA')].
    """
    N = rho.n_modes
    if not 0 < keep <= N:
        raise OrderingError(f"keep={keep} out of range for {N} modes")
    if rho.mode_order[:keep] != list(range(keep)):
        raise OrderingError("kept modes must be the leading block; "
                            "relabel with reorder_modes first")
    nb = 2 ** (N - keep)
    na = 2 ** keep
    r4 = rho.matrix.reshape(nb, na, nb, na)
    return np.einsum("aiaj->ij", r4)


def reduced_density(G_R: np.ndarray, G_L: np.ndarray, n_modes: int,
                    keep: int) -> np.ndarray:
    """rho_A = Tr_B |G_R><G_L| over the trailing modes, without forming rho.

    With s = s_A + 2^keep * s_B, rho_A[sA, sA'] = sum_{sB} G_R[sB, sA]
    conj(G_L[sB, sA']), one (2^keep x 2^(N-keep)) @ (2^(N-keep) x 2^keep)
    product.
    """
    if not 0 < keep <= n_modes:
        raise OrderingError(f"keep={keep} out of range for {n_modes} modes")
    nb = 2 ** (n_modes - keep)
    na = 2 ** keep
    return G_R.reshape(nb, na).T @ G_L.reshape(nb, na).conj()


@dataclass
class OracleReport:
    """Exact rho_A spectrum and entropies."""

    spectrum: np.ndarray
    entropy_vn: complex
    entropy_modified: float


def oracle_report(rho_A: np.ndarray, clamp_tol: float = 1e-12) -> OracleReport:
    """Spectrum of rho_A, S_vn = -Tr rho ln rho, S_mod = -Tr rho ln|rho|.

    ln|rho_A| replaces each eigenvalue logarithm by ln|lambda| in the same
    eigenbasis, so both entropies reduce to eigenvalue sums.  Eigenvalues
    within ``clamp_tol`` of zero contribute nothing.  Raises DefectiveError
    (from the eigen-solve) when rho_A is (near-)defective.
    """
    lam = eig_with_balanced_inverse(np.asarray(rho_A, dtype=complex))[0]
    keep = np.abs(lam) > clamp_tol
    lk = lam[keep]
    s_vn = complex(-np.sum(lk * np.log(lk)))
    s_mod = -np.sum(lk * np.log(np.abs(lk)))
    return OracleReport(spectrum=lam, entropy_vn=s_vn,
                        entropy_modified=float(s_mod.real))


def _apply_annihilation(i: int, vec: np.ndarray, n_modes: int) -> np.ndarray:
    """c_i |vec> in the occupation basis."""
    dim = len(vec)
    states = np.arange(dim, dtype=np.int64)
    out = np.zeros_like(vec)
    mask = ((states >> i) & 1) == 1
    src = states[mask]
    dst = src ^ (1 << i)
    sign = (-1.0) ** _popcount(src & ((1 << i) - 1))
    out[dst] = sign * vec[src]
    return out


def fock_correlation(G_R: np.ndarray, G_L: np.ndarray, n_modes: int) -> np.ndarray:
    """Two-point function C_ij = <G_L| c+_j c_i |G_R> from Fock vectors."""
    ci = [_apply_annihilation(i, G_R, n_modes) for i in range(n_modes)]
    cj = [_apply_annihilation(j, G_L, n_modes) for j in range(n_modes)]
    C = np.empty((n_modes, n_modes), dtype=complex)
    for i in range(n_modes):
        for j in range(n_modes):
            C[i, j] = np.vdot(cj[j], ci[i])
    return C
