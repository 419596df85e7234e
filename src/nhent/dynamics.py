"""No-jump time evolution of particle-number-conserving Gaussian states.

The conditional state |psi(t)> = exp(-i H_eff t)|psi_0> / ||...|| of a
monitored trajectory without jumps stays Gaussian, represented by the matrix
of occupied single-particle orbitals.  The density matrix is built from the
evolved wave function only, rho(t) = |psi(t)><psi(t)|, so the correlation
matrix C(t) = M(t) M(t)^dag (with orthonormalized orbital columns M) is
Hermitian and idempotent at all times: non-unitary amplification changes the
state direction, normalization removes the overall decay.  Every kernel is
propagated by the dense exponential, with substeps bounded by the log-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgeqrf, zgeqrf_lwork, zungqr

from .errors import CollapseError, SizeError
from .correlations import CorrelationMatrix, Partition
from .entanglement import CLAMP_TOL, build_report
from .models import KernelMatrix

__all__ = [
    "GaussianState",
    "kernel_exponential",
    "evolve_no_jump",
    "domain_wall_state",
    "hermitian_ground_state",
    "staggered_state",
]

# orbital condition number allowed to build up between orthonormalizations
_MAX_GROWTH = 1e6
# orbitals have collapsed when the smallest |R_ii| of their QR factor is at
# most this fraction of the largest
COLLAPSE_TOL = 1e-12
# a Hermitian-part eigenvalue spread at or below this is norm-preserving
# evolution, which needs no step limit
UNITARY_SPREAD_TOL = 1e-12


@dataclass
class GaussianState:
    """Occupied orbitals as columns of an N x M matrix, at a given time."""

    orbitals: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.orbitals = np.asarray(self.orbitals, dtype=complex)
        if self.orbitals.ndim != 2:
            raise SizeError("orbitals must be an N x M matrix")

    @property
    def n_modes(self) -> int:
        return self.orbitals.shape[0]

    @property
    def n_particles(self) -> int:
        return self.orbitals.shape[1]

    def correlation(self) -> np.ndarray:
        """C = M M^dag for orthonormal orbitals (Hermitian, idempotent)."""
        return self.orbitals @ self.orbitals.conj().T


def domain_wall_state(n_modes: int) -> GaussianState:
    """Product state with the leading n_modes // 2 sites occupied."""
    n_filled = n_modes // 2
    M = np.zeros((n_modes, n_filled), dtype=complex)
    M[np.arange(n_filled), np.arange(n_filled)] = 1.0
    return GaussianState(M)


def staggered_state(n_modes: int) -> GaussianState:
    """Half-filled product state occupying every other site.

    The charge-density-wave start populates quasiparticle pairs uniformly,
    giving a clean linear entanglement-growth window under Hermitian
    evolution.
    """
    sites = np.arange(0, n_modes, 2)
    M = np.zeros((n_modes, len(sites)), dtype=complex)
    M[sites, np.arange(len(sites))] = 1.0
    return GaussianState(M)


def hermitian_ground_state(K: KernelMatrix, n_particles: int) -> GaussianState:
    """Ground state of the Hermitian part (K + K^dag)/2 at fixed filling."""
    h = 0.5 * (K.entries + K.entries.conj().T)
    _, V = np.linalg.eigh(h)
    return GaussianState(V[:, :n_particles])


def kernel_exponential(K: KernelMatrix, t: float):
    """Propagator exp(-i K t) by ``scipy.linalg.expm``, for every kernel.

    V exp(-i w t) V^-1 would lose the small entries of a graded kernel whose
    V is ill conditioned (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
    """
    return scipy.linalg.expm(-1j * t * K.entries)


def _orthonormalize(M: np.ndarray, time: float) -> np.ndarray:
    """Q of the thin QR factorization of the N x M orbital matrix.

    LAPACK's zgeqrf and zungqr are called directly, at less cost than
    through ``np.linalg.qr``.  Each takes the workspace its query returns,
    as numpy's call does; the wrappers' default of 3M would run unblocked
    code above 128 columns, which rounds otherwise.  The orbitals have
    collapsed when the smallest |R_ii| is at most ``COLLAPSE_TOL`` of the
    largest, or when they outnumber the modes.
    """
    m, n = M.shape
    if n > m:
        raise CollapseError(
            f"{n} orbitals in {m} modes are linearly dependent", time=time)
    lwork, _ = zgeqrf_lwork(m, n)
    qr, tau, _, _ = zgeqrf(M, lwork=int(lwork.real))
    diag = np.abs(np.diagonal(qr))
    if diag.min() <= COLLAPSE_TOL * max(diag.max(), 1e-300):
        raise CollapseError(
            f"orbital matrix rank-deficient at t={time:g}", time=time)
    # a workspace query reads no entries, so it may skip the copy of qr
    _, work, _ = zungqr(qr, tau, lwork=-1, overwrite_a=True)
    return zungqr(qr, tau, lwork=int(work[0].real), overwrite_a=True)[0]


def evolve_no_jump(K_eff: KernelMatrix, psi0: GaussianState, t_grid,
                   partition: Partition, renyi_orders=(2,),
                   clamp_tol: float = CLAMP_TOL):
    """Evolve orbitals under exp(-i K_eff t) with renormalization.

    Each output interval, from ``psi0.time`` on, is cut into equal substeps
    of ``kernel_exponential`` with one QR each.  A substep is at most
    ln(1e6) / spread, spread being that of the eigenvalues of the Hermitian
    part of -i K_eff: this log-norm bound keeps the orbital condition growth
    below 1e6.  Each output record carries the partition block of C, with
    the trace residual |tr(M M^dag) - n| in its source (the trace of the
    full C, over all sites, not of the block), and its entanglement report,
    with correlation eigenvalues within ``clamp_tol`` of 0 or 1 counted as
    unentangled.

    Returns
    -------
    list of (time, CorrelationMatrix, EntanglementReport)
    """
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if t_grid and t_grid[0] < psi0.time:
        raise ValueError(
            f"t_grid must start at or after psi0.time = {psi0.time:g}")

    # cond(exp(-i K h)) <= exp(spread * h) for any K; the eigenvalues of a
    # non-normal K bound only the asymptotic growth, not the transient
    # (Trefethen & Embree, Spectra and Pseudospectra (2005))
    mu = np.linalg.eigvalsh(0.5j * (K_eff.entries.conj().T - K_eff.entries))
    spread = float(mu[-1] - mu[0])
    max_step = (math.log(_MAX_GROWTH) / spread
                if spread > UNITARY_SPREAD_TOL else math.inf)

    M = _orthonormalize(psi0.orbitals.copy(), psi0.time)
    now = psi0.time
    idx = np.asarray(partition.indices)
    records = []
    prop_cache: dict[float, np.ndarray] = {}
    for t_out in t_grid:
        dt = t_out - now
        if dt > 0:
            n_sub = max(1, math.ceil(dt / max_step))
            h = dt / n_sub
            key = round(h, 15)
            if key not in prop_cache:
                prop_cache[key] = kernel_exponential(K_eff, h)
            U = prop_cache[key]
            for _ in range(n_sub):
                M = _orthonormalize(U @ M, t_out)
        now = t_out
        # tr(M M^dag) = ||M||_F^2
        trace_residual = abs(np.vdot(M, M).real - M.shape[1])
        MA = M[idx]
        C = CorrelationMatrix(partition, MA @ MA.conj().T,
                              source=("no_jump", t_out, trace_residual))
        report = build_report(C, renyi_orders=renyi_orders,
                              clamp_tol=clamp_tol)
        records.append((t_out, C, report))
    return records
