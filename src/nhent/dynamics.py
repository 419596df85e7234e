"""No-jump time evolution of particle-number-conserving Gaussian states.

The conditional state |psi(t)> = exp(-i H_eff t)|psi_0> / ||...|| of a
monitored trajectory without jumps stays Gaussian, represented by the matrix
of occupied single-particle orbitals.  The density matrix is built from the
evolved wave function only, rho(t) = |psi(t)><psi(t)|, so the correlation
matrix C(t) = M(t) M(t)^dag (with orthonormalized orbital columns M) is
Hermitian and idempotent at all times: non-unitary amplification changes the
state direction, normalization removes the overall decay.  Every kernel is
propagated in one site frame g by one dense exponential of its generator
B = g* (-i K_eff) g, with substeps bounded by the log-norm of B; the frame
is a diagonal of powers of i where that makes B and the start orbitals
real-valued, so the run takes float64, and the identity otherwise (see
``evolve_no_jump``).  Each output time takes the spectrum of its partition
block on the spot and keeps only that block, in the frame of the run; the
entanglement reports of all output times are built after the loop in one
stacked pass over their spectra, the pass of ``entanglement.build_report``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import (dgeqrf, dgeqrf_lwork, dorgqr, zgeqrf,
                                 zgeqrf_lwork, zungqr)

from ._linalg import eig_factors
from .errors import CollapseError, PartitionError, SizeError, UnsupportedError
from .correlations import CorrelationMatrix, Partition
from .entanglement import CLAMP_TOL, MIDGAP_TOL, _stack_reports
from .models import KernelMatrix

__all__ = [
    "GaussianState",
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
# LAPACK's Householder QR, its workspace query and its Q builder, by dtype
_QR = {np.dtype(float): (dgeqrf, dgeqrf_lwork, dorgqr),
       np.dtype(complex): (zgeqrf, zgeqrf_lwork, zungqr)}


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
    V = eig_factors(h).vectors(slice(None), range(n_particles))[0]
    return GaussianState(V.astype(complex, copy=False))


def _site_gauge(A: np.ndarray):
    """The diagonal g = i^p, p in {0, 1}^n, with g* A g real-valued, or None.

    A nonzero A_jk fixes p_j xor p_k (0 if real, 1 if imaginary), a BFS
    2-colouring assigns p, and the exact closing test refuses the rest: an
    entry with both parts nonzero, an imaginary diagonal, an odd ring."""
    nonzero, flip = [P | P.T for P in (A != 0, A.imag != 0)]
    p = np.full(len(A), -1)
    for root in range(len(A)):
        if p[root] < 0:
            p[root], queue = 0, [root]
            for j in queue:
                new = np.flatnonzero(nonzero[j] & (p < 0))
                p[new] = p[j] ^ flip[j, new]
                queue.extend(new.tolist())
    g = np.where(p == 1, 1j, 1.0)
    return None if (g.conj()[:, None] * A * g).imag.any() else g


@functools.cache
def _qr_workspace(dtype: np.dtype, m: int, n: int) -> tuple:
    """The workspace sizes that LAPACK's QR factorization and Q builder
    ask for on an m x n matrix of dtype.  A workspace query reads no
    entries, so the Q builder's is asked on zeros."""
    geqrf, geqrf_lwork, orgqr = _QR[dtype]
    lwork, _ = geqrf_lwork(m, n)
    _, work, _ = orgqr(np.zeros((m, n), dtype), np.zeros(n, dtype), lwork=-1)
    return int(lwork.real), int(work[0].real)


def _orthonormalize(M: np.ndarray, time: float) -> np.ndarray:
    """Q of the thin QR factorization of the N x M orbital matrix.

    LAPACK's dgeqrf and dorgqr (float64) or zgeqrf and zungqr (complex128)
    are called directly, at less cost than through ``np.linalg.qr``.  Each
    takes the workspace its query returns, as numpy's call does; the
    wrappers' default of 3M would run unblocked code above 128 columns,
    which rounds otherwise.  The queries run once per shape and dtype
    (``_qr_workspace``).  The orbitals have collapsed when the smallest
    |R_ii| is at most ``COLLAPSE_TOL`` of the largest, or when they
    outnumber the modes.
    """
    m, n = M.shape
    if n > m:
        raise CollapseError(
            f"{n} orbitals in {m} modes are linearly dependent", time=time)
    geqrf, _, orgqr = _QR[M.dtype]
    qr_lwork, q_lwork = _qr_workspace(M.dtype, m, n)
    qr, tau, _, _ = geqrf(M, lwork=qr_lwork)
    diag = np.abs(np.diagonal(qr))
    if diag.min() <= COLLAPSE_TOL * max(diag.max(), 1e-300):
        raise CollapseError(
            f"orbital matrix rank-deficient at t={time:g}", time=time)
    return orgqr(qr, tau, lwork=q_lwork, overwrite_a=True)[0]


def evolve_no_jump(K_eff: KernelMatrix, psi0: GaussianState, t_grid,
                   partition: Partition, renyi_orders=(2,),
                   clamp_tol: float = CLAMP_TOL):
    """Evolve orbitals under exp(-i K_eff t) with renormalization.

    The orbitals run in one site frame g, a diagonal unitary: the g = i^p
    of ``_site_gauge`` when g* M_0 is exactly real-valued once each column
    is rotated by the power of i of its first nonzero entry (C is
    unchanged), and the identity otherwise.  Each output interval, from
    ``psi0.time`` on, is cut into equal substeps of exp(h B), the generator
    B = g* (-i K_eff) g, with one QR each; B and the orbitals X = g* M are
    float64 exactly when both are real-valued.  A substep is at most
    ln(1e6) / spread, spread being that of the eigenvalues of (B + B^dag)/2,
    the Hermitian part of B: this log-norm bound keeps the orbital condition
    growth below 1e6.

    At each output time the loop forms the partition block C_g = M_A M_A^dag
    of the orbitals' correlation matrix once, takes its spectrum with
    ``eigvalsh`` (the call ``_linalg.eigenvalues`` makes for a Hermitian
    block, which C_g is, so ``build_report`` gives the same) and the trace
    residual |tr(M M^dag) - n| (the trace of the full C, over all sites,
    not of the block), and keeps C_g in its record.  One report pass after
    the loop runs the stacked kernels of ``build_report`` over the (T, |A|)
    spectra.  Each output record carries the partition block of
    C = g_A C_g g_A*, formed from C_g on its first read (a caller that reads
    no ``entries`` holds only the C_g), with the trace residual in its
    source, and the entanglement report of C_g, which has the spectrum of
    C, with correlation eigenvalues within ``clamp_tol`` of 0 or 1 counted
    as unentangled.  An empty ``t_grid`` gives no records.

    Returns
    -------
    list of (time, CorrelationMatrix, EntanglementReport)

    Raises
    ------
    SizeError
        If ``psi0`` has another number of modes than ``K_eff``.
    PartitionError
        If ``partition`` is of another system size than ``K_eff``.
    UnsupportedError
        If ``partition`` is a momentum partition: the orbitals are cut by
        position rows only.
    ValueError
        If a time is not finite, ``t_grid`` is not strictly increasing, or
        it starts before ``psi0.time``.
    """
    n = K_eff.dim
    if psi0.n_modes != n:
        raise SizeError(f"psi0 has {psi0.n_modes} modes, K_eff has {n}")
    if partition.n_total != n:
        raise PartitionError(
            f"partition of {partition.n_total} modes, K_eff has {n}")
    if partition.space != "position":
        raise UnsupportedError(
            f"no-jump runs cut position partitions, not {partition.space}")
    t_grid = [float(t) for t in t_grid]
    if not all(map(math.isfinite, t_grid)):
        raise ValueError("t_grid must be finite")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if t_grid and t_grid[0] < psi0.time:
        raise ValueError(
            f"t_grid must start at or after psi0.time = {psi0.time:g}")

    g = _site_gauge(A := -1j * K_eff.entries)
    if g is not None:
        X = g.conj()[:, None] * psi0.orbitals
        first = X[(X != 0).argmax(axis=0), np.arange(X.shape[1])]
        X = X * np.where(first.real == 0, -1j, 1)
    if g is None or X.imag.any():
        g, X = np.ones(n), psi0.orbitals
    B = g.conj()[:, None] * A * g
    if not (B.imag.any() or X.imag.any()):
        B, X = B.real, X.real
    M = _orthonormalize(X, psi0.time)

    # cond(exp(h B)) <= exp(spread * h) for any B; the eigenvalues of a
    # non-normal B bound only the asymptotic growth, not the transient
    # (Trefethen & Embree, Spectra and Pseudospectra (2005))
    mu = np.linalg.eigvalsh(0.5 * (B + B.conj().T))
    spread = float(mu[-1] - mu[0])
    max_step = (math.log(_MAX_GROWTH) / spread
                if spread > UNITARY_SPREAD_TOL else math.inf)
    now = psi0.time
    idx = np.asarray(partition.indices)
    gA = g[idx]
    eps = np.empty((len(t_grid), len(idx)), dtype=complex)
    records = []
    prop_cache: dict[float, np.ndarray] = {}
    for i, t_out in enumerate(t_grid):
        dt = t_out - now
        if dt > 0:
            n_sub = max(1, math.ceil(dt / max_step))
            h = dt / n_sub
            key = round(h, 15)
            if key not in prop_cache:
                # not V exp(h w) V^-1, which loses the small entries of a
                # graded kernel whose V is ill conditioned (Moler & Van
                # Loan, SIAM Rev. 45, 3 (2003))
                prop_cache[key] = scipy.linalg.expm(h * B)
            U = prop_cache[key]
            for _ in range(n_sub):
                M = _orthonormalize(U @ M, t_out)
        now = t_out
        MA = M[idx]
        CA = MA @ MA.conj().T
        eps[i] = np.linalg.eigvalsh(CA).astype(complex)
        # tr(M M^dag) = ||M||_F^2
        residual = abs(np.vdot(M, M).real - M.shape[1])
        records.append(CorrelationMatrix._framed(
            partition, gA, CA, ("no_jump", t_out, residual)))

    reports = _stack_reports([partition] * len(t_grid), eps, renyi_orders,
                             clamp_tol, MIDGAP_TOL)
    return list(zip(t_grid, records, reports))
