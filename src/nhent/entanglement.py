"""Entanglement spectra, entropies, and the entanglement Hamiltonian.

All quantities derive from the eigenvalues {eps_n} of the subsystem
correlation matrix:

    xi_n  = ln(1/eps_n - 1)            single-particle entanglement energies
    S     = -sum_n [eps ln eps + (1-eps) ln(1-eps)]      von Neumann
    S_n   = (1-n)^-1 sum ln[eps^n + (1-eps)^n]           Renyi, integer n >= 2
    S_mod = -sum_n [eps ln|eps| + (1-eps) ln|1-eps|]     modified (real)

Complex logarithms use the principal branch throughout; eigenvalue sets that
are closed under eps -> eps* (or eps -> 1 - eps*) then yield real entropies,
and any violation is surfaced as a realness residual instead of being hidden.
Eigenvalues within the clamp tolerance of 0 or 1 contribute exactly zero
(the x ln x limit) and are excluded from the xi list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BranchError, ConsistencyError, PartialSpectrumError,
                     PartitionError)
from .correlations import CorrelationMatrix
from ._linalg import balanced_eig, eigenvalues

__all__ = [
    "EntanglementReport",
    "entanglement_spectrum",
    "vn_entropy",
    "renyi_entropy",
    "modified_entropy",
    "entanglement_hamiltonian",
    "mutual_information",
    "build_report",
    "CLAMP_TOL",
    "MIDGAP_TOL",
]

CLAMP_TOL = 1e-12
MIDGAP_TOL = 0.05
# largest imaginary part a modified entropy may carry and still be real
MODIFIED_IMAG_TOL = 1e-6
# a Renyi factor eps^n + (1 - eps)^n smaller than this has no logarithm
RENYI_FACTOR_TOL = 1e-14


def _clamped(eps: np.ndarray, tol: float) -> np.ndarray:
    """Mask of eigenvalues within tol of 0 or 1 (no entanglement content)."""
    return (np.abs(eps) <= tol) | (np.abs(eps - 1.0) <= tol)


def _unclamped(eps) -> np.ndarray:
    """The eigenvalues not clamped at 0 or 1, as a complex array."""
    eps = np.asarray(eps, dtype=complex)
    return eps[~_clamped(eps, CLAMP_TOL)]


def _spectrum(C: CorrelationMatrix, clamp_tol: float):
    """(eps, e, xi, clamped): all eigenvalues of C, the unclamped ones e,
    their entanglement energies and the indices of the clamped ones."""
    eps = eigenvalues(C.entries)
    mask = _clamped(eps, clamp_tol)
    e = eps[~mask]
    return eps, e, np.log(1.0 / e - 1.0), np.nonzero(mask)[0]


# The entropy kernels take the unclamped eigenvalues e only: clamped ones
# contribute exactly zero (the x ln x limit), so none left gives zero.

def _vn(e: np.ndarray) -> complex:
    if not len(e):
        return 0j
    return complex(-np.sum(e * np.log(e) + (1.0 - e) * np.log(1.0 - e)))


def _renyi(e: np.ndarray, n) -> complex:
    if int(n) != n or n < 2:
        raise ValueError(f"Renyi order must be an integer >= 2, got {n}")
    if not len(e):
        return 0j
    factors = e ** n + (1.0 - e) ** n
    if np.any(np.abs(factors) < RENYI_FACTOR_TOL):
        raise BranchError(f"Tr rho_A^{n} factor vanished; logarithm singular")
    return complex(np.sum(np.log(factors)) / (1.0 - n))


def _modified(e: np.ndarray) -> float:
    if not len(e):
        return 0.0
    s = -np.sum(e * np.log(np.abs(e)) + (1.0 - e) * np.log(np.abs(1.0 - e)))
    if abs(s.imag) > MODIFIED_IMAG_TOL:
        raise ConsistencyError(
            f"modified entropy imaginary residual {s.imag:.3e}; "
            "eigenvalues are not conjugate-closed")
    return float(s.real)


def entanglement_spectrum(C: CorrelationMatrix):
    """Correlation eigenvalues {eps_n} and entanglement energies {xi_n}.

    xi_n = ln(1/eps_n - 1) on the principal branch; eigenvalues within
    ``CLAMP_TOL`` of 0 or 1 are flagged and excluded from the xi list.

    Returns
    -------
    eps : np.ndarray
        All eigenvalues of C (complex; ascending when C is Hermitian).
    xi : np.ndarray
        Entanglement energies of the unclamped eigenvalues.
    clamped : np.ndarray
        Indices (into eps) of the clamped eigenvalues.
    """
    eps, _, xi, clamped = _spectrum(C, CLAMP_TOL)
    return eps, xi, clamped


def vn_entropy(eps) -> complex:
    """von Neumann entropy -sum [eps ln eps + (1-eps) ln(1-eps)].

    Terms with eps within ``CLAMP_TOL`` of 0 or 1 contribute 0.
    """
    return _vn(_unclamped(eps))


def renyi_entropy(eps, n: int) -> complex:
    """Renyi entropy S_n = (1-n)^-1 sum_k ln[eps_k^n + (1-eps_k)^n].

    The free-fermion factorization of Tr rho_A^n; n must be an integer >= 2.
    """
    return _renyi(_unclamped(eps), n)


def modified_entropy(eps) -> float:
    """Modified entropy -sum [eps ln|eps| + (1-eps) ln|1-eps|].

    |.| is the complex modulus, so the result is real whenever the
    eigenvalue set is closed under conjugation.  A residual imaginary part
    above ``MODIFIED_IMAG_TOL`` means the input was not conjugate-closed and
    raises ConsistencyError; otherwise the real part is returned.
    """
    return _modified(_unclamped(eps))


def entanglement_hamiltonian(C: CorrelationMatrix) -> np.ndarray:
    """Kernel h^E with eigenvalues {xi_n}, so that rho_A ~ exp(-H^E).

    Computed through the eigendecomposition of C (never by matrix
    inversion): each eigenvalue maps through xi = ln(1/eps - 1) in the
    eigenbasis of C.  Raises PartialSpectrumError when clamped eigenvalues
    make part of the spectrum infinite, and DefectiveError (from
    ``_linalg.balanced_eig``) when C is (near-)defective.
    """
    eps, V, left, _ = balanced_eig(np.asarray(C.entries, dtype=complex))
    mask = _clamped(eps, CLAMP_TOL)
    if np.any(mask):
        raise PartialSpectrumError(
            "correlation eigenvalues at 0/1 give infinite entanglement energies",
            excluded=list(np.nonzero(mask)[0]))
    xi = np.log(1.0 / eps - 1.0)
    return (V * xi) @ left.conj().T


@dataclass
class EntanglementReport:
    """Spectrum, entropies, and diagnostics for one partition."""

    partition: object
    correlation_eigenvalues: np.ndarray
    single_particle_spectrum: np.ndarray
    entropy_vn: complex
    entropy_renyi: dict
    entropy_modified: float
    midgap_modes: np.ndarray
    realness_residual: float
    clamped_modes: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def n_midgap(self) -> int:
        return len(self.midgap_modes)


def build_report(C: CorrelationMatrix, renyi_orders=(2,),
                 clamp_tol: float = CLAMP_TOL,
                 midgap_tol: float = MIDGAP_TOL) -> EntanglementReport:
    """Full entanglement report for a correlation matrix.

    Mid-gap modes are those with |Re eps - 1/2| < midgap_tol, the visual
    criterion for topological entanglement crossings.  Spectra that are not
    conjugate-closed (models without an antiunitary pairing symmetry) have
    no real modified entropy; the report then records NaN for it rather
    than failing, and callers needing a strict check use
    ``modified_entropy`` directly.
    """
    eps, e, xi, clamped = _spectrum(C, clamp_tol)
    s = _vn(e)
    renyi = {int(n): _renyi(e, int(n)) for n in renyi_orders}
    midgap = np.nonzero(np.abs(eps.real - 0.5) < midgap_tol)[0]
    try:
        s_mod = _modified(e)
    except ConsistencyError:
        s_mod = float("nan")
    return EntanglementReport(
        partition=C.partition,
        correlation_eigenvalues=eps,
        single_particle_spectrum=xi,
        entropy_vn=s,
        entropy_renyi=renyi,
        entropy_modified=s_mod,
        midgap_modes=midgap,
        realness_residual=abs(s.imag),
        clamped_modes=clamped,
    )


def mutual_information(report_A: EntanglementReport,
                       report_B: EntanglementReport,
                       report_AB: EntanglementReport) -> complex:
    """I(A:B) = S_A + S_B - S_AB for disjoint partitions A and B.

    Raises PartitionError if A and B overlap or AB is not their union.
    """
    pa, pb, pab = (report_A.partition, report_B.partition, report_AB.partition)
    if pa.overlaps(pb):
        raise PartitionError("mutual information requires disjoint A and B")
    if set(pab.indices) != set(pa.indices) | set(pb.indices):
        raise PartitionError("AB partition must be the union of A and B")
    return report_A.entropy_vn + report_B.entropy_vn - report_AB.entropy_vn
