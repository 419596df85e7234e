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

Reports are built for a stack of correlation matrices at once
(``build_report``; one matrix is a stack of one): one 2-D spectrum per
matrix, then each elementwise step once over all spectra, and each
matrix's sums over its own eigenvalues, so a report does not depend on the
matrices stacked beside it.  The entropy functions of a single spectrum run
the same kernels on a stack of one row.
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


def _rows(eps: np.ndarray, tol: float):
    """(mask, e, bounds) of a (T, n) stack of spectra: the clamp mask, and
    the unclamped eigenvalues row after row in one flat array, row t's
    being e[bounds[t]:bounds[t + 1]]."""
    mask = _clamped(eps, tol)
    keep = ~mask
    return mask, eps[keep], [0, *keep.sum(axis=1).cumsum().tolist()]


def _row(eps):
    """(e, bounds) of one spectrum, as a stack of one row."""
    return _rows(np.asarray(eps, dtype=complex).reshape(1, -1), CLAMP_TOL)[1:]


# The entropy kernels take the unclamped eigenvalues e of a stack of spectra
# (``_rows``) and return one entropy per row.  Each kernel is one elementwise
# pass over all of e; each row's terms are then summed as a contiguous array
# of their own, as a spectrum taken alone would be, so a row's entropy does
# not depend on the rows beside it.  Clamped eigenvalues contribute exactly
# zero (the x ln x limit), so a row with none left gives zero.

def _row_sums(terms: np.ndarray, bounds: list, finish) -> list:
    """finish(sum of each row's terms), 0j for a row without any."""
    return [finish(terms[a:b].sum()) if b > a else 0j
            for a, b in zip(bounds, bounds[1:])]


def _vn(e: np.ndarray, bounds: list) -> list:
    return _row_sums(e * np.log(e) + (1.0 - e) * np.log(1.0 - e), bounds,
                     lambda s: complex(-s))


def _renyi(e: np.ndarray, bounds: list, n) -> list:
    if int(n) != n or n < 2:
        raise ValueError(f"Renyi order must be an integer >= 2, got {n}")
    factors = e ** n + (1.0 - e) ** n
    if np.any(np.abs(factors) < RENYI_FACTOR_TOL):
        raise BranchError(f"Tr rho_A^{n} factor vanished; logarithm singular")
    return _row_sums(np.log(factors), bounds, lambda s: complex(s / (1.0 - n)))


def _modified(e: np.ndarray, bounds: list) -> list:
    """Complex: an imaginary part means a spectrum not conjugate-closed."""
    return _row_sums(e * np.log(np.abs(e))
                     + (1.0 - e) * np.log(np.abs(1.0 - e)), bounds,
                     lambda s: complex(-s))


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
    report = build_report(C, renyi_orders=())
    return (report.correlation_eigenvalues, report.single_particle_spectrum,
            report.clamped_modes)


def vn_entropy(eps) -> complex:
    """von Neumann entropy -sum [eps ln eps + (1-eps) ln(1-eps)].

    Terms with eps within ``CLAMP_TOL`` of 0 or 1 contribute 0.
    """
    return _vn(*_row(eps))[0]


def renyi_entropy(eps, n: int) -> complex:
    """Renyi entropy S_n = (1-n)^-1 sum_k ln[eps_k^n + (1-eps_k)^n].

    The free-fermion factorization of Tr rho_A^n; n must be an integer >= 2.
    """
    return _renyi(*_row(eps), n)[0]


def modified_entropy(eps) -> float:
    """Modified entropy -sum [eps ln|eps| + (1-eps) ln|1-eps|].

    |.| is the complex modulus, so the result is real whenever the
    eigenvalue set is closed under conjugation.  A residual imaginary part
    above ``MODIFIED_IMAG_TOL`` means the input was not conjugate-closed and
    raises ConsistencyError; otherwise the real part is returned.
    """
    s = _modified(*_row(eps))[0]
    if abs(s.imag) > MODIFIED_IMAG_TOL:
        raise ConsistencyError(
            f"modified entropy imaginary residual {s.imag:.3e}; "
            "eigenvalues are not conjugate-closed")
    return float(s.real)


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


def build_report(C, renyi_orders=(2,), clamp_tol: float = CLAMP_TOL,
                 midgap_tol: float = MIDGAP_TOL):
    """Full entanglement reports of a stack of correlation matrices.

    ``C`` is one ``CorrelationMatrix``, which gets one report, or a
    sequence of them with blocks of one size, such as the output times of a
    no-jump run, which gets a list of reports; one matrix is built as a
    stack of one.  Each block's spectrum is its own 2-D solve.  Each
    elementwise step (clamp mask, xi, the entropy terms, mid-gap test) then
    runs once over the (T, |A|) array of all spectra, and each block's
    entropies are sums over its own unclamped eigenvalues, in the order its
    spectrum lists them, so every report equals, bit for bit, the report of
    its block alone.

    Mid-gap modes are those with |Re eps - 1/2| < midgap_tol, the visual
    criterion for topological entanglement crossings.  Spectra that are not
    conjugate-closed (models without an antiunitary pairing symmetry) have
    no real modified entropy; the report then records NaN for it rather
    than failing, and callers needing a strict check use
    ``modified_entropy`` directly.
    """
    blocks = [C] if isinstance(C, CorrelationMatrix) else list(C)
    if not blocks:
        return []
    reports = _stack_reports([b.partition for b in blocks],
                             np.array([eigenvalues(b.entries) for b in blocks]),
                             renyi_orders, clamp_tol, midgap_tol)
    return reports[0] if isinstance(C, CorrelationMatrix) else reports


def _stack_reports(partitions, eps: np.ndarray, renyi_orders,
                   clamp_tol: float, midgap_tol: float) -> list:
    """The reports of a (T, |A|) stack of correlation spectra, row t being
    that of ``partitions[t]``, as ``build_report`` makes them: each
    elementwise step runs once over all rows, each row's sums over its own
    unclamped eigenvalues.  ``evolve_no_jump`` hands it the spectra it took
    during its run."""
    mask, e, bounds = _rows(eps, clamp_tol)
    xi = np.log(1.0 / e - 1.0)
    s = _vn(e, bounds)
    renyi = {int(n): _renyi(e, bounds, int(n)) for n in renyi_orders}
    s_mod = [float("nan") if abs(x.imag) > MODIFIED_IMAG_TOL else float(x.real)
             for x in _modified(e, bounds)]
    midgap = np.abs(eps.real - 0.5) < midgap_tol
    return [EntanglementReport(
        partition=part,
        correlation_eigenvalues=eps[t],
        single_particle_spectrum=xi[bounds[t]:bounds[t + 1]],
        entropy_vn=s[t],
        entropy_renyi={n: r[t] for n, r in renyi.items()},
        entropy_modified=s_mod[t],
        midgap_modes=np.flatnonzero(midgap[t]),
        realness_residual=abs(s[t].imag),
        clamped_modes=np.flatnonzero(mask[t]),
    ) for t, part in enumerate(partitions)]


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
