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
without forming rho, and ``fock_correlation`` reads the two-point function
off the same vectors.  No 2^N x 2^N matrix is built.

Sector blocks and rho_A go through the fast path's eigen-solve
(``_linalg.eig_factors``), so both refuse a (near-)defective matrix by
one rule, raising ``DefectiveError``; of a sector's vectors only the
ground column is formed, and of rho_A's none.  A sector's diagonal is the
correctly rounded sum of its onsite energies, so the block keeps every
exact mode-permutation symmetry of the kernel, and the solve gets the
sector images of the kernel's lattice mirrors: the sector of a
PT-symmetric chain, such as the suite's nh-ssh case, is solved in real
arithmetic as its kernel is.

Mode i is bit i of the basis-state integer, and the kept (A) modes are the
leading ones, in the low bits.  Jordan-Wigner strings then act entirely
inside A for A-mode operators, so tracing out B is a plain block trace with
no residual signs.  To trace down to another subsystem, permute the
kernel's modes so that it leads before building the Fock block.

``oracle_equivalence_suite`` referees the central identity: the fast path's
correlation-matrix entropy and spectrum against the exact rho_A, on random
and lattice kernels.  ``nhent oracle`` runs it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import _arithmetic, eig_factors, match_spectra
from .correlations import Partition, correlation_matrix
from .entanglement import modified_entropy, vn_entropy
from .errors import ConsistencyError, DegeneracyError, OrderingError, SizeError
from .models import KernelMatrix, build_hatano_nelson, build_nh_ssh_real
from .spectra import _mirrors, biorthogonal_eig, policy_order, select_occupied

__all__ = [
    "fock_block",
    "manybody_biortho_ground",
    "reduced_density",
    "sector_states",
    "oracle_report",
    "OracleReport",
    "fock_correlation",
    "oracle_equivalence_suite",
    "ORACLE_ENTROPY_TOL",
]

MAX_MODES = 14
ORACLE_ENTROPY_TOL = 1e-8
ORACLE_SPECTRUM_TOL = 1e-9
ORACLE_PURITY_TOL = 1e-10
# rho_A eigenvalues at most this large in modulus contribute no entropy
ORACLE_CLAMP_TOL = 1e-12
# the oracle declines a ground eigenvalue this close to the next one
DEGENERACY_TOL = 1e-9


# set-bit count of every integer below 2^MAX_MODES
_POPCOUNT = np.zeros(1, dtype=np.int64)
for _ in range(MAX_MODES):
    _POPCOUNT = np.concatenate([_POPCOUNT, _POPCOUNT + 1])


def _popcount(a: np.ndarray) -> np.ndarray:
    return _POPCOUNT[a]


def sector_states(n_modes: int, n_particles: int) -> np.ndarray:
    """Occupation-basis states with ``n_particles`` set bits, ascending.

    Raises SizeError above ``MAX_MODES``, the range of the popcount table.
    """
    if n_modes > MAX_MODES:
        raise SizeError(f"Fock space guard: N={n_modes} exceeds {MAX_MODES}")
    states = np.arange(2 ** n_modes, dtype=np.int64)
    return states[_popcount(states) == n_particles]


def fock_block(K: KernelMatrix, n_particles: int):
    """n-particle block of sum_ij K_ij c+_i c_j and its basis states.

    Basis state s has mode i occupied iff bit i of s is set (mode 0 in the
    lowest bit), with the Jordan-Wigner string of mode i covering modes
    j < i.  Rows and columns follow ``states`` (see ``sector_states``).

    Every hop i != j of a nonzero K_ij is gathered in one vectorized pass
    over all (hop, state) pairs.  A hop c+_i c_j moves a state to the one
    that differs from it in bits i and j only, so each off-diagonal entry
    of the block comes from exactly one hop and is K_ij times its sign.
    Each diagonal entry is sum_j K_jj n_j, correctly rounded (``math.fsum``
    of the real and of the imaginary parts), so it does not depend on the
    order of the modes and the block keeps every exact mode-permutation
    symmetry of K.
    """
    N = K.dim
    states = sector_states(N, n_particles)
    occupied = (states >> np.arange(N)[:, None]) & 1  # (mode, state)
    diagonal = np.diagonal(K.entries)
    energy = np.zeros(len(states), dtype=complex)
    modes = np.flatnonzero(diagonal)
    flags = occupied[modes].T.tolist()  # per state, n_j of each such mode
    for part, values in ((energy.real, diagonal.real[modes].tolist()),
                         (energy.imag, diagonal.imag[modes].tolist())):
        if not any(values):
            continue
        try:
            part[:] = [math.fsum(itertools.compress(values, f))
                       for f in flags]
        except OverflowError:  # a running sum past float64, near 1e308
            part[:] = [sum(itertools.compress(values, f)) for f in flags]
    H = np.diag(energy)
    i, j = np.nonzero(K.entries - np.diag(diagonal))
    # (hop, state) pairs whose state has mode j occupied and mode i empty
    hop, col = np.nonzero((occupied[j] == 1) & (occupied[i] == 0))
    i, j, src = i[hop], j[hop], states[col]
    mid = src ^ (1 << j)
    dst = mid ^ (1 << i)
    sign = (-1.0) ** (_popcount(src & ((1 << j) - 1))
                      + _popcount(mid & ((1 << i) - 1)))
    H[np.searchsorted(states, dst), col] += K.entries[i, j] * sign
    return H, states


def manybody_biortho_ground(K: KernelMatrix, n_particles: int,
                            policy: str = "real_part"):
    """Right and left ground vectors of the kernel's n-particle block.

    The ground eigenvalue is the policy-minimal eigenvalue of the block
    (with the same tolerance-aware tie ordering as the single-particle
    selection); vectors are normalized so <G_L|G_R> = 1 and returned in
    the full 2^N occupation basis.  If the ground eigenvalue itself is
    degenerate within ``DEGENERACY_TOL`` the oracle declines
    (DegeneracyError) rather than guessing a state; a (near-)defective
    block raises DefectiveError from the eigen-solve.

    The solve gets the Fock image of each lattice mirror p of the kernel
    (``spectra._mirrors``) under which the kernel itself passes the exact
    test K* = P K P (none for a real kernel): the permutation of the
    sector that sends state s to sum_i bit_i(s) << p(i).  Where the block
    passes the solve's exact test X* = P X P under one of them, as the
    sector of a PT-symmetric chain does under its reversal, it is solved
    in real arithmetic.  A reversal of all modes reorders every state's
    creation operators alike, so its one fermion sign, (-1)^(n(n-1)/2),
    drops out of P X P; an image whose signs vary from state to state
    fails the test, and the block takes the complex solve.
    """
    Hb, block_states = fock_block(K, n_particles)
    bits = (block_states >> np.arange(K.dim)[:, None]) & 1  # (mode, state)
    mirrors = [p for p in _mirrors(K) if _arithmetic(K.entries, (p,))[1] == 0]
    images = tuple(np.searchsorted(block_states,
                                   (bits << p[:, None]).sum(axis=0))
                   for p in mirrors)
    factors = eig_factors(Hb, images)
    w = factors.eigenvalues
    order = policy_order(w, policy)
    idx = order[0]
    if len(order) > 1 and abs(w[order[0]] - w[order[1]]) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"many-body ground eigenvalue degenerate: {w[order[0]]} vs {w[order[1]]}")
    dim = 2 ** K.dim
    G_R = np.zeros(dim, dtype=complex)
    G_L = np.zeros(dim, dtype=complex)
    R, L = factors.vectors(slice(None), [idx])  # the ground column alone
    G_R[block_states], G_L[block_states] = R[:, 0], L[:, 0]
    return G_R, G_L, w[idx]


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


def oracle_report(rho_A: np.ndarray) -> OracleReport:
    """Spectrum of rho_A, S_vn = -Tr rho ln rho, S_mod = -Tr rho ln|rho|.

    ln|rho_A| replaces each eigenvalue logarithm by ln|lambda| in the same
    eigenbasis, so both entropies reduce to eigenvalue sums.  Eigenvalues
    within ``ORACLE_CLAMP_TOL`` of zero contribute nothing.  Raises
    DefectiveError (from the eigen-solve) when rho_A is (near-)defective.
    """
    lam = eig_factors(np.asarray(rho_A, dtype=complex)).eigenvalues
    keep = np.abs(lam) > ORACLE_CLAMP_TOL
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


def oracle_equivalence_suite(n_cases: int = 20, n_modes: int = 8,
                             subsystem: int = 4, seed: int = 20210715,
                             entropy_tol: float = ORACLE_ENTROPY_TOL):
    """Cross-check the correlation pathway against the Fock-space oracle.

    Runs randomized number-conserving non-Hermitian kernels plus fixed
    lattice instances, comparing the correlation-matrix entropy with the
    exact many-body entropy, the rho_A spectrum with the product multiset
    of correlation eigenvalues, and checking rho^2 = rho.  For the rank-one
    rho = |G_R><G_L|, max|rho^2 - rho| = |<G_L|G_R> - 1| max|G_R| max|G_L|
    exactly, so the purity check costs O(2^N) and forms no rho.  A case
    passes when its entropy residual is below ``entropy_tol``, its spectrum
    residual below ``ORACLE_SPECTRUM_TOL`` and its purity residual below
    ``ORACLE_PURITY_TOL``.

    Returns a list of per-case dicts with residuals, a 'passed' flag and
    the sorted messages of the warnings the case raised ('warnings'), which
    are recorded there and not shown.
    """
    # Random kernels carry a Hermitian base plus a moderate non-Hermitian
    # part.  At arbitrary non-Hermiticity strength the factorized entropy
    # and the many-body entropy differ by 2*pi*i branch jumps of the
    # complex logarithm (the rho_A spectra still agree); physical lattice
    # models live in the moderate regime where the identity is exact.
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        H0 = rng.normal(size=(n_modes, n_modes)) \
            + 1j * rng.normal(size=(n_modes, n_modes))
        H0 = 0.5 * (H0 + H0.conj().T)
        G = rng.normal(size=(n_modes, n_modes)) \
            + 1j * rng.normal(size=(n_modes, n_modes))
        A = H0 + 0.35 * G
        cases.append((f"random-{i}", KernelMatrix(n_modes, A, "open")))
    cases.append(("nh-ssh", build_nh_ssh_real(n_modes // 2, 1.0, 0.4, 0.3, "open")))
    cases.append(("hatano-nelson", build_hatano_nelson(n_modes, 1.0, 0.5, "open")))

    results = []
    for name, K in cases:
        # each case records what it warns of, e.g. a tie at its Fermi level
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _check_case(K, subsystem, entropy_tol)
        messages = sorted({str(w.message) for w in caught})
        results.append({"case": name, **result, "warnings": messages})
    return results


def _check_case(K: KernelMatrix, subsystem: int, entropy_tol: float) -> dict:
    """Residuals and verdict of one kernel of ``oracle_equivalence_suite``."""
    n = K.dim
    sys = biorthogonal_eig(K)
    sel = select_occupied(sys, 0.5)
    # the sector the fast path fills: n / 2 rounded half up
    n_part = sel.n_occupied
    part = Partition.contiguous(0, subsystem, n)
    C = correlation_matrix(sys, sel, part)
    eps = np.linalg.eigvals(C.entries)
    S_corr = vn_entropy(eps)

    G_R, G_L, _ = manybody_biortho_ground(K, n_part)
    # rho = |G_R><G_L| has rank one, so rho^2 - rho = (<G_L|G_R> - 1) rho
    # exactly and max|rho^2 - rho| needs neither rho nor a product
    purity = float(abs(np.vdot(G_L, G_R) - 1.0)
                   * np.abs(G_R).max() * np.abs(G_L).max())
    rho_A = reduced_density(G_R, G_L, n, subsystem)
    orep = oracle_report(rho_A)

    entropy_residual = abs(S_corr - orep.entropy_vn)
    # modified entropy along the same two routes; None when the
    # correlation spectrum is not conjugate-closed
    try:
        mod_residual = float(abs(modified_entropy(eps)
                                 - orep.entropy_modified))
    except ConsistencyError:
        mod_residual = None

    products = []
    for bits in itertools.product((0, 1), repeat=subsystem):
        val = 1.0 + 0.0j
        for b, e in zip(bits, eps):
            val *= e if b else (1.0 - e)
        products.append(val)
    products = np.asarray(products)
    _, spectrum_residual = match_spectra(orep.spectrum, products)

    return {
        "n_modes": n,
        "entropy_residual": float(entropy_residual),
        "modified_residual": mod_residual,
        "spectrum_residual": spectrum_residual,
        "purity_residual": purity,
        "passed": bool(entropy_residual < entropy_tol
                       and spectrum_residual < ORACLE_SPECTRUM_TOL
                       and purity < ORACLE_PURITY_TOL),
    }
