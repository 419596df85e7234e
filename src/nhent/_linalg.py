"""Shared dense linear-algebra helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["HERMITIAN_TOL", "is_hermitian", "eigenvalues", "balanced_eig",
           "eig_with_balanced_inverse"]

HERMITIAN_TOL = 1e-14


def is_hermitian(A: np.ndarray) -> bool:
    """max|A - A^dag| <= HERMITIAN_TOL * max(1, max|A|)."""
    scale = max(1.0, float(np.abs(A).max()))
    return bool(np.abs(A - A.conj().T).max() <= HERMITIAN_TOL * scale)


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Spectrum of A as complex: ``eigvalsh`` if Hermitian, else ``eigvals``.

    A Hermitian spectrum comes back real and in ascending order.
    """
    if is_hermitian(A):
        return np.linalg.eigvalsh(A).astype(complex)
    return np.linalg.eigvals(A)


def balanced_eig(A: np.ndarray, max_iter: int = 4, spread_tol: float = 10.0):
    """General eigendecomposition with diagonal-grading discovery.

    Skin-effect-style matrices are diagonal similarity transforms of
    well-conditioned ones, but the grading is invisible to standard
    row/column-norm balancing (the matrix entries are uniform; the grading
    lives in the eigenvectors).  This routine discovers it iteratively: the
    row norms of a computed eigenvector matrix estimate the hidden diagonal,
    the kernel is rebalanced by that estimate, and the decomposition is
    repeated until the eigenvector rows are flat.  Two to three iterations
    Hermitize an open nonreciprocal chain to machine precision; kernels
    without grading exit after the first pass.

    Returns
    -------
    w : np.ndarray
        Eigenvalues (computed in the balanced frame, where they are most
        accurate).
    V : np.ndarray
        Right eigenvectors as columns, in the original frame (balanced-frame
        vectors scaled back exactly by the discovered diagonal).
    Vinv : np.ndarray
        Inverse of V, or None if the balanced factor is numerically
        singular.
    cond : float
        Condition number of the balanced-frame eigenvector matrix; measures
        genuine (near-)defectiveness rather than grading.
    """
    n = A.shape[0]
    d = np.ones(n)
    w = Vb = None
    for _ in range(max_iter):
        B = (A / d[:, None]) * d[None, :]
        w, Vb = np.linalg.eig(B)
        r = np.linalg.norm(Vb, axis=1)
        r = np.where(r > 0, r, 1.0)
        if r.max() / r.min() < spread_tol:
            break
        d = d * (r / np.exp(np.mean(np.log(r))))
        d = d / np.exp(np.mean(np.log(d)))
    cond = float(np.linalg.cond(Vb))
    V = Vb * d[:, None]
    if not np.isfinite(cond):
        return w, V, None, cond
    Vb_inv = np.linalg.inv(Vb)
    Vinv = Vb_inv / d[None, :]
    return w, V, Vinv, cond


def eig_with_balanced_inverse(A: np.ndarray):
    """(w, V, V^-1, cond): ``eigh`` if A is Hermitian, else ``balanced_eig``.

    The Hermitian path returns the eigh eigenvalues as complex, V, V^dag and
    a condition of 1.0.  Never raises on a singular eigenvector matrix:
    V^-1 is None then, and the caller decides.
    """
    if is_hermitian(A):
        w, V = np.linalg.eigh(A)
        V = V.astype(complex)
        return w.astype(complex), V, V.conj().T, 1.0
    return balanced_eig(A)
