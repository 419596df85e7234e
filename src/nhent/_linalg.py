"""Shared dense linear-algebra helpers; the one home of the defectiveness rule.

``balanced_eig`` is the only solver that returns eigenvectors (unit-norm
right columns and their biorthogonal left partners), the only Hermitian
test of a kernel solve, and the only code that raises
``DefectiveError``.  A Hermitian matrix goes to ``eigh`` as given.  Any
other kernel is balanced once, by the diagonal ``symmetrizing_diagonal``
reads off its entry ratios, and solved once: by ``eigh`` when that frame
makes it Hermitian (a gauge-Hermitian kernel, such as the open
Hatano-Nelson chain, with condition exactly 1.0), else by one ``eig`` and
one inverse, in real arithmetic when its imaginary part is exactly zero.
The defectiveness gate, kappa_2 of the eigenvector matrix against
``DEFECTIVE_COND``, is certified from the Frobenius norms of that matrix
and its inverse; only near or above the threshold is kappa_2 taken from an
SVD.  This module is the only caller of ``np.linalg.cond`` and ``svd``.

Spectra and bands are paired by ``min_cost_matching``, a pure-Python
min-cost assignment.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import DefectiveError

__all__ = ["HERMITIAN_TOL", "DEFECTIVE_COND", "is_hermitian", "eigenvalues",
           "min_cost_matching", "match_spectra", "symmetrizing_diagonal",
           "balanced_eig"]

HERMITIAN_TOL = 1e-14
DEFECTIVE_COND = 1e12
# eigenvalues closer than this, relative to the kernel's largest entry,
# form one cluster in a refusal's report
CLUSTER_TOL = 1e-6


def is_hermitian(A: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """max|A - A^dag| <= tol * max(1, max|A|), for a finite A only.

    An infinite entry would make the bound infinite and pass any A.
    """
    scale = max(1.0, float(np.abs(A).max()))
    return (math.isfinite(scale)
            and bool(np.abs(A - A.conj().T).max() <= tol * scale))


def _real_if_real_valued(A: np.ndarray) -> np.ndarray:
    """A.real when A is complex with an imaginary part of exactly zero."""
    if not np.isrealobj(A) and not A.imag.any():
        return A.real
    return A


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Spectrum of A as complex: ``eigvalsh`` if Hermitian, else ``eigvals``.

    A Hermitian spectrum comes back real and in ascending order.  A
    non-Hermitian A with zero imaginary part is solved in real arithmetic.
    """
    if is_hermitian(A):
        return np.linalg.eigvalsh(A).astype(complex)
    A = _real_if_real_valued(A)
    return np.linalg.eigvals(A).astype(complex, copy=False)


def min_cost_matching(cost: np.ndarray) -> np.ndarray:
    """The permutation p minimizing sum_i cost[i, p[i]] of a square cost.

    Crouse's shortest-augmenting-path method (IEEE Trans. Aerosp. Electron.
    Syst. 52, 1679 (2016)), transcribed step for step, tie-breaks included,
    from SciPy's rectangular assignment solver, so it returns the same
    permutation.  Being pure Python, it keeps that solver's package
    (~0.25 s and ~20 MB per fresh process) out of every run.  The
    ``scipy.sparse.csgraph`` matcher is no substitute: on a 32 x 32 oracle
    cost spanning 1e-19 to 0.5 it did not return.

    Raises
    ------
    ValueError
        The cost is not square, or holds a NaN or an infinity.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("matching costs must be finite")
    c = cost.tolist()
    n = len(c)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # shortest path in the reduced costs from row cur to a free column
        dist = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []
        i, sink, min_val = cur, -1, 0.0
        while sink == -1:
            rows.append(i)
            ci, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                d = dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                # of equally near columns, a free one ends the path
                if d < lowest or d == lowest and row4col[j] == -1:
                    lowest, index = d, it
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in cols:
            v[j] -= min_val - dist[j]
        j = sink
        while True:  # augment: every row on the path takes its next column
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.intp)


def match_spectra(a: np.ndarray, b: np.ndarray):
    """(perm, residual): ``b[perm]`` pairs with the equal-length ``a`` by
    least total distance (``min_cost_matching``); residual is the largest
    paired |a_i - b_j|."""
    cost = np.abs(a[:, None] - b[None, :])
    perm = min_cost_matching(cost)
    return perm, float(cost[np.arange(len(a)), perm].max())


def symmetrizing_diagonal(A: np.ndarray) -> np.ndarray:
    """Positive diagonal d that equalises |A_ij| d_j / d_i and |A_ji| d_i / d_j.

    x = ln d solves x_i - x_j = (1/2) ln(|A_ij| / |A_ji|) in the least-squares
    sense over the pairs i != j where both entries are nonzero; a pair with
    only one nonzero entry carries no ratio and is skipped.  The ratios are
    read on the nonzero pairs only, as ln|A_ij| - ln|A_ji| per pair, and
    summed per row.  The normal equations are a graph-Laplacian system.  A
    weak tie of every x_i to 0 makes it nonsingular and centres each
    connected component (up to a constant per component, the rounding of
    its ratio sum over the tie, which no ratio equation sees), and one step
    of iterative refinement removes the tie's bias, so the ratio equations
    hold to rounding.  d has geometric mean 1, and is exactly ``np.ones``
    when all ratios cancel, e.g. on magnitude-symmetric kernels.  |x| is
    clipped to half of the float64 exponent range, so d and 1 / d are
    finite; a kernel rescaled by a grading that steep may overflow, and
    ``balanced_eig`` refuses it.
    """
    n = A.shape[0]
    nonzero = A != 0
    i, j = np.nonzero(nonzero & nonzero.T)
    off = i != j
    i, j = i[off], j[off]
    # each pair's ratio is antisymmetric in (i, j), so equal magnitudes
    # give exactly 0 and a magnitude-symmetric A exactly np.ones
    ratio = np.log(np.abs(A[i, j])) - np.log(np.abs(A[j, i]))
    rhs = 0.5 * np.bincount(i, ratio, minlength=n)
    if not rhs.any():
        return np.ones(n)
    degree = np.bincount(i, minlength=n)
    # tie weight: sqrt(eps)/4 of 4/n^2, a lower bound on the smallest
    # nonzero Laplacian eigenvalue of any component (Mohar 1991); one
    # refinement step squares the tie's relative bias to below eps.  The
    # tie is the tied matrix's smallest eigenvalue, which on dense coupling
    # graphs can fall below a Cholesky factorization's backward error, so
    # the factorization is an LU.
    tied = np.zeros((n, n), order="F")
    tied[i, j] = -1.0
    np.fill_diagonal(tied, degree + np.sqrt(np.finfo(float).eps) / n**2)
    # factored once for the solve and the refinement step; LAPACK is called
    # directly because the lu_factor/lu_solve wrappers cost more than the
    # solve itself on the 2 x 2 Bloch blocks
    lu, piv, _ = dgetrf(tied, overwrite_a=True)
    x = dgetrs(lu, piv, rhs)[0]
    # the Laplacian product (L x)_i = degree_i x_i - sum_j x_j over the pairs
    lap_x = degree * x - np.bincount(i, x[j], minlength=n)
    x += dgetrs(lu, piv, rhs - lap_x)[0]
    x -= x.mean()
    lim = 0.5 * np.log(np.finfo(float).max)
    return np.exp(np.clip(x, -lim, lim))


def _squared_norms(X: np.ndarray, axis: int) -> np.ndarray:
    """Sums of |X_ij|^2 over ``axis`` (0: per column, 1: per row) of a 2-D X.

    A complex X is read as its float view, real and imaginary parts
    interleaved along each row, so no n x n temporary is made.
    """
    cplx = np.iscomplexobj(X)
    F = np.ascontiguousarray(X)
    if cplx:
        F = F.view(float)
    if axis == 1:
        return np.einsum("ij,ij->i", F, F)
    s = np.einsum("ij,ij->j", F, F)
    return s[0::2] + s[1::2] if cplx else s


def _eigenvalue_clusters(eigenvalues: np.ndarray, scale: float) -> list:
    """Groups of eigenvalues chained by gaps below CLUSTER_TOL * scale, in
    index order."""
    # imported on call: only raising paths use it
    from scipy.sparse.csgraph import connected_components
    gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
    _, label = connected_components(gaps < CLUSTER_TOL * max(scale, 1e-300))
    groups = [list(eigenvalues[label == c]) for c in range(label.max() + 1)]
    return [g for g in groups if len(g) > 1]


def balanced_eig(A: np.ndarray, mirrors=()):
    """Eigendecomposition of a kernel; the one solver that returns vectors.

    A Hermitian A (``is_hermitian``) goes to ``eigh`` exactly as given: no
    rescaling, no real cast, no symmetrization.  V is unitary, left is V
    and cond = 1.0.

    Every other A is solved once, in the one rebalanced frame B = D^-1 A D,
    D = diag(d), d = ``symmetrizing_diagonal(A)``.  Skin-effect-style
    matrices are diagonal similarity transforms of well-conditioned ones;
    the grading is invisible to row/column-norm balancing of the entries,
    but the entry ratios |A_ij| / |A_ji| see it: d makes an open
    nonreciprocal chain magnitude-symmetric to rounding, and it is the
    identity on magnitude-symmetric kernels.  No grading is read back from
    the computed eigenvectors, where a defect looks like one (Parlett &
    Reinsch, Numer. Math. 13, 293 (1969)), so a Jordan block is refused.

    A real A is diagonalized in real arithmetic, and so is a complex A that
    is PT-symmetric: ``mirrors`` lists candidate involutive permutations p,
    and the first with ``A.conj() == A[p][:, p]`` exactly (read as
    Re A = (Re A)[p][:, p] and -Im A = (Im A)[p][:, p]) is used.  The
    diagonal is then kept mirror-symmetric (d <- sqrt(d d[p])), so the
    balanced kernel B inherits the symmetry, and T = (I + iP) / sqrt(2)
    is a unitary with T^dag B T = Re B - (Im B)[:, p] real.  That real
    matrix is solved, and its eigenvectors V_r and their inverse map back
    exactly: V_b = T V_r, V_b^-1 = V_r^-1 T^dag, with the same column and
    row norms and condition numbers (T is unitary).  The back-map to the
    caller's frame, V = D T V_r and V^-1 = V_r^-1 T^dag D^-1, fills each
    output in one complex array, so the outputs are complex either way.

    If B is Hermitian, to ``HERMITIAN_TOL`` scaled by max(1, max|ln d|)
    because each ratio d_j / d_i carries a rounding of about eps |ln d|,
    A is gauge-Hermitian and the Hermitian part of B is solved by ``eigh``:
    V_r = U is unitary, V_r^-1 = U^dag, cond = 1.0, and a Hermitian matrix
    is never defective.  No ``eig``, inverse or condition number is
    computed.  Every other B costs one ``eig`` and one inverse.

    Returns
    -------
    The fields of ``spectra.BiorthogonalSystem``, in order:
    eigenvalues : np.ndarray
        Computed in the balanced frame, where they are most accurate;
        real-valued on the Hermitian and gauge-Hermitian paths.
    right : np.ndarray
        Right eigenvectors V as unit-norm columns, in the original frame
        (balanced-frame vectors scaled back exactly by the diagonal).
    left : np.ndarray
        Left eigenvectors as the columns of V^-dag, which absorb the column
        scaling, so left^dag right = I; ``right`` itself if A is Hermitian.
    condition_estimate : float
        max_i ||r_i|| ||l_i|| over the columns r_i of the balanced-frame
        eigenvector matrix V_b and the rows l_i of V_b^-1: the largest of
        Wilkinson's eigenvalue condition numbers s_i (s_i^2 is the
        Petermann factor of mode i), read off V_b and V_b^-1 in O(n^2).
        It measures genuine (near-)defectiveness rather than grading, and
        1 <= cond <= kappa_2(V_b) <= n cond.  Exactly 1.0 on the Hermitian
        and gauge-Hermitian paths.

    Raises
    ------
    DefectiveError
        If kappa_2, the 2-norm condition number of V_b, exceeds
        ``DEFECTIVE_COND`` (or is NaN), or V_b is singular; carries kappa_2
        and the eigenvalue clusters.  As kappa_2 <= kappa_F =
        ||V_b||_F ||V_b^-1||_F, the SVD behind kappa_2 runs only when
        kappa_F exceeds ``DEFECTIVE_COND / 2`` or the inversion fails.
        Also raised before any solve, with an infinite estimate, if A has
        an infinite or NaN entry or the grading makes B overflow float64;
        and, carrying ``cond``, if the unit-normalized V or V^-1 is not
        finite.
    """
    if is_hermitian(A):
        w, V = np.linalg.eigh(A)
        V = V.astype(complex)
        return w.astype(complex), V, V, 1.0
    if not np.isfinite(A).all():
        raise DefectiveError("kernel has a non-finite entry (inf or NaN)",
                             condition_estimate=math.inf)
    A = _real_if_real_valued(A)
    p = None
    if not np.isrealobj(A):
        # A* = P A P, read on the real and imaginary parts separately
        p = next((m for m in mirrors
                  if np.array_equal(A.real, A.real[np.ix_(m, m)])
                  and np.array_equal(-A.imag, A.imag[np.ix_(m, m)])), None)
    M = A if p is None else A.real - A.imag[:, p]
    d = symmetrizing_diagonal(A)
    if p is not None:
        d = np.sqrt(d * d[p])
    with np.errstate(over="ignore"):
        B = (M / d[:, None]) * d[None, :]
    if not np.isfinite(B).all():
        raise DefectiveError(
            "balanced kernel overflows float64: the kernel's diagonal "
            "grading exceeds the representable range",
            condition_estimate=math.inf)
    log_spread = max(1.0, float(np.abs(np.log(d)).max()))
    if is_hermitian(B, HERMITIAN_TOL * log_spread):
        w, Vr = np.linalg.eigh(0.5 * (B + B.conj().T))
        Vb_inv, cond = Vr.conj().T, 1.0
    else:
        w, Vr = np.linalg.eig(B)
        try:
            Vb_inv = np.linalg.inv(Vr)
        except np.linalg.LinAlgError:
            Vb_inv = None
        else:
            r2, l2 = _squared_norms(Vr, 0), _squared_norms(Vb_inv, 1)
            kappa_f = np.sqrt(r2.sum()) * np.sqrt(l2.sum())
        # kappa_2 <= kappa_F = ||Vr||_F ||Vr^-1||_F, so kappa_F at or below
        # half the threshold proves that the kappa_2 gate accepts.  The
        # factor 2 absorbs the rounding of the computed inverse (relative
        # error ~ n eps kappa_2, below 1/2 up to n ~ 2000 at 1e12).  Only
        # above it, or for a singular Vr, does the SVD run, and it decides.
        if Vb_inv is None or not kappa_f <= DEFECTIVE_COND / 2:
            kappa = float(np.linalg.cond(Vr))
            over = not kappa <= DEFECTIVE_COND  # a NaN estimate is over too
            # an infinite estimate, like a pivot inv finds zero, is singular
            if over or np.isinf(kappa) or Vb_inv is None:
                reason = (f"exceeds {DEFECTIVE_COND:.1e}" if over
                          else "but the matrix is singular")
                raise DefectiveError(
                    f"right-eigenvector matrix condition {kappa:.3e} {reason}; "
                    "matrix is (near-)defective", condition_estimate=kappa,
                    clusters=_eigenvalue_clusters(
                        w.astype(complex, copy=False), float(np.abs(A).max())))
        # Wilkinson's eigenvalue condition numbers s_i = ||r_i|| ||l_i||
        cond = float(np.sqrt((r2 * l2).max()))
    # back to the caller's frame, each output in one complex array, with
    # T = (I + iP) / sqrt(2) on the PT path and T = I otherwise; T and D
    # are applied in separate roundings, as folding 1 / sqrt(2) into d
    # would move every PT result by an ulp
    w = w.astype(complex, copy=False)
    V = np.empty(Vr.shape, dtype=complex)
    Vinv = np.empty(Vr.shape, dtype=complex)
    if p is None:
        np.multiply(Vr, d[:, None], out=V)
        np.divide(Vb_inv, d, out=Vinv)
    else:
        np.multiply(1j, Vr[p], out=V)
        V += Vr
        V /= np.sqrt(2.0)
        V *= d[:, None]
        np.multiply(-1j, Vb_inv[:, p], out=Vinv)
        Vinv += Vb_inv
        Vinv /= np.sqrt(2.0)
        Vinv /= d
    del B, Vr, Vb_inv  # freed before the norm's temporaries
    # right columns to unit norm; the rows of V^-1 absorb the rescaling,
    # so V^-1 V = I stays exact up to inversion error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vnorm = np.linalg.norm(V, axis=0)
        V /= vnorm[None, :]
        Vinv *= vnorm[:, None]
    if not (np.isfinite(V).all() and np.isfinite(Vinv).all()):
        raise DefectiveError(
            "normalized eigenvectors overflow float64: the kernel's diagonal "
            "grading exceeds the representable range", condition_estimate=cond)
    # the left vectors are the columns of V^-dag, conjugated in place
    return w, V, np.conjugate(Vinv, out=Vinv).T, cond
