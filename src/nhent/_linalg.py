"""Shared dense linear-algebra helpers; the one home of the defectiveness rule.

``eig_factors`` and ``balanced_eig`` are the only solvers that return
eigenvectors (unit-norm right columns and their biorthogonal left
partners), the only Hermitian test of a kernel solve, the only code that
raises ``DefectiveError`` and the only callers of ``np.linalg.cond`` and
``svd``.  A Hermitian matrix goes to ``eigh`` as given.  Any other kernel
is balanced once, by the diagonal ``symmetrizing_diagonal`` reads off its
entry ratios, and solved once: by ``eigh`` when that frame makes it
Hermitian (a gauge-Hermitian kernel, such as the open Hatano-Nelson chain,
with condition exactly 1.0), else by one ``eig`` and one inverse, in real
arithmetic when its imaginary part is exactly zero.  The defectiveness
gate, kappa_2 of the eigenvector matrix against ``DEFECTIVE_COND``, is
certified from the Frobenius norms of that matrix and its inverse; only
near or above the threshold does an SVD run.

``eig_factors`` solves one matrix and keeps what the solve leaves in the
balanced frame (``EigFactors``): the eigenvalues, V_r, its inverse (not
stored where it is V_r^dag), the diagonal, the PT mirror, the column norms
of the caller-frame vectors and the condition estimate.  The caller-frame
entries D T V_r / ||.|| and their left partners are formed by one routine,
for just the rows and states asked for, each entry bit for bit that of the
whole matrix; ``balanced_eig`` of one matrix is that routine on all of
them.  The refusal of overflowing normalized vectors is proved from the
norms where it can, and read off the formed vectors only where the proof
fails.  A 2-D call runs each gate once on the matrix itself, and skips
the stack bookkeeping: no stack axis, index arrays, path groups or lists
of partial results.  An (m, n, n) stack, such as the Bloch matrices of a
ring, runs each gate on every matrix through the same helpers, and forms
its vectors whole through the same routine; the matrices are
grouped by path, one stacked LAPACK call per group, so the cost in Python
calls does not grow with m, and each matrix's outputs are bit for bit
those of its 2-D call.  Spectra and bands are paired by
``min_cost_matching``, a pure-Python min-cost assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import DefectiveError

__all__ = ["HERMITIAN_TOL", "DEFECTIVE_COND", "is_hermitian", "eigenvalues",
           "min_cost_matching", "match_spectra", "symmetrizing_diagonal",
           "EigFactors", "eig_factors", "balanced_eig"]

HERMITIAN_TOL = 1e-14
DEFECTIVE_COND = 1e12
# eigenvalues closer than this, relative to the kernel's largest entry,
# form one cluster in a refusal's report
CLUSTER_TOL = 1e-6
# symmetrizing_diagonal: sqrt(eps), the scale of its tie, and the clip of
# ln d at half of the float64 exponent range
_SQRT_EPS = np.sqrt(np.finfo(float).eps)
_CLIP = 0.5 * np.log(np.finfo(float).max)


def is_hermitian(A: np.ndarray, tol: float = HERMITIAN_TOL):
    """max|A - A^dag| <= tol * max(1, max|A|), for a finite A only.

    An infinite entry would make the bound infinite and pass any A.  On an
    (m, n, n) stack, a boolean array: the test of each matrix, against the
    matching entry of ``tol`` when that is an array; on one matrix, a bool.

    The gap on the diagonal, |A_ii - conj(A_ii)| = 2 |Im A_ii|, is exact, so
    a complex A (every matrix of a stack) whose diagonal alone exceeds the
    bound is refused before A - A^dag is formed, with the same answer.
    """
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    bound = tol * scale
    if np.iscomplexobj(A) and (
            2 * np.abs(np.diagonal(A, axis1=-2, axis2=-1).imag).max(axis=-1)
            > bound).all():
        return np.zeros(A.shape[:-2], dtype=bool) if A.ndim == 3 else False
    with np.errstate(invalid="ignore"):  # inf - inf on a non-finite matrix
        gap = np.abs(A - A.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    herm = np.isfinite(scale) & (gap <= bound)
    return herm if A.ndim == 3 else bool(herm)


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

    One matrix is solved as it is.  An (m, n, n) stack gives an (m, n)
    array, each row bit for bit the d of its matrix alone: matrices with one
    pattern of nonzero pairs share the Laplacian and its factorization, and
    each takes its own two solves, as one solve of several right-hand sides
    rounds differently.
    """
    n = A.shape[-1]
    nonzero = A != 0
    pairs = nonzero & nonzero.swapaxes(-2, -1)
    pairs.reshape(*A.shape[:-2], n * n)[..., ::n + 1] = False
    if A.ndim == 2:
        return _pattern_diagonal(A, pairs)
    label = np.unique(pairs.reshape(len(A), n * n), axis=0,
                      return_inverse=True)[1]
    d = np.ones(A.shape[:-1])
    for _, blocks in _parts(label.ravel()):
        d[blocks] = _pattern_diagonal(A[blocks], pairs[blocks[0]])
    return d


def _pattern_diagonal(X: np.ndarray, pairs: np.ndarray):
    """``symmetrizing_diagonal`` of one matrix X or of a (k, n, n) stack
    whose matrices all have the nonzero pairs ``pairs`` (an n x n mask)."""
    n = X.shape[-1]
    i, j = np.nonzero(pairs)
    # the stack axis, if any: indexing past an Ellipsis costs more
    lead = (slice(None),) * (X.ndim - 2)
    # each pair's ratio is antisymmetric in (i, j), so equal magnitudes give
    # exactly 0 and a magnitude-symmetric X exactly np.ones
    ratio = (np.log(np.abs(X[(*lead, i, j)]))
             - np.log(np.abs(X[(*lead, j, i)])))
    rhs = 0.5 * _row_bincount(i, ratio, n)
    if not rhs.any():
        return np.ones(X.shape[:-1])
    degree = np.bincount(i, minlength=n)
    # tie weight: sqrt(eps)/4 of 4/n^2, a lower bound on the smallest nonzero
    # Laplacian eigenvalue of any component (Mohar 1991); one refinement step
    # squares the tie's relative bias to below eps.  The tie is the tied
    # matrix's smallest eigenvalue, which on dense coupling graphs can fall
    # below a Cholesky factorization's backward error, so the factorization
    # is an LU.  The tied matrix is symmetric, so its transpose is the
    # Fortran-ordered matrix LAPACK factors in place.
    tied = np.subtract(0.0, pairs, dtype=float)  # -1.0 on the pairs
    tied.reshape(-1)[::n + 1] = degree + _SQRT_EPS / n**2
    # factored once for every solve and refinement step; LAPACK is called
    # directly because the lu_factor/lu_solve wrappers cost more than the
    # solve itself on the 2 x 2 Bloch blocks
    lu, piv, _ = dgetrf(tied.T, overwrite_a=True)

    def solve(b):  # each row on its own
        return (dgetrs(lu, piv, b)[0] if b.ndim == 1
                else np.array([dgetrs(lu, piv, r)[0] for r in b]))
    # a matrix whose ratios all cancel has rhs 0, which solves to x = 0 and
    # d = 1 exactly
    x = solve(rhs)
    # the Laplacian product (L x)_i = degree_i x_i - sum_j x_j over the pairs
    x += solve(rhs - (degree * x - _row_bincount(i, x[(*lead, j)], n)))
    x -= x.sum(axis=-1, keepdims=True) / n
    return np.exp(np.minimum(np.maximum(x, -_CLIP), _CLIP))


def _row_bincount(i: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``np.bincount(i, w, minlength=n)`` for weights w, or for each row w of
    a 2-D weights, each bin summed in the order of that row's own call."""
    if weights.ndim == 1:
        return np.bincount(i, weights, minlength=n)
    rows = len(weights)
    bins = (np.arange(rows)[:, None] * n + i).ravel()
    return np.bincount(bins, weights.ravel(), minlength=rows * n).reshape(
        rows, n)


def _squared_norms(X: np.ndarray, axis: int) -> np.ndarray:
    """Sums of |X_ij|^2 over ``axis`` (-2: per column, -1: per row) of one
    matrix X or of each of a stack; a complex X is read as its float view
    (real and imaginary parts interleaved), so no X-sized temporary is made."""
    F = np.ascontiguousarray(X).view(float)
    if axis == -1:
        return np.einsum("...ij,...ij->...i", F, F)
    s = np.einsum("...ij,...ij->...j", F, F)
    return s[..., 0::2] + s[..., 1::2] if np.iscomplexobj(X) else s


def _eigenvalue_clusters(eigenvalues: np.ndarray, scale: float) -> list:
    """Groups of eigenvalues chained by gaps below CLUSTER_TOL * scale, in
    index order."""
    # imported on call: only raising paths use it
    from scipy.sparse.csgraph import connected_components
    gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
    _, label = connected_components(gaps < CLUSTER_TOL * max(scale, 1e-300))
    groups = [list(eigenvalues[label == c]) for c in range(label.max() + 1)]
    return [g for g in groups if len(g) > 1]


def _stacked(solver, X: np.ndarray):
    """``solver`` (``np.linalg.eig``, ``eigh`` or ``inv``) on one matrix, or
    on each of an (m, n, n) stack in one call, bit for bit the m calls.

    A stack goes in as (1, 1, m, n, n): a wrapper that reads its argument as
    one matrix and forms ``a - a.conj().T`` (the benchmark's span tracer
    does) then broadcasts instead of raising.
    """
    if X.ndim == 2:
        return solver(X)
    out = solver(X[None, None])
    return tuple(o[0, 0] for o in out) if isinstance(out, tuple) else out[0, 0]


def _arithmetic(X: np.ndarray, mirrors):
    """(cplx, mirror) of one non-Hermitian kernel X, or of each of a stack:
    whether its imaginary part is nonzero, and the index in ``mirrors`` of
    the first P with X* = P X P exactly (read on the real and imaginary
    parts separately), -1 for none and for a real-valued X."""
    cplx, mirror = X.imag.any(axis=(-2, -1)), -1
    for c, p in enumerate(mirrors):
        free = cplx & (mirror < 0)
        if not free.any():
            break
        flip = X[..., p, :][..., p]
        mirror = np.where(free & (X.real == flip.real).all(axis=(-2, -1))
                          & (-X.imag == flip.imag).all(axis=(-2, -1)),
                          c, mirror)
    return cplx, mirror


def _balance(X: np.ndarray, cplx, d: np.ndarray, perm):
    """(B, d) of kernels X that share their arithmetic: B = D^-1 M D with
    M = Re X - (Im X) P on PT kernels (P a row of ``perm``), X on other
    complex ones and Re X on real ones; a PT kernel's d is made
    mirror-symmetric first, d <- sqrt(d d[p]), so B inherits the symmetry."""
    M = X if cplx and perm is None else X.real
    if perm is not None:
        M = M - np.take_along_axis(X.imag, perm[..., None, :], axis=-1)
        d = np.sqrt(d * np.take_along_axis(d, perm, axis=-1))
    with np.errstate(over="ignore"):
        return (M / d[..., :, None]) * d[..., None, :], d


def _gauge_solve(B: np.ndarray):
    """(w, V_r) of gauge-Hermitian balanced kernels: ``eigh`` of the
    Hermitian part, so V_r is unitary and V_r^-1 = V_r^dag."""
    return _stacked(np.linalg.eigh, 0.5 * (B + B.conj().swapaxes(-2, -1)))


def _certified(Vr: np.ndarray):
    """(V_r^-1, cond, suspect, singular) of eigenvector matrices V_r: one
    inverse (NaN where V_r is singular), max_i s_i, and the kappa_F
    certificate, which a suspect fails."""
    singular = np.zeros(Vr.shape[:-2], dtype=bool)
    try:
        inv = _stacked(np.linalg.inv, Vr)
    except np.linalg.LinAlgError:
        if Vr.ndim == 3:  # one at a time, to find the singular ones
            return tuple(map(np.array, zip(*map(_certified, Vr))))
        inv, singular = np.full_like(Vr, np.nan), ~singular
    r2, l2 = _squared_norms(Vr, -2), _squared_norms(inv, -1)
    # kappa_2 <= kappa_F = ||V_r||_F ||V_r^-1||_F, so kappa_F at or below
    # half the threshold proves that the kappa_2 gate accepts.  The factor 2
    # absorbs the rounding of the computed inverse (relative error ~ n eps
    # kappa_2, below 1/2 up to n ~ 2000 at 1e12).  Only above it, or for a
    # singular V_r, does the SVD run (``_defect``), and it decides.
    kappa_f = np.sqrt(r2.sum(axis=-1)) * np.sqrt(l2.sum(axis=-1))
    suspect = singular | ~(kappa_f <= DEFECTIVE_COND / 2)
    # Wilkinson's eigenvalue condition numbers s_i = ||r_i|| ||l_i||
    return inv, np.sqrt((r2 * l2).max(axis=-1)), suspect, singular


def _defect(Vr: np.ndarray, w: np.ndarray, singular: bool, scale: float):
    """(reason, kappa_2, clusters) of a suspect V_r, from the SVD; None when
    kappa_2 accepts it."""
    kappa = float(np.linalg.cond(Vr))
    over = not kappa <= DEFECTIVE_COND  # a NaN estimate is over too
    # an infinite estimate, like a pivot inv finds zero, is singular
    if over or np.isinf(kappa) or singular:
        reason = (f"exceeds {DEFECTIVE_COND:.1e}" if over
                  else "but the matrix is singular")
        return (f"right-eigenvector matrix condition {kappa:.3e} {reason}; "
                "matrix is (near-)defective", kappa,
                _eigenvalue_clusters(w.astype(complex, copy=False), scale))
    return None


def _gather(X: np.ndarray, rows, cols) -> np.ndarray:
    """The block X[..., rows, :][..., cols] of one matrix or of a stack,
    for slices or index arrays; on one matrix, two index arrays take one
    gather.  On a stack, ``rows`` may be a 2-D array of one row permutation
    per matrix."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        X, rows = np.take_along_axis(X, rows[..., :, None], axis=-2), slice(None)
    if isinstance(rows, slice) or isinstance(cols, slice):
        return X[..., rows, :][..., cols]
    return X[rows[:, None], cols]


def _right_rows(Vr, d, mirror, rows, cols, dtype) -> np.ndarray:
    """D T V_r at ``rows`` x ``cols`` before the unit-norm scaling, with
    T = (I + iP) / sqrt(2) on a PT kernel (P the ``mirror``), else I.

    T and D are applied in separate roundings, as folding 1 / sqrt(2) into d
    would move every PT result by an ulp.
    """
    X = _gather(Vr, rows, cols)
    V = np.empty(X.shape, dtype=dtype)
    if mirror is None:
        return np.multiply(X, d[..., rows, None], out=V)
    np.multiply(1j, _gather(Vr, mirror[..., rows], cols), out=V)
    V += X
    V /= np.sqrt(2.0)
    V *= d[..., rows, None]
    return V


def _left_rows(Vr, Vinv, d, mirror, rows, cols, dtype) -> np.ndarray:
    """(V_r^-1 T^dag D^-1)^T at ``rows`` x ``cols``, before the scaling by
    the norms and the conjugation; ``Vinv`` None stands for V_r^dag."""
    def inverse(r):  # V_r^-1 at states cols and sites r, transposed
        return (_gather(Vr, r, cols).conj() if Vinv is None
                else _gather(Vinv.swapaxes(-2, -1), r, cols))
    Y = inverse(rows)
    L = np.empty(Y.shape, dtype=dtype)
    if mirror is None:
        return np.divide(Y, d[..., rows, None], out=L)
    np.multiply(-1j, inverse(mirror[..., rows]), out=L)
    L += Y
    L /= np.sqrt(2.0)
    L /= d[..., rows, None]
    return L


def _formed(Vr, Vinv, d, mirror, norms, rows, cols, dtype) -> tuple:
    """(R, L): the unit-norm right vectors V = D T V_r / ||.|| at ``rows``
    x ``cols``, one matrix or a stack, and their left partners, the columns
    of V^-dag, which absorb the column scaling.  Every entry is its own
    rounding sequence, so a block is bit for bit that block of the whole."""
    R = _right_rows(Vr, d, mirror, rows, cols, dtype)
    L = _left_rows(Vr, Vinv, d, mirror, rows, cols, dtype)
    norms = norms[..., None, cols]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if R.dtype == complex:
            R /= norms
        else:  # x * (1 / norm) rounds as numpy's complex division does
            R *= 1.0 / norms
        L *= norms
    return R, np.conjugate(L, out=L)


# entries of D T V_r formed at a time for its column norms
_SLAB = 2 ** 15


def _column_norms(Vr, d, mirror) -> np.ndarray:
    """Each column's 2-norm of D T V_r, one matrix or a stack, as
    np.linalg.norm forms it, bit for bit; D T V_r is formed a slab of
    columns at a time, real where V_r is and no T maps it back."""
    dtype = Vr.dtype if mirror is None else np.dtype(complex)
    n = Vr.shape[-1]
    step = max(1, _SLAB * n // Vr.size)
    norms = np.empty(Vr.shape[:-2] + (n,))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, n, step):
            V = _right_rows(Vr, d, mirror, slice(None), slice(j, j + step),
                            dtype)
            norms[..., j:j + step] = np.sqrt(
                np.add.reduce((V.conj() * V).real, axis=-2))
    return norms


@dataclass(frozen=True, eq=False)
class EigFactors:
    """One kernel's eigendecomposition as ``eig_factors`` leaves it.

    ``Vr`` holds the right eigenvectors of the balanced kernel, real in
    real arithmetic and contiguous, ``Vinv`` their inverse, or None where
    that is V_r^dag (the Hermitian and gauge-Hermitian paths), ``d`` the
    balancing diagonal, ``mirror`` the PT mirror P of T = (I + iP) /
    sqrt(2), and ``norms`` the 2-norms of the columns of D T V_r.  On the
    Hermitian path, ``d`` and ``norms`` are None: V_r is the kernel's own
    unitary eigenvector matrix, and left is right.  ``vectors`` forms just
    the requested entries in the caller's frame.
    """

    eigenvalues: np.ndarray
    Vr: np.ndarray
    Vinv: np.ndarray | None
    d: np.ndarray | None
    mirror: np.ndarray | None
    norms: np.ndarray | None
    condition_estimate: float

    @property
    def dtype(self) -> np.dtype:
        """float64 where V_r is real and no T maps it back, else complex."""
        return (np.dtype(complex) if self.mirror is not None
                else self.Vr.dtype)

    def vectors(self, rows=slice(None), cols=slice(None), dtype=None):
        """(R, L): rows ``rows`` of the unit-norm right vectors of states
        ``cols`` (slices or index arrays), and of their left partners, with
        L^dag R = I over all states; L is R on the Hermitian path.  Each
        entry is bit for bit that of the whole matrix, in ``dtype``
        (default ``self.dtype``)."""
        rows, cols = (i if isinstance(i, slice) else np.asarray(i, dtype=np.intp)
                      for i in (rows, cols))
        dtype = self.dtype if dtype is None else dtype
        if self.d is None:
            R = _gather(self.Vr, rows, cols).astype(dtype, copy=False)
            return R, R
        return _formed(self.Vr, self.Vinv, self.d, self.mirror, self.norms,
                       rows, cols, dtype)


# finite bounds below this leave room for the roundings they do not count
_BIG = np.finfo(float).max / 4


def _finite_vectors(f: EigFactors) -> bool:
    """Whether every unit-norm right vector and left partner of ``f`` is
    finite; the answer of reading all of them, mostly without forming them.

    A sum of squares bounds each of its terms, so finite, invertible norms
    prove every right entry finite (at most 1).  A left entry is at most
    sqrt(2) ||row a of V_r^-1|| / min d, times norm_a; both bounds below
    ``_BIG`` prove every left entry finite.  Only where the proof fails
    are the vectors formed and read.
    """
    rows2 = (_squared_norms(f.Vr, -2) if f.Vinv is None
             else _squared_norms(f.Vinv, -1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        left = np.sqrt(2.0 * rows2) / f.d.min()
        if (np.isfinite(f.norms).all() and np.isfinite(1.0 / f.norms).all()
                and (left < _BIG).all() and (left * f.norms < _BIG).all()):
            return True
        R, L = f.vectors()
        return bool(np.isfinite(R).all() and np.isfinite(L).all())


# refusal reasons before the solve (the first two) and after it
_NON_FINITE = "kernel has a non-finite entry (inf or NaN)"
_GRADING = "the kernel's diagonal grading exceeds the representable range"
_B_OVERFLOW = f"balanced kernel overflows float64: {_GRADING}"
_V_OVERFLOW = f"normalized eigenvectors overflow float64: {_GRADING}"


def eig_factors(A: np.ndarray, mirrors=()) -> EigFactors:
    """Eigendecomposition of one kernel, kept as its balanced-frame factors.

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
    row norms and condition numbers (T is unitary).  The caller's frame,
    V = D T V_r and V^-1 = V_r^-1 T^dag D^-1, is formed only by
    ``EigFactors.vectors``, for the entries asked for.

    If B is Hermitian, to ``HERMITIAN_TOL`` scaled by max(1, max|ln d|)
    because each ratio d_j / d_i carries a rounding of about eps |ln d|,
    A is gauge-Hermitian and the Hermitian part of B is solved by ``eigh``:
    V_r = U is unitary, V_r^-1 = U^dag, cond = 1.0, and a Hermitian matrix
    is never defective.  No ``eig``, inverse or condition number is
    computed.  Every other B costs one ``eig`` and one inverse; B is freed
    before the inverse.

    Returns
    -------
    EigFactors
        Eigenvalues computed in the balanced frame, where they are most
        accurate (real-valued on the Hermitian and gauge-Hermitian paths),
        and the condition estimate: max_i ||r_i|| ||l_i|| over the columns
        r_i of the balanced-frame eigenvector matrix V_b and the rows l_i
        of V_b^-1, the largest of Wilkinson's eigenvalue condition numbers
        s_i (s_i^2 is the Petermann factor of mode i), read off V_b and
        V_b^-1 in O(n^2).  It measures genuine (near-)defectiveness rather
        than grading, and 1 <= cond <= kappa_2(V_b) <= n cond.  Exactly 1.0
        on the Hermitian and gauge-Hermitian paths.

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
        and, carrying ``cond``, if an entry of the unit-normalized V or
        V^-1 is not finite (``_finite_vectors``).
    """
    if is_hermitian(A):
        w, V = np.linalg.eigh(A)
        return EigFactors(w.astype(complex), V, None, None, None, None, 1.0)
    if not np.isfinite(A).all():
        raise DefectiveError(_NON_FINITE, condition_estimate=math.inf)
    cplx, mirror = _arithmetic(A, mirrors)
    perm = np.asarray(mirrors[mirror]) if mirror >= 0 else None
    B, d = _balance(A, cplx, symmetrizing_diagonal(A), perm)
    if not np.isfinite(B).all():
        raise DefectiveError(_B_OVERFLOW, condition_estimate=math.inf)
    Vinv, cond = None, 1.0
    if is_hermitian(B, HERMITIAN_TOL * max(1.0, np.abs(np.log(d)).max())):
        w, Vr = _gauge_solve(B)
        del B
    else:
        w, Vr = np.linalg.eig(B)
        del B
        # a real V_r is a view of eig's complex output, which a copy frees
        Vr = np.ascontiguousarray(Vr)
        Vinv, cond, suspect, singular = _certified(Vr)
        if suspect and (refusal := _defect(Vr, w, singular,
                                           np.abs(A).max())):
            raise DefectiveError(*refusal)
    f = EigFactors(w.astype(complex, copy=False), Vr, Vinv, d, perm,
                   _column_norms(Vr, d, perm), float(cond))
    if not _finite_vectors(f):
        raise DefectiveError(_V_OVERFLOW, condition_estimate=float(cond))
    return f


def balanced_eig(A: np.ndarray, mirrors=()):
    """Eigendecomposition of a kernel, or of a stack, with its vectors.

    ``A`` is one n x n kernel, solved by ``eig_factors`` with its vectors
    formed whole, or an (m, n, n) stack of them, each matrix of which gets,
    bit for bit, the outputs of its own 2-D call; each path of a stack
    costs one stacked ``eigh``, or one ``eig`` and one inverse, and each
    gate of ``eig_factors`` runs on every matrix before the next gate.

    Returns
    -------
    The eigenvalues, the unit-norm right vectors V, the left vectors (the
    columns of V^-dag, so left^dag right = I) as complex arrays, and the
    condition estimate of ``eig_factors``, each stacked along a leading
    axis of length m for a stack.  ``left`` is ``right`` if A is Hermitian
    (if every matrix of a stack is).

    Raises
    ------
    DefectiveError
        As ``eig_factors``.  On a stack, the first matrix that fails the
        first gate any matrix fails is reported, by its index, with what
        its own solve would carry.
    """
    if A.ndim == 3:
        return _balanced_stack(A, mirrors)
    f = eig_factors(A, mirrors)
    return (f.eigenvalues, *f.vectors(dtype=complex), f.condition_estimate)


def _balanced_stack(S: np.ndarray, mirrors):
    """``balanced_eig`` of an (m, n, n) stack: each gate of the one-matrix
    path runs on every matrix before the next gate, and the solves are
    grouped by path."""
    def refuse(block, reason, condition_estimate, clusters=None):
        return DefectiveError(f"block {block}: {reason}", clusters=clusters,
                              condition_estimate=condition_estimate)

    herm = is_hermitian(S)
    rest = np.flatnonzero(~herm)
    R = S[rest]
    finite = np.isfinite(R).all(axis=(1, 2))
    if not finite.all():
        raise refuse(rest[finite.argmin()], _NON_FINITE, math.inf)
    cplx, mirror = _arithmetic(R, mirrors)
    d = symmetrizing_diagonal(R)
    frames = []  # (rows of R, B, d, P) of arithmetic 0 real, 1 PT, 2 complex
    for k, rows in _parts(np.where(cplx, 2 - (mirror >= 0), 0)):
        perm = np.array(mirrors)[mirror[rows]] if k == 1 else None
        frames.append((rows, *_balance(R[rows], k, d[rows], perm), perm))
    bad = [r for rows, B, *_ in frames
           for r in rows[~np.isfinite(B).all(axis=(1, 2))]]
    if bad:
        raise refuse(rest[min(bad)], _B_OVERFLOW, math.inf)

    units = []  # (blocks, eigenvalues, right, left, cond), one per path
    h = np.flatnonzero(herm)
    if h.size:
        w, V = _stacked(np.linalg.eigh, S[h])
        V = V.astype(complex)
        units.append((h, w.astype(complex), V, V, np.ones(len(h))))
    # (rows of R, w, V_r, V_r^-1 or None for V_r^dag, d, P, cond)
    solved, suspects = [], []
    for rows, B, d, perm in frames:
        log_spread = np.maximum(1.0, np.abs(np.log(d)).max(axis=1))
        gauge = is_hermitian(B, HERMITIAN_TOL * log_spread)
        for general, g in _parts(~gauge):
            rows_g, B_g, d_g, perm_g = rows[g], B[g], d[g], _take(perm, g)
            if not general:
                solved.append((rows_g, *_gauge_solve(B_g), None, d_g,
                               perm_g, np.ones(len(g))))
                continue
            w, Vr = _stacked(np.linalg.eig, B_g)
            # numpy's eig is real only if every spectrum of the stack is; a
            # real matrix with a real spectrum takes real vectors and a real
            # inverse, as it would alone
            split = np.isrealobj(B_g) and np.iscomplexobj(w)
            for cplx, p in _parts(w.imag.any(axis=1) if split
                                  else np.ones(len(g), dtype=bool)):
                w_p, Vr_p = (w[p], Vr[p]) if cplx else (w[p].real, Vr[p].real)
                Vb_inv, cond, suspect, singular = _certified(Vr_p)
                suspects += [(rows_g[p[b]], Vr_p[b], w_p[b], singular[b])
                             for b in np.flatnonzero(suspect)]
                solved.append((rows_g[p], w_p, Vr_p, Vb_inv, d_g[p],
                               _take(perm_g, p), cond))
    del frames
    for r, Vr, w, singular in sorted(suspects, key=lambda s: s[0]):
        if refusal := _defect(Vr, w, singular, float(np.abs(R[r]).max())):
            raise refuse(rest[r], *refusal)
    overflow = []
    for rows, w, Vr, Vinv, d, perm, cond in solved:
        norms = _column_norms(Vr, d, perm)
        with np.errstate(over="ignore", invalid="ignore"):
            V, left = _formed(Vr, Vinv, d, perm, norms, slice(None),
                              slice(None), complex)
            finite = (np.isfinite(V).all(axis=(1, 2))
                      & np.isfinite(left).all(axis=(1, 2)))
        overflow += [(r, c) for r, c in zip(rows[~finite], cond[~finite])]
        units.append((rest[rows], w.astype(complex, copy=False), V, left,
                      cond))
    if overflow:
        r, cond = min(overflow)
        raise refuse(rest[r], _V_OVERFLOW, float(cond))
    if len(units) == 1:
        return units[0][1:]
    fields = (np.empty(S.shape[:2], dtype=complex),
              np.empty(S.shape, dtype=complex),
              np.empty(S.shape, dtype=complex), np.empty(len(S)))
    for blocks, *unit in units:
        for field, part in zip(fields, unit):
            field[blocks] = part
    return tuple(fields)


def _parts(labels: np.ndarray) -> list:
    """[(label, rows)]: each distinct label of a 1-D array, ascending, with
    the rows that hold it."""
    return [(v, np.flatnonzero(labels == v)) for v in np.unique(labels)]


def _take(perm, idx):
    """The mirrors ``perm[idx]`` of a PT frame; None off the PT frame."""
    return None if perm is None else perm[idx]
