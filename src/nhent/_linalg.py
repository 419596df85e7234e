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
``balanced_eig`` also takes an (m, n, n) stack, such as the Bloch matrices
of a ring: every gate runs per matrix, the matrices are grouped by path,
and each group is one stacked LAPACK call, so the cost in Python calls does
not grow with m, and each matrix's outputs are bit for bit those it gets
alone.

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


def is_hermitian(A: np.ndarray, tol: float = HERMITIAN_TOL):
    """max|A - A^dag| <= tol * max(1, max|A|), for a finite A only.

    An infinite entry would make the bound infinite and pass any A.  On an
    (m, n, n) stack, a boolean array: the test of each matrix, against the
    matching entry of ``tol`` when that is an array.
    """
    if A.ndim == 2:
        scale = max(1.0, float(np.abs(A).max()))
        return (math.isfinite(scale)
                and bool(np.abs(A - A.conj().T).max() <= tol * scale))
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    with np.errstate(invalid="ignore"):  # inf - inf on a non-finite matrix
        gap = np.abs(A - A.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    return np.isfinite(scale) & (gap <= tol * scale)


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

    An (m, n, n) stack gives an (m, n) array, each row bit for bit the d of
    its matrix alone.  Matrices with one pattern of nonzero pairs share the
    Laplacian and its factorization, and each takes its own two solves: one
    solve of several right-hand sides rounds differently.
    """
    S = A.reshape(-1, *A.shape[-2:])
    m, n = S.shape[:2]
    nonzero = S != 0
    pairs = nonzero & nonzero.transpose(0, 2, 1)
    pairs[:, range(n), range(n)] = False
    label = (np.unique(pairs.reshape(m, -1), axis=0, return_inverse=True)[1]
             if m > 1 else np.zeros(m, dtype=int)).ravel()
    d = np.ones((m, n))
    lim = 0.5 * np.log(np.finfo(float).max)
    for pattern in range(label.max(initial=-1) + 1):
        blocks = np.flatnonzero(label == pattern)
        i, j = np.nonzero(pairs[blocks[0]])
        # each pair's ratio is antisymmetric in (i, j), so equal magnitudes
        # give exactly 0 and a magnitude-symmetric A exactly np.ones
        b = blocks[:, None]
        ratio = np.log(np.abs(S[b, i, j])) - np.log(np.abs(S[b, j, i]))
        rhs = 0.5 * _row_bincount(i, ratio, n)
        live = rhs.any(axis=1)
        if not live.any():
            continue
        blocks, rhs = blocks[live], rhs[live]
        degree = np.bincount(i, minlength=n)
        # tie weight: sqrt(eps)/4 of 4/n^2, a lower bound on the smallest
        # nonzero Laplacian eigenvalue of any component (Mohar 1991); one
        # refinement step squares the tie's relative bias to below eps.  The
        # tie is the tied matrix's smallest eigenvalue, which on dense
        # coupling graphs can fall below a Cholesky factorization's backward
        # error, so the factorization is an LU.
        tied = np.zeros((n, n), order="F")
        tied[i, j] = -1.0
        np.fill_diagonal(tied, degree + np.sqrt(np.finfo(float).eps) / n**2)
        # factored once for every solve and refinement step; LAPACK is
        # called directly because the lu_factor/lu_solve wrappers cost more
        # than the solve itself on the 2 x 2 Bloch blocks
        lu, piv, _ = dgetrf(tied, overwrite_a=True)
        x = np.array([dgetrs(lu, piv, r)[0] for r in rhs])
        # the Laplacian product (L x)_i = degree_i x_i - sum_j x_j over the
        # pairs
        lap_x = degree * x - _row_bincount(i, x[:, j], n)
        x += np.array([dgetrs(lu, piv, r)[0] for r in rhs - lap_x])
        x -= x.mean(axis=1, keepdims=True)
        d[blocks] = np.exp(np.clip(x, -lim, lim))
    return d.reshape(A.shape[:-1])


def _row_bincount(i: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``np.bincount(i, w, minlength=n)`` for each row w of a 2-D weights.

    Each bin adds its weights in the order of one row's call, so every row
    is bit for bit that call.
    """
    rows = len(weights)
    bins = (np.arange(rows)[:, None] * n + i).ravel()
    return np.bincount(bins, weights.ravel(), minlength=rows * n).reshape(
        rows, n)


def _squared_norms(X: np.ndarray, axis: int) -> np.ndarray:
    """Sums of |X_kij|^2 over ``axis`` (1: per column, 2: per row) of each
    matrix of an (m, n, n) stack X.

    A complex X is read as its float view, real and imaginary parts
    interleaved along each row, so no stack-sized temporary is made.
    """
    cplx = np.iscomplexobj(X)
    F = np.ascontiguousarray(X)
    if cplx:
        F = F.view(float)
    if axis == 2:
        return np.einsum("kij,kij->ki", F, F)
    s = np.einsum("kij,kij->kj", F, F)
    return s[:, 0::2] + s[:, 1::2] if cplx else s


def _eigenvalue_clusters(eigenvalues: np.ndarray, scale: float) -> list:
    """Groups of eigenvalues chained by gaps below CLUSTER_TOL * scale, in
    index order."""
    # imported on call: only raising paths use it
    from scipy.sparse.csgraph import connected_components
    gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
    _, label = connected_components(gaps < CLUSTER_TOL * max(scale, 1e-300))
    groups = [list(eigenvalues[label == c]) for c in range(label.max() + 1)]
    return [g for g in groups if len(g) > 1]


def _rows(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """X[idx]; X itself when idx takes every row in order, so a single
    matrix is never copied."""
    return X if len(idx) == len(X) else X[idx]


def _stacked(solver, X: np.ndarray):
    """``solver`` (``np.linalg.eig``, ``eigh`` or ``inv``) on each matrix of
    the (m, n, n) stack X, in one call; outputs stacked along axis 0.

    numpy solves each matrix of a stack by the LAPACK call it makes for that
    matrix alone, so the outputs are bit for bit those of m calls.  A stack
    of one goes in as its matrix.  A longer one goes in as (1, 1, m, n, n):
    a wrapper that reads its argument as one matrix and forms
    ``a - a.conj().T`` (the benchmark's span tracer does) then broadcasts
    instead of raising.
    """
    if len(X) == 1:
        out, take = solver(X[0]), (lambda o: o[None])
    else:
        out, take = solver(X[None, None]), (lambda o: o[0, 0])
    return tuple(map(take, out)) if isinstance(out, tuple) else take(out)


def _inverses(Vr: np.ndarray):
    """(inverses, singular) of a stack: a singular matrix is flagged, and
    its inverse left NaN."""
    try:
        return _stacked(np.linalg.inv, Vr), np.zeros(len(Vr), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    inv = np.full_like(Vr, np.nan)
    singular = np.ones(len(Vr), dtype=bool)
    if len(Vr) > 1:  # find which are
        for b, V in enumerate(Vr):
            try:
                inv[b] = np.linalg.inv(V)
            except np.linalg.LinAlgError:
                continue
            singular[b] = False
    return inv, singular


def _balanced_frames(R: np.ndarray, mirrors):
    """The balanced kernels B = D^-1 M D of a stack R of non-Hermitian
    kernels, [(rows of R, B, d, P)]: one stack of the real-valued kernels,
    one of the PT-symmetric ones and one of the rest.

    M is R in real arithmetic when its imaginary part is exactly zero,
    Re R - (Im R) P on a PT kernel, whose P (a row of the (k, n) array,
    None off the PT stack) is its first mirror with R* = P R P exactly,
    and R itself otherwise.
    """
    k, n = R.shape[:2]
    if not k:
        return []
    cplx = (R.imag.any(axis=(1, 2)) if np.iscomplexobj(R)
            else np.zeros(k, dtype=bool))
    mirror = np.full(k, -1)  # index into mirrors, -1 for none
    for c, p in enumerate(mirrors):
        # A* = P A P, read on the real and imaginary parts separately
        free = np.flatnonzero(cplx & (mirror < 0))
        C = _rows(R, free)
        flip = C[:, p][:, :, p]
        mirror[free[(C.real == flip.real).all(axis=(1, 2))
                    & (-C.imag == flip.imag).all(axis=(1, 2))]] = c
    d = symmetrizing_diagonal(R)
    frames = []
    for rows in map(np.flatnonzero, (~cplx, mirror >= 0,
                                     cplx & (mirror < 0))):
        if not rows.size:
            continue
        M, dr, perm = _rows(R, rows), d[rows], None
        if not cplx[rows[0]]:
            M = M.real
        elif mirror[rows[0]] >= 0:
            perm = np.array(mirrors)[mirror[rows]]
            M = M.real - np.take_along_axis(M.imag, perm[:, None, :], axis=2)
            # a mirror-symmetric diagonal, so that B inherits the symmetry
            dr = np.sqrt(dr * np.take_along_axis(dr, perm, axis=1))
        with np.errstate(over="ignore"):
            B = (M / dr[:, :, None]) * dr[:, None, :]
        frames.append((rows, B, dr, perm))
    return frames


def _to_caller_frame(Vr, Vb_inv, d, perm):
    """(V, V^-1) = (D T V_r, V_r^-1 T^dag D^-1) for a stack of balanced-frame
    eigenvectors V_r and their inverses, each output in one complex array,
    with T = (I + iP) / sqrt(2) on the PT stack (``perm`` holds each P) and
    T = I otherwise.

    T and D are applied in separate roundings, as folding 1 / sqrt(2) into d
    would move every PT result by an ulp.
    """
    V = np.empty(Vr.shape, dtype=complex)
    Vinv = np.empty(Vr.shape, dtype=complex)
    if perm is None:
        np.multiply(Vr, d[:, :, None], out=V)
        np.divide(Vb_inv, d[:, None, :], out=Vinv)
        return V, Vinv
    np.multiply(1j, np.take_along_axis(Vr, perm[:, :, None], axis=1), out=V)
    V += Vr
    V /= np.sqrt(2.0)
    V *= d[:, :, None]
    np.multiply(-1j, np.take_along_axis(Vb_inv, perm[:, None, :], axis=2),
                out=Vinv)
    Vinv += Vb_inv
    Vinv /= np.sqrt(2.0)
    Vinv /= d[:, None, :]
    return V, Vinv


def _frame_rows(d, perm, idx):
    """(d[idx], P[idx]) of a frame; P stays None off the PT stack."""
    return d[idx], None if perm is None else perm[idx]


def _solve_balanced(frames):
    """Solve each frame of ``_balanced_frames`` by path: one ``eigh`` for its
    gauge-Hermitian kernels, one ``eig`` and one inverse per arithmetic for
    the rest.

    Returns the solves [(rows, w, Vr, Vb^-1, d, P, cond)] and the suspects
    [(row, Vr, w, singular)] whose kappa_F certificate fails.
    """
    solved, suspects = [], []
    for rows, B, d, perm in frames:
        log_spread = np.maximum(1.0, np.abs(np.log(d)).max(axis=1))
        gauge = is_hermitian(B, HERMITIAN_TOL * log_spread)
        g = np.flatnonzero(gauge)
        if g.size:
            Bg = _rows(B, g)
            w, Vr = _stacked(np.linalg.eigh,
                             0.5 * (Bg + Bg.conj().transpose(0, 2, 1)))
            solved.append((rows[g], w, Vr, Vr.conj().transpose(0, 2, 1),
                           *_frame_rows(d, perm, g), np.ones(len(g))))
        e = np.flatnonzero(~gauge)
        if not e.size:
            continue
        w, Vr = _stacked(np.linalg.eig, _rows(B, e))
        # numpy's eig is real only if every spectrum of the stack is; a real
        # matrix with a real spectrum takes real vectors, as it would alone
        parts = [(e, w, Vr)]
        if np.isrealobj(B) and np.iscomplexobj(w):
            cplx = w.imag.any(axis=1)
            real, cplx = np.flatnonzero(~cplx), np.flatnonzero(cplx)
            parts = [(e[real], w[real].real, Vr[real].real),
                     (e[cplx], _rows(w, cplx), _rows(Vr, cplx))]
        for part, w, Vr in parts:
            if not part.size:
                continue
            Vb_inv, singular = _inverses(Vr)
            r2, l2 = _squared_norms(Vr, 1), _squared_norms(Vb_inv, 2)
            # kappa_2 <= kappa_F = ||Vr||_F ||Vr^-1||_F, so kappa_F at or
            # below half the threshold proves that the kappa_2 gate
            # accepts.  The factor 2 absorbs the rounding of the computed
            # inverse (relative error ~ n eps kappa_2, below 1/2 up to
            # n ~ 2000 at 1e12).  Only above it, or for a singular Vr, does
            # the SVD run, and it decides.
            kappa_f = np.sqrt(r2.sum(axis=1)) * np.sqrt(l2.sum(axis=1))
            suspect = singular | ~(kappa_f <= DEFECTIVE_COND / 2)
            suspects += [(rows[part[b]], Vr[b], w[b], singular[b])
                         for b in np.flatnonzero(suspect)]
            # Wilkinson's eigenvalue condition numbers s_i = ||r_i|| ||l_i||
            solved.append((rows[part], w, Vr, Vb_inv,
                           *_frame_rows(d, perm, part),
                           np.sqrt((r2 * l2).max(axis=1))))
    return solved, suspects


def balanced_eig(A: np.ndarray, mirrors=()):
    """Eigendecomposition of a kernel; the one solver that returns vectors.

    ``A`` is one n x n kernel or an (m, n, n) stack of them.  A stack is
    solved matrix by matrix by the rules below, every gate applied to each
    matrix, and each output is bit for bit that of the matrix solved alone;
    the matrices are grouped by path, and each group costs one stacked
    ``eigh``, or one ``eig`` and one inverse, however many it holds.

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
    The fields of ``spectra.BiorthogonalSystem``, in order, each stacked
    along a leading axis of length m for a stack:
    eigenvalues : np.ndarray
        Computed in the balanced frame, where they are most accurate;
        real-valued on the Hermitian and gauge-Hermitian paths.
    right : np.ndarray
        Right eigenvectors V as unit-norm columns, in the original frame
        (balanced-frame vectors scaled back exactly by the diagonal).
    left : np.ndarray
        Left eigenvectors as the columns of V^-dag, which absorb the column
        scaling, so left^dag right = I; ``right`` itself if A is Hermitian
        (if every matrix of a stack is).
    condition_estimate : float, or an (m,) array for a stack
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
        finite.  On a stack, the first matrix that fails the first gate
        any matrix fails is reported, by its index, with what its own
        solve would carry.
    """
    S = A if A.ndim == 3 else A[None]
    m, n = S.shape[:2]

    def refuse(block, reason, condition_estimate, clusters=None):
        at = f"block {block}: " if A.ndim == 3 else ""
        return DefectiveError(at + reason, clusters=clusters,
                              condition_estimate=condition_estimate)

    herm = np.atleast_1d(is_hermitian(A))
    rest = np.flatnonzero(~herm)
    R = _rows(S, rest)
    bad = np.flatnonzero(~np.isfinite(R).all(axis=(1, 2)))
    if bad.size:
        raise refuse(rest[bad[0]], "kernel has a non-finite entry "
                     "(inf or NaN)", condition_estimate=math.inf)
    frames = _balanced_frames(R, mirrors)
    bad = [r for rows, B, *_ in frames
           for r in rows[~np.isfinite(B).all(axis=(1, 2))]]
    if bad:
        raise refuse(
            rest[min(bad)], "balanced kernel overflows float64: the "
            "kernel's diagonal grading exceeds the representable range",
            condition_estimate=math.inf)

    units = []  # (blocks, eigenvalues, right, left, cond), one per path
    h = np.flatnonzero(herm)
    if h.size:
        w, V = _stacked(np.linalg.eigh, _rows(S, h))
        V = V.astype(complex)
        units.append((h, w.astype(complex), V, V, np.ones(len(h))))
    solved, suspects = _solve_balanced(frames)
    del frames
    for r, Vr, w, singular in sorted(suspects, key=lambda s: s[0]):
        kappa = float(np.linalg.cond(Vr))
        over = not kappa <= DEFECTIVE_COND  # a NaN estimate is over too
        # an infinite estimate, like a pivot inv finds zero, is singular
        if over or np.isinf(kappa) or singular:
            reason = (f"exceeds {DEFECTIVE_COND:.1e}" if over
                      else "but the matrix is singular")
            raise refuse(
                rest[r], f"right-eigenvector matrix condition {kappa:.3e} "
                f"{reason}; matrix is (near-)defective",
                condition_estimate=kappa, clusters=_eigenvalue_clusters(
                    w.astype(complex, copy=False), float(np.abs(R[r]).max())))
    del suspects
    overflow = []
    while solved:
        rows, w, Vr, Vb_inv, d, perm, cond = solved.pop(0)
        V, Vinv = _to_caller_frame(Vr, Vb_inv, d, perm)
        del Vr, Vb_inv  # freed before the norm's temporaries
        # right columns to unit norm; the rows of V^-1 absorb the
        # rescaling, so V^-1 V = I stays exact up to inversion error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vnorm = np.linalg.norm(V, axis=1)
            V /= vnorm[:, None, :]
            Vinv *= vnorm[:, :, None]
        finite = (np.isfinite(V).all(axis=(1, 2))
                  & np.isfinite(Vinv).all(axis=(1, 2)))
        overflow += [(r, c) for r, c in zip(rows[~finite], cond[~finite])]
        # the left vectors are the columns of V^-dag, conjugated in place
        units.append((rest[rows], w.astype(complex, copy=False), V,
                      np.conjugate(Vinv, out=Vinv).transpose(0, 2, 1), cond))
    if overflow:
        r, cond = min(overflow)
        raise refuse(rest[r], "normalized eigenvectors overflow float64: the "
                     "kernel's diagonal grading exceeds the representable "
                     "range", condition_estimate=float(cond))
    if len(units) == 1:
        _, w, V, left, cond = units[0]
    else:
        w = np.empty((m, n), dtype=complex)
        V = np.empty((m, n, n), dtype=complex)
        left = np.empty((m, n, n), dtype=complex)
        cond = np.empty(m)
        for blocks, *fields in units:
            w[blocks], V[blocks], left[blocks], cond[blocks] = fields
    if A.ndim == 3:
        return w, V, left, cond
    right = V[0]
    return w[0], right, right if left is V else left[0], float(cond[0])
