import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nhent import (BiorthogonalSystem, DefectiveError, DegeneracyWarning,
                   KernelMatrix, biorthogonal_eig, bloch_momenta,
                   bloch_reduce, bloch_system, build_eb_ssh,
                   build_guo_chain, build_hatano_nelson,
                   build_measurement_heff, build_nh_ssh_real,
                   build_quasicrystal, build_uniform_chain,
                   correlation_matrix, ground_state_system,
                   Partition, petermann_factor,
                   report_for_partition, select_occupied)
from nhent import _linalg
from nhent._linalg import (HERMITIAN_TOL, EigFactors, balanced_eig,
                           eig_factors, is_hermitian,
                           match_spectra, min_cost_matching,
                           symmetrizing_diagonal)
from nhent.dynamics import hermitian_ground_state
from nhent.oracle import (manybody_biortho_ground, oracle_report,
                          reduced_density)
from nhent.spectra import _group_within, _mirrors, policy_order
from fourier import momentum_transform
from test_corr import BLOCH_FAMILIES, _dense_bloch_fill


def _system_of(eigenvalues, right, left, condition_estimate):
    """A dense system with the given right and left vectors: factors with
    V_r = right, V_r^-1 = left^dag and unit d and norms, which form them
    exactly."""
    ones = np.ones(len(eigenvalues))
    return BiorthogonalSystem(EigFactors(eigenvalues, right, left.conj().T,
                                         ones, None, ones, condition_estimate))


def diag_system(values):
    """System with a given diagonal kernel (eigenbasis = site basis)."""
    values = np.asarray(values, dtype=complex)
    return biorthogonal_eig(KernelMatrix(len(values), np.diag(values), "open"))


class TestBiorthogonalEig:
    def test_hermitian_input_unitary_path(self):
        km = build_nh_ssh_real(4, 1.0, 0.5, 0.0, "open")
        sys = biorthogonal_eig(km)
        right, left = sys.vectors(slice(None), slice(None))
        assert left is right
        assert sys.condition_estimate == 1.0
        assert np.abs(sys.eigenvalues.imag).max() < 1e-12
        assert np.abs(left - right).max() < 1e-10

    @pytest.mark.parametrize("factor, hermitian", [(0.5, True), (2.0, False)])
    def test_hermitian_test_boundary(self, factor, hermitian):
        # anti-Hermitian perturbation i*d on a zero diagonal entry, so that
        # max|A - A^dag| = 2 d = factor * HERMITIAN_TOL * scale exactly
        A = build_nh_ssh_real(4, 1.0, 0.5, 0.0, "open").entries
        scale = max(1.0, np.abs(A).max())
        A[0, 0] = 0.5j * factor * HERMITIAN_TOL * scale
        assert np.abs(A - A.conj().T).max() == factor * HERMITIAN_TOL * scale
        km = KernelMatrix(8, A, "open")
        assert km.is_hermitian() is is_hermitian(A) is hermitian
        right, left = biorthogonal_eig(km).vectors(slice(None), slice(None))
        assert (left is right) is hermitian
        gram = left.conj().T @ right
        assert np.abs(gram - np.eye(8)).max() < 1e-12

    def test_hermitian_test_equals_the_full_gap_test(self):
        # is_hermitian refuses a matrix by its diagonal alone when it can;
        # its answer must be that of max|A - A^dag| on every input
        def full(A, tol=HERMITIAN_TOL):
            scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
            with np.errstate(invalid="ignore"):
                gap = np.abs(A - A.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
            return np.isfinite(scale) & (gap <= tol * scale)

        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = X + X.conj().T
        # an imaginary diagonal entry whose gap 2b is the bound exactly
        b = 0.5 * (HERMITIAN_TOL * np.abs(H).max())
        cases = {"hermitian": H, "random": X, "real": X.real,
                 "real-symmetric": H.real}
        for name, imag in (("edge", b), ("above", np.nextafter(b, 1.0)),
                           ("below", np.nextafter(b, 0.0)),
                           ("nan", np.nan), ("inf", np.inf),
                           ("-inf", -np.inf)):
            A = H.copy()
            A[2, 2] = complex(A[2, 2].real, imag)
            cases[name] = A
        for name, entry in (("nan-hop", np.nan), ("inf-hop", np.inf),
                            ("inf-onsite", complex(np.inf, 1.0))):
            A = X.copy() if name == "inf-onsite" else H.copy()
            A[0, 1] = entry
            cases[name] = A
        expected = {name: bool(full(A)) for name, A in cases.items()}
        assert expected["edge"] and expected["below"]
        assert not expected["above"] and not expected["nan"]
        assert {name: is_hermitian(A) for name, A in cases.items()} == expected
        stacks = {"mixed": list(cases), "refused-by-diagonal": ["random",
                                                               "above"]}
        for names in stacks.values():
            S = np.array([cases[name].astype(complex) for name in names])
            tol = np.full(len(S), HERMITIAN_TOL)
            for t in (HERMITIAN_TOL, tol):
                got = is_hermitian(S, t)
                assert got.dtype == bool
                assert np.array_equal(got, full(S, t))

    def test_two_level_closed_form(self):
        u, v = 0.3, 0.8
        km = KernelMatrix(2, np.array([[1j * u, v], [v, -1j * u]]), "open")
        sys = biorthogonal_eig(km)
        expected = math.sqrt(v ** 2 - u ** 2)
        assert sorted(np.round(sys.eigenvalues.real, 10)) == pytest.approx(
            [-expected, expected])
        right, left = sys.vectors(slice(None), slice(None))
        gram = left.conj().T @ right
        assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_hatano_nelson_real_spectrum_and_skin(self):
        km = build_hatano_nelson(4, 1.0, 0.5, "open")
        sys = biorthogonal_eig(km)
        assert np.abs(sys.eigenvalues.imag).max() < 1e-12
        km0 = build_hatano_nelson(4, 1.0, 0.0, "open")
        w0 = np.linalg.eigvalsh(km0.entries)
        assert np.allclose(np.sort(sys.eigenvalues.real), w0, atol=1e-12)
        # right eigenvectors accumulate toward the site-0 edge: each carries
        # the envelope exp(-alpha x) on top of the Hermitian standing wave
        v = np.abs(sys.vectors(slice(None), slice(None))[0][:, 0])
        assert v[0] > v[3]

    def test_biorthonormality_and_completeness(self):
        km = build_quasicrystal(13, 0.3, 1.0, 0.8, Fraction(8, 13))
        sys = biorthogonal_eig(km)
        right, left = sys.vectors(slice(None), slice(None))
        gram = left.conj().T @ right
        assert np.abs(gram - np.eye(13)).max() < 1e-10
        complete = right @ left.conj().T
        assert np.abs(complete - np.eye(13)).max() < 1e-8

    def test_defective_kernel_raises_with_clusters(self):
        # the exceptional 2x2 block [[iu, -u], [-u, -iu]] is nilpotent and
        # not curable by any diagonal rescaling
        u = 0.7
        km = KernelMatrix(2, np.array([[1j * u, -u], [-u, -1j * u]]), "open")
        with pytest.raises(DefectiveError) as err:
            biorthogonal_eig(km)
        assert err.value.condition_estimate > 1e12
        assert len(err.value.clusters) == 1

    def test_graded_singular_pair_is_not_defective(self):
        # [[0, 1], [eps, 0]] is diagonally similar to a symmetric matrix;
        # the grading discovery must recognize it as benign
        km = KernelMatrix(2, np.array([[0.0, 1.0], [1e-30, 0.0]]), "open")
        assert np.isfinite(symmetrizing_diagonal(km.entries)).all()
        sys = biorthogonal_eig(km)
        assert sys.condition_estimate < 10

    def test_condition_estimate_ignores_skin_grading(self):
        # the open nonreciprocal chain is a diagonal similarity transform of
        # a Hermitian chain; its genuine condition is O(1)
        km = build_hatano_nelson(60, 1.0, 0.8, "open")
        sys = biorthogonal_eig(km)
        assert sys.condition_estimate < 100

    @pytest.mark.parametrize("name, km, hermitian", [
        ("eb_ssh_open", build_eb_ssh(24, 1.0, 0.5, 0.3, "open"), False),
        # gauge-Hermitian: condition 1.0, but the solver's routing test
        # already said the kernel is not Hermitian
        ("hatano_nelson_open", build_hatano_nelson(24, 1.0, 0.5, "open"),
         False),
        ("ssh_open", build_nh_ssh_real(12, 1.0, 0.5, 0.0, "open"), True),
    ])
    def test_one_hermitian_test_of_a_non_hermitian_kernel(
            self, monkeypatch, name, km, hermitian):
        # the solver's routing test is the only test of the kernel; the
        # test of the balanced kernel is not counted.  The solve may read
        # the kernel through a view, so the kernel is known by its memory
        seen = []

        def spied(A, *args):
            seen.append(np.shares_memory(A, km.entries))
            return is_hermitian(A, *args)
        monkeypatch.setattr(_linalg, "is_hermitian", spied)
        monkeypatch.setattr("nhent.models.is_hermitian", spied)
        right, left = biorthogonal_eig(km).vectors(slice(None), slice(None))
        assert (left is right) is hermitian
        assert sum(seen) == 1


def _counting_eig(monkeypatch):
    """Record the dtype of every array handed to np.linalg.eig."""
    seen = []
    eig = np.linalg.eig

    def counted(B):
        seen.append(B.dtype)
        return eig(B)
    monkeypatch.setattr(np.linalg, "eig", counted)
    return seen


def _solver_calls(monkeypatch):
    """Record (name, input dtype) of every np.linalg eig/eigh/cond/inv call."""
    calls = []
    for name in ("eig", "eigh", "cond", "inv"):
        def counted(B, *args, _name=name, _f=getattr(np.linalg, name),
                    **kwargs):
            calls.append((_name, B.dtype))
            return _f(B, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _svd_calls(monkeypatch):
    """Record (name, result) of every np.linalg.cond and np.linalg.svd call."""
    calls = []
    for name in ("cond", "svd"):
        def spied(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            out = _f(*args, **kwargs)
            calls.append((_name, out))
            return out
        monkeypatch.setattr(np.linalg, name, spied)
    return calls


def _corner_coupled_chain():
    # open Hatano-Nelson at the edge of the seed's clip, plus one bond
    # from the first site to the last: B = D^-1 A D holds an infinity
    km = build_hatano_nelson(160, 1.0, 5.0, "open")
    km.entries[159, 0] = 4.0
    return km


class TestBalancing:
    def test_open_chain_takes_one_real_pass(self, monkeypatch):
        # the entry ratios symmetrize open Hatano-Nelson to rounding, so the
        # balanced kernel is solved by one real eigh
        calls = _solver_calls(monkeypatch)
        sys = biorthogonal_eig(build_hatano_nelson(384, 1.0, 0.5, "open"))
        assert calls == [("eigh", np.dtype(float))]
        assert sys.condition_estimate == 1.0
        right, left = sys.vectors(slice(None), slice(None))
        gram = left.conj().T @ right
        assert np.abs(gram - np.eye(384)).max() <= 1e-10

    @pytest.mark.parametrize("n, alpha", [(384, 0.5), (200, 2.5), (100, 4.0)])
    def test_graded_chain_entropy_matches_hermitian_chain(self, n, alpha):
        # the half-chain correlation block of the open chain is a diagonal
        # similarity transform of the alpha = 0 one: same spectrum, same S
        def half_entropy(a):
            sys, sel = ground_state_system(
                build_hatano_nelson(n, 1.0, a, "open"), Fraction(1, 2))
            return report_for_partition(sys, sel, Partition.half(n)).entropy_vn
        assert abs(half_entropy(alpha) - half_entropy(0.0)) < 1e-10

    def test_seed_is_identity_on_magnitude_symmetric_kernels(self):
        rng = np.random.default_rng(7)
        G = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        gain_loss = G + G.conj().T + 1j * np.diag(rng.normal(size=16))
        # A_ji = i conj(A_ij) swaps the real and imaginary parts, so
        # |A_ji| = |A_ij| exactly, on a sparse non-Hermitian kernel
        upper = np.triu(G * (rng.random((16, 16)) < 0.3), 1)
        swapped = upper + 1j * upper.conj().T
        # the A02 ring point, and a Hermitian matrix plus i*gamma on-site
        for A in (build_nh_ssh_real(32, 1.0, 0.3, 0.7, "periodic").entries,
                  gain_loss, swapped):
            assert np.array_equal(symmetrizing_diagonal(A), np.ones(len(A)))

    @pytest.mark.parametrize("n, density", [(30, 0.15), (60, 0.08),
                                            (40, 1.0)])
    def test_seed_is_the_least_squares_solution(self, n, density):
        # dense reference: one row e_i - e_j per pair i < j with both
        # entries nonzero, right side (1/2) ln(|A_ij| / |A_ji|).  The fit
        # is unique up to a constant on each connected component, so the
        # fitted differences are compared, and the geometric mean of d
        rng = np.random.default_rng(n)
        A = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) \
            * (rng.random((n, n)) < density)
        A[0, n - 1] = 0.0  # a one-way bond carries no ratio
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if A[i, j] != 0 and A[j, i] != 0]
        incidence = np.zeros((len(pairs), n))
        for row, (i, j) in enumerate(pairs):
            incidence[row, i], incidence[row, j] = 1.0, -1.0
        ratio = [0.5 * np.log(abs(A[i, j]) / abs(A[j, i])) for i, j in pairs]
        x = np.linalg.lstsq(incidence, ratio, rcond=None)[0]
        log_d = np.log(symmetrizing_diagonal(A))
        assert np.abs(incidence @ (log_d - x)).max() <= 1e-12
        assert abs(log_d.mean()) <= 1e-12

    def test_seed_skips_one_way_bonds(self):
        # at Gamma = t every bond hops one way only: no ratio, no grading
        km = build_measurement_heff(16, 1.0, 1.0, "open")
        assert np.array_equal(symmetrizing_diagonal(km.entries), np.ones(16))

    def test_seed_symmetrizes_entry_magnitudes(self):
        km = build_hatano_nelson(12, 1.0, 0.7, "open")
        d = symmetrizing_diagonal(km.entries)
        B = np.abs(km.entries) * d[None, :] / d[:, None]
        assert np.abs(B - B.T).max() < 1e-12
        assert abs(np.log(d).mean()) < 1e-12

    def test_real_kernel_runs_on_the_real_solver(self, monkeypatch):
        km = build_eb_ssh(8, 1.0, 0.5, 0.0, "open")
        assert not km.entries.imag.any() and not is_hermitian(km.entries)
        seen = _counting_eig(monkeypatch)
        w, V, left, _ = balanced_eig(km.entries)
        assert seen and all(dt == np.dtype(float) for dt in seen)
        assert w.dtype == V.dtype == left.dtype == np.dtype(complex)
        assert np.abs((V * w) @ left.conj().T - km.entries).max() < 1e-10

    @pytest.mark.parametrize("name, km, solver", [
        ("random_complex", KernelMatrix(
            40, np.random.default_rng(3).normal(size=(40, 40))
            + 1j * np.random.default_rng(4).normal(size=(40, 40)), "open"),
         ["eig", "inv"]),
        ("eb_ssh_open", build_eb_ssh(24, 1.0, 0.5, 4.0, "open"),
         ["eig", "inv"]),
        ("guo_chain_open", build_guo_chain(64, 4, 1.0, 3.5, "open"),
         ["eig", "inv"]),
        # gradings e^(alpha (n - 1)) of ~e^500 and ~e^400: inside the seed's
        # clip, so the one balanced kernel is Hermitian
        ("hatano_nelson_n200_a2.5", build_hatano_nelson(200, 1.0, 2.5, "open"),
         ["eigh"]),
        ("hatano_nelson_n100_a4", build_hatano_nelson(100, 1.0, 4.0, "open"),
         ["eigh"]),
    ])
    def test_one_balancing_pass_one_solve(self, monkeypatch, name, km, solver):
        calls = _solver_calls(monkeypatch)
        biorthogonal_eig(km)
        assert [c for c, _ in calls] == solver

    @pytest.mark.parametrize("name, km", [
        ("nilpotent", KernelMatrix(2, np.array([[0.7j, -0.7], [-0.7, -0.7j]]),
                                   "open")),
        ("graded_nilpotent", KernelMatrix(
            2, np.array([[0.7j, -700.0], [-7e-4, -0.7j]]), "open")),
        ("jordan", KernelMatrix(2, np.array([[0.0, 1.0], [0.0, 0.0]]), "open")),
        ("one_way_measurement", build_measurement_heff(16, 1.0, 1.0, "open")),
        # gradings e^(alpha (n - 1)) beyond the float64 range
        ("hatano_nelson_n64_a12", build_hatano_nelson(64, 1.0, 12.0, "open")),
        ("hatano_nelson_n160_a5", build_hatano_nelson(160, 1.0, 5.0, "open")),
        ("hatano_nelson_n200_a4", build_hatano_nelson(200, 1.0, 4.0, "open")),
        # Jordan blocks away from zero: no diagonal frame hides the defect
        ("jordan_half", KernelMatrix(2, np.array([[0.5, 1.0], [0.0, 0.5]]),
                                     "open")),
        ("jordan_one", KernelMatrix(2, np.array([[1.0, 1.0], [0.0, 1.0]]),
                                    "open")),
        ("jordan_3x3", KernelMatrix(
            3, 0.3 * np.eye(3) + np.diag([1.0, 1.0], 1), "open")),
        ("hatano_nelson_n120_a6", build_hatano_nelson(120, 1.0, 6.0, "open")),
        ("hatano_nelson_n160_a5_corner", _corner_coupled_chain()),
    ])
    def test_defective_kernels_still_raise(self, monkeypatch, name, km):
        # the solver itself refuses each kernel, so every caller does.  At
        # n = 120, alpha = 6 it is the float64 overflow of the unit-norm
        # vectors, after a benign condition and no SVD; with a corner bond
        # the balanced kernel itself overflows, before any solve.  Every
        # other refusal carries the SVD's kappa_2, the one estimate that
        # decides above the inverse's certificate
        svd = _svd_calls(monkeypatch)
        solves = _solver_calls(monkeypatch)
        for solve in (lambda: balanced_eig(km.entries),
                      lambda: biorthogonal_eig(km)):
            svd.clear()
            solves.clear()
            with pytest.raises(DefectiveError) as err:
                solve()
            if name == "hatano_nelson_n120_a6":
                assert svd == [] and "eigenvectors overflow" in str(err.value)
                assert 1.0 <= err.value.condition_estimate < 10
            elif name == "hatano_nelson_n160_a5_corner":
                assert svd == solves == []
                assert "kernel overflows" in str(err.value)
                assert err.value.condition_estimate == math.inf
            else:
                assert [c for c, _ in svd] == ["cond"]
                kappa_2 = svd[0][1]
                assert err.value.condition_estimate == kappa_2
                assert kappa_2 > _linalg.DEFECTIVE_COND


def _pi_flux_ring(n_cells):
    # the A02 ring with a pi flux on its wrap bond
    km = build_nh_ssh_real(n_cells, 1.0, 0.3, 0.7, "periodic")
    entries, w = km.entries.copy(), km.dim - 1
    entries[[0, w], [w, 0]] *= -1
    return KernelMatrix(km.dim, entries, km.bc, km.site_labels)


PT_KERNELS = {
    "eb_ssh_g1e-3": lambda: build_eb_ssh(40, 1.0, 0.5, 1e-3, "open"),
    "eb_ssh_g4": lambda: build_eb_ssh(40, 1.0, 0.5, 4.0, "open"),
    # trivial phase (upsilon > omega): no zero-energy edge pair at the cut
    "nh_ssh_open": lambda: build_nh_ssh_real(32, 0.4, 1.0, 0.3, "open"),
    "nh_ssh_pi_flux_ring": lambda: _pi_flux_ring(32),
}


def _half_entropy(sys, dim):
    sel = select_occupied(sys, Fraction(1, 2))
    return report_for_partition(sys, sel, Partition.half(dim)).entropy_vn


class TestPTSymmetricRealPath:
    @pytest.mark.parametrize("name", sorted(PT_KERNELS))
    def test_one_real_solve_same_entropy(self, monkeypatch, name):
        km = PT_KERNELS[name]()
        assert km.entries.imag.any()
        # reference: the complex solve, without a mirror
        w, V, left, cond = balanced_eig(km.entries)
        vnorm = np.linalg.norm(V, axis=0)
        ref = _system_of(w, V / vnorm, left * vnorm, cond)
        seen = _counting_eig(monkeypatch)
        sys = biorthogonal_eig(km)
        assert seen == [np.dtype(float)]
        right, left = sys.vectors(slice(None), slice(None))
        gram = left.conj().T @ right
        assert np.abs(gram - np.eye(km.dim)).max() <= 1e-10
        assert abs(_half_entropy(sys, km.dim)
                   - _half_entropy(ref, km.dim)) <= 1e-10

    def test_broken_mirror_takes_the_complex_path(self, monkeypatch):
        km = build_eb_ssh(40, 1.0, 0.5, 4.0, "open")
        km.entries[0, 0] += 1e-3j
        seen = _counting_eig(monkeypatch)
        biorthogonal_eig(km)
        assert seen == [np.dtype(complex)]

    def test_non_tiling_labels_still_diagonalize(self, monkeypatch):
        pt = build_eb_ssh(40, 1.0, 0.5, 4.0, "open")
        # two modes per label: the labels name no lattice, so no mirror
        km = KernelMatrix(pt.dim, pt.entries, "open",
                          [(i // 2, 0) for i in range(pt.dim)])
        seen = _counting_eig(monkeypatch)
        sys = biorthogonal_eig(km)
        assert seen == [np.dtype(complex)]
        assert np.abs(sys.reconstruction() - km.entries).max() < 1e-10

    def test_nilpotent_kernel_takes_the_real_path_and_raises(self, monkeypatch):
        # [[iu, -u], [-u, -iu]] is PT-symmetric under the swap of its sites
        km = KernelMatrix(2, np.array([[0.7j, -0.7], [-0.7, -0.7j]]), "open")
        seen = _counting_eig(monkeypatch)
        with pytest.raises(DefectiveError):
            biorthogonal_eig(km)
        assert seen == [np.dtype(float)]


def _graded_hermitian(n=40, seed=11, mirrored=False):
    """(D H D^-1, H): a random complex Hermitian H, ln d uniform in [-5, 5].

    ``mirrored`` makes H* = P H P and d = d[P] exactly for the reversal P,
    so that D H D^-1 is PT-symmetric under P.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = X + X.conj().T
    x = rng.uniform(-5.0, 5.0, size=n)
    if mirrored:
        H = 0.5 * (H + H.conj()[::-1, ::-1])
        x = 0.5 * (x + x[::-1])
    d = np.exp(x)
    return (H * d[:, None]) / d[None, :], H


GAUGE_HERMITIAN = {
    # (kernel, the Hermitian matrix it is diagonally similar to, mirrors,
    #  the dtype eigh solves in)
    **{f"hatano_nelson_n{n}_a{a:g}": (
        lambda n=n, a=a: (build_hatano_nelson(n, 1.0, a, "open").entries,
                          build_hatano_nelson(n, 1.0, 0.0, "open").entries,
                          (), np.dtype(float)))
       for n, a in ((12, 0.7), (128, 0.5), (512, 0.5))},
    "graded_random_hermitian": lambda: (*_graded_hermitian(), (),
                                        np.dtype(complex)),
    "graded_pt_hermitian": lambda: (*_graded_hermitian(mirrored=True),
                                    (np.arange(40)[::-1],), np.dtype(float)),
}


def _near_misses():
    km = build_hatano_nelson(64, 1.0, 0.5, "open")
    # a real change to a hopping of an open chain is absorbed by the
    # positive gauge; a one-way hop or an on-site gain is not
    one_way, gain = km.entries.copy(), km.entries.astype(complex)
    one_way[10, 12] += 1e-9
    gain[10, 10] += 1e-9j
    return {"one_way_hop": (one_way, np.dtype(float)),
            "onsite_gain": (gain, np.dtype(complex))}


class TestGaugeHermitianPath:
    @pytest.mark.parametrize("name", sorted(GAUGE_HERMITIAN))
    def test_takes_eigh_with_unit_condition(self, monkeypatch, name):
        A, H, mirrors, dtype = GAUGE_HERMITIAN[name]()
        calls = _solver_calls(monkeypatch)
        w, V, left, cond = balanced_eig(A, mirrors=mirrors)
        assert calls == [("eigh", dtype)]
        assert cond == 1.0
        ref = np.linalg.eigvalsh(H)
        assert np.abs(w - ref).max() <= 1e-10 * np.linalg.norm(H, 2)
        assert np.abs(left.conj().T @ V - np.eye(len(A))).max() <= 1e-10

    @pytest.mark.parametrize("name", sorted(_near_misses()))
    def test_near_miss_takes_eig(self, monkeypatch, name):
        A, dtype = _near_misses()[name]
        calls = _solver_calls(monkeypatch)
        w, V, left, cond = balanced_eig(A)
        assert ("eig", dtype) in calls
        assert "eigh" not in [c for c, _ in calls]
        assert cond < 10
        assert np.abs(left.conj().T @ V - np.eye(64)).max() <= 1e-10
        # the perturbation moves no eigenvalue by more than ~1e-9
        w0 = np.linalg.eigvalsh(build_hatano_nelson(64, 1.0, 0.0,
                                                    "open").entries)
        assert np.abs(np.sort_complex(w) - w0).max() < 1e-8

    def test_oracle_hatano_nelson_sector_takes_eigh(self, monkeypatch):
        K = build_hatano_nelson(10, 1.0, 0.5, "open")
        calls = _solver_calls(monkeypatch)
        G_R, G_L, energy = manybody_biortho_ground(K, 5)
        assert calls == [("eigh", np.dtype(float))]
        assert abs(np.vdot(G_L, G_R) - 1.0) < 1e-10
        w0 = np.linalg.eigvalsh(build_hatano_nelson(10, 1.0, 0.0,
                                                    "open").entries)
        assert abs(energy - w0[:5].sum()) < 1e-10

    def test_oracle_pt_sector_takes_real_eig(self, monkeypatch):
        # the suite's PT-symmetric chain: its sector passes the exact test
        # under the Fock image of the chain's reversal, so eig reads a real
        # matrix.  Its edge pair +-0.3i makes the spectrum complex, and the
        # real eig returns conjugate pairs of complex vectors to invert.
        K = build_nh_ssh_real(5, 1.0, 0.4, 0.3, "open")
        calls = _solver_calls(monkeypatch)
        G_R, G_L, energy = manybody_biortho_ground(K, 5)
        assert calls == [("eig", np.dtype(float)),
                         ("inv", np.dtype(complex))]
        monkeypatch.setattr("nhent.oracle._mirrors", lambda K: ())
        del calls[:]
        ref_R, ref_L, ref_energy = manybody_biortho_ground(K, 5)
        assert calls == [("eig", np.dtype(complex)),
                         ("inv", np.dtype(complex))]
        assert abs(energy - ref_energy) < 1e-12
        spectra = [np.linalg.eigvals(reduced_density(R, L, 10, 5))
                   for R, L in ((G_R, G_L), (ref_R, ref_L))]
        assert match_spectra(*spectra)[1] < 1e-12

    def test_oracle_random_sector_takes_complex_eig(self, monkeypatch):
        # a random kernel's labels tile a chain, but no mirror of it is exact
        K = KernelMatrix(10, _random_complex(10, 4), "open")
        assert len(_mirrors(K)) == 1
        calls = _solver_calls(monkeypatch)
        manybody_biortho_ground(K, 5)
        assert calls == [("eig", np.dtype(complex)),
                         ("inv", np.dtype(complex))]


def _random_complex(n=40, seed=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


ACCEPTED_SOLVES = {
    # the PT-real path
    "eb_ssh_open_24_g4": lambda: biorthogonal_eig(
        build_eb_ssh(24, 1.0, 0.5, 4.0, "open")),
    "random_complex_40": lambda: balanced_eig(_random_complex()),
    # the 252 x 252 half-filled sector of a random 10-mode kernel
    "oracle_sector_10_modes": lambda: manybody_biortho_ground(
        KernelMatrix(10, _random_complex(10, 4), "open"), 5),
}


GATE_KERNELS = {
    # (kernel, mirrors)
    "random_complex_40": lambda: (_random_complex(), ()),
    "eb_ssh_open_24_g4_pt": lambda: (
        build_eb_ssh(24, 1.0, 0.5, 4.0, "open").entries,
        (np.arange(48).reshape(24, 2)[::-1].ravel(),)),
    "measurement_16_g0.8": lambda: (
        build_measurement_heff(16, 1.0, 0.8, "open").entries, ()),
    # the PT exceptional point shifted to 1/2, accepted at kappa_2 ~ 8e7
    "shifted_exceptional_point": lambda: (
        0.5 * np.eye(2) + np.array([[0.7j, -0.7], [-0.7, -0.7j]]), ()),
}


class TestConditionGate:
    @pytest.mark.parametrize("name", sorted(ACCEPTED_SOLVES))
    def test_accepted_solves_take_no_svd(self, monkeypatch, name):
        svd = _svd_calls(monkeypatch)
        calls = _solver_calls(monkeypatch)
        ACCEPTED_SOLVES[name]()
        assert svd == []
        assert [c for c, _ in calls].count("inv") == 1

    @pytest.mark.parametrize("name", sorted(GATE_KERNELS))
    def test_gate_decides_as_the_svd(self, monkeypatch, name):
        A, mirrors = GATE_KERNELS[name]()
        vectors = []
        eig = np.linalg.eig

        def last_eig(B):
            out = eig(B)
            vectors.append(out[1])
            return out
        monkeypatch.setattr(np.linalg, "eig", last_eig)
        cond = balanced_eig(A, mirrors=mirrors)[3]
        # the balanced-frame eigenvector matrix of the last pass
        Vr = vectors[-1]
        kappa_2 = np.linalg.cond(Vr)
        kappa_f = np.linalg.norm(Vr) * np.linalg.norm(np.linalg.inv(Vr))
        # 1 <= cond <= kappa_2 <= kappa_F <= n cond, up to rounding
        slack = 1 + 1e-12
        assert 1.0 <= cond * slack and cond <= kappa_2 * slack
        assert kappa_2 <= kappa_f * slack <= len(A) * cond * slack**2
        svd = _svd_calls(monkeypatch)
        # the SVD raises (below kappa_2), accepts (the next three), or is
        # not needed (the inverse's certificate, the last)
        for threshold in (0.5 * kappa_2, 0.999 * kappa_2, 1.001 * kappa_2,
                          1.5 * kappa_f, 2.5 * kappa_f):
            monkeypatch.setattr(_linalg, "DEFECTIVE_COND", threshold)
            svd.clear()
            try:
                accepted_cond = balanced_eig(A, mirrors=mirrors)[3]
            except DefectiveError as err:
                assert kappa_2 > threshold
                assert err.condition_estimate == kappa_2
            else:
                assert not kappa_2 > threshold
                assert accepted_cond == cond
            assert [c for c, _ in svd] == (["cond"] if kappa_f > threshold / 2
                                          else [])


class TestHermitianInput:
    def test_goes_to_eigh_as_given(self):
        # the momentum-space uniform ring is Hermitian only to rounding and
        # has a degenerate pair at the Fermi level; read as a grading, its
        # rounding would give V = D U, not unitary, and a complex entropy
        K = momentum_transform(build_uniform_chain(64))
        assert K.is_hermitian() and not np.array_equal(K.entries,
                                                       K.entries.conj().T)
        sys, sel = ground_state_system(K, Fraction(1, 2))
        right, left = sys.vectors(slice(None), slice(None))
        assert left is right
        gram = right.conj().T @ right
        assert np.abs(gram - np.eye(64)).max() <= 1e-12
        entropy = report_for_partition(sys, sel, Partition.half(64)).entropy_vn
        # reference: the 32 lowest eigh vectors, in eigh's order
        U = np.linalg.eigh(K.entries)[1][:, :32]
        eps = np.linalg.eigvalsh((U @ U.conj().T)[:32, :32])
        eps = eps[(eps > 1e-14) & (eps < 1 - 1e-14)]
        ref = -np.sum(eps * np.log(eps) + (1 - eps) * np.log(1 - eps))
        assert abs(entropy - ref) <= 1e-12

    @pytest.mark.parametrize("A", [
        np.array([[0.0, np.inf], [1.0, 0.0]]),
        np.array([[0.0, -np.inf], [1.0, 0.0]]),
        np.array([[0.0, 1.0 + 1j * np.inf], [1.0, 0.0]]),
        np.array([[0.0, np.nan], [1.0, 0.0]]),
    ], ids=["inf", "minus_inf", "complex_inf", "nan"])
    def test_non_finite_input_is_refused(self, monkeypatch, A):
        # |inf - 1| <= tol * inf would pass the Hermitian test, and eigh,
        # which reads one triangle, would return +-1, a unitary V and
        # cond 1.0 for [[0, inf], [1, 0]]
        assert not is_hermitian(A)
        with pytest.raises(np.linalg.LinAlgError):
            _linalg.eigenvalues(A)
        solves = _solver_calls(monkeypatch)
        with pytest.raises(DefectiveError, match="non-finite") as err:
            balanced_eig(A)
        assert err.value.condition_estimate == math.inf
        assert solves == []


MODERATE_KERNELS = {
    "hatano_nelson": lambda: build_hatano_nelson(24, 1.0, 0.3, "open"),
    "hatano_nelson_pbc": lambda: build_hatano_nelson(20, 1.0, 0.3, "periodic"),
    "nh_ssh": lambda: build_nh_ssh_real(10, 1.0, 0.4, 0.3, "periodic"),
    "quasicrystal": lambda: build_quasicrystal(21, 0.5, 1.0, 0.7,
                                               Fraction(13, 21)),
    "guo": lambda: build_guo_chain(16, 2, 1.0, 0.6),
    "eb_away_from_ep": lambda: build_eb_ssh(8, 1.0, 1.0, 0.8),
    "measurement": lambda: build_measurement_heff(16, 1.0, 0.4, "open"),
    "uniform": lambda: build_uniform_chain(30),
}


@pytest.mark.parametrize("name", sorted(MODERATE_KERNELS))
def test_reconstruction(name):
    km = MODERATE_KERNELS[name]()
    sys = biorthogonal_eig(km)
    assert np.abs(sys.reconstruction() - km.entries).max() < 1e-8


def test_spectrum_invariance_under_nonreciprocity():
    # the open-chain spectrum does not depend on alpha at all
    w0 = np.sort(biorthogonal_eig(
        build_hatano_nelson(40, 1.0, 0.0, "open")).eigenvalues.real)
    for alpha in (0.25, 0.5, 1.0):
        w = biorthogonal_eig(build_hatano_nelson(40, 1.0, alpha, "open")).eigenvalues
        assert np.abs(w.imag).max() < 1e-9
        assert np.abs(np.sort(w.real) - w0).max() < 1e-9


def test_pt_symmetric_phase_real_spectrum():
    # omega - upsilon > u puts the chain in the PT-symmetric region
    km = build_nh_ssh_real(24, 1.0, 0.4, 0.3, "periodic")
    w = biorthogonal_eig(km).eigenvalues
    assert np.abs(w.imag).max() < 1e-9


def test_match_spectra_pairs_conjugate_cluster():
    # equal real parts, opposite imaginary parts: sorted-order pairing
    # would cross the pairs, the assignment does not
    a = np.array([1 - 1e-3j, 1 + 1e-3j, 0.2])
    b = np.array([0.2 + 1e-14, 1 + 1e-3j, 1 - 1e-3j])
    perm, residual = match_spectra(a, b)
    assert list(perm) == [2, 1, 0]
    assert residual == pytest.approx(1e-14, abs=1e-16)


def oracle_like_cost(rng):
    """|a_i - b_j| of a 32-value rho_A spectrum (products of five
    occupations, two of them near 0) against a noisy permutation of it:
    entries span ~1e-20 to 1, as in the oracle's spectrum pairing."""
    eps = np.array([1e-10, 3e-9, 0.2, 0.5, 0.9]) * (1 + 0.1 * rng.random(5))
    a = np.array([np.prod([e if bit else 1 - e for bit, e in zip(bits, eps)])
                  for bits in itertools.product((0, 1), repeat=5)])
    b = a[rng.permutation(32)] * (1 + 1e-14 * rng.normal(size=32))
    return np.abs(a[:, None] - b[None, :])


class TestMinCostMatching:
    """The pure-Python matcher returns SciPy's permutation, ties included."""

    @staticmethod
    def assert_same_as_scipy(cost):
        _, cols = linear_sum_assignment(cost)
        perm = min_cost_matching(cost)
        assert np.array_equal(perm, cols)
        assert perm.dtype == np.intp

    @staticmethod
    def random_block(rng, n):
        kind = rng.integers(4)
        if kind == 0:
            return rng.random((n, n))
        if kind == 1:
            return rng.integers(0, 3, (n, n)).astype(float)
        if kind == 2:
            return np.zeros((n, n))
        return rng.normal(size=(n, n))

    def test_random_blocks(self):
        rng = np.random.default_rng(0)
        for n in rng.integers(1, 13, 40):
            self.assert_same_as_scipy(rng.random((n, n)))

    def test_tie_heavy_integer_blocks(self):
        rng = np.random.default_rng(1)
        for n in rng.integers(2, 11, 60):
            self.assert_same_as_scipy(rng.integers(0, 3, (n, n)).astype(float))

    def test_zero_and_one_by_one_blocks(self):
        for n in (1, 2, 6):
            self.assert_same_as_scipy(np.zeros((n, n)))
        # a sparse-graph matcher reads these zeros as missing edges
        cost = np.ones((12, 12))
        cost[:6, :6] = 0
        self.assert_same_as_scipy(cost)
        for x in (0.0, 2.5, -1.0):
            assert list(min_cost_matching(np.array([[x]]))) == [0]

    def test_mixed_sizes_300_blocks(self):
        rng = np.random.default_rng(2)
        for n in rng.integers(1, 9, 300):
            self.assert_same_as_scipy(self.random_block(rng, n))

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_dynamic_range(self, seed):
        self.assert_same_as_scipy(oracle_like_cost(np.random.default_rng(seed)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_raises(self, bad):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            min_cost_matching(cost)

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_non_square_cost_raises(self, shape):
        with pytest.raises(ValueError, match="square"):
            min_cost_matching(np.ones(shape))


class TestSelectOccupied:
    def test_lowest_half_by_real_part(self):
        sys = diag_system([-2.0, -1.0, 1.0, 2.0])
        sel = select_occupied(sys, Fraction(1, 2))
        assert set(sel.occupied) == {0, 1}
        assert not sel.degenerate_boundary

    def test_real_part_tie_broken_by_imag(self):
        sys = diag_system([-1 + 1j, -1 - 1j, 1 + 1j, 1 - 1j])
        sel = select_occupied(sys, Fraction(1, 2))
        assert set(sel.occupied) == {0, 1}

    def test_pt_phase_fills_lower_band(self):
        km = build_nh_ssh_real(16, 1.0, 0.4, 0.3, "periodic")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        assert np.all(sys.eigenvalues[sel.occupied].real < 0)

    def test_degenerate_boundary_warns(self):
        sys = diag_system([-1.0, 0.0, 0.0, 1.0])
        with pytest.warns(DegeneracyWarning):
            sel = select_occupied(sys, Fraction(1, 2))
        assert sel.degenerate_boundary

    def test_policies(self):
        vals = [-1 + 2j, 2 - 2j, 0.1 + 0.1j, -0.1 - 3j]
        sys = diag_system(vals)
        by_imag = select_occupied(sys, Fraction(1, 2), "imag_part")
        assert set(by_imag.occupied) == {3, 1}
        by_mod = select_occupied(sys, Fraction(1, 2), "modulus")
        assert set(by_mod.occupied) == {2, 0}  # moduli 0.14 < 2.24 < 2.83 < 3.0

    def test_filling_bounds(self):
        sys = diag_system([0.0, 1.0])
        with pytest.raises(ValueError):
            select_occupied(sys, 0)
        with pytest.raises(ValueError):
            select_occupied(sys, 1.5)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_half_filling_of_an_odd_chain_rounds_up(self, n):
        # n / 2 rounds half up for every odd n; rounding half to even would
        # fill 2 of 5 and 4 of 9 sites but 4 of 7 and 6 of 11
        sys = biorthogonal_eig(build_uniform_chain(n, bc="open"))
        assert select_occupied(sys, Fraction(1, 2)).n_occupied == (n + 1) // 2

    def test_tie_groups_survive_rounding_noise(self):
        # same real parts up to 1e-15 noise: imaginary part must decide
        sys = diag_system([1e-15 - 0.5j, -1e-16 + 0.5j, 1.0])
        sel = select_occupied(sys, Fraction(1, 3))
        assert set(sel.occupied) == {0}


class TestPolicyOrder:
    def test_plain_ascending(self):
        order = policy_order(np.array([3.0, -1.0, 2.0]), "real_part")
        assert list(order) == [1, 2, 0]

    def test_modulus_secondary_real(self):
        order = policy_order(np.array([1j, -1.0, 2.0]), "modulus")
        assert list(order) == [1, 0, 2]

    @pytest.mark.parametrize("values, tol, expected", [
        ([0.0, 1.0, 0.5], 0.1, [0, 2, 1]),
        # gaps of 0.08 chain the span 0 .. 0.24 into one group
        ([0.24, 0.0, 1.0, 0.08, 0.16], 0.1, [0, 0, 1, 0, 0]),
        ([1.0, 1.0, 0.0], 0.0, [1, 1, 0]),
        # NaN sorts last and a gap to it compares False: it joins the group
        # before it
        ([np.nan, 0.0, 2.0, np.nan], 0.5, [1, 0, 1, 1]),
        ([3.0], 1.0, [0]),
        ([], 1.0, []),
    ], ids=["plain", "chained", "exact_tie", "nan", "single", "empty"])
    def test_group_ids(self, values, tol, expected):
        values = np.asarray(values, dtype=float)
        # reference: one sorted pass, a new group after every gap above tol
        ref, gid, prev = np.empty(len(values), dtype=int), 0, None
        for i in np.argsort(values, kind="stable"):
            if prev is not None and values[i] - prev > tol:
                gid += 1
            ref[i], prev = gid, values[i]
        assert _group_within(values, tol).tolist() == expected == ref.tolist()


class TestPetermann:
    def make(self, vectors):
        v = np.array(vectors, dtype=complex).T
        return _system_of(np.zeros(v.shape[1], dtype=complex), v, v, 1.0)

    def test_orthogonal_vectors(self):
        sys = self.make([[1, 0], [0, 1]])
        assert petermann_factor(sys, 0, 1) == pytest.approx(0.0)

    def test_coalescent_vectors(self):
        sys = self.make([[1, 1j], [1, 1j]])
        assert petermann_factor(sys, 0, 1) == pytest.approx(1.0)

    def test_half_overlap(self):
        sys = self.make([[1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        assert petermann_factor(sys, 0, 1) == pytest.approx(0.5)

    def test_same_index_rejected(self):
        sys = self.make([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            petermann_factor(sys, 1, 1)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "bloch"])
    def test_index_out_of_range_rejected(self, dense):
        # -1 would name the last state a second time
        km = build_nh_ssh_real(6, 1.0, 0.5, 0.3, "periodic")
        sys = biorthogonal_eig(km) if dense else bloch_system(km)
        for m, n in ((-1, sys.dim - 1), (0, sys.dim), (sys.dim, 0)):
            with pytest.raises(ValueError, match="distinct states in"):
                petermann_factor(sys, m, n)


def _bloch_per_block(km):
    """bloch_system's eigenvalues, u_k, l_k and condition from one 2-D
    ``balanced_eig`` per momentum."""
    nc, ns = km.cell_sites.shape
    eigenvalues = np.empty((nc, ns), dtype=complex)
    u_k = np.ones((nc, ns, ns), dtype=complex)
    l_k = np.ones((nc, ns, ns), dtype=complex)
    worst = 1.0
    for m, h in enumerate(bloch_reduce(km, bloch_momenta(nc))):
        if ns == 1:
            eigenvalues[m] = h[0, 0]
            continue
        eigenvalues[m], u_k[m], l_k[m], cond = balanced_eig(
            h, (np.arange(ns)[::-1],))
        worst = max(worst, cond)
    return eigenvalues.ravel(), u_k, l_k, worst


BLOCH_RINGS = {**BLOCH_FAMILIES,
               **{f"a05-g{g}": (lambda g=g: build_guo_chain(256, 2, 1.0, g))
                  for g in (3.5, 4.5)}}


class TestBlochSystem:
    @pytest.mark.parametrize("name", sorted(BLOCH_RINGS))
    def test_one_stacked_solve_equals_the_per_block_solves(self, name):
        km = BLOCH_RINGS[name]()
        sys = bloch_system(km)
        eigenvalues, u_k, l_k, cond = _bloch_per_block(km)
        assert np.array_equal(sys.eigenvalues, eigenvalues)
        assert np.array_equal(sys.u_k, u_k)
        assert np.array_equal(sys.l_k, l_k)
        assert sys.condition_estimate == cond

    @pytest.mark.parametrize("km", [
        build_nh_ssh_real(6, 1.0, 0.5, 0.3, "periodic"),
        build_guo_chain(27, 3, 1.0, 0.8), build_uniform_chain(9)],
        ids=["nh-ssh", "guo-n3", "uniform"])
    def test_vectors_are_assembled_on_first_access(self, km):
        # the system keeps its blocks only; vectors gathers any rows and
        # states of the dense fill, and of nothing else
        sys = bloch_system(km)
        assert not hasattr(sys, "right") and not hasattr(sys, "left")
        # systems compare by identity, with no array read
        assert sys == sys and sys != bloch_system(km)
        right, left = _dense_bloch_fill(km)
        everything = np.arange(km.dim)
        R, L = sys.vectors(everything, everything)
        assert np.array_equal(R, right)
        assert np.array_equal(L, left)
        rng = np.random.default_rng(km.dim)
        rows, cols = rng.choice(km.dim, 5), rng.choice(km.dim, 7)
        R, L = sys.vectors(rows, cols)
        assert np.array_equal(R, right[np.ix_(rows, cols)])
        assert np.array_equal(L, left[np.ix_(rows, cols)])

    def test_vectors_take_slices_on_both_system_kinds(self):
        # a slice selects what the index array of its positions selects,
        # on the Bloch and the dense system of one ring
        km = build_nh_ssh_real(6, 1.0, 0.4, 0.3, "periodic")
        modes = np.arange(km.dim)
        for sys in (bloch_system(km), biorthogonal_eig(km)):
            assert sys.vectors(slice(None), [0, 1])[0].shape == (12, 2)
            for rows, cols in ((slice(None), [0, 1]), (modes, slice(2, 9, 3)),
                               (slice(1, None, 2), slice(None, 4))):
                R, L = sys.vectors(rows, cols)
                R0, L0 = sys.vectors(modes[rows], modes[cols])
                assert np.array_equal(R, R0) and np.array_equal(L, L0)

    def test_assembled_vectors_are_kernel_eigenvectors(self):
        km = build_nh_ssh_real(6, 1.0, 0.5, 0.3, "periodic")
        sys = bloch_system(km)
        R, L = sys.vectors(np.arange(km.dim), np.arange(km.dim))
        resid = km.entries @ R - R * sys.eigenvalues
        assert np.abs(resid).max() < 1e-10
        gram = L.conj().T @ R
        assert np.abs(gram - np.eye(km.dim)).max() < 1e-10
        assert np.abs(sys.reconstruction() - km.entries).max() < 1e-10

    def test_repr_and_petermann_factor_form_no_dense_array(self):
        # one dim x dim complex array at dim = 4098 is 256 MiB
        sys = bloch_system(build_uniform_chain(4098))
        tracemalloc.start()
        try:
            text = repr(sys)
            factor = petermann_factor(sys, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert text.startswith("BlochSystem(dim=4098, u_k=")
        # the plane waves k = 0 and 2 pi / N are orthogonal
        assert factor == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_ring_forms_no_dense_array(self):
        # one dim x dim complex array at dim = 2048 is 64 MiB; the solve of
        # a Hermitian ring stays below an eighth of one, also through the
        # route of ground_state_system
        km = build_uniform_chain(2048)
        for solve in (lambda: bloch_system(km),
                      lambda: ground_state_system(km, Fraction(1, 2))):
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20

    def test_momentum_labels(self):
        km = build_uniform_chain(8)
        sys = bloch_system(km)
        assert sys.momenta is not None
        assert sorted(set(np.round(sys.momenta, 12))) == pytest.approx(
            [2 * np.pi * m / 8 for m in range(8)])
        # eigenvalue at each momentum matches the dispersion -2 cos k
        for a in range(8):
            assert sys.eigenvalues[a] == pytest.approx(
                -2 * np.cos(sys.momenta[a]), abs=1e-12)


# one dense kernel per solver path, with the fields that mark the path
DENSE_PATHS = {
    "hermitian": lambda: build_nh_ssh_real(6, 1.0, 0.5, 0.0, "open"),
    "gauge-hermitian": lambda: build_hatano_nelson(12, 1.0, 0.5, "open"),
    "real": lambda: build_eb_ssh(6, 1.0, 0.5, 0.0, "open"),
    "pt": lambda: build_nh_ssh_real(6, 1.0, 0.4, 0.3, "open"),
    "complex": lambda: KernelMatrix(12, _random_complex(12, 5), "open"),
}


def _path_of(f):
    """The solver path that left the factors f."""
    if f.d is None:
        return "hermitian"
    if f.Vinv is None:
        return "gauge-hermitian"
    if f.mirror is not None:
        return "pt"
    return "real" if f.Vr.dtype == float else "complex"


def _index_sets(n):
    """(rows, cols) pairs: random, empty, repeated and unsorted."""
    rng = np.random.default_rng(n)
    return [(rng.choice(n, 5), rng.choice(n, 7)),
            ([], rng.choice(n, 3)), (rng.choice(n, 4), []), ([], []),
            ([3, 3, 0, 3], [1, 1, 1]), (np.arange(n)[::-1], [5, 0, 2]),
            (range(n), range(n))]


class TestDenseFactors:
    @pytest.mark.parametrize("path", sorted(DENSE_PATHS))
    def test_a_gather_is_the_full_formation(self, path):
        km = DENSE_PATHS[path]()
        sys = biorthogonal_eig(km)
        assert _path_of(sys.factors) == path
        # float64 exactly where V_r is real and no T maps it back; the
        # Hermitian kernel's entries are complex, and go to eigh as given
        real = path in ("gauge-hermitian", "real")
        assert sys.factors.dtype == (float if real else complex)
        everything = np.arange(km.dim)
        R_all, L_all = sys.vectors(everything, everything)
        assert R_all.dtype == L_all.dtype == sys.factors.dtype
        right, left = sys.factors.vectors(dtype=complex)
        assert right.dtype == left.dtype == np.dtype(complex)
        assert (left is right) is (path == "hermitian")
        for rows, cols in _index_sets(km.dim):
            R, L = sys.vectors(rows, cols)
            ix = np.ix_(np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))
            assert R.shape == L.shape == (len(rows), len(cols))
            assert R.dtype == L.dtype == sys.factors.dtype
            assert R.tobytes() == R_all[ix].tobytes()
            assert L.tobytes() == L_all[ix].tobytes()
            # the complex whole holds the same numbers, bit for bit where
            # the gather is complex too
            assert np.array_equal(R, right[ix])
            assert np.array_equal(L, left[ix])
            if not real:
                assert R.tobytes() == right[ix].tobytes()
                assert L.tobytes() == left[ix].tobytes()

    @pytest.mark.parametrize("path", sorted(DENSE_PATHS))
    def test_system_arrays_are_the_solvers(self, path):
        km = DENSE_PATHS[path]()
        sys = biorthogonal_eig(km)
        w, right, left, cond = balanced_eig(km.entries, _mirrors(km))
        assert sys.eigenvalues.tobytes() == w.tobytes()
        assert sys.condition_estimate == cond
        R, L = sys.factors.vectors(dtype=complex)
        for got, want in ((R, right), (L, left)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert (left is right) is (L is R)

    def test_real_factors_give_a_float64_cut(self):
        # real V_r rows give float64 R_A and L_A, and so a float64 C_A
        km = DENSE_PATHS["real"]()
        sys, sel = ground_state_system(km, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.half(km.dim))
        assert C.entries.dtype == np.dtype(float)
        R, L = (X[:km.dim // 2, sel.occupied]
                for X in sys.vectors(slice(None), slice(None)))
        assert np.abs(C.entries - R @ L.conj().T).max() < 1e-13

    def test_oracle_and_dynamics_form_only_their_columns(self, monkeypatch):
        # the ground column, the occupied columns, and no vectors at all
        widths = []
        vectors = _linalg.EigFactors.vectors

        def spy(self, rows=slice(None), cols=slice(None), dtype=None):
            R, L = vectors(self, rows, cols, dtype)
            widths.append(R.shape)
            return R, L
        monkeypatch.setattr(_linalg.EigFactors, "vectors", spy)
        K = build_nh_ssh_real(5, 1.0, 0.4, 0.3, "open")
        manybody_biortho_ground(K, 5)
        assert widths == [(252, 1)]
        widths.clear()
        hermitian_ground_state(K, 4)
        assert widths == [(10, 4)]
        widths.clear()
        G_R, G_L, _ = manybody_biortho_ground(build_hatano_nelson(6, 1.0,
                                                                  0.5, "open"),
                                              3)
        widths.clear()
        oracle_report(reduced_density(G_R, G_L, 6, 3))
        assert widths == []


def _mixed_blocks(n, seed=7):
    """One n x n kernel per solver path and arithmetic."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = X + X.conj().T
    d = np.exp(rng.uniform(-2.0, 2.0, size=n))
    hop = np.eye(n, k=1)
    chain = hop + hop.T
    gain = np.diag(np.arange(n) - (n - 1) / 2)  # odd under the reversal
    return {
        "hermitian": herm,
        # diagonally similar to a Hermitian matrix
        "gauge_hermitian_complex": (herm * d[:, None]) / d[None, :],
        "gauge_hermitian_real": (herm.real * d[:, None]) / d[None, :],
        # opposite hops of equal size: nothing to balance, complex spectrum
        "real_complex_spectrum": hop - hop.T + np.diag(
            0.1 * rng.normal(size=n)),
        # one-way hops: nothing to balance, a real spectrum
        "real_real_spectrum": hop + np.diag(np.arange(n)),
        # PT-symmetric gain and loss below and above the breaking point
        "pt_unbroken": chain + 0.1j * gain,
        "pt_broken": chain + 3j * gain,
        "general": rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
    }


def _per_block(stack, mirrors=()):
    """The 2-D solver on each block, outputs stacked."""
    fields = list(zip(*(balanced_eig(block, mirrors) for block in stack)))
    return [np.array(f) for f in fields]


def _refusal(A, mirrors=()):
    with pytest.raises(DefectiveError) as err:
        balanced_eig(A, mirrors)
    return str(err.value), err.value.condition_estimate, err.value.clusters


class TestStackedSolver:
    @pytest.mark.parametrize("n", [2, 4])
    def test_stack_equals_the_per_block_solves(self, monkeypatch, n):
        blocks = _mixed_blocks(n)
        mirrors = (np.arange(n)[::-1],)
        # each path's 2-D call: a float condition, and left is right on the
        # Hermitian path only
        for name, block in blocks.items():
            w, right, left, cond = balanced_eig(block, mirrors)
            assert type(cond) is float
            assert (left is right) == (name == "hermitian"), name
        calls = _solver_calls(monkeypatch)
        seen = []
        # every block twice, then three times, interleaved, so each path
        # group holds several blocks
        for copies in (2, 3):
            stack = np.array([blocks[name] for name in list(blocks) * copies])
            expected = _per_block(stack, mirrors)
            calls.clear()
            got = balanced_eig(stack, mirrors)
            seen.append([name for name, _ in calls])
            for field, e, g in zip(("eigenvalues", "right", "left", "cond"),
                                   expected, got):
                assert g.shape == e.shape and g.dtype == e.dtype, field
                assert g.tobytes() == e.tobytes(), field
        # however many blocks each group holds: eigh for the Hermitian ones;
        # per stack (real, PT, complex) eigh for its gauge-Hermitian blocks,
        # eig for the rest and an inverse per spectrum arithmetic
        assert seen[0] == seen[1] == [
            "eigh", "eigh", "eig", "inv", "inv", "eig", "inv", "inv", "eigh",
            "eig", "inv"]
        # a refusal: a Jordan block among the paths is refused with the
        # text, estimate and clusters of its own 2-D call
        jordan = 0.5 * np.eye(n) + np.eye(n, k=1)
        stack = np.array([*blocks.values(), jordan, *blocks.values()])
        alone = _refusal(jordan, mirrors)
        got = _refusal(stack, mirrors)
        assert got == (f"block {len(blocks)}: {alone[0]}", *alone[1:])
        assert alone[1] > _linalg.DEFECTIVE_COND and alone[2]
        # the balancing diagonal: each row of a stack's d is its matrix's
        # own, bit for bit, across distinct patterns and on 1 x 1 blocks
        rng = np.random.default_rng(n)
        masks = np.array([np.ones((64, 64)), np.eye(64, k=1) + np.eye(64, k=-1),
                          rng.random((64, 64)) < 0.3])
        for stack in (masks * np.exp(rng.normal(size=(3, 64, 64))),
                      np.arange(1.0, 5.0).reshape(4, 1, 1)):
            d = symmetrizing_diagonal(stack)
            assert d.shape == stack.shape[:-1]
            for row, block in zip(d, stack):
                assert row.tobytes() == symmetrizing_diagonal(block).tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_one_block_stack_is_its_kernel_solve(self, monkeypatch, n):
        # the same fields, bit for bit, from the same LAPACK calls: a
        # kernel is a stack of one, and a stack of one is handed to LAPACK
        # as its matrix
        mirrors = (np.arange(n)[::-1],)
        calls = _solver_calls(monkeypatch)
        for name, block in _mixed_blocks(n).items():
            calls.clear()
            alone = balanced_eig(block, mirrors)
            alone_calls = calls[:]
            calls.clear()
            got = balanced_eig(block[None], mirrors)
            assert calls == alone_calls, name
            assert type(alone[3]) is float
            for field, e, g in zip(("eigenvalues", "right", "left", "cond"),
                                   alone, got):
                e = np.asarray(e)
                assert g.shape == (1, *e.shape) and g.dtype == e.dtype, field
                assert g.tobytes() == e.tobytes(), field
            assert (got[2] is got[1]) == (name == "hermitian"), name
        bad = _mixed_blocks(n)["general"].copy()
        bad[0, 1] = np.inf
        for A in (0.5 * np.eye(n) + np.eye(n, k=1), bad):
            text, cond, clusters = _refusal(A, mirrors)
            assert not text.startswith("block")
            assert _refusal(A[None], mirrors) == (f"block 0: {text}", cond,
                                                  clusters)

    def test_a_hermitian_stack_returns_right_as_left(self):
        blocks = _mixed_blocks(2)
        stack = np.array([blocks["hermitian"], 2 * blocks["hermitian"]])
        w, right, left, cond = balanced_eig(stack)
        assert left is right
        assert np.array_equal(cond, np.ones(2))

    def test_one_by_one_blocks(self):
        stack = np.array([0.5, -1.0 + 0.25j, 2.0 - 0j, 1e-3j],
                         dtype=complex).reshape(4, 1, 1)
        got = balanced_eig(stack)
        for e, g in zip(_per_block(stack), got):
            assert np.array_equal(g, e)
        assert np.array_equal(got[0], stack[:, :, 0])

    def test_a_nilpotent_block_is_refused_with_its_own_report(self):
        nilpotent = np.array([[0.7j, -0.7], [-0.7, -0.7j]])
        blocks = _mixed_blocks(2)
        stack = np.array([blocks["general"], blocks["hermitian"], nilpotent,
                          blocks["pt_broken"]])
        mirrors = (np.array([1, 0]),)
        with pytest.raises(DefectiveError) as alone:
            balanced_eig(nilpotent, mirrors)
        with pytest.raises(DefectiveError) as err:
            balanced_eig(stack, mirrors)
        assert str(err.value).startswith("block 2: ")
        assert str(err.value) == "block 2: " + str(alone.value)
        assert err.value.condition_estimate == alone.value.condition_estimate
        assert err.value.condition_estimate > _linalg.DEFECTIVE_COND
        assert err.value.clusters == alone.value.clusters
        assert err.value.clusters

    def test_a_non_finite_block_is_refused_before_any_solve(self,
                                                           monkeypatch):
        blocks = _mixed_blocks(2)
        bad = blocks["general"].copy()
        bad[0, 1] = np.nan
        stack = np.array([blocks["hermitian"], blocks["general"], bad])
        calls = _solver_calls(monkeypatch)
        with pytest.raises(DefectiveError, match="^block 2: .*non-finite") \
                as err:
            balanced_eig(stack)
        assert err.value.condition_estimate == math.inf
        assert calls == []

    def test_bloch_system_lapack_calls_do_not_grow_with_the_ring(
            self, monkeypatch):
        calls = _solver_calls(monkeypatch)
        seen = []
        for n_cells in (64, 1024):
            calls.clear()
            bloch_system(build_guo_chain(2 * n_cells, 2, 1.0, 3.5))
            seen.append([name for name, _ in calls])
        assert seen[0] == seen[1]
        assert 0 < len(seen[0]) <= 6
