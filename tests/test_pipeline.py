import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nhent import (BiorthogonalSystem, BlochSystem, DefectiveError,
                   DegeneracyWarning, KernelMatrix, Partition,
                   PartitionError, bloch_system, build_eb_ssh,
                   build_guo_chain, build_hatano_nelson, build_nh_ssh_real,
                   build_quasicrystal,
                   build_uniform_chain, correlation_matrix, entropy_series,
                   ground_state_system,
                   report_for_partition, select_occupied, vn_entropy)
from nhent import models, pipeline
from nhent._linalg import eigenvalues
from fourier import momentum_transform
from test_corr import sublattice_major
from test_models import (DENSE_PERIODIC_CHAINS, NOT_TRANSLATION_INVARIANT,
                         PERIODIC_CHAINS, _dense_copy)

HALF = Fraction(1, 2)


def _uniform_ring():
    return ground_state_system(build_uniform_chain(128, 1.0, "periodic"), HALF)


def _guo_bloch():
    sys = bloch_system(build_guo_chain(256, 2, 1.0, 3.5, "periodic"))
    return sys, select_occupied(sys, HALF)


def _hatano_nelson(n):
    return lambda: ground_state_system(build_hatano_nelson(n, 1.0, 0.5, "open"),
                                       HALF)


def _eb_ssh():
    return ground_state_system(build_eb_ssh(24, 1.0, 0.5, 1e-3, "open"), HALF)


def _random_kernel():
    # no reflection symmetry, so S(L_A) != S(n - L_A) on the leading blocks
    rng = np.random.default_rng(11)
    H0 = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    G = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    A = 0.5 * (H0 + H0.conj().T) + 0.35 * G
    return ground_state_system(KernelMatrix(25, A, "open"), HALF)


SYSTEMS = {
    "uniform-ring-128": _uniform_ring,
    "hatano-nelson-open-64": _hatano_nelson(64),
    "hatano-nelson-open-63": _hatano_nelson(63),
    "eb-ssh-open-48": _eb_ssh,
    "random-nonhermitian-25": _random_kernel,
}


def _leading_block_entropy(sys, sel, la):
    part = Partition.contiguous(0, la, sys.dim)
    return vn_entropy(np.linalg.eigvals(correlation_matrix(sys, sel, part).entries))


class TestEntropySeries:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_every_cut_matches_leading_block(self, name):
        sys, sel = SYSTEMS[name]()
        n = sys.dim
        series = entropy_series(sys, sel)
        sizes = [la for la, _ in series.points]
        assert sizes == list(range(1, n))
        for la, s in series.points:
            assert abs(s - _leading_block_entropy(sys, sel, la)) < 1e-10, la

    def test_bloch_guo_chain_cuts_match_leading_block(self):
        # the A05 cuts, the two middle ones and the two past n/2 where the
        # 235- and 237-site leading blocks built from assembled eigenvectors
        # lost 4.5e-10 and 1.2e-10: eigenvalues near 0 or 1 (~1e-11, just
        # above the clamp) carried absolute errors of that size, and
        # eps ln eps amplifies them by ~25; the block-Toeplitz blocks keep
        # every cut within ~2e-11
        sys, sel = _guo_bloch()
        sizes = sorted({*range(4, 253, 4), 128, 129, 235, 237})
        series = entropy_series(sys, sel, sizes=sizes)
        for la, s in series.points:
            assert abs(s - _leading_block_entropy(sys, sel, la)) < 1e-10, la

    def test_bloch_series_solves_each_distinct_block_once(self, monkeypatch):
        # a complement [L_A, n) that starts on a cell boundary is a translate
        # of the leading block of size n - L_A: the 63 A05 sizes are 32
        # distinct blocks
        sys, sel = _guo_bloch()
        calls = []
        monkeypatch.setattr(pipeline, "eigenvalues",
                            lambda A: calls.append(len(A)) or eigenvalues(A))
        series = entropy_series(sys, sel, sizes=range(4, 253, 4))
        assert len(series.points) == 63
        assert sorted(calls) == list(range(4, 129, 4))

    def test_bloch_cell_aligned_cuts_are_symmetric(self):
        sys, sel = _guo_bloch()
        S = dict(entropy_series(sys, sel, sizes=range(2, 255, 2)).points)
        assert all(S[la] == S[256 - la] for la in S)

    def test_bloch_series_allocates_no_dense_eigenvectors(self):
        # a dim x dim complex array at dim = 2048 is 64 MiB; the whole run
        # stays below a sixteenth of one
        km = build_guo_chain(2048, 2, 1.0, 3.5, "periodic")
        tracemalloc.start()
        try:
            sys = bloch_system(km)
            entropy_series(sys, select_occupied(sys, HALF), sizes=(64, 128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2048 ** 2 / 16

    def test_size_zero_raises_partition_error(self):
        sys, sel = _hatano_nelson(64)()
        with pytest.raises(PartitionError):
            entropy_series(sys, sel, sizes=[0, 4])

    def test_size_n_raises_value_error(self):
        sys, sel = _hatano_nelson(64)()
        with pytest.raises(ValueError) as info:
            entropy_series(sys, sel, sizes=[4, 64])
        assert not isinstance(info.value, PartitionError)


class TestEigenvalues:
    def test_hermitian_input_gives_real_sorted_spectrum(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        H = X + X.conj().T
        w = eigenvalues(H)
        assert w.dtype == complex
        assert np.all(w.imag == 0.0)
        assert np.all(np.diff(w.real) >= 0)
        ref = np.sort(np.linalg.eigvals(H).real)
        assert np.abs(w.real - ref).max() < 1e-12

    def test_real_valued_complex_input_runs_in_real_arithmetic(self,
                                                               monkeypatch):
        A = np.random.default_rng(9).normal(size=(40, 40)).astype(complex)
        seen = []
        eigvals = np.linalg.eigvals

        def counted(B):
            seen.append(B.dtype)
            return eigvals(B)
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        w = eigenvalues(A)
        assert seen == [np.dtype(float)]
        assert w.dtype == complex
        assert np.array_equal(w, eigvals(A.real).astype(complex))

    def test_non_hermitian_input_equals_eigvals(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        assert np.array_equal(eigenvalues(A), np.linalg.eigvals(A))


def _dense_solves(monkeypatch):
    """Record the matrix order of every np.linalg eig/eigh call."""
    orders = []
    for name in ("eig", "eigh"):
        def counted(A, *args, _f=getattr(np.linalg, name), **kwargs):
            orders.append(A.shape[-1])
            return _f(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return orders


ROUTED_TO_BLOCH = {
    "uniform": lambda: build_uniform_chain(64),
    "nh_ssh": lambda: build_nh_ssh_real(16, 1.0, 0.4, 0.3, "periodic"),
    "guo": lambda: build_guo_chain(32, 2, 1.0, 0.4),
    "hatano_nelson": lambda: build_hatano_nelson(20, 1.0, 0.5, "periodic"),
}

ROUTED_DENSE = {
    **NOT_TRANSLATION_INVARIANT,
    "open_chain": lambda: build_nh_ssh_real(16, 1.0, 0.4, 0.3, "open"),
    "momentum_view": lambda: momentum_transform(build_uniform_chain(16)),
}


# (kernel given by its dense entries, the block ring it equals, a filling
# with no Fermi-level tie): a copy and the sublattice-major relabelling of
# each block ring of PERIODIC_CHAINS at six cells, and the V = 0
# quasicrystal, whose potential's signed zeros keep it dense.  The eb_ssh
# ring is left out: it sits on its exceptional point at k = 0.
DENSE_TWINS = {
    **{f"{family}-{kind}": (lambda build=build, relabel=relabel:
                            (relabel(build(6)), build(6), HALF))
       for family, build in PERIODIC_CHAINS.items()
       if family not in DENSE_PERIODIC_CHAINS | {"eb_ssh"}
       for kind, relabel in (("dense-copy", _dense_copy),
                             ("sublattice-major", sublattice_major))},
    "quasicrystal-V0": lambda: (
        build_quasicrystal(13, 0.3, 1.1, 0.0, "8/13"),
        models._cell_chain(np.zeros((13, 1, 1)), 1.1, 0.3, "periodic"),
        Fraction(6, 13)),
}


class TestRoute:
    @pytest.mark.parametrize("name", sorted(ROUTED_TO_BLOCH))
    def test_a_translation_invariant_ring_is_solved_by_blocks(
            self, monkeypatch, name):
        km = ROUTED_TO_BLOCH[name]()
        orders = _dense_solves(monkeypatch)
        sys, sel = ground_state_system(km, HALF)
        assert isinstance(sys, BlochSystem)
        assert km.dim not in orders and all(n <= 2 for n in orders)
        expected = bloch_system(km)
        assert np.array_equal(sys.eigenvalues, expected.eigenvalues)
        assert np.array_equal(sys.u_k, expected.u_k)
        assert np.array_equal(sel.occupied,
                              select_occupied(expected, HALF).occupied)

    @pytest.mark.parametrize("name", sorted(ROUTED_DENSE))
    def test_any_other_kernel_is_solved_dense(self, monkeypatch, name):
        km = ROUTED_DENSE[name]()
        orders = _dense_solves(monkeypatch)
        sys, _ = ground_state_system(km, HALF)
        assert not isinstance(sys, BlochSystem)
        assert km.dim in orders

    @pytest.mark.parametrize("km", [
        build_nh_ssh_real(16, 1.0, 0.4, 0.3, "periodic"),
        build_nh_ssh_real(16, 1.0, 0.5, 0.0, "periodic"),
        build_guo_chain(32, 2, 1.0, 0.4)],
        ids=["nh_ssh", "hermitian_ssh", "guo"])
    def test_both_routes_give_one_half_cut_entropy(self, km):
        dense = pipeline.biorthogonal_eig(km)
        half = Partition.half(km.dim)
        s_dense = report_for_partition(
            dense, select_occupied(dense, HALF), half).entropy_vn
        s_bloch = report_for_partition(
            *ground_state_system(km, HALF), half).entropy_vn
        assert abs(s_bloch - s_dense) < 1e-12

    @pytest.mark.parametrize("name", sorted(DENSE_TWINS))
    def test_a_ring_given_densely_is_solved_dense_at_the_block_entropy(
            self, name):
        dense, ring, filling = DENSE_TWINS[name]()
        # the dense kernel's mode at each cell-major site of the block ring
        modes = dense.cell_sites.ravel()
        assert np.array_equal(dense.entries[np.ix_(modes, modes)],
                              ring.entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneracyWarning)
            sys, sel = ground_state_system(dense, filling)
            ref = ground_state_system(ring, filling)
        assert type(sys) is BiorthogonalSystem
        assert isinstance(ref[0], BlochSystem)
        half = Partition.half(ring.dim)
        cut = Partition("position", modes[list(half.indices)], dense.dim)
        s = report_for_partition(sys, sel, cut).entropy_vn
        assert abs(s - report_for_partition(*ref, half).entropy_vn) < 1e-12

    def test_an_exceptional_ring_is_refused(self):
        # for nu != w the k = 0 block of the eb_ssh ring is an exact
        # nilpotent: the dense solve of the whole ring took it at s ~ 5e7
        with pytest.raises(DefectiveError, match="^block 0: "):
            ground_state_system(build_eb_ssh(24, 1.0, 0.5, 0.3), HALF)


# Jin & Korepin, J. Stat. Phys. 116, 79 (2004): a half-filled uniform ring
# of L sites has S(l) = (1/3) ln(2 l_c) + JK_UPSILON up to an l^-2
# correction, with the chord length l_c = (L / pi) sin(pi l / L)
JK_UPSILON = 0.4950179
# the whole run of a large ring, build to series, in bytes: a dense kernel
# of either ring below would be 64 GiB
LARGE_RING_PEAK = 64 * 2 ** 20


def _large_ring_series(build):
    """S(l) at l = 16, 64, 256 of a ring by the library route, and the
    tracemalloc peak of the build, the solve and the series."""
    tracemalloc.start()
    try:
        sys, sel = ground_state_system(build(), HALF)
        series = entropy_series(sys, sel, sizes=(16, 64, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(sys, BlochSystem)
    return dict(series.points), peak


class TestLargeRings:
    def test_uniform_ring_meets_jin_korepin(self):
        # L = 2 (mod 4): no Fermi-level tie at half filling
        L = 65538
        S, peak = _large_ring_series(lambda: build_uniform_chain(L))
        assert peak <= LARGE_RING_PEAK
        for la, s in S.items():
            chord = L / np.pi * np.sin(np.pi * la / L)
            assert s.imag == 0.0
            assert abs(s.real - np.log(2 * chord) / 3 - JK_UPSILON) \
                <= 0.03 / la ** 2

    def test_nh_ssh_ring_matches_a_dense_solve_of_a_small_ring(self):
        # gapped and PT-unbroken: a cut well inside a 128-cell ring, solved
        # dense, has the entropy of the same cut of the large ring
        S, peak = _large_ring_series(
            lambda: build_nh_ssh_real(32769, 1.0, 0.4, 0.3, "periodic"))
        assert peak <= LARGE_RING_PEAK
        small = pipeline.biorthogonal_eig(
            build_nh_ssh_real(128, 1.0, 0.4, 0.3, "periodic"))
        ref = dict(entropy_series(small, select_occupied(small, HALF),
                                  sizes=(16, 64)).points)
        for la in (16, 64):
            assert abs(S[la] - ref[la]) <= 1e-11
        assert abs(S[256] - S[64]) <= 1e-11


# the open 248-cell eb_ssh ladder (496 sites, the A06 bench size): one
# dim x dim complex array is 3.75 MiB; a system that keeps the complex
# right and left matrices holds two of them, and one that keeps its
# balanced-frame factors (real on this PT-symmetric kernel) holds half that
LADDER_PEAK = 12 * 2 ** 20
LADDER_HELD = 7 * 2 ** 20


def test_dense_half_cut_holds_only_the_solver_factors():
    K = build_eb_ssh(248, 1.0, 0.5, 4.0, "open")
    K.entries  # assembled outside the trace
    tracemalloc.start()
    try:
        sys, sel = ground_state_system(K, HALF)
        C = correlation_matrix(sys, sel, Partition.half(K.dim))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not isinstance(sys, BlochSystem)
    assert C.entries.shape == (248, 248)
    assert peak < LADDER_PEAK
    assert held < LADDER_HELD
