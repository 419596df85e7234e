import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from nhent import (CollapseError, CorrelationMatrix, GaussianState,
                   KernelMatrix, Partition, PartitionError, SizeError,
                   UnsupportedError,
                   build_measurement_heff, build_report,
                   build_uniform_chain, domain_wall_state, evolve_no_jump,
                   hermitian_ground_state, staggered_state)
from nhent import dynamics
from nhent.dynamics import _orthonormalize, _site_gauge
from nhent.entanglement import _stack_reports


def _expm_qr_entropies(K, M0, t_grid, n_A, substeps=10):
    """Entropies of the first ``n_A`` sites by expm with a QR after each of
    ``substeps`` equal substeps per interval, independent of nhent."""
    M, _ = np.linalg.qr(M0)
    out = []
    for i, t in enumerate(t_grid):
        if i:
            h = (t - t_grid[i - 1]) / substeps
            U = scipy.linalg.expm(-1j * h * K)
            for _ in range(substeps):
                M, _ = np.linalg.qr(U @ M)
        A = M[:n_A]
        e = np.linalg.eigvalsh(A @ A.conj().T)
        e = e[(e > 1e-12) & (e < 1 - 1e-12)]
        out.append(-np.sum(e * np.log(e) + (1 - e) * np.log(1 - e)))
    return np.array(out)


def _complex_loop_records(K, M0, t_grid, idx):
    """(C_A, S, trace residual) per output by a complex expm + QR loop with
    the substep rule of ``evolve_no_jump``, independent of its site frame."""
    mu = np.linalg.eigvalsh(0.5j * (K.conj().T - K))
    spread = mu[-1] - mu[0]
    max_step = np.log(1e6) / spread if spread > 1e-12 else np.inf
    M, _ = np.linalg.qr(M0)
    out = []
    for i, t in enumerate(t_grid):
        if i:
            n_sub = max(1, int(np.ceil((t - t_grid[i - 1]) / max_step)))
            h = (t - t_grid[i - 1]) / n_sub
            U = scipy.linalg.expm(-1j * h * K)
            for _ in range(n_sub):
                M, _ = np.linalg.qr(U @ M)
        A = M[idx]
        C = A @ A.conj().T
        e = np.linalg.eigvalsh(C)
        e = e[(e > 1e-12) & (e < 1 - 1e-12)]
        S = -np.sum(e * np.log(e) + (1 - e) * np.log(1 - e))
        out.append((C, S, abs(np.vdot(M, M).real - M.shape[1])))
    return out


def _open_chain(n):
    return build_uniform_chain(n, bc="open").entries


_MEASUREMENT = build_measurement_heff(64, 1.0, 0.5, "open")


class TestSiteGauge:
    @pytest.mark.parametrize("A", [
        -1j * build_measurement_heff(10, 1.0, 0.0, "open").entries,
        -1j * build_measurement_heff(10, 1.0, 0.5, "open").entries,
        -1j * build_measurement_heff(10, 1.0, 0.5, "periodic").entries,
        -1j * _open_chain(9),
        -1j * (_open_chain(9) - 0.4j * np.eye(9)),
    ], ids=["measurement-G0", "measurement-G0.5", "measurement-ring",
            "uniform", "uniform-decay"])
    def test_gauge_makes_the_generator_real(self, A):
        g = _site_gauge(A)
        assert g is not None
        assert set(g.tolist()) <= {1, 1j}
        assert not (g.conj()[:, None] * A * g).imag.any()

    @pytest.mark.parametrize("A", [
        -1j * build_uniform_chain(3).entries,
        -1j * (_open_chain(8) + np.diag(np.linspace(-1.0, 1.0, 8))),
        -1j * np.exp(0.3j) * _open_chain(6),
        np.array([[0.0, 1.0 + 0.5j], [1.0, 0.0]]),
    ], ids=["odd-ring", "real-potential", "phase-hopping", "both-parts"])
    def test_no_gauge(self, A):
        assert _site_gauge(A) is None

    @pytest.mark.parametrize("start", ["staggered", "domain_wall",
                                       "hermitian_ground"])
    def test_orbital_dtype_follows_the_frame(self, start, monkeypatch):
        # the six bench kernels with product starts run in float64, a
        # Hermitian ground-state start in complex128
        seen = []

        def spy(M, time):
            seen.append(M.dtype)
            return _orthonormalize(M, time)

        monkeypatch.setattr(dynamics, "_orthonormalize", spy)
        for L in (64, 128):
            for gamma in (0.0, 0.25, 0.5):
                K = build_measurement_heff(L, 1.0, gamma, "open")
                psi0 = (hermitian_ground_state(K, L // 2)
                        if start == "hermitian_ground"
                        else getattr(dynamics, f"{start}_state")(L))
                evolve_no_jump(K, psi0, [0.0, 1.0], Partition.half(L))
        dtype = np.complex128 if start == "hermitian_ground" else np.float64
        assert len(seen) >= 12 and set(seen) == {np.dtype(dtype)}

    @pytest.mark.parametrize("K, psi0", [
        *[(build_measurement_heff(64, 1.0, gamma, "open"), start(64))
          for start in (staggered_state, domain_wall_state)
          for gamma in (0.0, 0.5)],
        # no site frame: the identity frame, in complex128
        (KernelMatrix(64, _open_chain(64) + np.diag(np.cos(np.arange(64.0))),
                      "open"), domain_wall_state(64)),
        # a site frame, but a complex start in it: the identity frame too
        (_MEASUREMENT, hermitian_ground_state(_MEASUREMENT, 32)),
    ], ids=["staggered_state-0.0", "staggered_state-0.5",
            "domain_wall_state-0.0", "domain_wall_state-0.5",
            "uniform-onsite", "hermitian_ground_state-0.5"])
    def test_real_frame_matches_complex_loop(self, K, psi0):
        L = K.dim
        t_grid = np.linspace(0.0, 20.0, 41)
        part = Partition.half(L)
        records = evolve_no_jump(K, psi0, t_grid, part)
        ref = _complex_loop_records(K.entries, psi0.orbitals, t_grid,
                                    np.asarray(part.indices))
        for (_, C, rep), (C_ref, S_ref, res_ref) in zip(records, ref):
            assert np.abs(C.entries - C_ref).max() < 1e-12
            assert abs(rep.entropy_vn - S_ref) < 1e-12
            assert abs(C.source[2] - res_ref) < 1e-12


class TestStates:
    def test_domain_wall(self):
        psi = domain_wall_state(6)
        C = psi.correlation()
        assert np.allclose(np.diag(C), [1, 1, 1, 0, 0, 0], atol=1e-14)

    def test_staggered(self):
        psi = staggered_state(6)
        C = psi.correlation()
        assert np.allclose(np.diag(C), [1, 0, 1, 0, 1, 0], atol=1e-14)

    def test_hermitian_ground_orthonormal(self):
        K = build_measurement_heff(8, 1.0, 0.7, "open")
        psi = hermitian_ground_state(K, 4)
        overlap = psi.orbitals.conj().T @ psi.orbitals
        assert np.abs(overlap - np.eye(4)).max() < 1e-12


class TestEvolveNoJump:
    def test_hermitian_evolution_matches_unitary_reference(self):
        K = build_uniform_chain(16, bc="open")
        psi0 = domain_wall_state(16)
        t_grid = np.linspace(0.0, 6.0, 7)
        part = Partition.half(16)
        records = evolve_no_jump(K, psi0, t_grid, part)
        w, V = np.linalg.eigh(K.entries)
        C0 = psi0.correlation()
        for t, C, report in records:
            U = (V * np.exp(-1j * w * t)) @ V.conj().T
            C_ref = (U @ C0 @ U.conj().T)[:8, :8]
            assert np.abs(C.entries - C_ref).max() < 1e-8

    def test_uniform_decay_cancels_under_normalization(self):
        K = build_uniform_chain(10, bc="open")
        K_dec = KernelMatrix(10, K.entries - 0.4j * np.eye(10), "open")
        psi0 = staggered_state(10)
        t_grid = np.linspace(0.0, 4.0, 5)
        part = Partition.half(10)
        a = evolve_no_jump(K, psi0, t_grid, part)
        b = evolve_no_jump(K_dec, psi0, t_grid, part)
        for (_, Ca, _), (_, Cb, _) in zip(a, b):
            assert np.abs(Ca.entries - Cb.entries).max() < 1e-9

    def test_purity_and_particle_number(self):
        K = build_measurement_heff(12, 1.0, 0.6, "open")
        psi0 = staggered_state(12)
        t_grid = np.linspace(0.0, 12.0, 7)
        part = Partition("position", tuple(range(12)), 12)
        for t, C, report in evolve_no_jump(K, psi0, t_grid, part):
            M = C.entries
            # trace norm of C^2 - C (purity) and exact particle number
            sv = np.linalg.svd(M @ M - M, compute_uv=False)
            assert sv.sum() < 1e-9
            assert abs(np.trace(M).real - 6) < 1e-9
            assert C.source[2] < 1e-9  # stored full-trace residual

    def test_rank_collapse_detected(self):
        M = np.zeros((6, 2), dtype=complex)
        M[0, 0] = 1.0
        M[0, 1] = 1.0  # linearly dependent columns
        with pytest.raises(CollapseError):
            evolve_no_jump(build_uniform_chain(6, bc="open"),
                           GaussianState(M), [0.0], Partition.half(6))
        # the uniform chain runs in its real site frame; a real on-site
        # potential leaves it none, so the same start is complex
        K = build_uniform_chain(6, bc="open")
        K = KernelMatrix(6, K.entries + np.diag(np.arange(6.0)), "open")
        with pytest.raises(CollapseError):
            evolve_no_jump(K, GaussianState(M), [0.0], Partition.half(6))

    @pytest.mark.parametrize("shape", [(64, 32), (128, 64), (256, 128)])
    def test_orthonormalize_matches_numpy_qr(self, shape):
        rng = np.random.default_rng(shape[1])
        M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(_orthonormalize(M, 0.0), np.linalg.qr(M)[0])

    def test_orthonormalize_uses_the_queried_workspace(self):
        # zgeqrf runs its blocked code only above 128 columns, and only with
        # the queried workspace, not the wrapper's default of 3n.  The
        # reference is SciPy's qr, which queries the workspace of the same
        # LAPACK: numpy bundles another OpenBLAS build, whose blocked code
        # can round otherwise when BLAS runs on several threads
        rng = np.random.default_rng(129)
        M = rng.normal(size=(258, 129)) + 1j * rng.normal(size=(258, 129))
        assert np.array_equal(_orthonormalize(M, 0.0),
                              scipy.linalg.qr(M, mode="economic")[0])

    def test_orthonormalize_keeps_a_nearly_dependent_column(self):
        # smallest |R_ii| just above 1e-12 of the largest: no collapse, in
        # complex and in real arithmetic
        rng = np.random.default_rng(7)
        for dtype in (complex, float):
            Q = np.linalg.qr(rng.normal(size=(12, 4)).astype(dtype))[0]
            M = Q * np.array([1.0, 1.0, 1.0, 1.01e-12])
            r = np.abs(np.diag(np.linalg.qr(M)[1]))
            assert 1e-12 < r.min() / r.max() < 1.02e-12
            Q2 = _orthonormalize(M, 0.0)
            assert Q2.dtype == dtype
            assert np.abs(Q2.conj().T @ Q2 - np.eye(4)).max() < 1e-12
            with pytest.raises(CollapseError):
                _orthonormalize(Q * np.array([1.0, 1.0, 1.0, 0.99e-12]), 0.0)

    def test_more_orbitals_than_modes_collapse(self):
        # a thin QR would keep only the first two of the three orbitals
        M = np.random.default_rng(2).normal(size=(2, 3))
        for dtype in (complex, float):
            with pytest.raises(CollapseError):
                _orthonormalize(M.astype(dtype), 0.0)

    @pytest.mark.parametrize("shape", [(64, 32), (258, 129)])
    def test_real_orthonormalize_matches_scipy_qr(self, shape):
        # dgeqrf/dorgqr; above 128 columns the blocked code, which runs
        # only with the queried workspace
        M = np.random.default_rng(shape[1]).normal(size=shape)
        Q = _orthonormalize(M, 0.0)
        assert Q.dtype == np.float64
        assert np.array_equal(Q, scipy.linalg.qr(M, mode="economic")[0])

    def test_time_grid_validation(self):
        K = build_uniform_chain(6, bc="open")
        psi = domain_wall_state(6)
        with pytest.raises(ValueError):
            evolve_no_jump(K, psi, [0.0, 0.0], Partition.half(6))
        with pytest.raises(ValueError):
            evolve_no_jump(K, psi, [-1.0, 1.0], Partition.half(6))
        # a NaN would make every later step NaN, and so propagate nothing
        for grid in ([0.0, np.nan, 2.0], [0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                evolve_no_jump(K, psi, grid, Partition.half(6))

    def test_sizes_must_match_the_kernel(self):
        K = build_uniform_chain(4, bc="open")
        with pytest.raises(SizeError):
            evolve_no_jump(K, staggered_state(6), [0.0], Partition.half(4))
        # the first half of 8 sites would be all 4 sites of the kernel
        with pytest.raises(PartitionError):
            evolve_no_jump(K, staggered_state(4), [0.0], Partition.half(8))

    def test_momentum_partition_refused_before_propagating(self,
                                                           monkeypatch):
        # the orbitals are cut by position rows; a momentum partition would
        # get the position block under its label
        def step(M, time):
            raise AssertionError("propagated before refusing the partition")

        monkeypatch.setattr(dynamics, "_orthonormalize", step)
        K = build_measurement_heff(8, 1.0, 0.5, "open")
        with pytest.raises(UnsupportedError, match="momentum"):
            evolve_no_jump(K, staggered_state(8), [0.0, 1.0],
                           Partition.half(8, "momentum"))

    @pytest.mark.parametrize("psi0", [staggered_state(8), GaussianState(
        staggered_state(8).orbitals * np.exp(0.3j))], ids=["float64",
                                                            "complex128"])
    def test_empty_and_one_point_grids(self, psi0):
        K = build_measurement_heff(8, 1.0, 0.5, "open")
        part = Partition.half(8)
        assert evolve_no_jump(K, psi0, [], part) == []
        for grid in ([0.0, 1.5], [0.0, 0.75, 1.5]):
            [one] = evolve_no_jump(K, psi0, grid[-1:], part)
            last = evolve_no_jump(K, psi0, grid, part)[-1]
            if len(grid) == 2:
                # the same single interval, so the same record bit for bit
                assert one[0] == last[0] == 1.5
                assert np.array_equal(one[1].entries, last[1].entries)
                assert one[1].source == last[1].source
                assert one[2].entropy_vn == last[2].entropy_vn
                assert one[2].entropy_renyi == last[2].entropy_renyi
            else:
                assert abs(one[2].entropy_vn - last[2].entropy_vn) < 1e-12
        [start] = evolve_no_jump(K, psi0, [0.0], part)
        assert start[2].entropy_vn == 0j  # a product state

    def test_records_equal_reports_of_each_block_alone(self, monkeypatch):
        # one report pass over the spectra of all output times gives each
        # record the report of its own block
        stacks = []

        def spy(partitions, eps, *args):
            stacks.append(eps)
            return _stack_reports(partitions, eps, *args)

        monkeypatch.setattr(dynamics, "_stack_reports", spy)
        K = build_measurement_heff(16, 1.0, 0.5, "open")
        part = Partition.contiguous(2, 9, 16)
        records = evolve_no_jump(K, staggered_state(16),
                                 np.linspace(0.0, 6.0, 13), part,
                                 renyi_orders=(2, 3))
        [stack] = stacks
        assert len(stack) == len(records) == 13
        blocks = [C._frame[1] for _, C, _ in records]
        assert {C_g.dtype for C_g in blocks} == {np.dtype(float)}
        for (_, _, rep), C_g in zip(records, blocks):
            alone = build_report(CorrelationMatrix(part, C_g),
                                 renyi_orders=(2, 3))
            for field in ("correlation_eigenvalues", "clamped_modes",
                          "single_particle_spectrum", "midgap_modes"):
                assert np.array_equal(getattr(rep, field),
                                      getattr(alone, field))
            assert rep.entropy_vn == alone.entropy_vn
            assert rep.entropy_renyi == alone.entropy_renyi
            assert rep.entropy_modified == alone.entropy_modified

    @pytest.mark.parametrize("psi0", [staggered_state(8), GaussianState(
        staggered_state(8).orbitals * np.exp(0.3j))], ids=["float64",
                                                            "complex128"])
    def test_record_forms_its_entries_once_on_first_read(self, psi0):
        K = build_measurement_heff(8, 1.0, 0.5, "open")
        for _, C, _ in evolve_no_jump(K, psi0, [0.0, 1.0, 2.5],
                                      Partition.contiguous(1, 6, 8)):
            g_A, C_g = C._frame
            expected = g_A[:, None] * C_g * g_A.conj()
            block = weakref.ref(C_g)
            del C_g
            entries = C.entries
            assert entries.dtype == expected.dtype
            assert entries.tobytes() == expected.tobytes()
            assert C.entries is entries
            # the record no longer holds its frame block
            assert block() is None

    def test_long_run_holds_only_the_frame_blocks(self):
        # the bench's L = 128 measurement chain over 81 output times; the
        # 81 float64 64 x 64 blocks are 2.65 MB
        K = build_measurement_heff(128, 1.0, 0.25, "open")
        psi0, part = staggered_state(128), Partition.half(128)
        evolve_no_jump(K, psi0, [0.0, 0.25], part)  # lazy imports, caches
        tracemalloc.start()
        try:
            records = evolve_no_jump(K, psi0, np.linspace(0.0, 20.0, 81),
                                     part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 81
        assert peak < 4.5 * 2 ** 20

    def test_time_grid_starts_at_state_time(self):
        K = build_measurement_heff(8, 1.0, 0.5, "open")
        psi = staggered_state(8)
        later = GaussianState(psi.orbitals, time=5.0)
        part = Partition.half(8)
        # earlier labels would name un-evolved states
        with pytest.raises(ValueError):
            evolve_no_jump(K, later, [0.0, 1.0], part)
        a = evolve_no_jump(K, psi, [0.0, 1.0], part)
        b = evolve_no_jump(K, later, [5.0, 6.0], part)
        assert [t for t, _, _ in b] == [5.0, 6.0]
        for (_, Ca, _), (_, Cb, _) in zip(a, b):
            assert np.abs(Ca.entries - Cb.entries).max() < 1e-12

    def test_monitored_chain_matches_expm_qr_reference(self):
        # graded open chain: an eigenvector propagator V e^{-iwt} V^-1
        # loses the small entries here
        L = 64
        K = build_measurement_heff(L, 1.0, 0.5, "open")
        psi0 = staggered_state(L)
        t_grid = np.linspace(0.0, 20.0, 81)
        records = evolve_no_jump(K, psi0, t_grid, Partition.half(L))
        S = np.array([rep.entropy_vn.real for _, _, rep in records])
        S_ref = _expm_qr_entropies(K.entries, psi0.orbitals, t_grid, L // 2)
        assert np.abs(S - S_ref).max() < 1e-8

    def test_one_long_step_matches_fine_grid(self):
        # the substep count must follow the log-norm spread (0.5 here), not
        # the much smaller spread of Im spec K, or the orbitals collapse
        L = 32
        K = build_measurement_heff(L, 1.0, 0.5, "open")
        psi0 = staggered_state(L)
        part = Partition.half(L)
        last = evolve_no_jump(K, psi0, [0.0, 400.0], part)[-1][2]
        fine = evolve_no_jump(K, psi0, np.linspace(0.0, 400.0, 41), part)
        assert abs(last.entropy_vn - fine[-1][2].entropy_vn) < 1e-6

    def test_skin_effect_suppresses_growth(self):
        # small version of the monitored-chain comparison
        L = 24
        part = Partition.half(L)
        psi = staggered_state(L)
        ts = [2.0, 4.0, 6.0, 8.0]
        free = evolve_no_jump(build_measurement_heff(L, 1.0, 0.0, "open"),
                              psi, ts, part)
        damp = evolve_no_jump(build_measurement_heff(L, 1.0, 0.5, "open"),
                              psi, ts, part)
        for (_, _, rf), (_, _, rd) in zip(free, damp):
            assert rd.entropy_vn.real < rf.entropy_vn.real
