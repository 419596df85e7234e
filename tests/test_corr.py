from fractions import Fraction

import numpy as np
import pytest

from nhent import (KernelMatrix, Partition, PartitionError, UnsupportedError,
                   biorthogonal_eig, bloch_momenta, bloch_reduce, bloch_system,
                   build_eb_ssh, build_guo_2d, build_guo_chain,
                   build_hatano_nelson, build_measurement_heff,
                   build_nh_ssh_bloch, build_nh_ssh_real, build_quasicrystal,
                   build_report, build_uniform_chain, check_duality,
                   correlation_matrices, correlation_matrix,
                   entropy_series, momentum_transform, projector,
                   select_occupied, vn_entropy)
from nhent.correlations import sorted_by_re_im


class TestPartition:
    def test_invalid_space(self):
        with pytest.raises(PartitionError):
            Partition("fourier", (0, 1), 4)

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            Partition("position", (), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionError):
            Partition("position", (0, 5), 4)

    def test_complement(self):
        part = Partition.contiguous(1, 3, 5)
        assert part.complement().indices == (0, 3, 4)

    def test_complement_of_large_half(self):
        assert Partition.half(4096).complement() == \
            Partition.contiguous(2048, 4096, 4096)

    def test_full_set_allowed_for_trace_checks(self):
        part = Partition("position", tuple(range(4)), 4)
        assert part.size == 4


class TestCorrelationMatrix:
    def test_single_localized_occupied_mode(self):
        km = KernelMatrix(3, np.diag([-1.0, 0.0, 1.0]), "open")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 3))
        C = correlation_matrix(sys, sel, Partition("position", (0,), 3))
        assert np.allclose(C.entries, [[1.0]], atol=1e-14)

    def test_full_system_is_idempotent_projector(self):
        km = build_nh_ssh_real(4, 1.0, 0.5, 0.3, "periodic")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel,
                               Partition("position", tuple(range(8)), 8))
        assert np.abs(C.entries @ C.entries - C.entries).max() < 1e-10
        assert np.trace(C.entries) == pytest.approx(4.0, abs=1e-10)

    def test_half_filled_ring_matches_plane_wave_sum(self):
        # momentum-resolved construction fixes the degenerate zero modes to
        # plane waves; the occupied sea is the consecutive pair k = 0, pi/2
        km = build_uniform_chain(4)
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.contiguous(0, 2, 4))
        assert C.entries[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert C.entries[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert C.entries[0, 1] == pytest.approx((1 - 1j) / 4, abs=1e-12)
        assert C.entries[1, 0] == pytest.approx((1 + 1j) / 4, abs=1e-12)

    @pytest.mark.parametrize("n_cells, gamma0, dtype", [
        (40, 0.0, np.float64), (72, 0.0, np.float64),
        (40, 0.3, np.complex128)])
    def test_real_spectrum_gives_a_real_matrix(self, n_cells, gamma0, dtype):
        # at gamma0 = 0 the kernel is real with a real spectrum, so C has an
        # imaginary part of exactly zero and is stored as float64; its
        # negative real eigenvalues carry no rounding-signed imaginary part,
        # and every route to the entropy takes the same logarithm branch
        km = build_eb_ssh(n_cells, 1.0, 0.5, gamma0, "open")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.half(km.dim))
        assert C.entries.dtype == dtype
        s = vn_entropy(np.linalg.eigvals(C.entries))
        assert s == build_report(C).entropy_vn

    def test_hermitian_limit_spectrum_in_unit_interval(self):
        km = build_uniform_chain(8)
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.half(8))
        ev = np.linalg.eigvalsh(C.entries)
        assert ev.min() > -1e-10 and ev.max() < 1 + 1e-10

    def test_matches_projector_block(self):
        km = build_nh_ssh_real(6, 1.0, 0.4, 0.3, "periodic")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        P = projector(sys, sel)
        part = Partition.contiguous(2, 8, 12)
        C = correlation_matrix(sys, sel, part)
        idx = np.asarray(part.indices)
        assert np.abs(C.entries - P[np.ix_(idx, idx)]).max() < 1e-12

    def test_trace_counts_occupied_modes(self):
        km = build_quasicrystal(8, 0.4, 1.0, 0.6, Fraction(3, 8))
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel,
                               Partition("position", tuple(range(8)), 8))
        assert abs(np.trace(C.entries) - 4) < 1e-10

    def test_complement_sum_rule_half_filling(self):
        # particle-hole symmetric chain: complement spectrum is 1 - spectrum
        km = build_uniform_chain(8)
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        part = Partition.half(8)
        ca = correlation_matrix(sys, sel, part).entries
        cb = correlation_matrix(sys, sel, part.complement()).entries
        ev_a = np.sort(np.linalg.eigvalsh(ca))
        ev_b = np.sort(np.linalg.eigvalsh(cb))
        assert np.abs(ev_a - np.sort(1 - ev_b)).max() < 1e-10


BLOCH_FAMILIES = {
    "guo-n2": lambda: build_guo_chain(24, 2, 1.0, 3.5),
    "guo-n3": lambda: build_guo_chain(27, 3, 1.0, 0.8),
    "nh-ssh": lambda: build_nh_ssh_real(10, 1.0, 0.4, 0.3, "periodic"),
    "uniform-16": lambda: build_uniform_chain(16),
    "uniform-33": lambda: build_uniform_chain(33),
    "hatano-nelson-ring": lambda: build_hatano_nelson(20, 1.0, 0.5, "periodic"),
    "measurement-ring": lambda: build_measurement_heff(18, 1.0, 0.5, "periodic"),
    "guo-2d-4x4": lambda: build_guo_2d(4, 4, 0.6),
    "eb-ssh-ring": lambda: build_eb_ssh(12, 1.0, 1.0, 0.3),
}


def _partition_kinds(n):
    """Leading, offset, mid-cell, wrapping and non-contiguous mode sets."""
    rng = np.random.default_rng(5)
    ranges = [(0, n // 2), (0, 3), (0, n - 1), (2, 2 + n // 3), (4, n),
              (1, 1 + n // 2), (3, 8), (n - 5, n)]
    kinds = [tuple(range(a, b)) for a, b in ranges]
    kinds += [tuple(rng.choice(n, size=size, replace=False))
              for size in (2, 3, 5, n // 3, n // 2, n - 2)]
    kinds += [(0, 1, n - 2, n - 1), (1, n - 1), tuple(range(0, n, 2)),
              tuple(range(1, n, 3))]
    return kinds


class TestBlochCorrelations:
    @pytest.mark.parametrize("name", sorted(BLOCH_FAMILIES))
    def test_toeplitz_block_matches_assembled_vectors(self, name):
        # the block-Toeplitz gather against R_A L_A^dag of the assembled
        # eigenvectors, on every partition kind and on the full projector
        km = BLOCH_FAMILIES[name]()
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        R = sys.right[:, sel.occupied]
        L = sys.left[:, sel.occupied]
        for indices in _partition_kinds(km.dim):
            part = Partition("position", indices, km.dim)
            idx = np.asarray(part.indices)
            C = correlation_matrix(sys, sel, part).entries
            assert np.abs(C - R[idx] @ L[idx].conj().T).max() < 1e-12, indices
        assert np.abs(projector(sys, sel) - R @ L.conj().T).max() < 1e-12

    @pytest.mark.parametrize("name", ["guo-n2", "guo-2d-4x4", "uniform-33"])
    def test_partitions_of_one_state_share_one_fft(self, monkeypatch, name):
        km = BLOCH_FAMILIES[name]()
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        parts = [Partition("position", indices, km.dim)
                 for indices in _partition_kinds(km.dim)]
        alone = [correlation_matrix(sys, sel, part) for part in parts]
        ifft, calls = np.fft.ifft, []

        def counted(*args, **kwargs):
            calls.append(1)
            return ifft(*args, **kwargs)
        monkeypatch.setattr(np.fft, "ifft", counted)
        shared = list(correlation_matrices(sys, sel, parts))
        assert len(calls) == 1
        for a, b in zip(alone, shared):
            assert a.partition == b.partition
            assert a.entries.dtype == b.entries.dtype
            assert np.array_equal(a.entries, b.entries)
        calls.clear()
        series = entropy_series(sys, sel, sizes=range(1, km.dim))
        assert len(calls) == 1 and len(series.points) == km.dim - 1

    def test_correlations_leave_the_vectors_unassembled(self):
        sys = bloch_system(build_guo_chain(24, 2, 1.0, 3.5))
        sel = select_occupied(sys, Fraction(1, 2))
        correlation_matrix(sys, sel, Partition.contiguous(3, 11, 24))
        projector(sys, sel)
        assert "right" not in vars(sys) and "left" not in vars(sys)


class TestProjector:
    def test_all_modes_occupied_gives_identity(self):
        km = build_uniform_chain(6, bc="open")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, 1)
        assert np.abs(projector(sys, sel) - np.eye(6)).max() < 1e-10

    def test_two_band_closed_form(self):
        # lower-band projector of H = d(k).sigma equals (I - dhat.sigma)/2
        for k in (0.3, 1.1, 2.7):
            h, _ = build_nh_ssh_bloch(k, 1.0, 0.5, 0.0)  # Hermitian at u=0
            km = KernelMatrix(2, h, "open")
            sys = biorthogonal_eig(km)
            sel = select_occupied(sys, Fraction(1, 2))
            P = projector(sys, sel)
            vk = 1.0 * np.exp(-1j * k) + 0.5
            d = np.array([vk.real, -vk.imag, 0.0])
            dhat = d / np.linalg.norm(d)
            sigma = [np.array([[0, 1], [1, 0]]),
                     np.array([[0, -1j], [1j, 0]]),
                     np.array([[1, 0], [0, -1]])]
            expected = (np.eye(2) - sum(c * s for c, s in zip(dhat, sigma))) / 2
            assert np.abs(P - expected).max() < 1e-12

    def test_idempotence_nh_ssh(self):
        km = build_nh_ssh_real(10, 1.0, 0.4, 0.3, "periodic")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        P = projector(sys, sel)
        assert np.abs(P @ P - P).max() < 1e-9


class TestMomentumTransform:
    def test_uniform_chain_diagonalizes(self):
        km = build_uniform_chain(8, 1.0)
        kt = momentum_transform(km)
        expected = np.diag([-2 * np.cos(2 * np.pi * m / 8) for m in range(8)])
        assert np.abs(kt.entries - expected).max() < 1e-12

    def test_open_chain_rejected(self):
        with pytest.raises(UnsupportedError):
            momentum_transform(build_uniform_chain(8, bc="open"))

    def test_double_transform_is_label_inversion(self):
        km = build_quasicrystal(8, 0.3, 1.0, 0.7, Fraction(3, 8))
        twice = momentum_transform(momentum_transform(km)).entries
        inv = [(-m) % 8 for m in range(8)]
        assert np.abs(twice - km.entries[np.ix_(inv, inv)]).max() < 1e-12

    def test_unidirectional_quasicrystal_swaps_roles(self):
        # J_L = 0: hopping becomes the momentum-space potential exp(-ik_m)
        # and the potential becomes a momentum hop by p grid steps
        L, p, V = 5, 2, 0.7
        km = build_quasicrystal(L, 0.0, 1.0, V, Fraction(p, L))
        kt = momentum_transform(km)
        for m in range(L):
            assert kt.entries[m, m] == pytest.approx(
                np.exp(-2j * np.pi * m / L), abs=1e-12)
            # the potential hops momenta one way only, mirroring J_L = 0
            assert kt.entries[m, (m + p) % L] == pytest.approx(V, abs=1e-12)
            assert abs(kt.entries[(m + p) % L, m]) < 1e-12

    # 1-D periodic families; guo_2d is left out because its flattened 2-D
    # cell index is not a 1-D translation
    @pytest.mark.parametrize("km", [
        build_guo_chain(12, 2, 1.0, 0.5, "periodic"),
        build_guo_chain(12, 3, 1.0, 0.4, "periodic"),
        build_eb_ssh(6, 1.0, 0.6, 0.5, "periodic"),
        build_nh_ssh_real(5, 1.0, 0.3, 0.7, "periodic"),
        build_hatano_nelson(9, 1.0, 0.3, "periodic"),
        build_quasicrystal(8, 0.3, 1.0, 0.0, Fraction(3, 8)),
    ], ids=["guo_chain_n2", "guo_chain_n3", "eb_ssh", "nh_ssh",
            "hatano_nelson", "quasicrystal_V0"])
    def test_blocks_are_bloch_matrices(self, km):
        nc, ns = km.cell_sites.shape
        blocks = momentum_transform(km).entries.reshape(nc, ns, nc, ns)
        for m, k in enumerate(bloch_momenta(nc)):
            assert np.abs(blocks[m, :, m, :] - bloch_reduce(km, k)).max() < 1e-12
            blocks[m, :, m, :] = 0.0
        assert np.abs(blocks).max() < 1e-12

    def test_sublattice_structure_preserved(self):
        km = build_nh_ssh_real(4, 1.0, 0.5, 0.3, "periodic")
        kt = momentum_transform(km)
        assert kt.cell_sites.shape[1] == 2
        assert kt.dim == km.dim


class TestDuality:
    def test_hermitian_chain(self):
        km = build_uniform_chain(12)
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        rep = check_duality(sys, sel, Partition.contiguous(0, 5, 12))
        assert rep.max_mismatch < 1e-10

    def test_nh_ssh_pt_phase(self):
        km = build_nh_ssh_real(12, 1.0, 0.4, 0.3, "periodic")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        rep = check_duality(sys, sel, Partition.half(24))
        assert rep.max_mismatch < 1e-9

    def test_nonzero_counts_agree(self):
        km = build_quasicrystal(13, 0.4, 1.0, 0.7, Fraction(8, 13))
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(6, 13))
        part = Partition.contiguous(0, 4, 13)
        rep = check_duality(sys, sel, part)
        n_rpr = int(np.sum(np.abs(rep.spectrum_rpr) > 1e-8))
        n_prp = int(np.sum(np.abs(rep.spectrum_prp) > 1e-8))
        assert n_rpr == n_prp


def test_sorted_by_re_im():
    vals = np.array([1 + 1j, -1 + 0j, 1 - 1j])
    out = sorted_by_re_im(vals)
    assert list(out) == [-1 + 0j, 1 - 1j, 1 + 1j]
