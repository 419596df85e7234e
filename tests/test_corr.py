import warnings
from fractions import Fraction

import numpy as np
import pytest

from nhent import (BlochSystem, DegeneracyWarning, KernelMatrix, Partition,
                   PartitionError, UnsupportedError,
                   biorthogonal_eig, bloch_momenta, bloch_reduce, bloch_system,
                   build_eb_ssh, build_guo_chain,
                   build_hatano_nelson, build_measurement_heff,
                   build_nh_ssh_bloch, build_nh_ssh_real, build_quasicrystal,
                   build_report, build_uniform_chain, check_duality,
                   correlation_matrices, correlation_matrix,
                   entropy_series, ground_state_system,
                   projector, report_for_partition, select_occupied,
                   vn_entropy)
from nhent import models
from nhent._linalg import balanced_eig, match_spectra
from nhent.correlations import sorted_by_re_im
from fourier import momentum_transform


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

    @pytest.mark.parametrize("solve", [biorthogonal_eig, bloch_system],
                             ids=["dense", "bloch"])
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_partition_of_another_size_is_refused(self, solve, space):
        # the half cut of 4 modes would be read as the first two of 8
        sys = solve(build_uniform_chain(8))
        sel = select_occupied(sys, Fraction(1, 2))
        part = Partition.half(4, space)
        for call in (lambda: correlation_matrix(sys, sel, part),
                     lambda: list(correlation_matrices(
                         sys, sel, [Partition.half(8), part])),
                     lambda: report_for_partition(sys, sel, part),
                     lambda: check_duality(sys, sel, part)):
            with pytest.raises(PartitionError, match="4 modes.* has 8"):
                call()


def sublattice_major(km):
    """The same ring with its modes relabelled: mode s * N + x is
    sublattice s of cell x, so its cell map is not the identity."""
    nc, ns = km.cell_sites.shape
    old = km.cell_sites.T.ravel()
    labels = [(x, s) for s in range(ns) for x in range(nc)]
    return KernelMatrix(km.dim, km.entries[np.ix_(old, old)], km.bc, labels)


BLOCH_FAMILIES = {
    "guo-n2": lambda: build_guo_chain(24, 2, 1.0, 3.5),
    "guo-n3": lambda: build_guo_chain(27, 3, 1.0, 0.8),
    "nh-ssh": lambda: build_nh_ssh_real(10, 1.0, 0.4, 0.3, "periodic"),
    "uniform-16": lambda: build_uniform_chain(16),
    "uniform-33": lambda: build_uniform_chain(33),
    "hatano-nelson-ring": lambda: build_hatano_nelson(20, 1.0, 0.5, "periodic"),
    "measurement-ring": lambda: build_measurement_heff(18, 1.0, 0.5, "periodic"),
    "eb-ssh-ring": lambda: build_eb_ssh(12, 1.0, 1.0, 0.3),
}


def _dense_bloch_fill(km):
    """Reference eigenvectors written block by block into dim x dim arrays:
    R(x, s) = exp(i k x) u_k(s) / sqrt(N), one ``balanced_eig`` per
    momentum, and L likewise from the left Bloch vectors."""
    pos = km.cell_sites
    nc, ns = pos.shape
    right = np.zeros((km.dim, km.dim), dtype=complex)
    left = np.zeros((km.dim, km.dim), dtype=complex)
    cells = np.arange(nc)
    ks = bloch_momenta(nc)
    for m, (k, h) in enumerate(zip(ks, bloch_reduce(km, ks))):
        if ns == 1:
            ub = lb = np.array([[1.0 + 0j]])
        else:
            _, ub, lb, _ = balanced_eig(h, (np.arange(ns)[::-1],))
        phase = np.exp(1j * k * cells)[:, None, None] / np.sqrt(nc)
        cols = slice(m * ns, (m + 1) * ns)
        right[pos.ravel(), cols] = (phase * ub).reshape(km.dim, ns)
        left[pos.ravel(), cols] = (phase * lb).reshape(km.dim, ns)
    return right, left


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
        # the block-Toeplitz gather against R_A L_A^dag of the partition's
        # rows of the occupied vectors, on every partition kind, and the
        # full projector against the dense fill of the eigenvectors
        km = BLOCH_FAMILIES[name]()
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        for indices in _partition_kinds(km.dim):
            part = Partition("position", indices, km.dim)
            R, L = sys.vectors(np.asarray(part.indices), sel.occupied)
            C = correlation_matrix(sys, sel, part).entries
            assert np.abs(C - R @ L.conj().T).max() < 1e-12, indices
        right, left = _dense_bloch_fill(km)
        R, L = right[:, sel.occupied], left[:, sel.occupied]
        assert np.abs(projector(sys, sel) - R @ L.conj().T).max() < 1e-12

    @pytest.mark.parametrize("name", ["guo-n2", "guo-n3", "uniform-33"])
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


# Rings whose Fermi level is not tied, so that the position solve and the
# referee's dense solve of the Fourier kernel select one state.  eb-ssh-ring,
# guo-n2, hatano-nelson-ring and uniform-16 are left out: their boundary
# raises DegeneracyWarning, and two solves may break the tie differently
# (the uniform-16 half cut reads 0 here and 0.540 on the referee).
MOMENTUM_FAMILIES = {
    **{name: BLOCH_FAMILIES[name] for name in (
        "guo-n3", "measurement-ring", "nh-ssh", "uniform-33")},
    # relabelled, so given by its dense entries: solved dense
    "guo-n3-sublattice-major": lambda: sublattice_major(
        build_guo_chain(27, 3, 1.0, 0.8)),
    # periodic, but its potential breaks translation: solved dense
    "quasicrystal-34": lambda: build_quasicrystal(34, 0.5, 1.0, 0.5,
                                                  Fraction(21, 34)),
}
SOLVED_DENSE = {"guo-n3-sublattice-major", "quasicrystal-34"}


def _tie_free(solve, km):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)
        return solve(km)


def _dense(km):
    sys = biorthogonal_eig(km)
    return sys, select_occupied(sys, Fraction(1, 2))


class TestMomentumPartitions:
    @pytest.mark.parametrize("route", ["ground-state", "dense"])
    @pytest.mark.parametrize("name", sorted(MOMENTUM_FAMILIES))
    def test_block_matches_the_fourier_kernel_referee(self, name, route):
        # a momentum block cut from the position state against the
        # position block of the solved Fourier kernel, whose modes are
        # already momenta; "dense" takes the FFT of the occupied vectors
        # also where ground_state_system gathers from the Bloch projectors
        km = MOMENTUM_FAMILIES[name]()
        solve = {"ground-state": lambda k: ground_state_system(
            k, Fraction(1, 2)), "dense": _dense}[route]
        sys, sel = _tie_free(solve, km)
        assert isinstance(sys, BlochSystem) == (
            route == "ground-state" and name not in SOLVED_DENSE)
        ref = _tie_free(solve, momentum_transform(km))
        for indices in _partition_kinds(km.dim):
            C = correlation_matrix(
                sys, sel, Partition("momentum", indices, km.dim)).entries
            expected = correlation_matrix(
                *ref, Partition("position", indices, km.dim)).entries
            assert np.abs(C - expected).max() < 1e-12, indices

    def test_open_chain_is_refused(self):
        km = build_nh_ssh_real(6, 1.0, 0.4, 0.3, "open")
        sys, sel = ground_state_system(km, Fraction(1, 2))
        with pytest.raises(UnsupportedError):
            correlation_matrix(sys, sel, Partition.half(km.dim, "momentum"))

    def test_momentum_half_cut_is_not_the_position_block(self):
        km = build_nh_ssh_real(10, 1.0, 0.4, 0.3, "periodic")
        sys, sel = ground_state_system(km, Fraction(1, 2))
        C_k, C_x = (correlation_matrix(sys, sel, Partition.half(km.dim, space))
                    for space in ("momentum", "position"))
        assert np.abs(C_k.entries - C_x.entries).max() > 0.1
        # the half cut holds whole momentum cells: a product state
        assert np.allclose(np.sort(np.linalg.eigvals(C_k.entries).real),
                           [0] * 5 + [1] * 5, atol=1e-12)


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
        # the V = 0 quasicrystal is kept dense by its potential's signed
        # zeros: its Bloch matrices are those of the ring of its two hops
        ring = km if km.cell_blocks is not None else models._cell_chain(
            np.zeros((nc, 1, 1)), 1.0, 0.3, "periodic")
        for m, k in enumerate(bloch_momenta(nc)):
            assert np.abs(blocks[m, :, m, :] - bloch_reduce(ring, k)).max() < 1e-12
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

    @pytest.mark.parametrize("name", ["nh-ssh", "quasicrystal-34"])
    def test_momentum_half_cut(self, name):
        # R P R in momentum space against the referee's, and P R P from the
        # same momentum rows of the occupied vectors
        km = MOMENTUM_FAMILIES[name]()
        sys, sel = ground_state_system(km, Fraction(1, 2))
        rep = check_duality(sys, sel, Partition.half(km.dim, "momentum"))
        ref = check_duality(*ground_state_system(momentum_transform(km),
                                                 Fraction(1, 2)),
                            Partition.half(km.dim))
        assert rep.max_mismatch < 1e-9
        assert match_spectra(ref.spectrum_rpr, rep.spectrum_rpr)[1] < 1e-9

    def test_pairs_at_the_rank_of_a_small_cut_of_a_long_ring(self):
        # 32 of 1026 sites: 32 eigenvalues of C against the 32 largest of
        # the 513 x 513 B; the other 481 of B are zero, and their largest
        # modulus is part of the mismatch
        km = build_nh_ssh_real(513, 1.0, 0.4, 0.3, "periodic")
        sys, sel = ground_state_system(km, Fraction(1, 2))
        rep = check_duality(sys, sel, Partition.contiguous(0, 32, km.dim))
        assert len(rep.spectrum_rpr) == len(rep.spectrum_prp) == 32
        assert rep.max_mismatch < 1e-12

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
