import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nhent import (FAMILIES, BiorthogonalSystem, KernelMatrix, ModelSpec,
                   NormalizationError,
                   SizeError, UnsupportedError,
                   SingularPotentialError, bloch_momenta, bloch_reduce,
                   build_chern_ribbon, build_eb_ssh, build_guo_2d,
                   build_guo_chain, build_hatano_nelson,
                   build_heff_from_jumps, build_measurement_heff,
                   build_nh_ssh_bloch, build_nh_ssh_real, build_quasicrystal,
                   build_uniform_chain, bloch_system, fibonacci_approximant,
                   ground_state_system)
from nhent import models
from fourier import momentum_transform
from test_corr import sublattice_major

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_coeffs(h):
    """Decompose a 2x2 matrix into (d0, dx, dy, dz)."""
    d0 = np.trace(h) / 2
    return d0, *(np.trace(PAULI[a] @ h) / 2 for a in "xyz")


class TestHatanoNelson:
    def test_hermitian_limit_is_tridiagonal(self):
        km = build_hatano_nelson(4, 1.0, 0.0, "open")
        expected = np.zeros((4, 4))
        for i in range(3):
            expected[i, i + 1] = expected[i + 1, i] = -1.0
        assert np.allclose(km.entries, expected, atol=1e-15)
        assert km.is_hermitian()

    def test_asymmetric_entries(self):
        km = build_hatano_nelson(3, 1.0, 0.5, "open")
        assert km.entries[0, 1] == pytest.approx(-math.exp(0.5))
        assert km.entries[1, 0] == pytest.approx(-math.exp(-0.5))
        assert km.entries[1, 2] == pytest.approx(-math.exp(0.5))
        assert km.entries[0, 2] == 0

    def test_two_site_ring_accumulates_both_bonds(self):
        # the bulk bond and the wrap bond act on the same pair of sites
        km = build_hatano_nelson(2, 1.0, 1.0, "periodic")
        both = -(math.exp(1.0) + math.exp(-1.0))
        assert km.entries[0, 1] == pytest.approx(both)
        assert km.entries[1, 0] == pytest.approx(both)

    def test_too_small_raises(self):
        with pytest.raises(SizeError):
            build_hatano_nelson(1, 1.0, 0.0)


class TestNhSsh:
    def test_uniform_limit(self):
        km = build_nh_ssh_real(2, 1.0, 1.0, 0.0, "open")
        expected = np.zeros((4, 4))
        for i in range(3):
            expected[i, i + 1] = expected[i + 1, i] = 1.0
        assert np.allclose(km.entries, expected, atol=1e-15)

    def test_staggered_imaginary_potential(self):
        km = build_nh_ssh_real(2, 1.0, 0.5, 0.3, "open")
        assert np.allclose(np.diag(km.entries),
                           [0.3j, -0.3j, 0.3j, -0.3j], atol=1e-15)

    def test_bloch_reduction_matches_bloch_builder(self):
        # Fourier transform of the 8-cell ring reproduces the Bloch matrix
        km = build_nh_ssh_real(8, 1.0, 0.5, 0.3, "periodic")
        for k in bloch_momenta(8):
            h_from_real = bloch_reduce(km, k)
            h_direct, _ = build_nh_ssh_bloch(k, 1.0, 0.5, 0.3)
            assert np.allclose(h_from_real, h_direct, atol=1e-12)

    def test_bloch_hermitian_limit_real_spectrum(self):
        for k in (0.1, 1.0, 2.5):
            h, (ep, em) = build_nh_ssh_bloch(k, 1.0, 0.5, 0.0)
            vk = abs(1.0 * np.exp(-1j * k) + 0.5)
            assert ep == pytest.approx(vk)
            assert em == pytest.approx(-vk)

    def test_bloch_exceptional_point(self):
        # |v_k| = u at k = pi when omega - upsilon = u: both eigenvalues vanish
        h, (ep, em) = build_nh_ssh_bloch(np.pi, 1.0, 0.3, 0.7)
        assert abs(ep) < 1e-12 and abs(em) < 1e-12

    def test_bloch_closed_form_value(self):
        _, (ep, em) = build_nh_ssh_bloch(0.0, 1.0, 0.5, 0.3)
        assert ep == pytest.approx(math.sqrt(2.25 - 0.09))
        assert em == pytest.approx(-math.sqrt(2.25 - 0.09))


class TestQuasicrystal:
    def test_zero_potential_is_hopping_chain(self):
        km = build_quasicrystal(5, 0.2, 1.0, 0.0, Fraction(2, 5))
        assert np.allclose(np.diag(km.entries), 0)
        assert km.entries[1, 0] == pytest.approx(1.0)
        assert km.entries[0, 1] == pytest.approx(0.2)

    def test_exp_phase_diagonal(self):
        km = build_quasicrystal(5, 1.0, 1.0, 0.5, Fraction(2, 5), "exp_phase")
        for n in range(5):
            assert km.entries[n, n] == pytest.approx(
                0.5 * np.exp(-2j * np.pi * (2 / 5) * n))

    def test_mobility_edge_diagonal(self):
        km = build_quasicrystal(5, 1.0, 1.0, 1.0, Fraction(2, 5),
                                "mobility_edge", a=0.5)
        assert km.entries[0, 0] == pytest.approx(2.0)

    def test_mobility_singular_denominator(self):
        with pytest.raises(SingularPotentialError):
            build_quasicrystal(4, 1.0, 1.0, 1.0, Fraction(1, 4),
                               "mobility_edge", a=1.0, bc="open")

    def test_periodic_needs_commensurate_approximant(self):
        with pytest.raises(SizeError):
            build_quasicrystal(10, 1.0, 1.0, 0.5, Fraction(2, 5), bc="periodic")

    def test_fibonacci_approximant(self):
        assert fibonacci_approximant(144) == Fraction(89, 144)
        assert fibonacci_approximant(13) == Fraction(8, 13)
        with pytest.raises(SizeError):
            fibonacci_approximant(100)


class TestGuoChain:
    def test_hermitian_limit(self):
        assert build_guo_chain(8, 2, 1.0, 0.0).is_hermitian()

    def test_alternating_bonds(self):
        km = build_guo_chain(8, 2, 1.0, 0.4)
        assert km.entries[0, 1] == pytest.approx(1.2)
        assert km.entries[1, 0] == pytest.approx(0.8)
        assert km.entries[1, 2] == pytest.approx(1.0)
        assert km.entries[2, 1] == pytest.approx(1.0)

    def test_size_must_divide(self):
        with pytest.raises(SizeError):
            build_guo_chain(9, 2, 1.0, 0.0)

    def test_half_filled_folded_band_has_two_fermi_points(self):
        from nhent import bloch_system, count_fermi_points, select_occupied
        km = build_guo_chain(64, 2, 1.0, 0.0)
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        assert count_fermi_points(sys, sel) == 2


class TestGuo2d:
    def test_hermitian_limit(self):
        assert build_guo_2d(4, 4, 0.0).is_hermitian()

    def test_dimerized_bonds_both_axes(self):
        km = build_guo_2d(4, 4, 0.4)
        idx = lambda x, y: y * 4 + x
        assert km.entries[idx(0, 1), idx(1, 1)] == pytest.approx(1.2)
        assert km.entries[idx(1, 1), idx(0, 1)] == pytest.approx(0.8)
        assert km.entries[idx(1, 0), idx(2, 0)] == pytest.approx(1.0)
        assert km.entries[idx(2, 1), idx(2, 2)] == pytest.approx(1.0)
        assert km.entries[idx(2, 2), idx(2, 3)] == pytest.approx(1.2)
        assert km.entries[idx(1, 0), idx(1, 1)] == pytest.approx(1.2)
        assert km.entries[idx(1, 1), idx(1, 0)] == pytest.approx(0.8)

    def test_row_major_flattening_gives_row_block_structure(self):
        # couplings only within a row or between adjacent rows, so a cut
        # along y is a contiguous index range of width Lx
        km = build_guo_2d(4, 4, 0.4, bc="open")
        K = km.entries.reshape(4, 4, 4, 4)  # (y, x, y', x')
        for y in range(4):
            for yp in range(4):
                if abs(y - yp) > 1:
                    assert np.all(K[y, :, yp, :] == 0)

    def test_odd_sizes_rejected(self):
        with pytest.raises(SizeError):
            build_guo_2d(3, 4, 0.0)


class TestChernRibbon:
    def test_hermitian_limit(self):
        for cut in ("x", "y"):
            km = build_chern_ribbon(10, 0.7, 1.0, -1.0, 0.0, cut)
            assert km.is_hermitian()

    def test_bloch_blocks_reproduce_bulk_hamiltonian(self):
        # rebuild with periodic wrap along the open axis and check that its
        # Bloch reduction gives the quoted bulk H(k) at grid momenta
        from nhent.models import _PAULI, _cell_chain
        t, m, g = 1.0, -1.0, 0.5
        kx = 0.9
        onsite = (m + t * np.cos(kx)) * _PAULI["x"] + (1j * g + t * np.sin(kx)) * _PAULI["y"]
        hop_p = t * _PAULI["x"] / 2 + 0.5j * t * _PAULI["z"]
        hop_m = t * _PAULI["x"] / 2 - 0.5j * t * _PAULI["z"]
        km = _cell_chain(np.broadcast_to(onsite, (12, 2, 2)), hop_p, hop_m,
                         "periodic")
        for ky in bloch_momenta(12)[:4]:
            h = bloch_reduce(km, ky)
            expected = ((m + t * np.cos(kx) + t * np.cos(ky)) * PAULI["x"]
                        + (1j * g + t * np.sin(kx)) * PAULI["y"]
                        + t * np.sin(ky) * PAULI["z"])
            assert np.allclose(h, expected, atol=1e-12)

    def test_topological_point_has_gap_traversing_edge_modes(self):
        # at (t, m, gamma) = (1, -1, 0.5) edge branches cross Re E = 0
        def min_abs_re_energy(m):
            vals = []
            for k in np.linspace(-np.pi, np.pi, 64, endpoint=False):
                km = build_chern_ribbon(40, k, 1.0, m, 0.5, "x")
                vals.append(np.abs(np.linalg.eigvals(km.entries).real).min())
            return min(vals)

        assert min_abs_re_energy(-1.0) < 0.02
        assert min_abs_re_energy(-3.2) > 0.3


class TestEbSsh:
    def test_gapless_coefficient_cancellation(self):
        # nu = w kills the imaginary on-site term and the k=0 block entirely
        km = build_eb_ssh(8, 0.7, 0.7, 0.0)
        h0 = bloch_reduce(km, 0.0)
        assert np.abs(h0).max() < 1e-14

    def test_bloch_coefficients_at_quarter_momentum(self):
        nu, w, g0 = 1.0, 0.5, 0.8
        km = build_eb_ssh(8, nu, w, g0)
        h = bloch_reduce(km, np.pi / 2)
        d0, dx, dy, dz = pauli_coeffs(h)
        assert abs(d0) < 1e-12
        assert dx == pytest.approx(nu)
        # the exchanged component layout: sin-k coefficient on sz,
        # non-Hermitian constant on sy
        assert dz == pytest.approx(g0)
        assert dy == pytest.approx(1j * (nu - w))

    def test_long_wavelength_normal_form(self):
        # grid momenta only: the Fourier reduction is exact on the grid
        nu, w = 1.0, 0.5
        km = build_eb_ssh(1024, nu, w, 0.3)
        a0 = 2 * (nu - w)
        b0 = w / 2
        for m in (1, 2):
            k = 2 * np.pi * m / 1024
            h = bloch_reduce(km, k)
            assert h[0, 1] == pytest.approx(a0 + b0 * k ** 2, abs=1e-7)
            assert h[1, 0] == pytest.approx(b0 * k ** 2, abs=1e-7)
            assert h[0, 0] == pytest.approx(0.3 * k, abs=1e-5)

    def test_exceptional_point_at_zero_momentum(self):
        km = build_eb_ssh(8, 1.0, 0.5, 0.4)
        h0 = bloch_reduce(km, 0.0)
        evals = np.linalg.eigvals(h0)
        assert np.abs(evals).max() < 1e-12      # gapless for all parameters
        assert np.abs(h0).max() > 0.5           # but the block is nilpotent


class TestMeasurementChain:
    def test_hermitian_limit(self):
        km = build_measurement_heff(6, 1.0, 0.0, "open")
        assert km.is_hermitian()
        assert km.entries[0, 1] == pytest.approx(-0.25)

    def test_onsite_decay_counts_adjacent_bonds(self):
        km = build_measurement_heff(3, 1.0, 0.5, "open")
        assert np.allclose(np.diag(km.entries),
                           [-0.125j, -0.25j, -0.125j], atol=1e-15)

    def test_unidirectional_at_gamma_equals_t(self):
        km = build_measurement_heff(5, 1.0, 1.0, "open")
        assert abs(km.entries[0, 1]) < 1e-15
        assert km.entries[1, 0] == pytest.approx(-0.5)


class TestHeffFromJumps:
    def test_no_jumps_identity(self):
        H = build_uniform_chain(4, 1.0, "open")
        out = build_heff_from_jumps(H, [], [])
        assert np.array_equal(out.entries, H.entries)

    def test_two_site_projectors_reproduce_measurement_chain(self):
        L, t, G = 6, 1.0, 0.5
        base = build_measurement_heff(L, t, 0.0, "open")
        jumps, rates = [], []
        for i in range(L - 1):
            xi = np.zeros(L, dtype=complex)
            xi[i], xi[i + 1] = 1 / np.sqrt(2), -1j / np.sqrt(2)
            jumps.append(("projector", xi))
            rates.append(G)
        out = build_heff_from_jumps(base, jumps, rates)
        expected = build_measurement_heff(L, t, G, "open")
        assert np.allclose(out.entries, expected.entries, atol=1e-14)

    def test_uniform_single_site_loss_shifts_diagonal(self):
        L, G = 5, 0.8
        H = build_uniform_chain(L, 1.0, "open")
        jumps = [("linear", np.eye(L)[i]) for i in range(L)]
        out = build_heff_from_jumps(H, jumps, [G] * L)
        assert np.allclose(out.entries - H.entries,
                           -0.5j * G * np.eye(L), atol=1e-14)

    def test_unnormalized_projector_rejected(self):
        H = build_uniform_chain(3, 1.0, "open")
        xi = np.array([1.0, 1.0, 0.0])
        with pytest.raises(NormalizationError):
            build_heff_from_jumps(H, [("projector", xi)], [1.0])


PERIODIC_MODELS = {
    "hatano_nelson": lambda: build_hatano_nelson(12, 1.0, 0.4, "periodic"),
    "nh_ssh": lambda: build_nh_ssh_real(8, 1.0, 0.5, 0.3, "periodic"),
    "eb_ssh": lambda: build_eb_ssh(8, 1.0, 0.5, 0.7),
    "guo_chain": lambda: build_guo_chain(12, 3, 1.0, 0.4),
    "measurement": lambda: build_measurement_heff(10, 1.0, 0.5, "periodic"),
}

HERMITIAN_LIMITS = {
    "hatano_nelson": lambda: build_hatano_nelson(8, 1.0, 0.0, "periodic"),
    "nh_ssh": lambda: build_nh_ssh_real(4, 1.0, 0.5, 0.0, "periodic"),
    "quasicrystal_V0": lambda: build_quasicrystal(8, 1.0, 1.0, 0.0,
                                                  Fraction(3, 8)),
    "guo_chain": lambda: build_guo_chain(8, 2, 1.0, 0.0),
    "guo_2d": lambda: build_guo_2d(4, 4, 0.0),
    "chern": lambda: build_chern_ribbon(8, 0.3, 1.0, -1.0, 0.0),
    "eb_ssh": lambda: build_eb_ssh(6, 1.0, 1.0, 0.5),
    "measurement": lambda: build_measurement_heff(6, 1.0, 0.0, "periodic"),
}


@pytest.mark.parametrize("name", sorted(HERMITIAN_LIMITS))
def test_hermitian_parameter_points(name):
    assert HERMITIAN_LIMITS[name]().is_hermitian()


@pytest.mark.parametrize("name", sorted(PERIODIC_MODELS))
def test_translation_covariance(name):
    km = PERIODIC_MODELS[name]()
    nc, ns = km.cell_sites.shape
    rng = np.random.default_rng(11)
    for shift in rng.integers(1, nc, size=3):
        perm = np.array([((c + shift) % nc) * ns + s
                         for c in range(nc) for s in range(ns)])
        # sites are laid out cell-major for every chain family
        P = np.zeros((km.dim, km.dim))
        P[np.arange(km.dim), perm] = 1.0
        assert np.allclose(P @ km.entries @ P.T, km.entries, atol=1e-14)


@pytest.mark.parametrize("name", sorted(PERIODIC_MODELS))
def test_bloch_real_space_spectral_consistency(name):
    km = PERIODIC_MODELS[name]()
    direct = np.linalg.eigvals(km.entries)
    from_bloch = np.concatenate(
        [np.linalg.eigvals(bloch_reduce(km, k))
         for k in bloch_momenta(km.cell_sites.shape[0])])
    cost = np.abs(direct[:, None] - from_bloch[None, :])
    rows, cols = linear_sum_assignment(cost)
    # the EB chain hosts an exact exceptional point at k=0, where dense
    # eigenvalues split at the square root of machine precision
    tol = 1e-8 if name == "eb_ssh" else 1e-10
    assert cost[rows, cols].max() < tol


# every chain family with a periodic form, at a given number of cells
PERIODIC_CHAINS = {
    "hatano_nelson": lambda nc: build_hatano_nelson(nc, 1.0, 0.7, "periodic"),
    "uniform_chain": lambda nc: build_uniform_chain(nc, 0.9),
    "nh_ssh": lambda nc: build_nh_ssh_real(nc, 1.0, 0.4, 0.3, "periodic"),
    "quasicrystal_exp": lambda nc: build_quasicrystal(
        nc, 0.3, 1.1, 0.5, Fraction(1, nc), "exp_phase"),
    "quasicrystal_mobility": lambda nc: build_quasicrystal(
        nc, 0.3, 1.1, 0.5, Fraction(1, nc), "mobility_edge", 0.4),
    "guo_chain": lambda nc: build_guo_chain(3 * nc, 3, 1.0, 0.4),
    "eb_ssh": lambda nc: build_eb_ssh(nc, 1.0, 0.5, 0.7),
    "measurement_chain": lambda nc: build_measurement_heff(nc, 1.0, 0.5,
                                                           "periodic"),
}
# the quasicrystals' site-dependent potential leaves no cell blocks to keep
DENSE_PERIODIC_CHAINS = {"quasicrystal_exp", "quasicrystal_mobility"}


def _dense_copy(km):
    """The kernel given by a copy of its entries and labels."""
    return KernelMatrix(km.dim, km.entries.copy(), km.bc, list(km.site_labels))


# block kernels: the PERIODIC_MODELS rings, and each block family of
# PERIODIC_CHAINS at 2, 3 and 8 cells
BLOCH_REDUCTIONS = {
    **PERIODIC_MODELS,
    "guo_n2": lambda: build_guo_chain(24, 2, 1.0, 3.5),
    "uniform": lambda: build_uniform_chain(33),
    **{f"{family}-{nc}": partial(build, nc)
       for family, build in PERIODIC_CHAINS.items() for nc in (2, 3, 8)
       if family not in DENSE_PERIODIC_CHAINS},
}
# periodic kernels that are not block kernels on their own labels
REFUSED_REDUCTIONS = {
    **{f"{name}-dense-copy": (lambda build=build: _dense_copy(build()))
       for name, build in BLOCH_REDUCTIONS.items()},
    **{f"{family}-{nc}": partial(PERIODIC_CHAINS[family], nc)
       for family in DENSE_PERIODIC_CHAINS for nc in (2, 3, 8)},
    "guo_n3_sublattice_major": lambda: sublattice_major(
        build_guo_chain(27, 3, 1.0, 0.8)),
    "zero": lambda: KernelMatrix(6, np.zeros((6, 6)), "periodic",
                                 [(c, s) for c in range(3) for s in range(2)]),
    # V = 0 leaves signed zeros in the potential, whose bits then differ
    # from cell to cell, so the ring is kept dense
    "quasicrystal_V0": lambda: build_quasicrystal(13, 0.3, 1.1, 0.0, "8/13"),
}


@pytest.mark.parametrize("name", sorted({**BLOCH_REDUCTIONS,
                                         **REFUSED_REDUCTIONS}))
def test_bloch_reduction_sums_only_nonzero_offsets(name):
    # the same sum as over every cell offset of the entries, bytes and all,
    # on the grid and off it: the offsets whose block is zero add nothing,
    # and the wrap bonds are summed onto the bulk ones at two cells as the
    # entries sum them.  Any other kernel is refused.
    if name in REFUSED_REDUCTIONS:
        km = REFUSED_REDUCTIONS[name]()
        assert km.bc == "periodic"
        with pytest.raises(UnsupportedError, match="cell blocks"):
            bloch_reduce(km, 0.0)
        return
    km = BLOCH_REDUCTIONS[name]()
    pos = km.cell_sites
    blocks = km.entries[pos[:, :, None], pos[0]]
    for k in (np.concatenate([bloch_momenta(len(pos)), [0.3, -2.0]]), 0.7):
        phase = np.exp((-1j * np.asarray(k))[..., None] * np.arange(len(pos)))
        every_offset = (blocks * phase[..., None, None]).sum(axis=-3)
        assert bloch_reduce(km, k).tobytes() == every_offset.tobytes()


# family -> (ModelSpec params, direct builder call for a boundary condition)
SPEC_BUILDS = {
    "hatano_nelson": ({"L": 6, "t": 1.0, "alpha": 0.3},
                      lambda bc: build_hatano_nelson(6, 1.0, 0.3, bc)),
    "uniform_chain": ({"L": 6, "t": 0.8},
                      lambda bc: build_uniform_chain(6, 0.8, bc)),
    "nh_ssh": ({"N_cells": 4, "omega": 1.0, "upsilon": 0.4, "u": 0.3},
               lambda bc: build_nh_ssh_real(4, 1.0, 0.4, 0.3, bc)),
    "quasicrystal_exp": (
        {"L": 13, "J_L": 0.3, "J_R": 1.1, "V": 0.5, "alpha": "8/13"},
        lambda bc: build_quasicrystal(13, 0.3, 1.1, 0.5, Fraction(8, 13),
                                      "exp_phase", 0.0, bc)),
    "quasicrystal_mobility": (
        {"L": 13, "J_L": 1.0, "J_R": 0.6, "V": 0.5, "alpha": [8, 13], "a": 0.4},
        lambda bc: build_quasicrystal(13, 1.0, 0.6, 0.5, Fraction(8, 13),
                                      "mobility_edge", 0.4, bc)),
    "guo_chain": ({"L": 12, "n": 3, "t": 1.0, "gamma": 0.4},
                  lambda bc: build_guo_chain(12, 3, 1.0, 0.4, bc)),
    "guo_2d": ({"Lx": 4, "Ly": 6, "gamma": 0.4},
               lambda bc: build_guo_2d(4, 6, 0.4, bc)),
    "chern_ribbon": (
        {"L": 5, "k_perp": 0.7, "t": 1.0, "m": -1.0, "gamma": 0.5,
         "cut_axis": "y"},
        lambda bc: build_chern_ribbon(5, 0.7, 1.0, -1.0, 0.5, "y")),
    "eb_ssh": ({"L": 6, "nu": 1.0, "w": 0.5, "gamma0": 0.7},
               lambda bc: build_eb_ssh(6, 1.0, 0.5, 0.7, bc)),
    "measurement_chain": ({"L": 6, "t": 1.0, "Gamma": 0.5},
                          lambda bc: build_measurement_heff(6, 1.0, 0.5, bc)),
}

# two-cell chains of every family with a periodic form, by boundary condition
TWO_CELLS = {
    "hatano_nelson": lambda bc: build_hatano_nelson(2, 1.0, 0.7, bc),
    "uniform_chain": lambda bc: build_uniform_chain(2, 0.9, bc),
    "nh_ssh": lambda bc: build_nh_ssh_real(2, 1.0, 0.4, 0.3, bc),
    "quasicrystal_exp": lambda bc: build_quasicrystal(
        2, 0.3, 1.1, 0.5, Fraction(1, 2), "exp_phase", 0.0, bc),
    "quasicrystal_mobility": lambda bc: build_quasicrystal(
        2, 0.3, 1.1, 0.5, Fraction(1, 2), "mobility_edge", 0.4, bc),
    "guo_chain": lambda bc: build_guo_chain(6, 3, 1.0, 0.4, bc),
    "eb_ssh": lambda bc: build_eb_ssh(2, 1.0, 0.5, 0.7, bc),
    "measurement_chain": lambda bc: build_measurement_heff(2, 1.0, 0.5, bc),
}


@pytest.mark.parametrize("name", sorted(TWO_CELLS))
def test_two_cell_ring_adds_bulk_and_wrap_bonds(name):
    # on two cells the wrap bond joins the same pair of cells as the bulk
    # bond, in the opposite direction, so each inter-cell block of the ring
    # is the sum of both inter-cell blocks of the open chain
    ring, chain = TWO_CELLS[name]("periodic"), TWO_CELLS[name]("open")
    ns = ring.cell_sites.shape[1]
    R = ring.entries.reshape(2, ns, 2, ns)
    O = chain.entries.reshape(2, ns, 2, ns)
    both = O[0, :, 1, :] + O[1, :, 0, :]
    assert np.array_equal(R[0, :, 1, :], both)
    assert np.array_equal(R[1, :, 0, :], both)
    # the monitored chain's decay counts the bonds at each site: 1 -> 2
    onsite = 2 if name == "measurement_chain" else 1
    for x in range(2):
        assert np.array_equal(R[x, :, x, :], onsite * O[x, :, x, :])


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_guo_2d_is_kronecker_sum_of_chains(bc):
    Lx, Ly, g = 4, 6, 3.0
    chain_x = build_guo_chain(Lx, 2, 1.0, g, bc).entries
    chain_y = build_guo_chain(Ly, 2, 1.0, g, bc).entries
    expected = np.kron(np.eye(Ly), chain_x) + np.kron(chain_y, np.eye(Lx))
    assert np.array_equal(build_guo_2d(Lx, Ly, g, bc).entries, expected)


class TestModelSpec:
    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ModelSpec("nh_ssh", {"N_cells": 4, "omega": 1.0, "upsilon": 0.5})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelSpec("hatano_nelson", {"L": 4, "t": 1.0, "alpha": 0.1,
                                        "beta": 2})

    def test_build_round_trip(self):
        spec = ModelSpec("hatano_nelson", {"L": 6, "t": 1.0, "alpha": 0.3},
                         bc="open")
        direct = build_hatano_nelson(6, 1.0, 0.3, "open")
        assert np.array_equal(spec.build().entries, direct.entries)

    # the ribbon's open axis has no periodic form
    @pytest.mark.parametrize("family, bc", [
        (f, bc) for f in sorted(SPEC_BUILDS) for bc in ("open", "periodic")
        if (f, bc) != ("chern_ribbon", "periodic")])
    def test_build_matches_direct_builder(self, family, bc):
        params, direct = SPEC_BUILDS[family]
        built, expected = ModelSpec(family, params, bc).build(), direct(bc)
        assert np.array_equal(built.entries, expected.entries)
        assert built.site_labels == expected.site_labels
        assert built.bc == expected.bc

    def test_chern_ribbon_rejects_periodic_bc(self):
        params, _ = SPEC_BUILDS["chern_ribbon"]
        with pytest.raises(UnsupportedError, match="bc 'open'"):
            ModelSpec("chern_ribbon", params, "periodic")

    @pytest.mark.parametrize("bc", ["foo", None])
    def test_unknown_bc_rejected(self, bc):
        params, _ = SPEC_BUILDS["hatano_nelson"]
        with pytest.raises(UnsupportedError, match="bc 'open' or 'periodic'"):
            ModelSpec("hatano_nelson", params, bc)

    @pytest.mark.parametrize("family, name, value", [
        ("hatano_nelson", "L", 6.7), ("hatano_nelson", "L", True),
        ("hatano_nelson", "L", "6"), ("nh_ssh", "N_cells", 4.5),
        ("guo_chain", "n", 2.5), ("guo_2d", "Lx", False),
        ("guo_2d", "Ly", 6.2)])
    def test_non_integral_size_rejected(self, family, name, value):
        # the builder adapters pass sizes through int(), which truncates
        params, _ = SPEC_BUILDS[family]
        with pytest.raises(ValueError, match=f"{name!r} must be an integer"):
            ModelSpec(family, {**params, name: value}, "open")

    def test_integral_sizes_accepted(self):
        for L in (6, 6.0, np.int64(6)):
            spec = ModelSpec("hatano_nelson", {"L": L, "t": 1.0, "alpha": 0.5},
                             "open")
            assert spec.build().dim == 6

    def test_round_trip_covers_every_family(self):
        assert set(SPEC_BUILDS) == set(FAMILIES)

    def test_kernel_rejects_nonfinite(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            KernelMatrix(3, bad, "open")


@pytest.mark.parametrize("last_label", [(1, 1), (3, 1)],
                         ids=["repeated_slot", "missing_slot"])
def test_labels_that_do_not_tile_the_cell_grid_raise(last_label):
    km = build_nh_ssh_real(3, 1.0, 0.4, 0.3, "periodic")
    assert np.array_equal(km.cell_sites, np.arange(6).reshape(3, 2))
    km.site_labels[-1] = last_label
    for call in (lambda: bloch_reduce(km, 0.0), lambda: bloch_system(km),
                 lambda: momentum_transform(km)):
        with pytest.raises(SizeError, match="do not tile"):
            call()


def pi_flux_ring(n_cells):
    """The A02 ring: the PT SSH ring at its PT boundary (omega - upsilon =
    u) with a pi flux on the wrap bond."""
    km = build_nh_ssh_real(n_cells, 1.0, 0.3, 0.7, "periodic")
    entries, w = km.entries.copy(), km.dim - 1
    entries[[0, w], [w, 0]] *= -1
    return KernelMatrix(km.dim, entries, km.bc, km.site_labels)


# periodic kernels whose row-0 blocks do not describe the other rows
NOT_TRANSLATION_INVARIANT = {
    # its cells run along x and wrap into the next row of cells
    "guo_2d": lambda: build_guo_2d(4, 4, 0.6),
    # a site-dependent potential
    "quasicrystal": lambda: build_quasicrystal(34, 0.5, 1.0, 0.5,
                                               Fraction(21, 34)),
    # the wrap bond differs from the bulk bonds
    "pi_flux_ring": lambda: pi_flux_ring(8),
}


@pytest.mark.parametrize("name", sorted(NOT_TRANSLATION_INVARIANT))
def test_a_ring_that_is_not_translation_invariant_is_refused(name):
    # their row-0 blocks would reconstruct another kernel; they are given by
    # their dense entries, so they have no cell blocks to reduce either
    km = NOT_TRANSLATION_INVARIANT[name]()
    assert km.bc == "periodic" and km.cell_blocks is None
    for call in (lambda: bloch_reduce(km, 0.0), lambda: bloch_system(km)):
        with pytest.raises(UnsupportedError, match="cell blocks"):
            call()


def test_an_open_kernel_has_no_bloch_reduction():
    km = build_nh_ssh_real(4, 1.0, 0.4, 0.3, "open")
    for call in (lambda: bloch_reduce(km, 0.0), lambda: bloch_system(km)):
        with pytest.raises(UnsupportedError, match="periodic"):
            call()


def test_block_kernel_entries_and_blocks_are_read_only():
    km = build_nh_ssh_real(4, 1.0, 0.4, 0.3, "periodic")
    for array in (km.entries, *km.cell_blocks):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2.0


def _no_assembly(*_):
    raise AssertionError("the dense entries were assembled")


def test_bloch_route_of_a_block_kernel_assembles_no_entries(monkeypatch):
    monkeypatch.setattr(models, "_chain_entries", _no_assembly)
    km = build_guo_chain(48, 3, 1.0, 0.4)
    assert repr(km).startswith("KernelMatrix(dim=48, cell_blocks=")
    assert bloch_system(km).dim == 48


def test_open_chain_assembles_its_entries_once_on_first_read(monkeypatch):
    # build_eb_ssh keeps the blocks, so reading the size forms no dim x dim
    # array; the first read assembles writable entries, and later reads
    # return the same array
    calls = []

    def counted(*args, _assemble=models._chain_entries):
        calls.append(args[-1])
        return _assemble(*args)
    monkeypatch.setattr(models, "_chain_entries", counted)
    km = build_eb_ssh(64, 1.0, 0.5, 0.7, "open")
    assert km.dim == 128 and calls == []
    entries = km.entries
    assert calls == ["open"] and km.entries is entries
    entries[0, 0] = 2.0  # an open chain's entries are an ordinary array
    assert km.entries[0, 0] == 2.0


@pytest.mark.parametrize("n_cells, finite", [(1, True), (2, False)])
def test_open_chain_refuses_a_non_finite_bond_that_it_holds(n_cells, finite):
    # one cell has no bond, so an infinite bond is not an entry
    def build():
        with np.errstate(invalid="ignore"):  # 0.5j * inf in build_eb_ssh
            return build_eb_ssh(n_cells, 1.0, 0.5, np.inf, "open")
    if finite:
        assert np.isfinite(build().entries).all()
    else:
        with pytest.raises(ValueError, match="finite"):
            build()


def test_relabelled_block_kernel_leaves_the_block_route(monkeypatch):
    # each cell's two sublattices swapped: the blocks would give H(k) in the
    # old sublattice order, so bloch_reduce refuses the ring before it
    # reads an entry, and the route solves it dense
    km = build_nh_ssh_real(6, 1.0, 0.4, 0.3, "periodic")
    km.site_labels[:] = [(c, 1 - s) for c, s in km.site_labels]
    with monkeypatch.context() as patch:
        patch.setattr(models, "_chain_entries", _no_assembly)
        with pytest.raises(UnsupportedError, match="cell blocks"):
            bloch_reduce(km, bloch_momenta(6))
    sys, _ = ground_state_system(km, Fraction(1, 2))
    assert type(sys) is BiorthogonalSystem
