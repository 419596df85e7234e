import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhent import (BranchError, ConsistencyError, CorrelationMatrix,
                   PartialSpectrumError, Partition, PartitionError,
                   biorthogonal_eig, bloch_system, build_nh_ssh_real,
                   build_report, build_uniform_chain, correlation_matrix,
                   entanglement_hamiltonian, entanglement_spectrum,
                   modified_entropy, mutual_information, renyi_entropy,
                   select_occupied, vn_entropy)
from nhent.entanglement import MIDGAP_TOL
from nhent.models import KernelMatrix


def corr_of(matrix):
    arr = np.asarray(matrix, dtype=complex)
    return CorrelationMatrix(Partition("position", tuple(range(len(arr))),
                                       len(arr) + 1), arr)


class TestEntanglementSpectrum:
    def test_maximally_entangled_mode(self):
        eps, xi, clamped = entanglement_spectrum(corr_of([[0.5]]))
        assert eps[0] == pytest.approx(0.5)
        assert xi[0] == pytest.approx(0.0, abs=1e-14)
        assert len(clamped) == 0

    def test_trivial_modes_are_clamped(self):
        eps, xi, clamped = entanglement_spectrum(corr_of(np.diag([1.0, 0.0])))
        assert sorted(np.round(eps.real, 12)) == [0.0, 1.0]
        assert len(xi) == 0
        assert len(clamped) == 2

    def test_complex_eigenvalue_principal_branch(self):
        eps, xi, _ = entanglement_spectrum(corr_of([[0.5 + 0.5j]]))
        assert xi[0] == pytest.approx(-1j * np.pi / 2, abs=1e-14)

    def test_xi_eps_consistency(self):
        km = build_nh_ssh_real(8, 1.0, 0.4, 0.3, "open")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.half(16))
        eps, xi, clamped = entanglement_spectrum(C)
        kept = np.delete(eps, clamped)
        assert np.abs(1.0 / (np.exp(xi) + 1.0) - kept).max() < 1e-9


class TestVnEntropy:
    def test_single_half_mode(self):
        assert vn_entropy([0.5]) == pytest.approx(math.log(2))

    def test_trivial_modes(self):
        assert vn_entropy([0.0, 1.0]) == 0

    def test_conjugate_pair_closed_form(self):
        # exact value ln 2 + pi/2 for the pair 0.5 +- 0.5i
        s = vn_entropy([0.5 + 0.5j, 0.5 - 0.5j])
        assert s.real == pytest.approx(math.log(2) + math.pi / 2, abs=1e-12)
        assert abs(s.imag) < 1e-12

    def test_negative_real_eigenvalue_uses_principal_branch(self):
        s = vn_entropy([-0.3])
        e = -0.3
        expected = -(e * np.log(complex(e)) + (1 - e) * np.log(complex(1 - e)))
        assert s == pytest.approx(expected)


class TestRenyi:
    def test_half_mode(self):
        assert renyi_entropy([0.5], 2) == pytest.approx(math.log(2))

    def test_trivial(self):
        assert renyi_entropy([0.0, 1.0], 3) == 0

    def test_arithmetic_value(self):
        assert renyi_entropy([0.9], 2) == pytest.approx(-math.log(0.82))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5], 1)

    def test_vanishing_factor_branch_error(self):
        # eps = (1+i)/2 makes eps^2 + (1-eps)^2 exactly zero
        with pytest.raises(BranchError):
            renyi_entropy([0.5 + 0.5j], 2)


class TestModifiedEntropy:
    def test_hermitian_limit_equals_vn(self):
        eps = np.array([0.1, 0.4, 0.7, 0.99])
        assert modified_entropy(eps) == pytest.approx(
            vn_entropy(eps).real, abs=1e-12)

    def test_conjugate_pair_value(self):
        # reduced form and brute-force many-body product sum both give ln 2
        pair = [0.5 + 0.5j, 0.5 - 0.5j]
        assert modified_entropy(pair) == pytest.approx(math.log(2), abs=1e-12)
        lam = []
        for b1 in (0, 1):
            for b2 in (0, 1):
                v = (pair[0] if b1 else 1 - pair[0]) \
                    * (pair[1] if b2 else 1 - pair[1])
                lam.append(v)
        brute = -sum(v * math.log(abs(v)) for v in lam if abs(v) > 1e-14)
        assert brute.imag == pytest.approx(0, abs=1e-12)
        assert modified_entropy(pair) == pytest.approx(brute.real, abs=1e-12)

    def test_trivial_modes(self):
        assert modified_entropy([0.0, 1.0]) == 0.0

    def test_non_closed_spectrum_rejected(self):
        with pytest.raises(ConsistencyError):
            modified_entropy([0.3 + 0.2j])


class TestEntanglementHamiltonian:
    def test_maximally_mixed(self):
        h = entanglement_hamiltonian(corr_of(0.5 * np.eye(3)))
        assert np.abs(h).max() < 1e-12

    def test_definition_inverted(self):
        h = entanglement_hamiltonian(corr_of(np.diag([1 / (np.e + 1)] * 2)))
        assert np.abs(h - np.eye(2)).max() < 1e-12

    def test_round_trip_spectrum(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        H = A + A.T
        w, V = np.linalg.eigh(H)
        eps = (np.tanh(w) + 1.0) / 2.2 + 0.03  # spectrum safely inside (0, 1)
        C = (V * eps) @ V.conj().T
        h = entanglement_hamiltonian(corr_of(C))
        xi = np.linalg.eigvalsh(h)
        recovered = np.sort(1.0 / (np.exp(xi) + 1.0))
        assert np.abs(recovered - np.sort(eps)).max() < 1e-10

    def test_clamped_modes_raise_partial_spectrum(self):
        with pytest.raises(PartialSpectrumError) as err:
            entanglement_hamiltonian(corr_of(np.diag([1.0, 0.5])))
        assert len(err.value.excluded) == 1


class TestReports:
    def test_midgap_detection(self):
        km = build_nh_ssh_real(20, 1.0, 0.4, 0.3, "open")
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.half(40))
        report = build_report(C)
        assert report.n_midgap == 1
        eps = report.correlation_eigenvalues[report.midgap_modes]
        assert abs(eps[0].real - 0.5) < 0.05

    def test_modified_entropy_nan_for_unpaired_spectra(self):
        from fractions import Fraction as F
        from nhent import build_quasicrystal
        km = build_quasicrystal(13, 0.0, 1.0, 0.9, F(8, 13))
        sys = biorthogonal_eig(km)
        sel = select_occupied(sys, F(6, 13))
        C = correlation_matrix(sys, sel, Partition.contiguous(0, 6, 13))
        report = build_report(C)
        assert np.isnan(report.entropy_modified) or np.isfinite(report.entropy_modified)

    def test_realness_residual_recorded(self):
        km = build_uniform_chain(8)
        sys = bloch_system(km)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.half(8))
        report = build_report(C)
        assert report.realness_residual < 1e-12


def _similar(diag_blocks, seed):
    """S B S^-1 for the block-diagonal B and a seeded real S."""
    B = np.zeros((7, 7), dtype=complex)
    i = 0
    for block in diag_blocks:
        block = np.atleast_2d(block)
        B[i:i + len(block), i:i + len(block)] = block
        i += len(block)
    S = np.random.default_rng(seed).normal(size=(7, 7)) + 3.0 * np.eye(7)
    return S @ B @ np.linalg.inv(S)


def _hermitian_block():
    Q = np.linalg.qr(np.random.default_rng(4).normal(size=(7, 7)))[0]
    return (Q * [0.0, 0.02, 0.3, 0.5, 0.51, 0.8, 1.0]) @ Q.T


REPORT_BLOCKS = {
    "hermitian": _hermitian_block,
    # real, so its eigenvalues come in conjugate pairs
    "conjugate_closed": lambda: _similar(
        [[[0.4, 0.2], [-0.2, 0.4]], [[0.3, 0.6], [-0.6, 0.3]], 0.52, 0.9,
         1.0], 5),
    "not_conjugate_closed": lambda: _similar(
        [0.3 + 0.2j, 0.6, 0.48 - 0.1j, 0.05 + 0.3j, 0.7, 0.0, 0.2j], 6),
    "all_clamped": lambda: np.diag([0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.0,
                                    1.0, 0.0]),
}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestReportFields:
    """build_report spectra once; its fields equal the public functions'."""

    @pytest.mark.parametrize("name", sorted(REPORT_BLOCKS))
    def test_report_matches_the_public_functions(self, name):
        C = corr_of(REPORT_BLOCKS[name]())
        report = build_report(C, renyi_orders=(2, 3))
        eps, xi, clamped = entanglement_spectrum(C)
        assert _same_bits(report.correlation_eigenvalues, eps)
        assert _same_bits(report.single_particle_spectrum, xi)
        assert _same_bits(report.clamped_modes, clamped)
        assert _same_bits(report.midgap_modes, np.nonzero(
            np.abs(eps.real - 0.5) < MIDGAP_TOL)[0])
        assert _same_bits(report.entropy_vn, vn_entropy(eps))
        assert type(report.entropy_vn) is complex
        for n in (2, 3):
            assert _same_bits(report.entropy_renyi[n], renyi_entropy(eps, n))
        assert (len(clamped) == len(eps)) is (name == "all_clamped")
        if name == "not_conjugate_closed":
            with pytest.raises(ConsistencyError):
                modified_entropy(eps)
            assert math.isnan(report.entropy_modified)
        else:
            assert _same_bits(report.entropy_modified, modified_entropy(eps))
            assert type(report.entropy_modified) is float

    def test_vanishing_renyi_factor_raises(self):
        # eps = (1 +- i)/2 makes eps^2 + (1-eps)^2 exactly zero
        C = corr_of(np.diag([0.5 + 0.5j, 0.5 - 0.5j, 0.2]))
        with pytest.raises(BranchError):
            build_report(C, renyi_orders=(2,))


def _rotated(eigenvalues, seed):
    """Q diag(eigenvalues) Q^T for a seeded real orthogonal Q (float64)."""
    n = len(eigenvalues)
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    return (Q * eigenvalues) @ Q.T


def _stack_of(matrices):
    part = Partition("position", tuple(range(len(matrices[0]))),
                     len(matrices[0]) + 1)
    return [CorrelationMatrix(part, A) for A in matrices]


STACKS = {
    # exact 0 and 1 eigenvalues, each kept out of every sum by the clamp
    "hermitian_clamped": lambda: _stack_of([
        _rotated([0.0, 0.02, 0.3, 0.5, 0.51, 0.8, 1.0], 4),
        np.diag([0.0, 1.0, 0.25, 0.75, 0.0, 0.5, 1.0]),
        _rotated([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9], 5),
        np.diag([0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.0, 1.0, 0.0])]),
    "complex": lambda: _stack_of([
        _similar([0.3 + 0.2j, 0.6, 0.48 - 0.1j, 0.05 + 0.3j, 0.7, 0.1,
                  0.2j], seed) for seed in (6, 7, 8)]),
    # only the second block is not conjugate-closed
    "one_unpaired": lambda: _stack_of([
        REPORT_BLOCKS["conjugate_closed"](),
        REPORT_BLOCKS["not_conjugate_closed"](),
        REPORT_BLOCKS["hermitian"]().astype(complex)]),
}


def _same_report(a, b) -> bool:
    return (a.partition == b.partition
            and a.entropy_renyi.keys() == b.entropy_renyi.keys()
            and all(type(getattr(a, f)) is type(getattr(b, f))
                    and _same_bits(getattr(a, f), getattr(b, f))
                    for f in ("correlation_eigenvalues",
                              "single_particle_spectrum", "entropy_vn",
                              "entropy_modified", "midgap_modes",
                              "realness_residual", "clamped_modes"))
            and all(type(a.entropy_renyi[n]) is type(b.entropy_renyi[n])
                    and _same_bits(a.entropy_renyi[n], b.entropy_renyi[n])
                    for n in a.entropy_renyi))


class TestStackedReports:
    """One report pass over a stack equals a report of each block alone."""

    @pytest.mark.parametrize("renyi_orders", [(2,), (2, 3)])
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_each_report_equals_its_block_alone(self, name, renyi_orders):
        stack = STACKS[name]()
        reports = build_report(stack, renyi_orders=renyi_orders)
        assert isinstance(reports, list) and len(reports) == len(stack)
        for C, report in zip(stack, reports):
            assert _same_report(report, build_report(
                C, renyi_orders=renyi_orders))
            assert sorted(report.entropy_renyi) == list(renyi_orders)

    def test_clamped_at_zero_and_one(self):
        reports = build_report(STACKS["hermitian_clamped"]())
        eps = reports[1].correlation_eigenvalues
        assert sorted(eps[reports[1].clamped_modes].real) == [0, 0, 1, 1]
        assert len(reports[3].clamped_modes) == 7
        assert reports[3].entropy_vn == 0j
        assert len(reports[3].single_particle_spectrum) == 0
        assert reports[2].clamped_modes.size == 0

    def test_modified_entropy_nan_on_the_unpaired_block_only(self):
        s_mod = [r.entropy_modified
                 for r in build_report(STACKS["one_unpaired"]())]
        assert [math.isnan(s) for s in s_mod] == [False, True, False]

    def test_empty_stack_gives_no_reports(self):
        assert build_report([]) == []


class TestMutualInformation:
    def two_chain_system(self):
        # two decoupled 6-site rings in one kernel
        k1 = build_uniform_chain(6).entries
        K = np.zeros((12, 12), dtype=complex)
        K[:6, :6] = k1
        K[6:, 6:] = k1
        return biorthogonal_eig(KernelMatrix(12, K, "periodic"))

    def test_decoupled_chains_have_zero_mutual_information(self):
        sys = self.two_chain_system()
        sel = select_occupied(sys, Fraction(1, 2))
        A = Partition.contiguous(0, 3, 12)
        B = Partition.contiguous(6, 9, 12)
        AB = A.union(B)
        rA = build_report(correlation_matrix(sys, sel, A))
        rB = build_report(correlation_matrix(sys, sel, B))
        rAB = build_report(correlation_matrix(sys, sel, AB))
        assert abs(mutual_information(rA, rB, rAB)) < 1e-10

    def test_adjacent_half_chains_grow_with_size(self):
        values = {}
        for L in (32, 64):
            sys = bloch_system(build_uniform_chain(L))
            sel = select_occupied(sys, Fraction(1, 2))
            A = Partition.contiguous(0, L // 4, L)
            B = Partition.contiguous(L // 4, L // 2, L)
            AB = A.union(B)
            rA = build_report(correlation_matrix(sys, sel, A))
            rB = build_report(correlation_matrix(sys, sel, B))
            rAB = build_report(correlation_matrix(sys, sel, AB))
            values[L] = mutual_information(rA, rB, rAB).real
        assert values[32] > 0
        assert values[64] > values[32]

    def test_pure_state_halves(self):
        sys = bloch_system(build_uniform_chain(8))
        sel = select_occupied(sys, Fraction(1, 2))
        A = Partition.half(8)
        B = A.complement()
        AB = A.union(B)
        rA = build_report(correlation_matrix(sys, sel, A))
        rB = build_report(correlation_matrix(sys, sel, B))
        rAB = build_report(correlation_matrix(sys, sel, AB))
        i_ab = mutual_information(rA, rB, rAB)
        assert abs(rAB.entropy_vn) < 1e-9
        assert i_ab.real == pytest.approx(2 * rA.entropy_vn.real, abs=1e-9)

    def test_overlap_rejected(self):
        sys = self.two_chain_system()
        sel = select_occupied(sys, Fraction(1, 2))
        A = Partition.contiguous(0, 4, 12)
        B = Partition.contiguous(3, 8, 12)
        rA = build_report(correlation_matrix(sys, sel, A))
        rB = build_report(correlation_matrix(sys, sel, B))
        rAB = build_report(correlation_matrix(sys, sel, A.union(B)))
        with pytest.raises(PartitionError):
            mutual_information(rA, rB, rAB)


@st.composite
def conjugate_closed_sets(draw):
    # complex eigenvalues in conjugate pairs anywhere off the real axis;
    # real eigenvalues inside [0, 1], away from the principal-branch cut
    # (a lone real eigenvalue outside [0, 1] sits on the cut of ln(1 - x)
    # and genuinely contributes an imaginary pi term)
    n_pairs = draw(st.integers(0, 4))
    n_real = draw(st.integers(0, 4))
    if n_pairs + n_real == 0:
        n_real = 1
    eps = []
    for _ in range(n_pairs):
        re = draw(st.floats(-1.5, 2.5))
        im = draw(st.floats(0.01, 1.5))
        eps.extend([complex(re, im), complex(re, -im)])
    for _ in range(n_real):
        eps.append(complex(draw(st.floats(0.0, 1.0)), 0.0))
    return np.array(eps)


@settings(max_examples=80, deadline=None)
@given(conjugate_closed_sets())
def test_conjugate_closed_spectra_give_real_entropy(eps):
    s = vn_entropy(eps)
    assert abs(s.imag) < 1e-9


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=10))
def test_renyi2_bounded_by_vn_for_hermitian_spectra(eps):
    s1 = vn_entropy(eps).real
    s2 = renyi_entropy(eps, 2).real
    assert s2 <= s1 + 1e-12
