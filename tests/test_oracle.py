import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import nhent.oracle
from nhent import (ConsistencyError, CorrelationMatrix, DefectiveError,
                   DegeneracyError, KernelMatrix, OrderingError, Partition,
                   SizeError, biorthogonal_eig, build_hatano_nelson,
                   build_nh_ssh_real, build_uniform_chain, correlation_matrix,
                   entanglement_hamiltonian, fock_block,
                   fock_correlation, manybody_biortho_ground,
                   modified_entropy, oracle_report, projector,
                   reduced_density, sector_states, select_occupied,
                   vn_entropy)
from nhent._linalg import eig_factors
from nhent.oracle import oracle_equivalence_suite


def rho_A_biortho(K, n_particles, keep):
    G_R, G_L, _ = manybody_biortho_ground(K, n_particles)
    return reduced_density(G_R, G_L, K.dim, keep)


def random_kernel(n_modes, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n_modes, n_modes)) \
        + 1j * rng.normal(size=(n_modes, n_modes))
    return KernelMatrix(n_modes, A, "open")


def jordan_wigner_hamiltonian(K):
    """sum_ij K_ij c+_i c_j on the 2^N Fock space from operator products.

    c_i = I x ... x sigma^- x Z x ... x Z with the Z string on modes j < i
    (mode 0 is the last factor), independent of ``fock_block``.  Every hop
    i != j is the operator product.  The diagonal sum_j K_jj n_j, with
    n_j = diag(c+_j c_j) from the same products, is correctly rounded
    (``math.fsum`` of the real and of the imaginary parts), as the
    definition of the Fock block asks.
    """
    N = K.dim
    lower, Z = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -1.0])
    c = []
    for i in range(N):
        op = np.eye(2 ** (N - 1 - i))
        for factor in [lower] + [Z] * i:
            op = np.kron(op, factor)
        c.append(op)
    H = np.zeros((2 ** N, 2 ** N), dtype=complex)
    for i in range(N):
        for j in range(N):
            if i != j:
                H += K.entries[i, j] * (c[i].T @ c[j])
    n = np.array([np.diag(c[j].T @ c[j]) for j in range(N)])  # (mode, state)
    onsite = np.diagonal(K.entries)
    np.fill_diagonal(H, [complex(math.fsum(onsite.real * occ),
                                 math.fsum(onsite.imag * occ))
                         for occ in n.T])
    return H


class TestFockHamiltonian:
    def test_diagonal_kernel_counts_occupation(self):
        mu = np.array([0.5, -1.0, 2.0])
        K = KernelMatrix(3, np.diag(mu), "open")
        for n in range(4):
            Hb, states = fock_block(K, n)
            expected = sum(mu[i] * ((states >> i) & 1) for i in range(3))
            assert np.allclose(np.diag(Hb), expected, atol=1e-14)
            assert np.abs(Hb - np.diag(np.diag(Hb))).max(initial=0) == 0

    def test_single_hopping_matrix_element(self):
        K = np.zeros((2, 2), dtype=complex)
        K[0, 1] = 0.7
        blocks = [fock_block(KernelMatrix(2, K, "open"), n) for n in range(3)]
        # c+_0 c_1 connects the one-particle states |mode 1> -> |mode 0>
        H1, states = blocks[1]
        assert list(states) == [0b01, 0b10]
        assert H1[0, 1] == pytest.approx(0.7)
        assert sum(np.count_nonzero(Hb) for Hb, _ in blocks) == 1

    def test_block_eigenvalues_are_subset_sums(self):
        K = build_nh_ssh_real(3, 1.0, 0.4, 0.3, "open")  # 6 modes
        single = biorthogonal_eig(K).eigenvalues
        for n in (2, 3):
            wmb = np.linalg.eigvals(fock_block(K, n)[0])
            sums = np.array([sum(c) for c in itertools.combinations(single, n)])
            cost = np.abs(wmb[:, None] - sums[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-10

    def test_diagonal_past_float64_is_refused(self):
        # math.fsum raises on a running sum past float64; the block takes
        # the plain sum there, and the solve refuses its infinite entry
        K = KernelMatrix(2, np.diag([1e308, 1e308]), "open")
        assert fock_block(K, 2)[0][0, 0] == np.inf
        with pytest.raises(DefectiveError, match="non-finite"):
            manybody_biortho_ground(K, 2)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            fock_block(build_uniform_chain(15, bc="open"), 7)

    def test_sector_states_size_guard(self):
        with pytest.raises(SizeError):
            sector_states(nhent.oracle.MAX_MODES + 1, 1)

    def test_table_popcount_matches_bit_loop(self, monkeypatch):
        def bit_loop_popcount(a):
            a = a.astype(np.int64)
            count = np.zeros_like(a)
            while np.any(a):
                count += a & 1
                a >>= 1
            return count
        K = random_kernel(8, 13)
        blocks = [fock_block(K, n) for n in range(9)]
        monkeypatch.setattr(nhent.oracle, "_popcount", bit_loop_popcount)
        for n, (H, states) in enumerate(blocks):
            H_ref, states_ref = fock_block(K, n)
            assert np.array_equal(states, states_ref)
            assert np.array_equal(H, H_ref)

    def test_matches_jordan_wigner_operator_products(self):
        # complex diagonal entries; the second kernel also has a mode with
        # no onsite term that no hop enters
        empty_row = random_kernel(5, 7)
        empty_row.entries[2] = 0
        for K in (random_kernel(5, 7), empty_row):
            H = jordan_wigner_hamiltonian(K)
            for n in range(6):
                Hb, states = fock_block(K, n)
                assert np.array_equal(Hb, H[np.ix_(states, states)])
                # number conservation: nothing couples the sector to the rest
                rest = np.setdiff1d(np.arange(2 ** 5), states)
                assert not H[np.ix_(states, rest)].any()
                assert not H[np.ix_(rest, states)].any()

    def test_block_is_slice_of_full_matrix(self):
        K = random_kernel(6, 11)
        H = jordan_wigner_hamiltonian(K)
        for n in range(7):
            Hb, states = fock_block(K, n)
            assert np.array_equal(states, sector_states(6, n))
            assert np.array_equal(Hb, H[np.ix_(states, states)])


    @pytest.mark.parametrize("cells", [5, 6])
    def test_pt_chain_sectors_keep_the_reversal_exactly(self, cells):
        # the diagonal is correctly rounded, so every sector of the
        # PT-symmetric chain keeps the chain's reversal: H* = P H P, with
        # P the Fock image of mode i -> N - 1 - i (a diagonal summed in
        # mode order missed it by an ulp from four particles on)
        K = build_nh_ssh_real(cells, 1.0, 0.4, 0.3, "open")
        N = K.dim
        reverse = np.arange(N)[::-1]
        assert np.array_equal(K.entries.conj(),
                              K.entries[np.ix_(reverse, reverse)])
        for n in range(1, N):
            H, states = fock_block(K, n)
            image = sum(((states >> i) & 1) << (N - 1 - i) for i in range(N))
            P = np.searchsorted(states, image)
            assert np.array_equal(states[P], image)
            assert np.array_equal(H.conj(), H[np.ix_(P, P)]), n


class TestManybodyGround:
    def test_hermitian_chain_left_equals_right(self):
        K = build_uniform_chain(6, bc="open")
        G_R, G_L, _ = manybody_biortho_ground(K, 3)
        overlap = abs(np.vdot(G_L, G_R)) / (np.linalg.norm(G_L)
                                            * np.linalg.norm(G_R))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("K, reversed_", [
        (build_nh_ssh_real(5, 1.0, 0.4, 0.3, "open"), True),
        (random_kernel(10, 3), False),
        (build_hatano_nelson(10, 1.0, 0.5, "open"), False),
    ], ids=["nh-ssh", "random", "hatano-nelson"])
    def test_sector_solve_gets_only_mirrors_the_kernel_keeps(
            self, monkeypatch, K, reversed_):
        # nh-ssh fails its sublattice-keeping mirror (gain and loss sit on
        # the sublattices) and keeps its reversal; a random kernel keeps
        # none, and a real kernel needs none
        received = []

        def spy(A, mirrors):
            received.append(mirrors)
            return eig_factors(A, mirrors)

        monkeypatch.setattr(nhent.oracle, "eig_factors", spy)
        manybody_biortho_ground(K, 5)
        [images] = received
        if reversed_:
            states = sector_states(10, 5)
            image = sum(((states >> i) & 1) << (9 - i) for i in range(10))
            [P] = images
            assert np.array_equal(P, np.searchsorted(states, image))
        else:
            assert images == ()

    def test_skin_effect_non_orthogonality(self):
        K = build_hatano_nelson(6, 1.0, 0.5, "open")
        G_R, G_L, _ = manybody_biortho_ground(K, 3)
        assert np.vdot(G_L, G_R) == pytest.approx(1.0, abs=1e-10)
        # normalization-invariant non-orthogonality measure
        assert np.linalg.norm(G_R) * np.linalg.norm(G_L) > 1.01

    def test_energy_matches_single_particle_sum(self):
        K = build_nh_ssh_real(3, 1.0, 0.4, 0.3, "open")
        sys = biorthogonal_eig(K)
        sel = select_occupied(sys, Fraction(1, 2))
        expected = sys.eigenvalues[sel.occupied].sum()
        _, _, energy = manybody_biortho_ground(K, 3)
        assert abs(energy - expected) < 1e-10

    def test_biorthogonal_rho_is_idempotent(self):
        K = build_hatano_nelson(6, 1.0, 0.4, "open")
        G_R, G_L, _ = manybody_biortho_ground(K, 3)
        sector = sector_states(6, 3)
        rho = np.outer(G_R[sector], G_L[sector].conj())
        assert np.abs(rho @ rho - rho).max() < 1e-10

    def test_degenerate_ground_eigenvalue_raises(self):
        # one particle in diag(0, 0, 1): two ground states, no unique one
        K = KernelMatrix(3, np.diag([0.0, 0.0, 1.0]), "open")
        with pytest.raises(DegeneracyError, match="degenerate"):
            manybody_biortho_ground(K, 1)

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_sector_purity_equals_full_space_purity(self, scale):
        # scale 1.5 breaks <G_L|G_R> = 1, so the residual is O(1) there
        K = build_hatano_nelson(8, 1.0, 0.4, "open")
        G_R, G_L, _ = manybody_biortho_ground(K, 4)
        G_L = scale * G_L
        sector = sector_states(8, 4)
        rho = np.outer(G_R, G_L.conj())
        full = np.abs(rho @ rho - rho).max()
        rho_s = rho[np.ix_(sector, sector)]
        block = np.abs(rho_s @ rho_s - rho_s).max()
        assert np.count_nonzero(rho) == np.count_nonzero(rho_s)
        assert block == pytest.approx(full, rel=1e-12, abs=1e-15)


def test_fast_path_and_oracle_apply_one_defectiveness_rule():
    # diag(-1) + the 2 x 2 Jordan block: its one-particle Fock block is K
    # itself, so the referee must refuse it exactly as the fast path does;
    # the entanglement Hamiltonian of the same Jordan block is refused alike
    K = KernelMatrix(3, np.array([[-1.0, 0, 0], [0, 0, 1], [0, 0, 0]]), "open")
    assert np.array_equal(fock_block(K, 1)[0], K.entries)
    C = CorrelationMatrix(Partition.half(4), K.entries[1:, 1:])
    for solve in (lambda: biorthogonal_eig(K),
                  lambda: manybody_biortho_ground(K, 1),
                  lambda: entanglement_hamiltonian(C)):
        with pytest.raises(DefectiveError) as err:
            solve()
        assert len(err.value.clusters) == 1


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(5)
        aR, aL = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        bR, bL = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        # A modes occupy the low bits, so a product vector is kron(B, A)
        rho_A = reduced_density(np.kron(bR, aR), np.kron(bL, aL), 5, 2)
        expected = np.vdot(bL, bR) * np.outer(aR, aL.conj())
        assert np.abs(rho_A - expected).max() < 1e-12

    def test_maximally_entangled_pair(self):
        psi = np.zeros(4, dtype=complex)
        psi[0b01] = 1 / math.sqrt(2)
        psi[0b10] = 1 / math.sqrt(2)
        assert np.allclose(reduced_density(psi, psi, 2, 1),
                           np.diag([0.5, 0.5]), atol=1e-14)

    def test_trace_preserved(self):
        K = build_nh_ssh_real(3, 1.0, 0.4, 0.3, "open")
        G_R, G_L, _ = manybody_biortho_ground(K, 3)
        rho_A = reduced_density(G_R, G_L, 6, 3)
        assert np.trace(rho_A) == pytest.approx(np.vdot(G_L, G_R), abs=1e-12)

    @pytest.mark.parametrize("keep", range(1, 8))
    def test_reduced_density_equals_partial_trace(self, keep):
        K = build_nh_ssh_real(4, 1.0, 0.4, 0.3, "open")
        G_R, G_L, _ = manybody_biortho_ground(K, 4)
        # s = s_A + 2^keep s_B: trace the B index of the full |G_R><G_L|
        na, nb = 2 ** keep, 2 ** (8 - keep)
        rho = np.outer(G_R, G_L.conj()).reshape(nb, na, nb, na)
        assert np.abs(reduced_density(G_R, G_L, 8, keep)
                      - np.einsum("aiaj->ij", rho)).max() < 1e-13

    def test_reduced_density_keep_out_of_range(self):
        vec = np.zeros(8, dtype=complex)
        for keep in (0, 4):
            with pytest.raises(OrderingError):
                reduced_density(vec, vec, 3, keep)


class TestOracleReport:
    def test_maximally_mixed(self):
        rep = oracle_report(np.diag([0.5, 0.5]))
        assert rep.entropy_vn == pytest.approx(math.log(2))
        assert rep.entropy_modified == pytest.approx(math.log(2))

    def test_pure_state(self):
        rep = oracle_report(np.diag([1.0, 0.0]))
        assert abs(rep.entropy_vn) < 1e-12
        assert abs(rep.entropy_modified) < 1e-12


class TestPipelineCrossChecks:
    @pytest.mark.parametrize("factory,n_modes", [
        (lambda: build_uniform_chain(6, bc="open"), 6),
        (lambda: build_hatano_nelson(6, 1.0, 0.5, "open"), 6),
        (lambda: build_nh_ssh_real(4, 1.0, 0.4, 0.3, "open"), 8),
    ])
    def test_correlation_matrix_against_fock_space(self, factory, n_modes):
        K = factory()
        sys = biorthogonal_eig(K)
        sel = select_occupied(sys, Fraction(1, 2))
        P = projector(sys, sel)
        G_R, G_L, _ = manybody_biortho_ground(K, n_modes // 2)
        C_fock = fock_correlation(G_R, G_L, n_modes)
        assert np.abs(C_fock - P).max() < 1e-10

    def test_rho_spectrum_equals_correlation_products(self):
        K = build_uniform_chain(6, bc="open")
        sys = biorthogonal_eig(K)
        sel = select_occupied(sys, Fraction(1, 2))
        n_A = 3
        C = correlation_matrix(sys, sel, Partition.contiguous(0, n_A, 6))
        eps = np.linalg.eigvals(C.entries)
        rho_A = rho_A_biortho(K, 3, n_A)
        lam = np.linalg.eigvals(rho_A)
        products = np.array([
            np.prod([e if b else 1 - e for b, e in zip(bits, eps)])
            for bits in itertools.product((0, 1), repeat=n_A)])
        cost = np.abs(lam[:, None] - products[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-10

    def test_entropies_agree_both_routes(self):
        # trivial-phase chain: no imaginary edge pair, so the correlation
        # spectrum stays conjugate-closed and the modified entropy is real
        K = build_nh_ssh_real(4, 0.4, 1.0, 0.3, "open")
        sys = biorthogonal_eig(K)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.contiguous(0, 4, 8))
        eps = np.linalg.eigvals(C.entries)
        rep = oracle_report(rho_A_biortho(K, 4, 4))
        assert abs(vn_entropy(eps) - rep.entropy_vn) < 1e-10
        assert abs(modified_entropy(eps) - rep.entropy_modified) < 1e-10

    def test_vn_entropy_agrees_in_topological_phase(self):
        # the edge pair makes the modified entropy complex here, but the
        # standard entropy must still match the many-body route exactly
        K = build_nh_ssh_real(4, 1.0, 0.4, 0.3, "open")
        sys = biorthogonal_eig(K)
        sel = select_occupied(sys, Fraction(1, 2))
        C = correlation_matrix(sys, sel, Partition.contiguous(0, 4, 8))
        eps = np.linalg.eigvals(C.entries)
        rep = oracle_report(rho_A_biortho(K, 4, 4))
        assert abs(vn_entropy(eps) - rep.entropy_vn) < 1e-10

    def test_arbitrary_partition_via_relabeling(self):
        # non-leading subsystem {1, 3}: permute the modes so that it leads,
        # then block-trace
        K = build_hatano_nelson(5, 1.0, 0.3, "open")
        sys = biorthogonal_eig(K)
        sel = select_occupied(sys, Fraction(2, 5))
        part = Partition("position", (1, 3), 5)
        C = correlation_matrix(sys, sel, part)
        eps = np.linalg.eigvals(C.entries)

        order = [1, 3, 0, 2, 4]
        K2 = KernelMatrix(5, K.entries[np.ix_(order, order)], "open")
        rho_A = rho_A_biortho(K2, 2, 2)
        lam = np.linalg.eigvals(rho_A)
        products = np.array([
            np.prod([e if b else 1 - e for b, e in zip(bits, eps)])
            for bits in itertools.product((0, 1), repeat=2)])
        cost = np.abs(lam[:, None] - products[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-10


class TestOracleSuite:
    def test_inconsistent_modified_entropy_gives_no_residual(self, monkeypatch):
        def not_conjugate_closed(eps):
            raise ConsistencyError("eigenvalues are not conjugate-closed")
        monkeypatch.setattr(nhent.oracle, "modified_entropy",
                            not_conjugate_closed)
        results = oracle_equivalence_suite(n_cases=1, n_modes=4, subsystem=2)
        assert [r["modified_residual"] for r in results] == [None] * 3
        assert all(r["passed"] for r in results)

    def test_odd_mode_count_compares_the_filled_sector(self):
        # half filling of 7 modes fills 3.5 rounded up, 4: the oracle must
        # diagonalize the same sector, and then every rho_A spectrum agrees.
        # A random case may still miss on the entropy alone: a 2 pi i branch
        # jump of the factorized logarithm (random-17 here, residual 0.08)
        results = oracle_equivalence_suite(n_modes=7, subsystem=3, seed=5)
        # the nh-ssh case is built on n_modes // 2 cells, and says so
        assert {r["case"]: r["n_modes"] for r in results
                if r["n_modes"] != 7} == {"nh-ssh": 6}
        for r in results:
            assert r["spectrum_residual"] < 1e-9, r
            assert r["purity_residual"] < 1e-10, r
            assert r["passed"] or r["case"].startswith("random-"), r

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-7, 1.5])
    def test_purity_residual_is_the_explicit_one(self, monkeypatch, scale):
        # the suite reads max|rho^2 - rho| off <G_L|G_R>; a G_L scaled off
        # its normalization must give what the explicit product gives, and
        # fail the case
        ground, seen = nhent.oracle.manybody_biortho_ground, []

        def scaled(K, n_particles):
            G_R, G_L, energy = ground(K, n_particles)
            seen.append((G_R, scale * G_L))
            return G_R, scale * G_L, energy
        monkeypatch.setattr(nhent.oracle, "manybody_biortho_ground", scaled)
        results = oracle_equivalence_suite(n_cases=2, n_modes=10, subsystem=5)
        assert len(seen) == len(results) == 4
        for r, (G_R, G_L) in zip(results, seen):
            sector = np.flatnonzero((G_R != 0) | (G_L != 0))
            rho = np.outer(G_R[sector], G_L[sector].conj())
            explicit = np.abs(rho @ rho - rho).max()
            # the float64 product carries a rounding of a few eps max|rho|,
            # which is all there is at scale 1 and ~1e-9 of it at 1 + 1e-7
            floor = 8 * np.finfo(float).eps * np.abs(rho).max()
            assert r["purity_residual"] == pytest.approx(explicit, rel=1e-12,
                                                         abs=floor)
            if scale != 1.0:
                assert r["purity_residual"] > 1e-10 and not r["passed"]

    def test_other_errors_propagate(self, monkeypatch):
        def broken(eps):
            raise RuntimeError("bug in modified_entropy")
        monkeypatch.setattr(nhent.oracle, "modified_entropy", broken)
        with pytest.raises(RuntimeError, match="bug in modified_entropy"):
            oracle_equivalence_suite(n_cases=1, n_modes=4, subsystem=2)
