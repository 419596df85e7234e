"""Entanglement diagnostics for Hermitian and non-Hermitian free fermions.

Builds quadratic lattice kernels, diagonalizes them into biorthogonal
right/left systems, and computes entanglement spectra, von Neumann / Renyi /
modified entropies, entanglement Hamiltonians, mutual information,
central-charge fits, and no-jump dynamics, with a brute-force Fock-space
oracle for validation.
"""

from .errors import (BranchError, CollapseError, ConfigError, ConsistencyError,
                     DefectiveError, DegeneracyError, DegeneracyWarning,
                     InsufficientDataError, NormalizationError, OrderingError,
                     PartialSpectrumError, PartitionError,
                     SingularPotentialError, SizeError, ToolkitError,
                     UnsupportedError)
from .models import (FAMILIES, KernelMatrix, ModelSpec, bloch_momenta,
                     bloch_reduce, build_chern_ribbon, build_eb_ssh,
                     build_guo_2d, build_guo_chain,
                     build_hatano_nelson, build_heff_from_jumps,
                     build_measurement_heff, build_nh_ssh_bloch,
                     build_nh_ssh_real, build_quasicrystal,
                     build_uniform_chain, fibonacci_approximant)
from .spectra import (BiorthogonalSystem, BlochSystem, GroundStateSelection,
                      biorthogonal_eig, bloch_system, petermann_factor,
                      select_occupied)
from .correlations import (CorrelationMatrix, DualityReport, Partition,
                           check_duality, correlation_matrices,
                           correlation_matrix, momentum_transform, projector)
from .entanglement import (EntanglementReport, build_report,
                           entanglement_hamiltonian, entanglement_spectrum,
                           modified_entropy, mutual_information, renyi_entropy,
                           vn_entropy)
from .scaling import (FitResult, ScalingSeries, count_fermi_points,
                      fit_central_charge, lifshitz_scan)
from .dynamics import (GaussianState, domain_wall_state, evolve_no_jump,
                       hermitian_ground_state, kernel_exponential,
                       staggered_state)
from .oracle import (OracleReport, fock_block, fock_correlation,
                     manybody_biortho_ground, oracle_report, reduced_density,
                     sector_states)
from .pipeline import (TransitionScan, dual_momentum_partition,
                       entropy_series, ground_state_system,
                       momentum_space_view, report_for_partition,
                       self_dual_scan)

__version__ = "0.1.0"
