"""Exception and warning types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class SizeError(ToolkitError, ValueError):
    """Lattice dimensions incompatible with the requested model."""


class SingularPotentialError(ToolkitError, ValueError):
    """On-site potential has a (near-)singular denominator at some site."""


class NormalizationError(ToolkitError, ValueError):
    """A vector that must be unit-normalized is not."""


class DefectiveError(ToolkitError):
    """Eigenvector matrix too ill-conditioned for biorthogonal quantities.

    Carries ``condition_estimate`` and ``clusters``, the groups of nearly
    coincident eigenvalues responsible for the (near-)defectiveness.  When
    the gate refuses, ``condition_estimate`` is the 2-norm condition number
    (from an SVD) of the rebalanced eigenvector matrix; when the normalized
    eigenvectors overflow float64, it is the largest eigenvalue condition
    number that the accepted solve would have reported; when the kernel has
    a non-finite entry or its rebalanced form overflows, before any solve,
    it is infinite.
    """

    def __init__(self, message, condition_estimate=None, clusters=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate
        self.clusters = clusters if clusters is not None else []


class DegeneracyError(ToolkitError):
    """Degenerate selection boundary where a unique state is required."""


class UnsupportedError(ToolkitError, ValueError):
    """Operation not defined for this input (e.g. wrong boundary condition)."""


class BranchError(ToolkitError, ArithmeticError):
    """Complex logarithm evaluated at (numerically) zero argument."""


class ConsistencyError(ToolkitError):
    """A quantity that must be real retained a large imaginary residual."""


class PartialSpectrumError(ToolkitError):
    """Correlation eigenvalues at 0 or 1 exclude part of the spectrum.

    ``excluded`` lists the offending mode indices.
    """

    def __init__(self, message, excluded=()):
        super().__init__(message)
        self.excluded = list(excluded)


class PartitionError(ToolkitError, ValueError):
    """Invalid or incompatible subsystem partitions."""


class InsufficientDataError(ToolkitError, ValueError):
    """Too few usable points for a fit. Carries the window actually used."""

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


class CollapseError(ToolkitError):
    """Orbital matrix lost rank during non-unitary evolution.

    ``time`` records when the collapse was detected.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class OrderingError(ToolkitError, ValueError):
    """``oracle.reduced_density`` got a count of kept leading modes outside 1..N."""


class ConfigError(ToolkitError, ValueError):
    """Run configuration failed validation. Carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class DegeneracyWarning(UserWarning):
    """Selection boundary is degenerate within tolerance; computation proceeds."""
