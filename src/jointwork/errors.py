"""Exception types raised by the numerical routines in this package."""


class JointWorkError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(JointWorkError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class NotPsdError(JointWorkError):
    """Matrix has an eigenvalue below the negative tolerance floor."""


class NotUnitaryError(JointWorkError):
    """Matrix fails the unitarity check U U^dag = 1."""


class DegenerateSpectrumError(JointWorkError):
    """Eigenvalue gap too small to define outcome projectors unambiguously."""


class NonInvertibleInstrumentError(JointWorkError):
    """Measurement channel is singular (or numerically so) and cannot be undone."""


class ZeroVisibilityError(JointWorkError):
    """Operation requires strictly positive visibility."""


class AssignmentDomainError(JointWorkError):
    """Log-domain energy assignment undefined for the requested parameters.

    Carries the first offending outcome index and the smallest visibility
    for which every outcome stays inside the log domain.
    """

    def __init__(self, message, outcome=None, min_visibility=None):
        super().__init__(message)
        self.outcome = outcome
        self.min_visibility = min_visibility


class BasisMismatchError(JointWorkError):
    """State is not diagonal in the basis required by the identity being tested."""
