"""Exception hierarchy.

Validation errors mean the inputs never reached a solver (bad config,
inadmissible medium, mismatched truncations).  Solver errors mean a
numerical kernel refused to proceed (excluded frequency, failed or
ill-conditioned decomposition).  The CLI maps the former to exit code 1
and the latter to exit code 2.
"""


class GratescatError(Exception):
    """Base class for all package errors."""


class ValidationError(GratescatError):
    """Inputs are malformed or violate an admissibility assumption."""


class TruncationMismatch(ValidationError):
    """Operands were built over different mode sets."""


class NotOneDirectional(ValidationError):
    """The medium profile varies with height as well as along x1."""


class InsufficientDegree(ValidationError):
    """The moment table lacks an estimate that the reconstruction needs."""


class SolverError(GratescatError):
    """A numerical kernel could not produce a trustworthy result."""


class WoodAnomaly(SolverError):
    """A mode constant beta_n fell below the exclusion tolerance.

    Carries the offending mode index pair as ``.mode``.
    """

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode


class PointsTooClose(SolverError):
    """Source and evaluation point are too close for the modal series."""


class DivergenceViolation(SolverError):
    """A Rayleigh sequence breaks the divergence-free mode constraint."""


class EigenFailure(SolverError):
    """Dense eigen-decomposition did not converge."""


class _GuardRefusal(SolverError):
    """A condition guard refused a matrix.

    Carries the guarded ``.stage``, the ``.slab`` and n2 ``.block`` index
    (None where the refusal is not tied to one), the condition ``.value``
    read there (inf for a singular factor) and the ``.limit`` it was held to.
    """

    def __init__(self, message, stage=None, slab=None, block=None, value=None, limit=None):
        super().__init__(message)
        self.stage, self.slab, self.block = stage, slab, block
        self.value, self.limit = value, limit


class IllConditionedBasis(_GuardRefusal):
    """Modal eigenbasis is numerically rank deficient."""


class SingularMatch(_GuardRefusal):
    """Layer matching system is near-singular (reported, not regularized)."""


class NormalizationDegenerate(SolverError):
    """Eigenfunction value at the normalization point is numerically zero."""


class FitInconclusive(SolverError):
    """Neither candidate shift convention matches the computed spectrum."""


class ZeroLambda(ValidationError):
    """Transverse factor requested for the excluded eigenvalue zero."""


class DegenerateDenominator(SolverError):
    """Quasi-momentum resonance in the transverse coefficient relation."""


class A2Floor(SolverError):
    """Transverse overlap stayed below the retention floor."""
