"""Exception hierarchy.

Model-parameter problems derive from :class:`ModelValidationError`; everything
raised while crunching data derives from :class:`DataError`; an input file that
cannot be parsed raises :class:`MalformedInput`, and a seed outside the 64-bit
range raises :class:`SeedOutOfRange`.  The CLI maps the branches to distinct
exit codes.
"""


class OfbmkitError(Exception):
    """Base class for all errors raised by this package."""


class ModelValidationError(OfbmkitError):
    """A model parameterization failed validation."""


class DimensionMismatch(ModelValidationError):
    pass


class HurstOutOfRange(ModelValidationError):
    pass


class HurstUnsorted(ModelValidationError):
    pass


class SingularMixing(ModelValidationError):
    pass


class CovarianceNotPSD(ModelValidationError):
    pass


class CorrelationInfeasible(ModelValidationError):
    """Pairwise correlation exceeds the feasible bound for the Hurst pair."""

    def __init__(self, m: int, m2: int, rho: float, rho_max: float):
        self.pair = (m, m2)
        self.rho = rho
        self.rho_max = rho_max
        super().__init__(
            f"correlation rho[{m},{m2}] = {rho:.6g} exceeds the feasible "
            f"bound rho_max = {rho_max:.6g} for this Hurst pair"
        )


class MalformedInput(OfbmkitError):
    """An input file is not UTF-8, is empty or ragged, or holds a non-numeric sample."""


class DataError(OfbmkitError):
    """A computation on concrete data failed."""


class NonFiniteData(DataError):
    pass


class EmbeddingFailed(DataError):
    pass


class SeriesTooShort(DataError):
    pass


class BadFilter(DataError):
    pass


class ScaleUnavailable(DataError):
    pass


class WindowTooSmall(DataError):
    pass


class InsufficientCoefficients(DataError):
    pass


class DegenerateRange(DataError):
    pass


class SampleTooSmall(DataError):
    pass


class NotSymmetric(DataError):
    pass


class NonPositiveDiagonal(DataError):
    pass


class NonPositiveEigenvalue(DataError):
    pass


class SingularCovariance(DataError):
    pass


class BadProbability(DataError):
    pass


class EmptySample(DataError):
    pass


class ZeroVariance(DataError):
    pass


class SeedOutOfRange(OfbmkitError):
    """A seed lies outside the unsigned 64-bit range 0 .. 2**64 - 1."""
