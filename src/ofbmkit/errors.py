"""Exception hierarchy; each branch carries the exit code the CLI reports it with.

``cli.main`` prints an error's :meth:`~OfbmkitError.line` to stderr and returns
its ``exit_code``: 2 for :class:`MalformedInput` (an input file that cannot be
parsed) and :class:`SeedOutOfRange` (a seed outside 0 .. 2^64 - 1), 3 for
:class:`ModelValidationError` (a model parameter problem), 4 for
:class:`DataError` (anything raised while crunching data: a :class:`SeriesTooShort`
names the octave a series reaches, a :class:`NonPositiveDiagonal` the flat channel
and its octave, a :class:`RankDeficientSpectrum` the octave of the singular
spectrum) and 4 for any other :class:`OfbmkitError`.
"""


class OfbmkitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4
    template = "error: {name}: {message}"

    def line(self) -> str:
        """The line the CLI prints to stderr for this error."""
        return self.template.format(name=type(self).__name__, message=self)


class ModelValidationError(OfbmkitError):
    """A model parameterization failed validation."""

    exit_code = 3
    template = "model validation error: {name}: {message}"


class DimensionMismatch(ModelValidationError):
    """A model document's arrays are missing or of inconsistent shapes."""


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

    exit_code = 2
    template = "error: malformed input: {message}"


class DataError(OfbmkitError):
    """A computation on concrete data failed."""

    exit_code = 4
    template = "estimation error: {name}: {message}"


class ShapeMismatch(DataError):
    """Arrays passed to a computation have shapes or settings that do not fit together."""


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
    """A channel's spectrum diagonal is at most M * eps times the octave's largest."""


class RankDeficientSpectrum(DataError):
    """The channels are linearly dependent: a spectrum, full-sample or windowed,
    has numerical rank below M at the octave the message names."""


class SingularCovariance(DataError):
    """Monte Carlo estimates have a constant component or a correlation of rank below M."""


class BadProbability(DataError):
    pass


class EmptySample(DataError):
    pass


class SeedOutOfRange(OfbmkitError):
    """A seed lies outside the unsigned 64-bit range 0 .. 2**64 - 1."""

    exit_code = 2
    template = "error: {message}"
