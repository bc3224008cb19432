"""Exception hierarchy shared across the package."""


class GlmmSelectError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GlmmSelectError):
    """Invalid model specification, dimension mismatch, or unsupported option."""


class NumericError(GlmmSelectError):
    """Non-finite values where finite ones are required."""


class DecompositionError(GlmmSelectError):
    """Covariance matrix is not decomposable (non-PSD beyond tolerance)."""


class SamplerError(GlmmSelectError):
    """The MCMC engine reached an unrecoverable state."""


class DataError(GlmmSelectError):
    """Malformed input data (CSV parse problems, bad columns); every table reader raises it."""


class SpecValidationError(ConfigurationError):
    """A JSON document (model spec, design or grid) failed validation; carries every problem found."""

    def __init__(self, problems, document: str = "model spec"):
        self.problems = list(problems)
        super().__init__(f"invalid {document}: " + "; ".join(self.problems))
