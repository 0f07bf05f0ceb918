"""Exception types shared across the package."""


class QRealizeError(Exception):
    """Base class for all qrealize errors."""


class DimensionError(QRealizeError):
    """A matrix argument has an incompatible, odd, or nonpositive dimension."""


class ValidationError(QRealizeError):
    """A system violates one of the model invariants."""


class ParseError(ValidationError):
    """An input document could not be parsed into a system."""


class ContractError(QRealizeError):
    """An argument does not satisfy a documented precondition."""


class FactorizationError(QRealizeError):
    """A requested matrix factorization does not exist at the given tolerance."""


class NumericalError(QRealizeError):
    """A quantity that vanishes in exact arithmetic exceeded its tolerance."""


class SynthesisError(QRealizeError):
    """The Gram matrix Xi2 of a synthesis is not PSD or not of rank r/2.

    Failing residuals are not an error: synthesize_realization returns
    them in its report.
    """
