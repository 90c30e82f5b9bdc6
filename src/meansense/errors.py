"""Exception hierarchy shared by the whole package."""


class MeansenseError(Exception):
    """Base class for all library errors."""


class AlphabetMismatchError(MeansenseError):
    """Operands carry different alphabet sizes."""


class IndexRangeError(MeansenseError):
    """A 1-based position or range fell outside the word."""


class ParameterError(MeansenseError):
    """A parameter violated an operation precondition."""


class LengthOverflowError(MeansenseError):
    """A derived length exceeded the 64-bit limit."""


class HorizonError(MeansenseError):
    """An orbit computation needed more symbols than the view provides."""


class DepthError(MeansenseError):
    """A requested horizon exceeds what the built schedule can supply."""


class WitnessUnavailableError(MeansenseError):
    """A witness-construction precondition failed (alignment, provenance)."""


class ResourceCapError(MeansenseError):
    """An exact computation would exceed the configured budget."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class MissingArtifactError(MeansenseError):
    """A CLI check referenced build artifacts that do not exist."""
