"""Exception types shared across the package."""


class ParseError(ValueError):
    """A text input (CSV, manifest, config, model file) could not be parsed."""


class ShapeError(ValueError):
    """Array dimensions disagree with what the operation requires."""


class ParameterError(ValueError):
    """A parameter or label value is outside its admissible range."""


class NumericError(RuntimeError):
    """A numeric routine failed (non-finite input, factorization breakdown)."""


class MetricError(ValueError):
    """A metric is undefined for the given inputs."""
