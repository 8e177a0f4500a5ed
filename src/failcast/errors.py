"""Exception hierarchy shared across the package."""


class FailcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FailcastError, ValueError):
    """A configuration value is out of its valid range."""


class ParseError(FailcastError):
    """A malformed input row; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InfeasibleNuError(FailcastError):
    """nu * n < 1, so the one-class dual has no feasible point."""


class ConvergenceError(FailcastError):
    """No convergence: iteration cap, stall or NaN violation; carries the final KKT violation."""

    def __init__(self, message: str, kkt_violation: float):
        super().__init__(message)
        self.kkt_violation = kkt_violation


class DegenerateTrainingError(FailcastError):
    """Stage-1 filtering left no failure instances to train stage 2 on."""


class ModelFormatError(FailcastError):
    """A saved model file is malformed, truncated or of an unknown format."""
