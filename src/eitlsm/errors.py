"""Exception types shared across the toolkit."""

__all__ = ["ToolkitError", "ConfigurationError", "SolverError", "EstimationError"]


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigurationError(ToolkitError):
    """Invalid parameter, precondition violation, or unparseable input document."""


class SolverError(ToolkitError):
    """Linear-algebra failure: a singular system or a non-finite solution."""


class EstimationError(ToolkitError):
    """Support estimation cannot proceed (e.g. no feasible sweep point)."""
