"""Exception taxonomy shared across the toolkit.

The CLI maps these onto process exit codes: condition-check failures exit 2,
numerical failures exit 3, usage problems exit 64.
"""


class VhcplanError(Exception):
    """Base class for all toolkit errors; `diagnostics` go to the CLI's error.json."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ModelInvariantError(VhcplanError):
    """A structural invariant of the mechanical model is violated (e.g. M not SPD)."""


class DomainError(VhcplanError):
    """An argument lies outside the domain a contract requires."""


class ConditionCheckError(VhcplanError):
    """A hypothesis check failed (existence conditions, failed report reused, ...)."""


class BoundaryUnreachableError(VhcplanError):
    """The requested boundary state cannot be reached from the singular crossing."""


class OutsideTubeError(VhcplanError):
    """A transverse-chart operation was requested outside its validity tube."""


class ConvergenceError(VhcplanError):
    """An iterative numerical procedure failed to converge within its budget."""


class UsageError(VhcplanError):
    """Bad configuration or command-line input."""
