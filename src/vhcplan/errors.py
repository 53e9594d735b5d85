"""Exception taxonomy shared across the toolkit.

Each class carries the CLI's process exit code for it: condition-check
failures exit 2, usage problems 64, every other (numerical) failure 3.
"""


class VhcplanError(Exception):
    """Base class for all toolkit errors; `diagnostics` go to the CLI's error.json."""

    exit_code = 3

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ModelInvariantError(VhcplanError):
    """A structural invariant of the mechanical model is violated (e.g. M not SPD)."""


class DomainError(VhcplanError):
    """An argument lies outside the domain a contract requires."""


class ConditionCheckError(VhcplanError):
    """A hypothesis check failed (existence conditions, failed report reused, ...)."""

    exit_code = 2


class BoundaryUnreachableError(VhcplanError):
    """The requested boundary state cannot be reached from the singular crossing."""


class OutsideTubeError(VhcplanError):
    """A transverse-chart operation was requested outside its validity tube."""


class ConvergenceError(VhcplanError):
    """An iterative numerical procedure failed to converge within its budget."""


class UsageError(VhcplanError):
    """Bad configuration or command-line input."""

    exit_code = 64
