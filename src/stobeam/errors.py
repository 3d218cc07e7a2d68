"""Exception types shared across the package."""


class StobeamError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(StobeamError, ValueError):
    """An argument violates a documented precondition."""


class ShapeError(StobeamError, ValueError):
    """Mismatched grids or array shapes."""


class PreconditionError(StobeamError, ValueError):
    """Input state violates a boundary-condition or membership precondition."""


class AssemblyError(StobeamError, RuntimeError):
    """Operator assembly failed (singular or ill-conditioned matrix)."""


class NonConvergenceError(StobeamError, RuntimeError):
    """An iteration hit its cap before reaching tolerance."""

    def __init__(self, message, last_defect=None):
        super().__init__(message)
        self.last_defect = last_defect


class BlowupError(StobeamError, RuntimeError):
    """Non-finite values appeared during time stepping."""


class ConfigError(StobeamError, ValueError):
    """Configuration text could not be parsed or violates a constraint.

    The key and line, where known, follow the message; a parser that
    knows the line of `key` sets `line` on the way out.
    """

    def __init__(self, message, key=None, line=None):
        super().__init__(message)
        self.message = message
        self.key = key
        self.line = line

    def __str__(self):
        loc = []
        if self.key is not None:
            loc.append(f"key '{self.key}'")
        if self.line is not None:
            loc.append(f"line {self.line}")
        return f"{self.message} ({', '.join(loc)})" if loc else self.message
