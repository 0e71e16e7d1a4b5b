"""Exception types shared across the package."""


class MacroplaceError(Exception):
    """Base class for all package errors."""


class ParseError(MacroplaceError):
    """Malformed input file. Carries the file path and line number when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class EvaluationError(MacroplaceError):
    """An evaluator was asked to score an ill-posed placement."""


class PlacementError(MacroplaceError):
    """Illegal grid placement (infeasible cell), or a placer could not run."""


class DesignError(MacroplaceError):
    """Design-level editing or generation failure (e.g. infeasible areas)."""


class BudgetError(MacroplaceError):
    """An exhaustive computation would exceed its budget guard."""


class TrainingError(MacroplaceError):
    """Non-finite loss or another unrecoverable training failure."""
