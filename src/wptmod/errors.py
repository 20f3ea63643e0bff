"""Exception hierarchy shared by all wptmod modules."""


class WptError(Exception):
    """Base class for all wptmod-specific errors."""


class ConvergenceError(WptError, RuntimeError):
    """A numeric integral or refinement loop failed to converge."""


class SingularityError(WptError, ValueError):
    """Degenerate circuit configuration (zero impedance / singular matrix)."""


class EquivalenceViolationError(WptError):
    """Full and reduced circuit solutions are not related by consistent constants."""


class NonSeparableDataError(WptError, ValueError):
    """Training curves overlap too much for a separating threshold fit."""


class ScenarioError(WptError, ValueError):
    """Scenario file is malformed or violates module invariants."""
