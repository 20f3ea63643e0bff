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
    """An input file is malformed or a value in it is out of bounds.

    Raised for scenario files, the material database and threshold.json, for
    the flags that override their keys, and for scenario values whose results
    overflow; the message names the key path.  curves.csv rows raise plain
    ValueError naming the line.
    """
