"""Exception hierarchy shared by all wptmod modules."""


class WptError(Exception):
    """Base class for all wptmod-specific errors."""


class ConvergenceError(WptError, RuntimeError):
    """A numeric integral or refinement loop failed to converge."""


class SingularityError(WptError, ValueError):
    """Degenerate circuit configuration (zero impedance / singular matrix)."""


class EquivalenceViolationError(WptError):
    """Full and reduced circuit solutions are not related by consistent constants."""


class WorkLimitError(WptError, ValueError):
    """A computation would pass a fixed cap on its work; refused before it starts."""


class NonSeparableDataError(WptError, ValueError):
    """Training curves overlap too much for a separating threshold fit."""


class ScenarioError(WptError, ValueError):
    """An input file is malformed or a value in it is out of bounds.

    Raised for scenario files, the material database and threshold.json, and
    for the --seed flag that overrides noise.seed; the message names the key
    path or the flag.  A number outside its key's physical domain
    (wptmod.schema) is out of bounds.  Any input file that cannot be read or
    is not UTF-8 raises it naming the file.  curves.csv rows raise plain
    ValueError naming the line; curves_to_csv raises it for a label that
    curves.csv cannot hold, by the rule scenario labels follow.
    """
