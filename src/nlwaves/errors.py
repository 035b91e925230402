"""Exception types shared across the package."""


class NlwavesError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(NlwavesError):
    """Initial-data spec is malformed or unusable here; `field`, if given, names its config key."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"config field '{field}': {message}")


class NonFiniteError(NlwavesError):
    """A computation produced NaN or infinity."""


class HyperbolicityError(NlwavesError):
    """1 + g'(u) <= 0 somewhere: the energy form is no longer a norm."""


class BreakdownError(NlwavesError):
    """Wave-breaking monitor exceeded its threshold; run halted early."""

    def __init__(self, time, monitor, threshold):
        self.time = time
        self.monitor = monitor
        self.threshold = threshold
        super().__init__(
            f"breakdown monitor {monitor:.6g} exceeded threshold "
            f"{threshold:.6g} at t={time:.6g}"
        )


class DegenerateFitError(NlwavesError):
    """Fewer than two positive errors: no log-log rate can be fitted."""


class DegenerateDataError(NlwavesError):
    """Input field has zero norm; the requested ratio is undefined."""


class ConfigError(NlwavesError, ValueError):
    """Experiment configuration is invalid (also a ValueError).  `field` names the bad entry."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class AlignmentError(ConfigError):
    """A lattice delta gives no chain on the grid: it is not an integer multiple
    of the grid spacing, or its chain has an odd number of sites or fewer than 8."""

    def __init__(self, message):
        super().__init__("delta_list", message)


class UsageError(NlwavesError, ValueError):
    """The command line breaks the CLI's grammar (see `cli.USAGE`)."""
