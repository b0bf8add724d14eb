"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
that tests and the CLI can react precisely instead of string-matching.
"""


class FinslerHeatError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(FinslerHeatError):
    """An iterative method exhausted its budget without meeting tolerance."""


class UnsupportedFamily(FinslerHeatError):
    """The metric/measure combination is outside the supported families."""


class SolverDivergence(FinslerHeatError):
    """The linear solver exceeded its iteration cap."""


class IndexRange(FinslerHeatError):
    """A trajectory or grid index is out of range."""


class ProfileInadmissible(FinslerHeatError):
    """A rate profile fails its admissibility conditions."""


class DomainError(FinslerHeatError):
    """An argument lies outside the domain of definition."""


class NoRoot(FinslerHeatError):
    """Root finding was requested where no root exists."""


class Unbounded(FinslerHeatError):
    """A supremum is infinite for the requested argument."""


class AlphaSignChange(FinslerHeatError):
    """The linear-form coefficient changes sign on the integration window."""


class ConfigError(FinslerHeatError):
    """An experiment configuration is malformed or inconsistent."""
