"""Exception types shared across the package."""


class Y00Error(Exception):
    """Base class for all y00sim errors."""


class ParameterError(Y00Error, ValueError):
    """A numeric argument is outside its physical or contractual range."""


class DimensionError(Y00Error, ValueError):
    """Mode counts of two multimode states do not match."""


class IllConditionedEnsembleError(Y00Error, ValueError):
    """A Gram matrix, or a state built from one, is too far off to be rounding noise."""


class SeedError(Y00Error, ValueError):
    """A keystream generator was seeded with a degenerate state."""


class ConfigError(Y00Error, ValueError):
    """A scenario configuration file or override is invalid."""
