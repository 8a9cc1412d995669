"""Exception types shared across the package."""


class MapBayesError(Exception):
    """Base class for domain errors raised by this package."""


class ZeroEvidence(MapBayesError):
    """The marginal likelihood integrated to zero; the posterior is undefined."""


class DivergentEvidence(MapBayesError):
    """The marginal likelihood quadrature returned a non-finite value."""


class EmptySearchBox(MapBayesError):
    """An argmax search was requested over an empty box."""


class SearchNotCertified(MapBayesError):
    """The 2D ball search reached its refinement cap with boxes still open,
    so its best point is not certified to the value tolerance."""


class CutoffTooSmall(MapBayesError):
    """A computation needs bumps beyond the materialized cutoff of the density."""


class ConfigError(MapBayesError):
    """A CLI configuration file could not be parsed or is missing fields."""
