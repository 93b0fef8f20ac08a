"""Exception types shared across the library."""


class ErgolabError(Exception):
    """Base class for all library-specific errors."""


class IncompatibleBasisError(ErgolabError):
    """Two scalars with different irrational tags were combined."""


class RefinementBudgetError(ErgolabError):
    """A comparison could not be decided within the refinement budget.

    Comparisons are closed-form now and nothing raises this; it is kept
    because it is public API.
    """


class RepresentationOverflowError(ErgolabError):
    """A set operation left the finite-intervals-plus-parity-tails class."""


class UnsupportedRepresentationError(ErgolabError):
    """An operation does not support the given representation (e.g. tails)."""


class ComponentBudgetError(ErgolabError):
    """A set grew beyond the configured component-count budget."""


class InvalidTowerSetError(ErgolabError):
    """A tower set whose top part is not contained in the base of the tower."""


class ConfigError(ErgolabError):
    """An experiment config failed to parse or validate."""
