"""Exception types shared across the library, and the exit code of each."""


class ErgolabError(Exception):
    """Base class for all library-specific errors."""


class IncompatibleBasisError(ErgolabError):
    """Two scalars with different irrational tags were combined."""


class InvalidInputError(ErgolabError, ValueError):
    """Arguments that violate a precondition, e.g. unequal window measures."""


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


class InvariantViolation(ErgolabError, AssertionError):
    """An exact identity that a construction guarantees failed to hold."""


#: exit code and run status of each error class that ends a run; read by
#: ``harness.run`` and the CLI through ``exit_status``
EXIT_CODES = {
    InvariantViolation: (1, "fail"),
    ComponentBudgetError: (2, "budget-exhausted"),
    ConfigError: (3, "config-error"),
    IncompatibleBasisError: (3, "incompatible-basis"),
    InvalidInputError: (3, "invalid-input"),
    RepresentationOverflowError: (4, "left-representation-class"),
    UnsupportedRepresentationError: (4, "left-representation-class"),
}


def exit_status(exc: BaseException) -> tuple[int, str]:
    """(exit code, run status) of an instance of an ``EXIT_CODES`` class."""
    return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
