"""Exception types shared across the library, the run status each one
ends a run with, the exit code of every run status, and the one check of
a count argument."""


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


#: exit code of each status a run can end with; ``harness.run``,
#: ``harness.demo_kakutani`` and the CLI read every code from here
STATUS_CODES = {
    "pass": 0, "converged": 0, "stalled": 0,
    "fail": 1,
    "budget-exhausted": 2,
    "config-error": 3, "incompatible-basis": 3, "invalid-input": 3,
    "left-representation-class": 4,
}

#: run status of each error class that ends a run
EXIT_CODES = {
    InvariantViolation: "fail",
    ComponentBudgetError: "budget-exhausted",
    ConfigError: "config-error",
    IncompatibleBasisError: "incompatible-basis",
    InvalidInputError: "invalid-input",
    RepresentationOverflowError: "left-representation-class",
    UnsupportedRepresentationError: "left-representation-class",
}


def check_count(name: str, value, least: int = 1) -> None:
    """Reject a count argument `name` that is not an int >= least."""
    if not isinstance(value, int) or value < least:
        raise InvalidInputError(
            f"{name} must be an int >= {least}, not {value!r}")


def exit_status(exc: BaseException) -> tuple[int, str]:
    """(exit code, run status) of an instance of an ``EXIT_CODES`` class."""
    status = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
    return STATUS_CODES[status], status
