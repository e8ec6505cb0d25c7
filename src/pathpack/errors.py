"""Exception taxonomy shared by the whole package."""


class SolverError(Exception):
    """Base class for every error raised deliberately by this package."""


class InputError(SolverError):
    """Malformed user-supplied data (files, ids out of range, bad flags)."""


class PreconditionError(SolverError):
    """A documented operation contract was violated by the caller."""


class ParameterRangeError(SolverError):
    """Requested parameters exceed the supported numeric range."""


class InternalInvariantError(SolverError):
    """An invariant that the algorithms guarantee was observed to fail.

    Reaching this is a bug in the package, never a user error.
    """


def require(ok: bool, what: str) -> None:
    """Raise InternalInvariantError naming the broken fact unless ok.

    Every invariant the package tests is written this way, so it still runs
    under python -O.  InternalInvariantError is raised directly only where
    no condition is tested: a search that ran out, or a caught
    PreconditionError passed on with its cause.
    """
    if not ok:
        raise InternalInvariantError(what)
