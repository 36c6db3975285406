"""Exception types shared across the package, and the order cap.

Names follow the error vocabulary of the public contracts; the CLI maps
them onto exit codes (1 input, 2 cross-check, 3 numeric).

The order cap bounds every group table the package builds: ``ORDER_CAP``
holds it, ``with order_cap(c):`` lowers it for a block and only
``groups.require_order`` reads it (``specs.build_group`` says where).
"""
from contextlib import contextmanager
from contextvars import ContextVar


class CommdegError(Exception):
    """Base class for all package errors."""


class NotLatin(CommdegError):
    """A candidate table is malformed: not square, out of range, with a row
    that is not a permutation, or without element 0 as its identity. Rows
    are sorted only once some check has rejected a table, and a row that
    is not a permutation is reported first, whichever check rejected it. A
    repeated column in a table with Latin rows and identity 0 surfaces as
    NonAssociative."""


class NonAssociative(CommdegError):
    """Associativity failed on some triple of a candidate table."""


# The largest group order any table may have (a 1.6 GB int32 table), and
# the order cap in force, at which a new thread starts.
DEFAULT_ORDER_CAP = 20000
ORDER_CAP = ContextVar("ORDER_CAP", default=DEFAULT_ORDER_CAP)


@contextmanager
def order_cap(cap):
    """Lower the order cap to ``cap`` inside the block, which cannot raise
    it; the cap in force is restored when the block exits, also on an
    exception. A cap below 1 raises ValueError: no group fits under it."""
    if cap < 1:
        raise ValueError(f"the order cap must be at least 1, not {cap}")
    token = ORDER_CAP.set(min(cap, ORDER_CAP.get()))
    try:
        yield
    finally:
        ORDER_CAP.reset(token)


class OrderCapExceeded(CommdegError):
    """A table build would exceed the order cap."""


class InvalidAction(CommdegError, ValueError):
    """An action table is not a permutation action or not by automorphisms."""


class NotNormal(CommdegError):
    """Quotient requested by a subgroup that is not normal."""


class NotPrime(CommdegError):
    """A parameter required to be prime is not."""


class AntitoneViolation(CommdegError):
    """A tower degree sequence increased; signals a construction bug."""


class IncompatibleSelector(CommdegError):
    """A per-level subgroup selector is not compatible with the bonds."""


class IncompatiblePath(CommdegError):
    """An element path does not follow the tower bonds."""


class UnknownPreset(CommdegError):
    """No preset registered under the requested name."""


class PresetMismatch(CommdegError):
    """Two sampled elements come from different presets."""


class NonConvergence(CommdegError):
    """The eigenvalue solver failed to converge."""


class ModulusViolation(CommdegError):
    """An adjoint spectrum is not on the unit circle; corrupt certificate."""


class CrossCheckMismatch(CommdegError):
    """Two supposedly equal exact routes disagreed."""
