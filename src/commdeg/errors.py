"""Exception types shared across the package.

Names follow the error vocabulary of the public contracts; the CLI maps
them onto exit codes (1 input, 2 cross-check, 3 numeric).
"""


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


# The largest group order any table may have: a 1.6 GB int32 table.
# groups.require_order enforces it; callers may only lower it.
DEFAULT_ORDER_CAP = 20000


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
