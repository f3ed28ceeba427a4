"""Exception hierarchy.

Resource refusals (caps exceeded) and internal invariant violations are
kept distinct so the CLI can map them to stable exit codes.
"""


class KlyachkoError(Exception):
    """Base class for all errors raised by this package."""


# -- resource refusals --------------------------------------------------


class ResourceRefused(KlyachkoError):
    """A configured size cap would be exceeded."""


class NonPrimeP(KlyachkoError):
    pass


class FieldTooLarge(ResourceRefused):
    pass


class GroupTooLarge(ResourceRefused):
    pass


# -- argument errors -----------------------------------------------------


class ArenaMismatch(KlyachkoError):
    pass


class EmptyBlock(KlyachkoError):
    """Operation undefined on a t = 0 block."""


class UnsupportedComposition(KlyachkoError):
    """Only compositions of type (r, 2mr), t odd, are supported."""


class MissingAtom(KlyachkoError):
    pass


class DivisionByZero(KlyachkoError, ZeroDivisionError):
    pass


class DegreeMismatch(KlyachkoError):
    pass


class UsageError(KlyachkoError):
    """Bad usage the argument parser cannot see, e.g. an environment value."""


class ParseError(KlyachkoError):
    """Syntax error in a parameter expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- internal invariant violations --------------------------------------


class InvariantViolation(KlyachkoError):
    """An exact identity that must hold failed; signals a bug."""


class ArenaTooSmall(InvariantViolation):
    pass


class EigenSplitFailure(InvariantViolation):
    """Class-sum eigenspaces stayed unsplit after every class was used."""


class LiftOutOfRange(InvariantViolation):
    """A mod-ell value did not lift to an integer in its known range."""


class CacheError(KlyachkoError):
    """Table cache file is missing, corrupt, or mismatched."""
