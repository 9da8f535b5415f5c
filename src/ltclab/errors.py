"""Exception and warning types shared across the package."""


# Python will not print an int of more than 4,300 digits; one of at most PRINTABLE_BITS bits has at most 4,215.
PRINTABLE_BITS = 14000


class LtcLabError(Exception):
    """Base class for all errors raised by this package."""


# --- field construction and arithmetic ---

class NotPrimeError(LtcLabError, ValueError):
    """The requested field modulus is not a prime number."""


class ModulusTooLargeError(LtcLabError, ValueError):
    """The requested field modulus exceeds the supported maximum."""


class FieldMismatchError(LtcLabError, ValueError):
    """Two operands belong to different fields."""


# --- codes and words ---

class LengthMismatchError(LtcLabError, ValueError):
    """A word or message has the wrong length for the operation."""


class ShapeMismatchError(LtcLabError, ValueError):
    """A tensor word's shape does not match the code it is tested against."""


class IndexOutOfRangeError(LtcLabError, IndexError):
    """A 1-based coordinate or axis index falls outside its valid range."""


class TooLongError(LtcLabError, ValueError):
    """A Reed-Solomon block length exceeds the field size."""


class TooLargeToEnumerateError(LtcLabError, ValueError):
    """A request past a config budget: ``requested`` (at least, if ``partial``) > ``limit``; see ``config.within``."""

    def __init__(self, budget: str, requested: int, limit: int, what: str, partial: bool = False):
        bits = requested.bit_length()
        shown = requested if bits <= PRINTABLE_BITS else f"2^{bits - 1}"
        bound = "at least " if partial or bits > PRINTABLE_BITS else ""
        super().__init__(f"{what} would hold {bound}{shown}, past {budget} = {limit}")
        self.budget, self.requested, self.limit = budget, requested, limit


class EmptyProjectionError(LtcLabError, ValueError):
    """A projection index set is empty."""


class NotACodewordError(LtcLabError, ValueError):
    """A word required to be a codeword fails the membership test."""


class UnderdeterminedError(LtcLabError, ValueError):
    """An extension problem does not pin down a unique codeword."""


class InconsistentSystemError(LtcLabError):
    """A linear system has no solution (internal; callers usually re-raise)."""


class UnderdeterminedSystemError(LtcLabError):
    """A linear system has more than one solution (internal)."""


# --- graphs ---

class RaggedListsError(LtcLabError, ValueError):
    """Adjacency lists of an ordered bipartite graph differ in length."""


class EntryOutOfRangeError(LtcLabError, ValueError):
    """An adjacency-list entry is not a valid 1-based left-vertex index."""


class DegreeMismatchError(LtcLabError, ValueError):
    """Graph composition requires the inner graph's left count to equal the outer degree."""


class GraphTooLargeError(LtcLabError):
    """A graph is too large to materialize explicitly within the adjacency budget."""


class InapplicableError(LtcLabError, ValueError):
    """The hypothesis of an expansion check is not satisfied by the input."""


# --- warnings ---

class RankDeficiencyWarning(UserWarning):
    """Supplied generator rows were linearly dependent; the reduced basis is kept."""
