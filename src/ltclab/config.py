"""Global resource budgets, and the one rule by which they refuse.

Every brute-force oracle refuses (raises) rather than silently sampling once
an instance exceeds these budgets; sampling estimators exist only in the
harness and are always labelled as estimates.  Every refusal is one call to ``within``.
"""

from .errors import TooLargeToEnumerateError

# Maximum number of codewords any exhaustive oracle (minimum distance,
# nearest codeword, cached codeword tables) will enumerate.
ENUMERATION_THRESHOLD = 2**24

# Maximum number of adjacency entries a graph may materialize explicitly.
# Larger graphs fall back to a computed row accessor.
ADJACENCY_BUDGET = 2**26

# Maximum cells (codewords x block length) of a cached codeword table.  The
# nearest-distance oracle streams codewords in blocks when its table would
# not fit.
TABLE_CELLS = 2**26

# Maximum view symbols (words x views x view length) of one chunk of
# OrderedGraph.view_chunks: one gather and one small-code oracle call.
BROADCAST_CELLS = 2**26

# Maximum cells of a tensor code's flat Kronecker generator.
GENERATOR_CELLS = 2**24

# Maximum cells of the stacked parity matrix behind a Tanner product code,
# when it is requested explicitly and when it is derived as a missing
# reference full code.
PARITY_CELLS = 2**24
DERIVED_PARITY_CELLS = 2**22

# Maximum words of a low_weight corpus part.
LOW_WEIGHT_WORDS = 10**6

# Maximum repetitions of an amplified test evaluated exactly.
REPETITIONS = 10**6

# Maximum (S, T) pairs of an exhaustive expansion scan.
EXPANSION_PAIRS = 10**7


def within(budget: str, requested: int, what: str) -> int:
    """``requested``, or a TooLargeToEnumerateError if it is past the budget named ``budget``."""
    limit = globals()[budget]
    if requested > limit:
        raise TooLargeToEnumerateError(budget, requested, limit, what)
    return requested
