"""Global resource budgets, and the one rule by which they refuse.

Every brute-force oracle refuses (raises) rather than silently sampling once
an instance exceeds these budgets; sampling estimators exist only in the
harness and are always labelled as estimates.  Every refusal is one call to ``within``.
"""

from typing import Iterable

from .errors import TooLargeToEnumerateError

# Maximum number of codewords any exhaustive oracle (minimum distance,
# nearest codeword, the codeword table of LinearCode.codewords()) will enumerate.
ENUMERATION_THRESHOLD = 2**24

# Maximum number of adjacency entries a graph may materialize explicitly.
# Larger graphs fall back to a computed row accessor.
ADJACENCY_BUDGET = 2**26

# Maximum cells (codewords x block length) of the codeword table that each LinearCode.codewords()
# call builds; no code keeps one.  No other oracle reads a table: the nearest-distance oracle compares
# with the first group of codewords only, which is q codewords past a block's rows while they fit here.
TABLE_CELLS = 2**26

# Maximum view symbols (words x views x view length) of one chunk of
# OrderedGraph.view_chunks: one gather and one small-code oracle call.
BROADCAST_CELLS = 2**26

# Maximum cells of a tensor code's flat Kronecker generator, and of a derived full-space code's identity.
GENERATOR_CELLS = 2**24

# Maximum cells of a code's parity-check matrix, and of the stacked parity
# matrix behind a Tanner product code, when it is requested explicitly and
# when it is derived as a missing reference full code (the second budget).
PARITY_CELLS = 2**24
DERIVED_PARITY_CELLS = 2**22

# Maximum symbols (words x word length) of a corpus, and of each low_weight part, checked before it is allocated.
CORPUS_CELLS = 2**26

# Maximum repetitions of an amplified test evaluated exactly.
REPETITIONS = 10**6

# Maximum (S, T) pairs of an expansion scan, exhaustive or sampled.
EXPANSION_PAIRS = 10**7


def within(budget: str, requested: int | Iterable[int], what: str) -> int:
    """``requested``, a count or terms added in order, refused at the first running total past ``budget``."""
    limit = globals()[budget]
    total, terms = 0, iter((requested,) if isinstance(requested, int) else requested)
    for term in terms:
        total += term
        if total > limit:
            raise TooLargeToEnumerateError(budget, total, limit, what, next(terms, None) is not None)
    return total
