"""Linear block codes over prime fields, with exact brute-force oracles.

A code is held as a full-rank generator matrix, reduced at construction; its
parity-check matrix and its codeword table are derived on first use.  The
oracles are LinearCode methods: minimum distance and nearest-codeword queries
enumerate codewords exhaustively through ``encode_batch`` up to
ENUMERATION_THRESHOLD and refuse beyond it; nothing here ever estimates.
"""

from __future__ import annotations

import functools
import itertools
import operator
import warnings
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import config, linalg
from .errors import (
    EmptyProjectionError,
    FieldMismatchError,
    IndexOutOfRangeError,
    LengthMismatchError,
    RankDeficiencyWarning,
    ShapeMismatchError,
    TooLongError,
)
from .field import Field, FieldElement

# Chunk size for codeword enumeration (messages per numpy batch).
_CHUNK = 1 << 14


def as_integer(value) -> int:
    """``operator.index(value)``, refusing bools (JSON true and false) with a TypeError too."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def index_columns(coords: Sequence[int], n: int, what: str) -> np.ndarray:
    """0-based columns of a nonempty, strictly increasing set of 1-based ``coords`` in [1, n]."""
    idx = [as_integer(c) for c in coords]
    if not idx:
        raise EmptyProjectionError(f"no {what}")
    if any(not 1 <= c <= n for c in idx):
        raise IndexOutOfRangeError(f"{what} must lie in [1, {n}]")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return np.array(idx, dtype=np.int64) - 1


def _coerce_symbols(field: Field, symbols, ndim: int = 1) -> np.ndarray:
    """A new ``ndim``-d array of the symbols as symbol_dtype(field), range-checked first.

    Refuses a float, bool or object array and any symbol outside [0, q) with a ValueError.
    """
    if isinstance(symbols, np.ndarray):
        if symbols.dtype.kind not in "iu":
            raise ValueError(f"symbols must be integers, got dtype {symbols.dtype}")
        values = symbols
    else:
        out = []
        for s in symbols:
            if isinstance(s, FieldElement):
                if s.field != field:
                    raise FieldMismatchError(
                        f"element of {s.field} used in a word over {field}"
                    )
                out.append(s.value)
            else:
                try:
                    out.append(as_integer(s))
                except TypeError:
                    raise ValueError(f"symbol {s!r} is not an integer") from None
        try:
            values = np.array(out, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"symbol values must lie in [0, {field.q})") from None
    if values.ndim != ndim:
        raise ValueError(f"symbols must form a {ndim}-d array, got {values.ndim} dimensions")
    if values.size and (values.min() < 0 or values.max() >= field.q):
        raise ValueError(f"symbol values must lie in [0, {field.q})")
    return values.astype(symbol_dtype(field))


class Word:
    """A length-n vector of field residues.  Immutable.

    ``values`` holds the symbols as symbol_dtype(field), the dtype of the
    codeword tables, so the oracles compare words without converting them.
    """

    __slots__ = ("field", "values")

    def __init__(self, field: Field, symbols):
        values = _coerce_symbols(field, symbols)
        values.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return self.values.size

    def __getitem__(self, i: int) -> int:
        return int(self.values[i])

    def __iter__(self):
        return iter(int(v) for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.field == other.field
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.field.q, self.values.tobytes()))

    def weight(self) -> int:
        return int(np.count_nonzero(self.values))

    def to_list(self) -> list[int]:
        return [int(v) for v in self.values]

    def __repr__(self):
        body = ",".join(str(int(v)) for v in self.values[:12])
        tail = ",..." if len(self) > 12 else ""
        return f"Word(GF({self.field.q}), [{body}{tail}])"


def distance(x: Word, y: Word) -> tuple[int, Fraction]:
    """Hamming distance and the exact relative distance between two words."""
    if x.field != y.field:
        raise FieldMismatchError(f"words over {x.field} and {y.field}")
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths {len(x)} and {len(y)} differ")
    ham = int(np.count_nonzero(x.values != y.values))
    return ham, Fraction(ham, len(x))


def word_values(word: Word, field: Field, n: int, grid: Optional[tuple[int, ...]] = None) -> np.ndarray:
    """The symbols of ``word``; refuses a word not over ``field``, not of length ``n`` or off a ``grid``."""
    if word.field != field:
        raise FieldMismatchError(f"word over {word.field}, expected {field}")
    if len(word) != n:
        raise LengthMismatchError(f"word of length {len(word)}, expected {n}")
    if grid is not None and getattr(word, "shape", grid) != grid:
        raise ShapeMismatchError(f"word of shape {word.shape}, expected {grid}")
    return word.values


# --- the exact enumeration oracle ------------------------------------------------
#
# The oracle is the LinearCode methods below.  They enumerate codewords only
# through ``encode_batch``, so a TensorCode enumerates through its axis
# contraction, without a Kronecker generator.  Every entry point checks
# ENUMERATION_THRESHOLD through ``config.within`` on every call, cached table
# or not.  Messages are enumerated in lexicographic order, at most _CHUNK at a
# time, so ties break toward the smallest message.
#
# Codeword symbols are stored row-major as symbol_dtype(field).  Every cached
# table also keeps its bit-planes: plane p holds bit p of every symbol,
# b = bitlength(q - 1) planes of uint64, each row padded with zero bits to
# 64 * W.  Cached tables and streamed blocks are compared plane by plane.


def _unsigned(top: int) -> type:
    """The narrowest unsigned type holding 0..top, for top < 2**32.

    As np.min_scalar_type(top), which costs a tenth of a batch-of-one compare.
    """
    return np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16 else np.uint32


def symbol_dtype(field: Field) -> type:
    """The narrowest unsigned dtype holding every residue: uint8 or uint16."""
    return _unsigned(field.q - 1)


def _messages(start: int, stop: int, step: int, k: int, q: int) -> np.ndarray:
    idx = np.arange(start, stop, step, dtype=np.int64)
    return np.stack(np.unravel_index(idx, (q,) * k), axis=1)


def _pack(values: np.ndarray, out: np.ndarray) -> None:
    """Write bit p of each symbol of a (R, n) array into ``out[p]``, zeroed (b, R, W) planes.

    The rows are copied into zero-padded rows of whole octets, so each plane
    packs as one flat run and the bits past n are zero.
    """
    rows, n = values.shape
    used = -(-n // 8)
    padded = np.zeros((rows, 8 * used), dtype=values.dtype)
    padded[:, :n] = values
    octets = out.view(np.uint8)
    for p in range(out.shape[0]):
        octets[p, :, :used] = np.packbits(padded & (1 << p)).reshape(rows, used)


def _min_plane_hammings(packed: np.ndarray, planes: np.ndarray, out: np.ndarray) -> None:
    """Lower ``out`` to each word's minimum Hamming distance to the rows of (b, R, W) planes.

    ``packed`` holds the (b, B, 1, W) planes of B words.  Two symbols below
    2**b differ exactly when one of their b bits does, so the distance is the
    popcount of the OR over planes of (codeword XOR word).  Each step compares
    every word with a block of rows, about _CHUNK uint64 per plane, so that
    its arrays stay in cache.
    """
    bits, rows, width = planes.shape
    acc = _unsigned(64 * width)
    step = _CHUNK // (packed.shape[1] * width or 1) or 1
    for s in range(0, rows, step):
        block = planes[:, s : s + step]
        diff = block[0] ^ packed[0]
        for p in range(1, bits):
            diff |= block[p] ^ packed[p]
        np.minimum(out, np.bitwise_count(diff).sum(axis=2, dtype=acc).min(axis=1), out=out)


class LinearCode:
    """An [n, k, d] linear code given by a full-rank generator matrix."""

    shape: Optional[tuple[int, ...]] = None  # a tensor code's grid, which a TensorWord must match

    def __init__(
        self,
        field: Field,
        generator: np.ndarray,
        d_known: Optional[int] = None,
        _reduced: bool = False,
    ):
        if generator.ndim != 2 or generator.shape[1] == 0:
            raise ValueError(f"generator must be a matrix with n >= 1, got shape {generator.shape}")
        if not _reduced:
            generator = linalg.row_basis(generator, field.q)
        generator = generator.astype(np.int64, copy=True)
        generator.setflags(write=False)
        self.field = field
        self.generator = generator
        self.k, self.n = generator.shape
        self.d_known = d_known

    # --- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows, d_known: Optional[int] = None) -> "LinearCode":
        """Build a code from generator rows, reducing them to a basis.

        Dependent rows are legal but reported with a RankDeficiencyWarning;
        the code keeps the reduced basis.
        """
        mat = linalg.as_matrix(rows, field.q)
        if mat.shape[0] == 0 or mat.shape[1] == 0:
            raise ValueError("generator rows must be nonempty")
        basis = linalg.row_basis(mat, field.q)
        if basis.shape[0] == 0:
            raise ValueError("generator rows are all zero")
        if basis.shape[0] < mat.shape[0]:
            warnings.warn(
                RankDeficiencyWarning(
                    f"supplied {mat.shape[0]} rows but rank is {basis.shape[0]}; "
                    "keeping the reduced basis"
                )
            )
        return cls(field, basis, d_known=d_known, _reduced=True)

    @functools.cached_property
    def parity_check(self) -> np.ndarray:
        """The read-only (n - k, n) parity-check matrix, derived on first use."""
        parity = linalg.null_space(self.generator, self.field.q)
        parity.setflags(write=False)
        return parity

    # --- basic queries -----------------------------------------------------

    def params(self) -> tuple[int, int, Optional[int]]:
        return self.n, self.k, self.d_known

    def num_codewords(self) -> int:
        return self.field.q**self.k

    def encode(self, message) -> Word:
        """Encode a length-k message, as a batch of one."""
        msg = _coerce_symbols(self.field, message)
        if msg.size != self.k:
            raise LengthMismatchError(f"message length {msg.size}, expected {self.k}")
        return Word(self.field, self.encode_batch(msg[None])[0])

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (B, k) batch of messages into a (B, n) array."""
        return (messages @ self.generator) % self.field.q

    def contains(self, word: Word) -> bool:
        """Membership via the parity check."""
        return bool(self.contains_batch(word_values(word, self.field, self.n, self.shape)[None])[0])

    def contains_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized membership for a (B, n) array of words."""
        if self.parity_check.shape[0] == 0:
            return np.ones(words.shape[0], dtype=bool)
        return ~np.any((words @ self.parity_check.T) % self.field.q, axis=1)

    # --- exhaustive oracles -------------------------------------------------

    def _blocks(self):
        """Yield (start, codewords) for blocks of at most ``rows`` consecutive messages.

        ``rows`` is _CHUNK, cut so that a block holds at most _CHUNK << 8 symbols
        (one codeword at least).  Messages split into groups of q**j, the largest
        power of q that is at most ``rows`` (and at most q**k).  A group starting at
        message s holds codeword(s) + codeword(i) for i < q**j, by linearity: the
        first q**j codewords are encoded once, and each block adds the encoded
        group starts to them.  A block stacks as many whole groups as fit in ``rows``.
        """
        total = config.within("ENUMERATION_THRESHOLD", self.num_codewords(), "codeword enumeration")
        q, k, dtype = self.field.q, self.k, symbol_dtype(self.field)
        rows = min(_CHUNK, max(1, (_CHUNK << 8) // self.n))
        span = 1
        while span < total and span * q <= rows:
            span *= q
        per_block = span * max(1, rows // span)
        wide = _unsigned(2 * (q - 1))
        first = self.encode_batch(_messages(0, span, 1, k, q)).astype(wide)
        for s in range(0, total, per_block):
            base = self.encode_batch(_messages(s, min(s + per_block, total), span, k, q)).astype(wide)
            sums = (base[:, None, :] + first[None, :, :]).reshape(-1, first.shape[1])
            # Below q, sums - q wraps past the top of ``wide``, so this is sums mod q.
            np.minimum(sums, sums - q, out=sums)
            yield s, sums.astype(dtype, copy=False)

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """All q**k codewords and their bit-planes, as a read-only (table, planes) pair.

        Built on first use, packing the planes from each block as it is
        written.  Refuses a table of more than TABLE_CELLS cells.  Read it
        through ``codewords()``, which checks the threshold on every call.
        """
        blocks = self._blocks()
        _, block = next(blocks)
        total, n = self.num_codewords(), block.shape[1]
        config.within("TABLE_CELLS", total * n, "codeword table")
        table = block if block.shape[0] == total else np.empty((total, n), dtype=block.dtype)
        bits, width = (self.field.q - 1).bit_length(), -(-n // 64)
        planes = np.zeros((bits, total, width), dtype=np.uint64)
        for s, block in itertools.chain([(0, block)], blocks):
            rows = slice(s, s + block.shape[0])
            if block is not table:
                table[rows] = block
            _pack(block, planes[:, rows])
        table.setflags(write=False)
        planes.setflags(write=False)
        return table, planes

    def codewords(self) -> np.ndarray:
        """All q**k codewords as a read-only (q**k, n) array, cached.

        Row order is lexicographic in the message symbols, so row index i
        encodes the message ``unravel_index(i, (q,)*k)``.  Symbols are
        ``symbol_dtype(field)``, row-major.
        """
        config.within("ENUMERATION_THRESHOLD", self.num_codewords(), "codeword enumeration")
        return self._tables[0]

    def min_distance(self) -> int:
        """Exact minimum distance by enumerating nonzero codewords."""
        best = self.n + 1
        for s, block in self._blocks():
            w = np.count_nonzero(block, axis=1)
            if s == 0:
                w = w[1:]  # skip the zero codeword
            if w.size:
                best = min(best, int(w.min()))
        return best

    def nearest(self, word: Word) -> tuple[Word, Fraction]:
        """A codeword minimizing relative distance to ``word``.

        Ties break toward the lexicographically smallest message, which is the
        first minimum in enumeration order.  Streams codewords from
        ``encode_batch`` and never reads the cached table.
        """
        values = word_values(word, self.field, self.n, self.shape)
        best, best_ham = None, self.n + 1
        for _, block in self._blocks():
            hams = np.count_nonzero(block != values[None, :], axis=1)
            i = int(np.argmin(hams))
            if int(hams[i]) < best_ham:
                best, best_ham = block[i].copy(), int(hams[i])
        return Word(self.field, best), Fraction(best_ham, self.n)

    def nearest_distance_batch(self, words: np.ndarray) -> np.ndarray:
        """Per-row Hamming distance from a (B, n) array to the nearest codeword.

        ``words`` must hold residues in [0, q); they are packed into bit-planes
        once.  Compares against the planes of the cached table when it fits in
        TABLE_CELLS cells; otherwise packs each streamed codeword block,
        keeping a running minimum.
        """
        bits, (batch, n) = (self.field.q - 1).bit_length(), words.shape
        packed = np.zeros((bits, batch, 1, -(-n // 64)), dtype=np.uint64)
        _pack(words, packed[:, :, 0])
        out = np.full(batch, n, dtype=np.int64)
        if self.num_codewords() * n <= config.TABLE_CELLS:
            self.codewords()  # the threshold check, on a warm table too
            _min_plane_hammings(packed, self._tables[1], out)
            return out
        for _, block in self._blocks():
            planes = np.zeros((bits, block.shape[0], packed.shape[3]), dtype=np.uint64)
            _pack(block, planes)
            _min_plane_hammings(packed, planes, out)
        return out

    # --- projection ---------------------------------------------------------

    def project(self, coords: Sequence[int]) -> "LinearCode":
        """The code generated by the generator columns at 1-based ``coords``.

        ``coords`` must be nonempty and strictly increasing.  When the minimum
        distance is known and ``len(coords) >= n - d + 1``, the projection is
        checked to be injective on codewords.
        """
        cols = index_columns(coords, self.n, "projection coordinates")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            projected = LinearCode.from_rows(self.field, self.generator[:, cols])
        if self.d_known is not None and len(cols) >= self.n - self.d_known + 1:
            if projected.k != self.k:
                raise AssertionError(
                    "projection expected to be injective lost rank; "
                    "the declared distance is wrong"
                )
        return projected

    def __repr__(self):
        d = self.d_known if self.d_known is not None else "?"
        return f"{type(self).__name__}[{self.n},{self.k},{d}] over GF({self.field.q})"


def reed_solomon(field: Field, n: int, k: int) -> LinearCode:
    """The [n, k, n-k+1] Reed-Solomon code evaluating at points 0..n-1.

    Generator row i holds the i-th powers of the evaluation points, so
    encoding evaluates the message polynomial at each point.
    """
    if n > field.q:
        raise TooLongError(f"block length {n} exceeds field size {field.q}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    points = np.arange(n, dtype=np.int64)
    gen = np.ones((k, n), dtype=np.int64)
    for i in range(1, k):
        gen[i] = (gen[i - 1] * points) % field.q
    # Vandermonde rows of distinct points are a basis already; keep them so
    # that encoding means polynomial evaluation.
    return LinearCode(field, gen, d_known=n - k + 1, _reduced=True)


def repetition(field: Field, n: int) -> LinearCode:
    """The [n, 1, n] repetition code."""
    return LinearCode(
        field, np.ones((1, n), dtype=np.int64), d_known=n, _reduced=True
    )


def full_code(field: Field, n: int) -> LinearCode:
    """The trivial [n, n, 1] code containing every word."""
    return LinearCode(field, np.eye(n, dtype=np.int64), d_known=1, _reduced=True)
