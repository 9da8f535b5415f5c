"""Linear block codes over prime fields, with exact brute-force oracles.

A code is held as a full-rank generator matrix, reduced at construction; its
parity-check matrix is derived on first use, and no codeword table is kept.  The
oracles are LinearCode methods: minimum distance and nearest-codeword queries
enumerate codewords exhaustively through ``encode_batch`` up to
ENUMERATION_THRESHOLD and refuse beyond it (the multiples of the all-ones row
over GF(17) and up count symbols instead); nothing here ever estimates.
"""

from __future__ import annotations

import functools
import operator
import warnings
from fractions import Fraction
from itertools import chain
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
_LANES = 4  # counter lanes of ``max_counts`` on long rows: 4 beat 1, 2 and 8 on constant and near-constant cube words


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


def residues(field: Field, words: np.ndarray, n: int) -> np.ndarray:
    """``words`` itself, once checked to be a (B, n) integer array of residues in [0, q).

    Refuses another shape with a LengthMismatchError, and a float, bool or object
    array or a symbol outside [0, q) with a ValueError.  Copies nothing; an
    unsigned array costs one reduction (its max).
    """
    if words.ndim != 2 or words.shape[1] != n:
        raise LengthMismatchError(f"words of shape {words.shape}, expected (B, {n})")
    if words.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers, got dtype {words.dtype}")
    if words.size and ((words.dtype.kind == "i" and words.min() < 0) or words.max() >= field.q):
        raise ValueError(f"symbol values must lie in [0, {field.q})")
    return words


def _coerce_symbols(field: Field, symbols) -> np.ndarray:
    """A new 1-d array of the symbols as symbol_dtype(field), checked as ``residues`` checks a row."""
    if isinstance(symbols, np.ndarray):
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
    if values.ndim != 1:
        raise ValueError(f"symbols must form a 1-d array, got {values.ndim} dimensions")
    return residues(field, values[None], values.size)[0].astype(symbol_dtype(field))


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
# ENUMERATION_THRESHOLD through ``config.within`` on every call, counting the
# codewords one message digit at a time like every other count, so a refusal
# never forms a huge q**k.  Messages are enumerated in lexicographic order, at
# most _CHUNK at a time, so ties break toward the smallest message.
#
# Codeword symbols are stored row-major as symbol_dtype(field).  The distance
# oracle reads no codeword table: it keeps the bit-planes of the first group of
# q**j codewords only (plane p holds bit p of every symbol, 64 to a uint64) and
# reaches every later group by coset translation, shifting the words by the
# group start: d(w, c_s + c) = d(w - c_s, c).
#
# The multiples of the all-ones row over GF(q), q >= 17 (every RS[n,1], every
# repetition code and their tensor powers), are answered by a symbol histogram
# instead: the nearest codeword repeats a word's most frequent symbol, counted by ``max_counts``
# (as are all views of a word at once, through ``TannerCode._view_offsets``).  On 93 rows of 961 it
# lost to the planes at q = 7, broke even at q = 11 and won at q = 13; GF(17) is a conservative cutoff.
#
# A third side belongs to TensorCode: a product of more than one group of codewords, and a batch of
# enough words, takes a min-sum over its last axis (``TensorCode._min_sum_distances``), which reads a
# table of per-slice distances n_X times a message tuple instead of comparing n symbols.


def _unsigned(top: int) -> type:
    """The narrowest unsigned type holding 0..top; refuses top >= 2**64.

    As np.min_scalar_type(top), which costs a tenth of a batch-of-one compare.
    """
    if top >> 64:
        raise ValueError(f"{top} is past the 64 bits of the widest unsigned type")
    return np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16 else np.uint32 if top < 1 << 32 else np.uint64


def symbol_dtype(field: Field) -> type:
    """The narrowest unsigned dtype holding every residue: uint8 or uint16."""
    return _unsigned(field.q - 1)


def _block_rows(n: int) -> int:
    """Rows of a block of length-n words: _CHUNK, cut to hold at most _CHUNK << 8 symbols (one row at least)."""
    return min(_CHUNK, max(1, (_CHUNK << 8) // n))


def _pack(values: np.ndarray, bits: int) -> np.ndarray:
    """The W-major (bits, W, R) uint64 planes of a (R, n) array: bit p of each symbol, row r in column r.

    Rows are padded to whole octets, so each plane packs as one flat run and the bits past n are zero.
    """
    rows, n = values.shape
    used = -(-n // 8)
    padded = np.zeros((rows, 8 * used), dtype=values.dtype)
    padded[:, :n] = values
    out = np.zeros((bits, rows, -(-n // 64)), dtype=np.uint64)
    for p in range(bits):
        out.view(np.uint8)[p, :, :used] = np.packbits(padded & (1 << p)).reshape(rows, used)
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def _min_plane_hammings(packed: np.ndarray, planes: np.ndarray, out: np.ndarray) -> None:
    """Lower ``out`` to each word's minimum Hamming distance to the rows of (b, W, R) planes.

    ``packed`` holds the (b, W, B) planes of B words.  Two symbols below 2**b differ exactly when one of
    their b bits does, so the distance is the popcount of the OR over planes of (codeword XOR word).  A
    step compares about _CHUNK uint64 per plane: a block of words with every row, or, when the batch has
    more words than rows and than half a step, all with one row.
    """
    bits, width, rows = planes.shape
    batch, acc, cells = packed.shape[2], _unsigned(64 * width), _CHUNK // width or 1
    word_step = batch if batch > max(rows, cells // 2) else cells // rows or 1
    row_step = cells // word_step or 1
    for w in range(0, batch, word_step):
        some, part = packed[:, :, w : w + word_step, None], out[w : w + word_step]
        for s in range(0, rows, row_step):
            block = planes[:, :, None, s : s + row_step]
            diff = block[0] ^ some[0]
            for p in range(1, bits):
                diff |= block[p] ^ some[p]
            hams = np.bitwise_count(diff[0]) if width == 1 else np.bitwise_count(diff).sum(axis=0, dtype=acc)
            np.minimum(part, hams.min(axis=1), out=part)


def lane_count(n: int, q: int) -> int:
    """The counter lanes of a length-n row over GF(q): _LANES if it is long next to its bins (n >= _LANES q), else 1."""
    return 1 if n < _LANES * q else _LANES


def count_offsets(groups: np.ndarray, count: int, q: int) -> np.ndarray:
    """The read-only narrow ``max_counts`` table of (d, n) groups below ``count``: ((v mod lanes) count + group) q."""
    n, lane = groups.shape[1], lane_count(groups.shape[1], q)
    narrow = _unsigned(lane * count * q)
    lanes = np.tile(np.arange(0, lane * count, count, dtype=narrow), -(-n // lane))[:n]
    offsets = (groups.astype(narrow, order="C") + lanes) * q
    offsets.setflags(write=False)
    return offsets


def max_counts(words: np.ndarray, offsets: np.ndarray, q: int, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, groups) largest count of one symbol in each group of (B, n) residue rows, and (B,) largest total of one
    symbol over all groups.  Symbol a at position v counts in bin offsets[i, v] + a for each row i of the table
    from ``count_offsets``: consecutive positions in different lanes, summed before the max.  One narrow ``bincount``
    a block of at most _CHUNK << 4 index cells and bins (one row at least), row r's bins past r * bins."""
    batch, bins = words.shape[0], lane_count(words.shape[1], q) * groups * q
    step = max(1, (_CHUNK << 4) // (offsets.size + bins))
    wide, out, total = _unsigned(step * bins), np.empty((batch, groups), dtype=np.int64), np.empty(batch, np.int64)
    for s in range(0, batch, step):
        block = words[s : s + step].astype(wide)
        block += np.arange(0, len(block) * bins, bins, dtype=wide)[:, None]
        counts = np.bincount((block[:, None] + offsets).ravel(), minlength=len(block) * bins)
        counts = counts.reshape(len(block), -1, groups, q)  # (rows, lanes, groups, q)
        counts = counts[:, 0] if counts.shape[1] == 1 else counts.sum(axis=1)  # one lane is read, not summed
        out[s : s + step] = most = counts.max(axis=2)
        total[s : s + step] = most[:, 0] if groups == 1 else counts.sum(axis=1).max(axis=1)  # one group: its max
    return out, total


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
        # A reduced int64 array that owns its data is taken as it is: its caller built it fresh or made it read-only.
        generator = generator.astype(np.int64, copy=not (_reduced and generator.flags.owndata))
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
        """The read-only (n - k, n) parity-check matrix, derived on first use and refused past PARITY_CELLS."""
        config.within("PARITY_CELLS", (self.n - self.k) * self.n, "parity-check matrix")
        parity = linalg.null_space(self.generator, self.field.q)
        parity.setflags(write=False)
        return parity

    # --- basic queries -----------------------------------------------------

    def params(self) -> tuple[int, int, Optional[int]]:
        return self.n, self.k, self.d_known

    def num_codewords(self) -> int:
        return self.field.q**self.k

    def _checked_size(self) -> int:
        """q**k, counted as terms and refused at the first running total past ENUMERATION_THRESHOLD.

        The terms are 1 (the zero codeword), then the (q - 1) q**i codewords whose message has its last
        nonzero digit at i < k: the total after digit i is q**(i + 1), so q**k is formed only if it fits.
        """
        q = self.field.q
        terms = chain((1,), ((q - 1) * q**i for i in range(self.k)))
        return config.within("ENUMERATION_THRESHOLD", terms, "codeword enumeration")

    def encode(self, message) -> Word:
        """Encode a length-k message, as a batch of one."""
        msg = _coerce_symbols(self.field, message)
        if msg.size != self.k:
            raise LengthMismatchError(f"message length {msg.size}, expected {self.k}")
        return Word(self.field, self.encode_batch(msg[None])[0])

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (B, k) batch of messages into a (B, n) array."""
        return (messages @ self.generator) % self.field.q

    @functools.cached_property
    def _systematic(self) -> tuple["LinearCode", np.ndarray]:
        """(S, pivots): the generator systematic on the code's last information set, the RREF of its reversed
        columns, reversed, and the increasing columns where S is the identity.  S declares no distance."""
        reduced, pivots = linalg.rref(self.generator[:, ::-1], self.field.q)
        s = reduced[: self.k, ::-1][::-1]
        return LinearCode(self.field, s, _reduced=True), self.n - 1 - np.array(pivots[::-1], dtype=np.int64)

    def contains(self, word: Word) -> bool:
        """Membership by re-encoding the information set, as a batch of one."""
        return bool(self.contains_batch(word_values(word, self.field, self.n, self.shape)[None])[0])

    def contains_batch(self, words: np.ndarray) -> np.ndarray:
        """Membership of a (B, n) array of words, refused as ``residues`` refuses: w is a codeword exactly when
        S re-encodes w's symbols on the pivots of ``_systematic`` into w."""
        residues(self.field, words, self.n)
        system, pivots = self._systematic
        return (system.encode_batch(words[:, pivots]) == words).all(axis=1)

    # --- exhaustive oracles -------------------------------------------------

    def _group_digits(self) -> int:
        """The j <= k of the first group: the largest with q**j within _block_rows(n) rows, or q rows if q
        codewords fit TABLE_CELLS.  Counted a digit at a time, so q**k is never formed."""
        q, j = self.field.q, 0
        rows = max(_block_rows(self.n), q if q * self.n <= config.TABLE_CELLS else 1)
        while j < self.k and q ** (j + 1) <= rows:
            j += 1
        return j

    @functools.cached_property
    def _group(self) -> np.ndarray:
        """The first group: the codewords of the messages below q**j, j = ``_group_digits()``.  Built a digit at a
        time in the wide dtype: the q multiples of each of the last j unit codewords are added to the group so far
        by doubling."""
        q, k, n, wide = self.field.q, self.k, self.n, _unsigned(2 * (self.field.q - 1))
        j = self._group_digits()
        group = np.zeros((1, n), dtype=wide)
        for unit in self.encode_batch(np.eye(j, k, k - j, dtype=np.int64)):
            layers = group[None]  # layer d: the group so far plus d * unit
            while len(layers) < q:
                more = layers[: q - len(layers)] + (unit * len(layers) % q).astype(wide)
                # Below q, x - q wraps past the top of ``wide``, so min(x, x - q) is x mod q.
                np.minimum(more, more - q, out=more)
                layers = np.concatenate([layers, more])
            group = layers.transpose(1, 0, 2).reshape(-1, n)
        return group.astype(symbol_dtype(self.field), copy=False)

    def _starts(self, span: int, per: int, start: int = 0):
        """Yield (s, the wide codewords of messages s, s + span, ... below s + per) for s = start, start + per, ....

        ``per`` is a multiple of ``span``.  The starts are encoded by one ``encode_batch`` call per whole yields of
        at most _block_rows(n) starts (one yield at least)."""
        q, k, total, each = self.field.q, self.k, self.num_codewords(), per // span
        step = per * max(1, _block_rows(self.n) // each)
        for e in range(start, total, step):
            messages = np.stack(np.unravel_index(np.arange(e, min(e + step, total), span), (q,) * k), axis=1)
            codewords = self.encode_batch(messages).astype(_unsigned(2 * (q - 1)))
            for i in range(0, len(codewords), each):
                yield e + i * span, codewords[i : i + each]

    def _blocks(self):
        """Yield (start, codewords) for blocks of as many whole groups as fit _block_rows(n), or parts of one.

        By linearity, a group starting at message s is codeword(s) plus ``_group``; one group is yielded as is.
        """
        self._checked_size()
        q, first, rows = self.field.q, self._group, _block_rows(self.n)
        if len(first) == self.num_codewords():
            yield 0, first
            return
        for s, bases in self._starts(len(first), len(first) * max(1, rows // len(first))):
            for r in range(0, len(first), rows):
                sums = (bases[:, None, :] + first[None, r : r + rows]).reshape(-1, self.n)
                np.minimum(sums, sums - q, out=sums)
                yield s + r, sums.astype(symbol_dtype(self.field), copy=False)

    @functools.cached_property
    def _group_planes(self) -> np.ndarray:
        """The read-only (b, W, q**j) bit-planes of the first group, b = bitlength(q - 1)."""
        planes = _pack(self._group, (self.field.q - 1).bit_length())
        planes.setflags(write=False)
        return planes

    def codewords(self) -> np.ndarray:
        """All q**k codewords as a read-only (q**k, n) array, refused past TABLE_CELLS before any encoding.

        Row order is lexicographic in the message symbols, so row index i
        encodes the message ``unravel_index(i, (q,)*k)``.  Symbols are
        ``symbol_dtype(field)``, row-major.  Each call fills a new array from
        ``_blocks()``, except that a code of one group returns ``_group`` itself.
        """
        total = self._checked_size()
        config.within("TABLE_CELLS", total * self.n, "codeword table")
        table = self._group
        if len(table) < total:
            table = np.empty((total, self.n), dtype=symbol_dtype(self.field))
            for s, block in self._blocks():
                table[s : s + len(block)] = block
        table.setflags(write=False)
        return table

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
        ``encode_batch`` and never builds a table.
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

        ``words`` must hold residues in [0, q), as ``residues`` checks.  ENUMERATION_THRESHOLD is checked once,
        before any work; then ``_distances`` picks the side that answers.
        """
        residues(self.field, words, self.n)
        self._checked_size()
        return self._distances(words)

    def _distances(self, words: np.ndarray) -> np.ndarray:
        """``nearest_distance_batch`` of checked words.  A code whose codewords are the multiples of the all-ones
        row, over GF(q) with q >= 17, takes the histogram side: the codeword (a, ..., a) agrees with w wherever
        w_i = a, so the distance is n minus w's ``max_counts``.  Every other code takes ``_plane_distances``."""
        if not self._histogram_side:
            return self._plane_distances(words)
        return self.n - max_counts(words, self._lanes, self.field.q, 1)[1]

    def _plane_distances(self, words: np.ndarray) -> np.ndarray:
        """``nearest_distance_batch`` by comparing bit-planes, for checked words.

        Only the first group has planes.  By coset translation, d(w, c_s + c) = d(w - c_s, c): the words
        are compared with it, then shifted mod q by each later group start c_s, in blocks of at most
        _CHUNK << 8 symbols, keeping a running minimum.  One group shifts nothing.
        """
        q, (batch, n), step = self.field.q, words.shape, max(1, (_CHUNK << 8) // words.shape[1])
        if batch > step:
            return np.concatenate([self._plane_distances(words[w : w + step]) for w in range(0, batch, step)])
        planes, out = self._group_planes, np.full(batch, n, dtype=np.int64)
        bits, _, span = planes.shape
        _min_plane_hammings(_pack(words, bits), planes, out)
        if span == self.num_codewords():
            return out
        words = words.astype(_unsigned(2 * (q - 1)), copy=False)
        for _, bases in self._starts(span, span * max(1, step // (batch or 1)), start=span):
            shifted = (words[None] - bases[:, None]).reshape(-1, n)
            # Where w < c_s the difference wraps past the top of the dtype; adding q wraps it back.
            np.minimum(shifted, shifted + q, out=shifted)
            least = np.full(shifted.shape[0], n, dtype=np.int64)
            _min_plane_hammings(_pack(shifted, bits), planes, least)
            np.minimum(out, least.reshape(bases.shape[0], batch).min(axis=0), out=out)
        return out

    @functools.cached_property
    def _histogram_side(self) -> bool:
        """Whether k = 1, q >= 17 and the codeword of message 1 is all ones."""
        if self.k != 1 or self.field.q < 17:
            return False
        return bool((self.encode_batch(np.ones((1, 1), dtype=np.int64)) == 1).all())

    @functools.cached_property
    def _lanes(self) -> np.ndarray:
        """The (1, n) ``count_offsets`` table of one group: the histogram side's."""
        return count_offsets(np.zeros((1, self.n), dtype=np.uint8), 1, self.field.q)

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
