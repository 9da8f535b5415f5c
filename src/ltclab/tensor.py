"""Tensor product codes, m-dimensional words, slices, and unique extension.

Layout convention (fixed everywhere in this package)
----------------------------------------------------

Words of the product of codes C_1, ..., C_m live on the grid
[n_1] x ... x [n_m]; coordinate access is 1-based.  Flattening is row-major
with axis 1 slowest, i.e. numpy C order.  Lines parallel to axis b (vary the
b-th index, freeze the rest) are codewords of the b-th factor.  The flattened
generator is then the Kronecker product of the factor generators taken in
axis order, and messages are k_1 x ... x k_m grids flattened the same way.

Worked 2x2 example: factors C_1 = C_2 = the [2,1,2] repetition code over
GF(2), generators G_1 = G_2 = [1 1].  kron(G_1, G_2) = [1 1 1 1], so the
product code is {0000, 1111}.  The word 1111 unflattens to the 2x2 grid

        axis 2 ->
    axis 1 | 1 1
       |   | 1 1
       v

whose two axis-1 lines (columns of this picture: positions (1,1),(2,1) and
(1,2),(2,2)) and two axis-2 lines (rows: (1,1),(1,2) and (2,1),(2,2)) are all
the repetition codeword 11.  In the matrix view of a two-factor product,
matrix rows (indexed by n_2) vary along axis 2 and matrix columns along
axis 1.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from . import config, linalg
from .code import _CHUNK, LinearCode, Word, _coerce_symbols, _unsigned, as_integer, index_columns
from .config import within
from .errors import (
    FieldMismatchError,
    IndexOutOfRangeError,
    InconsistentSystemError,
    NotACodewordError,
    ShapeMismatchError,
    UnderdeterminedError,
    UnderdeterminedSystemError,
)
from .field import Field


class TensorWord(Word):
    """A Word on the grid [n_1] x ... x [n_m], row-major; coordinates are 1-based."""

    __slots__ = ("shape",)

    def __init__(self, field: Field, shape: Sequence[int], symbols):
        super().__init__(field, symbols)
        try:
            shape = tuple(as_integer(s) for s in shape)
        except TypeError:
            raise ValueError(f"shape must be a list of integers, got {shape!r}") from None
        if not shape or min(shape) < 1 or math.prod(shape) != len(self):
            raise ShapeMismatchError(f"{len(self)} symbols cannot fill shape {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def array(self) -> np.ndarray:
        """The read-only symbols as an array of this word's shape."""
        return self.values.reshape(self.shape)

    @classmethod
    def from_array(cls, field: Field, array: np.ndarray) -> "TensorWord":
        return cls(field, array.shape, np.asarray(array).reshape(-1))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def at(self, *indices: int) -> int:
        """The symbol at 1-based coordinates (i_1, ..., i_m)."""
        if len(indices) != self.ndim:
            raise IndexOutOfRangeError(
                f"expected {self.ndim} coordinates, got {len(indices)}"
            )
        indices = tuple(as_integer(i) for i in indices)
        for b, (i, n) in enumerate(zip(indices, self.shape), start=1):
            if not 1 <= i <= n:
                raise IndexOutOfRangeError(f"coordinate {i} on axis {b} not in [1, {n}]")
        return int(self.array[tuple(i - 1 for i in indices)])

    def axis_slice(self, b: int, i: int):
        """Freeze axis ``b`` at coordinate ``i`` (both 1-based).

        Returns the (m-1)-dimensional TensorWord; for a 1-dimensional word the
        result is the single symbol itself.
        """
        b, i = as_integer(b), as_integer(i)
        if not 1 <= b <= self.ndim:
            raise IndexOutOfRangeError(f"axis {b} not in [1, {self.ndim}]")
        if not 1 <= i <= self.shape[b - 1]:
            raise IndexOutOfRangeError(
                f"coordinate {i} not in [1, {self.shape[b - 1]}] on axis {b}"
            )
        sliced = np.take(self.array, i - 1, axis=b - 1)
        if self.ndim == 1:
            return int(sliced)
        return TensorWord.from_array(self.field, sliced)

    def __eq__(self, other):
        return isinstance(other, TensorWord) and self.shape == other.shape and super().__eq__(other)

    def __hash__(self):
        return hash((super().__hash__(), self.shape))

    def __repr__(self):
        return f"TensorWord(GF({self.field.q}), shape={self.shape})"


class TensorCode(LinearCode):
    """The product C_1 (x) ... (x) C_m of linear codes over one field, in factor form.

    A LinearCode whose generator is kron(G_1, ..., G_m), derived only on first
    use: codewords are encoded by contracting each factor generator along its
    axis, and membership re-encodes the pivot grid of the factors' systematic
    forms.  ``contains`` and ``nearest`` read a Word by its row-major values,
    and refuse a TensorWord whose shape is not the code's.
    """

    # A span target of the benchmark's tracer, which patches it on this class.
    nearest_distance_batch = LinearCode.nearest_distance_batch

    def __init__(self, factors: Sequence[LinearCode]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a tensor code needs at least one factor")
        field = factors[0].field
        for c in factors[1:]:
            if c.field != field:
                raise FieldMismatchError("all factors must share one field")
        self.factors = factors
        self.field = field
        self.shape = tuple(c.n for c in factors)
        self.k = math.prod(c.k for c in factors)
        self.n = math.prod(self.shape)
        ds = [c.d_known for c in factors]
        self.d_known = math.prod(ds) if None not in ds else None

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """The read-only flat Kronecker generator, derived on first use."""
        within("GENERATOR_CELLS", self.k * self.n, "generator")
        gen = self.factors[0].generator
        for factor in self.factors[1:]:
            gen = linalg.kron(gen, factor.generator, self.field.q)
        gen.setflags(write=False)
        return gen

    @functools.cached_property
    def _systematic(self) -> tuple["TensorCode", np.ndarray]:
        """The product of the factors' systematic forms, and the flat positions of their pivot grid."""
        forms = [factor._systematic for factor in self.factors]
        grid = np.ix_(*(pivots for _, pivots in forms))
        return TensorCode([system for system, _ in forms]), np.ravel_multi_index(grid, self.shape).ravel()

    # --- encoding -------------------------------------------------------------

    def encode_tensor(self, message: np.ndarray) -> TensorWord:
        """Encode a k_1 x ... x k_m message grid into a codeword."""
        # Nested lists stay Python objects, so that bools and floats are refused symbol by symbol.
        msg = message if isinstance(message, np.ndarray) else np.array(message, dtype=object)
        kshape = tuple(c.k for c in self.factors)
        if msg.shape != kshape:
            raise ShapeMismatchError(f"message shape {msg.shape}, expected {kshape}")
        msg = _coerce_symbols(self.field, msg.ravel().tolist() if msg.dtype == object else msg.ravel())
        return TensorWord.from_array(self.field, self.encode_batch(msg[None]).reshape(self.shape))

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (B, k) batch of flattened message grids into (B, n) residues.

        The messages are reduced mod q once, into the accumulator: the narrowest unsigned type holding
        k_b (q - 1)^2 for every factor, also the returned dtype (so it holds (q - 1)^2).  Each axis of the
        (B, k_1..k_m) grids in turn is moved last, multiplied by its factor generator (``np.matmul``), which
        cannot wrap there, and reduced in place by floor division, several times faster than integer ``%``.
        """
        q = self.field.q
        acc = _unsigned(max(c.k for c in self.factors) * (q - 1) ** 2)
        arr = (messages % q).astype(acc).reshape((messages.shape[0],) + tuple(c.k for c in self.factors))
        for factor in self.factors:
            arr = np.moveaxis(arr, 1, -1) @ factor.generator.astype(acc)
            wrap = arr // q
            wrap *= q
            arr -= wrap
        return arr.reshape(messages.shape[0], self.n)

    # --- the min-sum side of the distance oracle ---------------------------------
    #
    # Let X = factors[-1] have the rows R and pivot columns I of its ``_systematic`` form, and let Y be the product of
    # the leading factors.  A codeword's slice at last-axis position j is Y's codeword of the message sum_l R[l, j] u_l,
    # for one Y message u_l per row of R, so d(w, C) is the least, over the q**k tuples (u_1..u_kX), of
    # sum_l D_{I_l}(u_l) + sum_{j not in I} D_j(sum_l R[l, j] u_l), where D_j(u) is the distance from w's slice j to
    # Y's codeword u.  Each word costs one pass over Y's codewords for D, then n_X table reads per tuple: pivot terms
    # are outer sums, and each non-pivot column is one gather.  A (q**k_Y, 16)-byte table holds the D_j of up
    # to 16 words, one per lane of the accumulator _unsigned(n), and a gather reads all lanes of a row at once.
    #
    # The tuples are enumerated as k base-q digits, u_1's first, most significant first.  The leading ``outer``
    # digits are fixed per block and the rest (``inner``) vary within it, so a block is a running-minimum step of
    # at most _CHUNK << 8 accumulator cells.  Message u_l* holds the split; u_l (l < l*) is fixed, u_l (l > l*) is
    # free.  Per block, a non-pivot column reads D_j translated by the block's fixed part s (D_j(s + x), digitwise
    # mod q) through a plan of inner indices x built once per code.

    @functools.cached_property
    def _min_sum_side(self) -> bool:
        """Whether ``_distances`` may take the min-sum side: two factors or more, not on the histogram side, more
        than one group (single-group codes stay on the planes: RS[5,3] x RS[5,2] x RS[5,1] lost 1.5x there), and
        the leading factors' distance table (q**k_Y codewords x n_X slices x 16 lanes) within TABLE_CELLS.  Read
        after ENUMERATION_THRESHOLD has passed."""
        last = self.factors[-1]
        if len(self.factors) < 2 or self._histogram_side or self._group_digits() == self.k:
            return False
        return self.field.q ** (self.k // last.k) * last.n * 16 <= config.TABLE_CELLS

    def _distances(self, words: np.ndarray) -> np.ndarray:
        """The min-sum side when ``_min_sum_side`` holds and the batch pays for it, else the inherited sides.

        A pass of the min-sum side reads about q**k n_X rows of 16 bytes for up to 16 words (8 past n = 255), and
        each of these reads costs about three of the plane side's uint64 compares, of which that side makes
        q**k ceil(n / 64) bitlength(q - 1) per word.  So a batch of one word keeps the planes, where the min-sum
        side lost on every fresh code measured (tanner_sweep's reference: 2.6 against 4.9 ms), and 15 words take
        the min-sum (15.3 against 5.0 ms)."""
        batch, lanes = len(words), 16 // np.dtype(_unsigned(self.n)).itemsize
        planes = batch * -(-self.n // 64) * (self.field.q - 1).bit_length()
        if self._min_sum_side and -(-batch // lanes) * 3 * self.factors[-1].n < planes:
            return self._min_sum_distances(words)
        return super()._distances(words)

    @functools.cached_property
    def _min_sum_plan(self) -> "_MinSumPlan":
        return _MinSumPlan(self)

    def _min_sum_distances(self, words: np.ndarray) -> np.ndarray:
        """``nearest_distance_batch`` by the min-sum over the last axis, for checked words, ``lanes`` words a pass."""
        plan, out = self._min_sum_plan, np.empty(words.shape[0], dtype=np.int64)
        for w in range(0, len(words), plan.lanes):
            part = words[w : w + plan.lanes]
            out[w : w + len(part)] = plan.least(plan.slice_distances(part))[: len(part)]
        return out

    def min_distance(self) -> int:
        """The product d_1 * ... * d_m of the factors' distances: exact, and enumerates no product codeword."""
        return math.prod(f.min_distance() for f in self.factors)

    def as_linear_code(self) -> LinearCode:
        """The same code as a flat LinearCode with the Kronecker generator."""
        return LinearCode(self.field, self.generator, d_known=self.d_known, _reduced=True)

    # --- projection and extension --------------------------------------------

    def extend(self, index_sets: Sequence[Sequence[int]], partial: TensorWord) -> TensorWord:
        """Extend a partial codeword on I_1 x ... x I_m to the full grid.

        Each 1-based index set I_b must have at least n_b - d_b + 1 elements,
        which makes the extension unique.  The message grid is recovered axis by
        axis, every line along axis b solved against the b-th projected generator;
        an inconsistent line means ``partial`` is not a codeword of the projected product.
        """
        if len(index_sets) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} index sets, got {len(index_sets)}")
        sets0 = []
        for b, (raw, factor) in enumerate(zip(index_sets, self.factors), start=1):
            cols = index_columns(raw, factor.n, f"axis {b} indices")
            d = factor.d_known if factor.d_known is not None else factor.min_distance()
            if len(cols) < factor.n - d + 1:
                raise UnderdeterminedError(
                    f"axis {b}: {len(cols)} coordinates < n - d + 1 = {factor.n - d + 1}"
                )
            sets0.append(cols)
        pshape = tuple(len(s) for s in sets0)
        if partial.field != self.field or partial.shape != pshape:
            raise ShapeMismatchError(
                f"partial word has shape {partial.shape}, expected {pshape}"
            )
        grid, q = partial.array, self.field.q
        try:
            for b0, (factor, cols) in enumerate(zip(self.factors, sets0)):
                lines = np.moveaxis(grid, b0, -1)
                msgs = linalg.solve_unique(factor.generator[:, cols].T, lines.reshape(-1, len(cols)).T, q)
                grid = np.moveaxis(msgs.T.reshape(lines.shape[:-1] + (factor.k,)), -1, b0)
        except InconsistentSystemError as exc:
            raise NotACodewordError(
                "partial word is not a codeword of the projected product code"
            ) from exc
        except UnderdeterminedSystemError as exc:
            raise UnderdeterminedError(str(exc)) from exc
        return self.encode_tensor(grid)


def _digit_plan(coeffs, q: int, k_y: int, free: Sequence[tuple[int, int]]) -> np.ndarray:
    """The flat index of the Y message sum_l coeffs[l] u_l (digitwise mod q), over the grid of free digits.

    Message u_l has its digits d in [lo_l, hi_l) = free[l] free (digit 0 most significant) and the others 0; the
    grid runs over l, then d, row-major.  Each digit of the sum is a broadcast sum over the free digits at that d.
    """
    axes = [(l, d) for l, (lo, hi) in enumerate(free) for d in range(lo, hi)]
    index = np.zeros((), dtype=np.int64)
    for d in range(k_y):
        digit = np.zeros((), dtype=np.int64)
        for a, (l, at) in enumerate(axes):
            if at == d:
                digit = digit + (int(coeffs[l]) * np.arange(q)).reshape((q,) + (1,) * (len(axes) - 1 - a))
        index = index + digit % q * q ** (k_y - 1 - d)
    return np.broadcast_to(index, (q,) * len(axes)).ravel()


class _MinSumPlan:
    """What ``TensorCode._min_sum_distances`` reads that depends on the code only, built on its first call."""

    def __init__(self, code: TensorCode):
        *lead, last = code.factors
        q, k = code.field.q, code.k
        self.lead = lead[0] if len(lead) == 1 else TensorCode(lead)
        self.acc = _unsigned(code.n)  # a tuple's sum is at most n_Y n_X = n
        self.lanes = 16 // np.dtype(self.acc).itemsize
        self.q, self.k_y, self.n_x = q, self.lead.k, last.n
        rows, self.pivots = last._systematic[0].generator, last._systematic[1]
        k_x, k_y, others = last.k, self.k_y, [j for j in range(last.n) if j not in self.pivots]
        outer = 0  # the fewest fixed digits leaving at most _CHUNK << 8 accumulator cells and plan entries a block
        while q ** (k - outer) * max(self.lanes, len(others)) > _CHUNK << 8:
            outer += 1
        self.split, rest = divmod(outer, k_y)  # the message l* holding the split, and its fixed digits
        self.width = q ** (k_y - rest)  # u_l*'s free values
        fixed = [(0, k_y)] * self.split + [(0, rest)] + [(0, 0)] * (k_x - 1 - self.split)
        free = [(0, 0)] * self.split + [(rest, k_y)] + [(0, k_y)] * (k_x - 1 - self.split)
        # Digits d < ``low`` are fixed in every inner index: the inner plans read D_j's last k_y - low digits only.
        self.low = rest if self.split == k_x - 1 else 0
        units, index = np.eye(k_x, dtype=np.int64), _unsigned(q ** (k_y - self.low))
        self.starts = [_digit_plan(units[l], q, k_y, fixed) for l in range(self.split + 1)]  # u_l's fixed part
        # (j, the fixed part of the message sum of column j per block, its plan of inner indices)
        self.columns = [
            (j, _digit_plan(rows[:, j], q, k_y, fixed), _digit_plan(rows[:, j], q, k_y, free).astype(index))
            for j in others
        ]

    def slice_distances(self, words: np.ndarray) -> np.ndarray:
        """The (n_X, q**k_Y, lanes) table D of up to ``lanes`` words: D[j, u, b] = d(slice j of word b, Y's codeword u).

        Y's codewords are streamed from its ``_blocks``, once per step of slices whose one-hot table fits _CHUNK << 8
        cells (one slice at least).  That table holds, at (i, a), which slices have symbol a at position i, so a
        codeword's agreements are the sum over i of the rows at its symbols: n_Y row gathers."""
        q, n_y, acc, batch = self.q, self.lead.n, self.acc, len(words)
        table = np.zeros((self.n_x, q**self.k_y, self.lanes), dtype=acc)
        slices = words.reshape(batch, n_y, self.n_x).transpose(1, 2, 0)  # (n_Y, n_X, B)
        step = max(1, (_CHUNK << 8) // (n_y * q * batch))
        for c in range(0, self.n_x, step):
            hot = (slices[:, None, c : c + step] == np.arange(q)[:, None, None]).astype(acc).reshape(n_y, q, -1)
            rows = max(1, (_CHUNK << 8) // hot[0].size)
            for s, block in self.lead._blocks():
                for r in range(0, len(block), rows):
                    part = block[r : r + rows]
                    agree = np.zeros((len(part), hot.shape[2]), dtype=acc)  # (U, slices x B)
                    for i in range(n_y):
                        agree += hot[i, part[:, i]]
                    table[c : c + step, s + r : s + r + len(part), :batch] = (n_y - agree).reshape(
                        len(part), -1, batch).transpose(1, 0, 2)
        return table

    def least(self, table: np.ndarray) -> np.ndarray:
        """The (lanes,) least tuple sums of a ``slice_distances`` table: a running minimum over the blocks, then
        the minimum of its rows by halving."""
        q, k_y, lanes, split = self.q, self.k_y, self.lanes, self.split
        rows = table.view(np.dtype((np.void, 16)))[..., 0]  # (n_X, q**k_Y): all lanes of a row as one item
        pivot = [table[self.pivots[l]] for l in range(len(self.pivots))]
        # The outer sum of the free messages' pivot terms, by whole-row repeats and tiles: a broadcast over
        # (..., lanes) arrays would run numpy's inner loop over the lanes alone.
        free = np.zeros((1, lanes), dtype=self.acc)
        for term in pivot[split + 1 :]:
            free = np.repeat(free, len(term), axis=0) + np.tile(term, (len(free), 1))
        best = None
        for o in range(len(self.starts[0])):
            head = pivot[split][self.starts[split][o] : self.starts[split][o] + self.width]
            for l in range(split):
                head = head + pivot[l][self.starts[l][o]]
            acc = np.tile(free, (self.width, 1))
            acc += np.repeat(head, len(free), axis=0)
            for j, shifts, plan in self.columns:
                digits = [int(shifts[o]) // q ** (k_y - 1 - d) % q for d in range(k_y)]
                moved = rows[j].reshape((q,) * k_y)[tuple(digits[: self.low])]  # D_j(s + x), x on the free digits
                moved = moved[np.ix_(*((np.arange(q) + t) % q for t in digits[self.low :]))].ravel()
                acc += np.take(moved, plan).view(self.acc).reshape(-1, lanes)
            best = acc if best is None else np.minimum(best, acc, out=best)
        size = len(best)
        while size > 1:
            half = size // 2
            np.minimum(best[:half], best[size - half : size], out=best[:half])
            size -= half
        return best[0]


def tensor_product(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """The flat [n1*n2, k1*k2] product code of two linear codes.

    The generator is kron(G1, G2), matching the package-wide flattening of
    two-axis words (axis 1 slowest); its minimum distance is d1*d2 when both
    factor distances are known.
    """
    return TensorCode((c1, c2)).as_linear_code()


def tensor_power(code: LinearCode, m: int) -> TensorCode:
    """The m-fold product of ``code`` with itself."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    return TensorCode((code,) * m)


def project_word(word: TensorWord, index_sets: Sequence[Sequence[int]]) -> TensorWord:
    """Restrict a tensor word to the 1-based grid I_1 x ... x I_m."""
    if len(index_sets) != word.ndim:
        raise ValueError(f"expected {word.ndim} index sets, got {len(index_sets)}")
    axes = enumerate(zip(index_sets, word.shape), start=1)
    sub = word.array[np.ix_(*(index_columns(raw, n, f"axis {b} indices") for b, (raw, n) in axes))]
    return TensorWord.from_array(word.field, sub)
