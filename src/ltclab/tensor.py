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

from . import linalg
from .code import LinearCode, Word, _coerce_symbols, _unsigned, as_integer, index_columns, residues
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
    axis, and membership checks the axis-parallel lines.  ``contains`` and
    ``nearest`` read a Word by its row-major values, and refuse a TensorWord
    whose shape is not the code's.
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

    def contains_batch(self, flat_words: np.ndarray) -> np.ndarray:
        """Membership of (B, n) words via axis-parallel lines.

        True iff for every axis b, every line parallel to axis b is a codeword
        of the b-th factor.  Refuses ``flat_words`` as ``residues`` refuses.
        """
        residues(self.field, flat_words, self.n)
        batch = flat_words.shape[0]
        arrs = flat_words.reshape((batch,) + self.shape)
        ok = np.ones(batch, dtype=bool)
        for b0, factor in enumerate(self.factors):
            lines = np.moveaxis(arrs, 1 + b0, -1).reshape(-1, factor.n)
            good = factor.contains_batch(lines).reshape(batch, -1)
            ok &= good.all(axis=1)
        return ok

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
