"""Ordered bipartite graphs, Tanner product codes, and graph composition.

An (n, m, t)-ordered bipartite graph has n left vertices, m right vertices,
and for each right vertex j an ordered neighbor list of exactly t left
vertices (1-based).  A Tanner product code TPC(G, C_small) consists of the
words over the left vertices whose every right-vertex view (the ordered
projection onto a neighbor list) is a codeword of the small code.

Every graph is given by one row formula, ``rows_at_fn(js, positions)``,
vectorized over rows; adjacency lists are served through a formula over their
validated array.  The ``OrderedGraph`` constructor materializes the formula as
a dense (m, t) array when m * t <= ADJACENCY_BUDGET and drops it, and keeps it
as a computed row accessor past that, so that sampled testing still works.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import code, config, linalg
from .code import LinearCode, Word, as_integer, full_code, residues, symbol_dtype, word_values
from .errors import (
    DegreeMismatchError,
    EntryOutOfRangeError,
    GraphTooLargeError,
    InapplicableError,
    RaggedListsError,
)
from .tensor import tensor_power

# Right-vertex block size when streaming or materializing the rows of a graph.
_ROW_BLOCK = 1 << 12

# A row formula: (B,) 0-based rows and (p,) or (B, p) 0-based positions to (B, p) entries.
RowsAtFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class OrderedGraph:
    """An (n, m, t)-ordered bipartite graph.

    Neighbor lists are exposed 1-based (matching serialization); internal
    arrays are 0-based.  A graph holds either its rows as a dense array
    (``is_explicit``) or its row formula, as the constructor decides.
    Instances are immutable after construction.
    """

    def __init__(
        self, n_left: int, m_right: int, t_degree: int, rows_at_fn: RowsAtFn,
        left_degree: Optional[int] = None, label: str = "",
    ):
        """A graph given by its row formula, materialized when m * t <= ADJACENCY_BUDGET.

        The dense array is filled one _ROW_BLOCK of rows at a time, so that the formula's
        temporaries stay bounded; the materialized graph keeps no formula, nor the graphs it reads.
        """
        self.n_left = int(n_left)
        self.m_right = int(m_right)
        self.t_degree = int(t_degree)
        self.left_degree = left_degree
        self.label = label
        self._rows0, self._rows_at_fn = None, rows_at_fn
        if self.m_right * self.t_degree <= config.ADJACENCY_BUDGET:
            rows = np.empty((self.m_right, self.t_degree), dtype=np.int64)
            for start in range(0, self.m_right, _ROW_BLOCK):
                rows[start : start + _ROW_BLOCK] = self.rows0_block(start, start + _ROW_BLOCK)
            rows.setflags(write=False)
            self._rows0, self._rows_at_fn = rows, None

    # --- construction -------------------------------------------------------

    @classmethod
    def from_lists(cls, n_left: int, lists: Sequence[Sequence[int]], label: str = "") -> "OrderedGraph":
        """Validate 1-based adjacency lists and build a graph over them, materialized as the constructor decides."""
        try:
            lists = [[as_integer(v) for v in row] for row in lists]
        except TypeError:
            raise ValueError("neighbor lists must be lists of integers") from None
        if not lists:
            raise ValueError("a graph needs at least one right vertex")
        lengths = {len(row) for row in lists}
        if len(lengths) != 1:
            raise RaggedListsError(f"neighbor lists have mixed lengths {sorted(lengths)}")
        t = lengths.pop()
        if t == 0:
            raise ValueError("neighbor lists must be nonempty")
        # Checked on the Python ints, so that no entry can overflow int64.
        bad = next((v for row in lists for v in row if not 1 <= v <= n_left), None)
        if bad is not None:
            raise EntryOutOfRangeError(f"entry {bad} outside [1, {n_left}]")
        rows = np.array(lists, dtype=np.int64) - 1
        return cls(n_left, rows.shape[0], t, lambda js, positions: rows[js[:, None], positions], label=label)

    @property
    def is_explicit(self) -> bool:
        return self._rows0 is not None

    def params(self) -> tuple[int, int, int]:
        return self.n_left, self.m_right, self.t_degree

    # --- row access -----------------------------------------------------------

    def rows_at(self, js: np.ndarray, positions: Optional[np.ndarray] = None) -> np.ndarray:
        """(B, p) entries of 0-based rows js at 0-based positions (p,) or (B, p); whole rows by default."""
        js = np.asarray(js, dtype=np.int64)
        if self._rows0 is None:
            return self._rows_at_fn(js, np.arange(self.t_degree) if positions is None else positions)
        return self._rows0[js] if positions is None else self._rows0[js[:, None], positions]

    def row0(self, j0: int) -> np.ndarray:
        """0-based neighbor row of 0-based right vertex j0."""
        if not 0 <= j0 < self.m_right:
            raise IndexError(f"right vertex {j0} not in [0, {self.m_right})")
        return self.rows0_block(j0, j0 + 1)[0]

    def rows0_block(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 (0-based); a read-only view on an explicit graph."""
        stop = min(stop, self.m_right)
        if self._rows0 is not None:
            return self._rows0[start:stop]
        return self.rows_at(np.arange(start, stop))

    def iter_row_blocks(self, block: int = _ROW_BLOCK) -> Iterable[tuple[int, np.ndarray]]:
        for start in range(0, self.m_right, block):
            yield start, self.rows0_block(start, start + block)

    def neighbors(self, j: int) -> tuple[int, ...]:
        """1-based neighbor list of 1-based right vertex j."""
        return tuple(int(v) + 1 for v in self.row0(as_integer(j) - 1))

    @property
    def lists(self) -> tuple[tuple[int, ...], ...]:
        """All neighbor lists, 1-based.  Explicit graphs only (a list graph past the budget is not)."""
        if self._rows0 is None:
            raise GraphTooLargeError(
                "graph is stored as a computed accessor; materialize via rows0_block"
            )
        return tuple(tuple(int(v) + 1 for v in row) for row in self._rows0)

    # --- views ------------------------------------------------------------------

    def view(self, values: np.ndarray, j: int) -> np.ndarray:
        """The ordered projection of a word's values onto list j (1-based)."""
        return values[self.row0(as_integer(j) - 1)]

    def view_chunks(
        self, values: np.ndarray, js: Optional[np.ndarray] = None
    ) -> Iterable[tuple[slice, int, np.ndarray]]:
        """(words, start, views) covering the views of the (B, n_left) ``values``.

        ``views`` is the (b, r, t) gather ``values[words].take(block, axis=1)``,
        where ``block`` holds right vertices start..start+r-1, or the 0-based
        vertices ``js[start:start+r]`` when ``js`` is given.  Vertices go
        _ROW_BLOCK at a time and words in chunks of at most BROADCAST_CELLS
        view symbols (one word's views at least).
        """
        total = self.m_right if js is None else len(js)
        for start in range(0, total, _ROW_BLOCK):
            if js is None:
                block = self.rows0_block(start, start + _ROW_BLOCK)
            else:
                block = self.rows_at(js[start : start + _ROW_BLOCK])
            step = max(1, config.BROADCAST_CELLS // block.size)
            for s in range(0, values.shape[0], step):
                words = slice(s, s + step)
                yield words, start, values[words].take(block, axis=1)

    # --- structure ----------------------------------------------------------------

    def left_degrees(self) -> np.ndarray:
        """Occurrence count of every left vertex across all lists."""
        counts = np.zeros(self.n_left, dtype=np.int64)
        for _, block in self.iter_row_blocks():
            counts += np.bincount(block.reshape(-1), minlength=self.n_left)
        return counts

    def uniform_left_degree(self) -> int:
        """The common left degree; raises if the graph is not left-regular."""
        if self.left_degree is not None:
            return self.left_degree
        counts = self.left_degrees()
        if counts.min() != counts.max():
            raise ValueError("graph is not left-regular")
        self.left_degree = int(counts[0])
        return self.left_degree

    def compose(self, inner: "OrderedGraph") -> "OrderedGraph":
        """Composition: route each list of ``self`` through every list of ``inner``.

        Requires inner.n_left == self.t_degree.  The composed right vertex
        (j, j') is numbered j * inner.m_right + j' (j outer), and its list is
        self's list j sampled at inner's list j'.
        """
        if inner.n_left != self.t_degree:
            raise DegreeMismatchError(
                f"inner graph has {inner.n_left} left vertices, outer degree is {self.t_degree}"
            )
        ld = None if None in (self.left_degree, inner.left_degree) else self.left_degree * inner.left_degree

        def rows_at_fn(js: np.ndarray, positions: np.ndarray) -> np.ndarray:
            j0s, jp0s = np.divmod(js, inner.m_right)
            return self.rows_at(j0s, inner.rows_at(jp0s, positions))

        return OrderedGraph(
            self.n_left, self.m_right * inner.m_right, inner.t_degree, rows_at_fn,
            left_degree=ld, label=f"({self.label or '?'} (c) {inner.label or '?'})",
        )

    def __repr__(self):
        kind = "explicit" if self.is_explicit else "computed"
        name = f" {self.label!r}" if self.label else ""
        return (
            f"OrderedGraph({self.n_left}, {self.m_right}, {self.t_degree},"
            f" {kind}{name})"
        )


# --- concrete families ------------------------------------------------------


def product_graph(n: int, m: int) -> OrderedGraph:
    """The axis test graph on the grid [n]^m.

    Left vertices are the n**m grid points in row-major order (axis 1
    slowest); right vertex (b, i) sits at position (b-1)*n + i and is adjacent
    to every point whose b-th coordinate is i, ordered lexicographically by
    the remaining coordinates.  Views under this ordering coincide with
    flattened axis slices of tensor words.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    n_left = n**m
    if n_left > 2**62:
        # Vertex positions must fit int64 even in accessor form.
        raise GraphTooLargeError(f"{n}^{m} left vertices cannot be indexed")

    def rows_at_fn(js: np.ndarray, positions: np.ndarray) -> np.ndarray:
        # Positions enumerate the remaining m-1 coordinates lexicographically;
        # splice coordinate i back in at axis b: a position high * s + low, with
        # s = n^(m-1-b) and low < s, becomes high * s * n + i * s + low, which is
        # the position plus high * s * (n-1) + i * s (in place: one (B, p) array).
        b0, i0 = np.divmod(js[:, None], n)
        stride = n ** (m - 1 - b0)
        rows = positions // stride
        rows *= stride * (n - 1)
        rows += positions
        rows += i0 * stride
        return rows

    return OrderedGraph(
        n_left, m * n, n ** (m - 1), rows_at_fn, left_degree=m, label=f"product:n={n},m={m}"
    )


def iterated_graph(n: int, m: int, mp: int) -> OrderedGraph:
    """Compose axis test graphs down from m-dimensional to mp-dimensional views."""
    if not 1 <= mp < m:
        raise ValueError(f"need 1 <= mp < m, got m={m}, mp={mp}")
    if mp == m - 1:
        g = product_graph(n, m)
    else:
        g = product_graph(n, m).compose(iterated_graph(n, m - 1, mp))
    g.label = f"iterated:n={n},m={m},mp={mp}"
    return g


def square_test_graph(n: int, t: int) -> OrderedGraph:
    """The recursive test graph with n**(2**t) left vertices and degree n**2."""
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if t == 2:
        g = iterated_graph(n, 4, 2)
    else:
        outer = iterated_graph(n ** (2 ** (t - 2)), 4, 2)
        g = outer.compose(square_test_graph(n, t - 1))
    g.label = f"square:n={n},t={t}"
    return g


# --- Tanner product codes -----------------------------------------------------


class TannerCode:
    """TPC(G, C_small): words whose every right-vertex view is a small codeword."""

    grid: Optional[tuple[int, ...]] = None  # the shape a TensorWord must have, if any

    def __init__(self, graph: OrderedGraph, small: LinearCode):
        if small.n != graph.t_degree:
            raise DegreeMismatchError(
                f"small code length {small.n} != right degree {graph.t_degree}"
            )
        self.graph = graph
        self.small = small

    def _values(self, word: Word) -> np.ndarray:
        """A word's symbols as a batch of one; a Word's symbols are residues already."""
        return word_values(word, self.small.field, self.graph.n_left, self.grid)[None]

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """The (B, n_left) rows as symbol_dtype, copied only to cast, refused as ``residues`` refuses."""
        rows = residues(self.small.field, values, self.graph.n_left)
        return rows.astype(symbol_dtype(self.small.field), copy=False)

    def contains(self, word: Word) -> bool:
        return bool(self.contains_batch(self._values(word))[0])

    def contains_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized membership for a (B, n_left) array of residues, refused as ``_rows`` refuses."""
        return self._per_view(self._rows(words), self.small.contains_batch, bool).all(axis=1)

    def _per_view(self, values: np.ndarray, oracle: Callable, dtype, js: Optional[np.ndarray] = None) -> np.ndarray:
        """(B, r) answers of the small-code ``oracle`` on the views at 0-based js (all by default), a chunk a call."""
        t = self.graph.t_degree
        out = np.empty((values.shape[0], self.graph.m_right if js is None else len(js)), dtype=dtype)
        for words, start, views in self.graph.view_chunks(values, js):
            out[words, start : start + views.shape[1]] = oracle(views.reshape(-1, t)).reshape(views.shape[:2])
        return out

    @functools.cached_property
    def _view_offsets(self) -> Optional[np.ndarray]:
        """The ``count_offsets`` table of the d_L views holding each left vertex, built on first use; None to gather."""
        graph, small, q = self.graph, self.small, self.small.field.q
        if not graph.is_explicit or not small._histogram_side or graph.m_right * code._LANES * q > code._CHUNK << 4:
            return None
        try:
            degree = graph.uniform_left_degree()
        except ValueError:
            return None
        order = np.argsort(graph.rows0_block(0, graph.m_right).ravel(), kind="stable")  # incidences by vertex
        order //= graph.t_degree  # their views
        return code.count_offsets(order.reshape(graph.n_left, degree).T, graph.m_right, q)

    def __repr__(self):
        return f"TannerCode({self.graph!r}, {self.small!r})"


def _derived_within(graph: OrderedGraph, small: LinearCode, budget: str) -> Optional[LinearCode]:
    """Refuse TPC(graph, small): its stacked parity past ``budget``, a full space past GENERATOR_CELLS; return the
    full-space code, else None."""
    config.within(budget, graph.m_right * max(small.n - small.k, 1) * graph.n_left, "stacked parity matrix")
    if small.k == small.n:
        config.within("GENERATOR_CELLS", graph.n_left**2, "full-space generator")
        return full_code(small.field, graph.n_left)


def power_code(graph: OrderedGraph, small: LinearCode) -> Optional[LinearCode]:
    """TPC(graph, small) = C^m in factor form, when ``graph`` is product:n=C.n,m=m (by its label) and ``small`` is
    C^(m-1) of one code object C (a flat C for m = 2); else None.  The factors are S, the basis of C systematic on its
    last information set (``C._systematic``), so kron(S, ..., S) is the basis ``tpc_linear_code`` derives; a
    full-space C gives the full-space code, refused as ``_derived_within`` refuses."""
    factors = getattr(small, "factors", (small,))
    c, m = factors[0], len(factors) + 1
    if graph.label != f"product:n={c.n},m={m}" or any(f is not c for f in factors):
        return None
    if c.k == c.n:
        return _derived_within(graph, small, "DERIVED_PARITY_CELLS")
    return tensor_power(c._systematic[0], m)


def tpc_linear_code(graph: OrderedGraph, small: LinearCode, budget: str = "PARITY_CELLS") -> LinearCode:
    """The Tanner product code as an explicit LinearCode.

    Stacks one parity row per (right vertex, small parity row) pair and takes
    the null space, systematic on the code's last information set.  Intended
    for desk-scale graphs; refuses as ``_derived_within`` does, by ``budget``.
    """
    if small.n != graph.t_degree:
        raise DegreeMismatchError(f"small code length {small.n} != right degree {graph.t_degree}")
    if whole := _derived_within(graph, small, budget):
        return whole
    rows_per_view, n = small.n - small.k, graph.n_left
    parity = small.parity_check
    stacked = np.zeros((graph.m_right, rows_per_view, n), dtype=np.int64)
    for start, block in graph.iter_row_blocks():
        # parity row h of view j adds h[i] at left vertex block[j, i], summing repeated neighbours
        views = np.arange(start, start + block.shape[0]).reshape(-1, 1, 1)
        parity_rows = np.arange(rows_per_view).reshape(1, -1, 1)
        np.add.at(stacked, (views, parity_rows, block[:, None, :]), parity[None])
    stacked = stacked.reshape(-1, n) % small.field.q
    basis = linalg.null_space(stacked, small.field.q)
    if basis.shape[0] == 0:
        raise ValueError("Tanner product code is trivial (only the zero word)")
    return LinearCode(small.field, basis, _reduced=True)


# --- expansion ---------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionResult:
    """Outcome of one boundary-expansion comparison."""

    gamma: int
    bound: Fraction
    holds: bool
    s_size: int
    t_size: int

    @property
    def slack(self) -> Fraction:
        return Fraction(self.gamma) - self.bound


def _as_mask(size: int, subset: Iterable[int]) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    for v in subset:
        i = as_integer(v)
        if not 1 <= i <= size:
            raise EntryOutOfRangeError(f"vertex {i} outside [1, {size}]")
        mask[i - 1] = True
    return mask


def boundary_edge_count(graph: OrderedGraph, s_masks: np.ndarray, t_masks: np.ndarray) -> np.ndarray:
    """Boundary edge counts of B row-aligned pairs of (B, n_left) S and (B, m_right) T masks.

    Entry b counts the edges with exactly one endpoint in S_b union T_b.  Row
    blocks shrink as B grows, so that one gather holds at most _ROW_BLOCK x t cells.
    """
    batch = s_masks.shape[0]
    gamma = np.zeros(batch, dtype=np.int64)
    t = graph.t_degree
    for start, block in graph.iter_row_blocks(max(1, _ROW_BLOCK // max(1, batch))):
        counts = s_masks[:, block].sum(axis=2)  # (B, rows)
        in_t = t_masks[:, start : start + block.shape[0]]
        gamma += np.where(in_t, t - counts, counts).sum(axis=1)
    return gamma


def check_expansion(graph: OrderedGraph, s_subset: Iterable[int], t_subset: Iterable[int]) -> ExpansionResult:
    """Compare the exact boundary count of S union T against the 1/8 bound.

    S is a set of 1-based left vertices with |S| <= n/4 (otherwise the check
    is inapplicable); T is any set of 1-based right vertices.  The bound is
    (d_L * |S| + d_R * |T|) / 8 where d_L is the uniform left degree and d_R
    the right degree.
    """
    s_mask = _as_mask(graph.n_left, s_subset)
    t_mask = _as_mask(graph.m_right, t_subset)
    s_size = int(s_mask.sum())
    t_size = int(t_mask.sum())
    if 4 * s_size > graph.n_left:
        raise InapplicableError(
            f"|S| = {s_size} exceeds a quarter of {graph.n_left} left vertices"
        )
    d_l = graph.uniform_left_degree()
    d_r = graph.t_degree
    gamma = int(boundary_edge_count(graph, s_mask[None], t_mask[None])[0])
    bound = Fraction(d_l * s_size + d_r * t_size, 8)
    return ExpansionResult(gamma, bound, Fraction(gamma) >= bound, s_size, t_size)
