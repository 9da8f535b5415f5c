import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ltclab.config
import ltclab.tanner
from ltclab.code import LinearCode, Word, full_code, reed_solomon, repetition, symbol_dtype
from ltclab.errors import (
    DegreeMismatchError,
    EntryOutOfRangeError,
    GraphTooLargeError,
    InapplicableError,
    RaggedListsError,
)
from ltclab.field import Field
from ltclab.tanner import (
    OrderedGraph,
    TannerCode,
    boundary_edge_count,
    check_expansion,
    iterated_graph,
    product_graph,
    square_test_graph,
    tpc_linear_code,
)
from ltclab.tensor import tensor_power

GF2 = Field(2)


# --- construction and validation ------------------------------------------------


def test_from_lists_basic():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    assert g.params() == (3, 2, 2)
    assert g.neighbors(1) == (1, 2)


def test_single_list_graph():
    g = OrderedGraph.from_lists(2, [[1, 2]])
    assert g.params() == (2, 1, 2)


def test_entry_out_of_range():
    with pytest.raises(EntryOutOfRangeError):
        OrderedGraph.from_lists(2, [[1, 3]])


def test_ragged_lists_rejected():
    with pytest.raises(RaggedListsError):
        OrderedGraph.from_lists(3, [[1, 2], [3]])


# --- membership -------------------------------------------------------------------


def test_tpc_zero_word():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    t = TannerCode(g, repetition(GF2, 2))
    assert t.contains(Word(GF2, [0, 0, 0]))


def test_tpc_all_ones_on_path():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    t = TannerCode(g, repetition(GF2, 2))
    assert t.contains(Word(GF2, [1, 1, 1]))


def test_tpc_broken_view():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    t = TannerCode(g, repetition(GF2, 2))
    assert not t.contains(Word(GF2, [1, 1, 0]))


def test_tpc_degree_mismatch():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    with pytest.raises(DegreeMismatchError):
        TannerCode(g, repetition(GF2, 3))


# --- composition ---------------------------------------------------------------------


def test_compose_worked_example():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    gp = OrderedGraph.from_lists(2, [[2, 1]])
    assert g.compose(gp).lists == ((2, 1), (3, 2))


def test_compose_with_identity_inner():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    ident = OrderedGraph.from_lists(2, [[1, 2]])
    assert g.compose(ident).lists == g.lists


def test_compose_degree_mismatch():
    g = OrderedGraph.from_lists(3, [[1, 2], [2, 3]])
    with pytest.raises(DegreeMismatchError):
        g.compose(OrderedGraph.from_lists(3, [[1, 2, 3]]))


def _random_graph(rng, n, m, t):
    return OrderedGraph.from_lists(
        n, [[int(rng.integers(1, n + 1)) for _ in range(t)] for _ in range(m)]
    )


def test_compose_associative_on_random_triples():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = _random_graph(rng, 6, 3, 5)
        b = _random_graph(rng, 5, 2, 4)
        c = _random_graph(rng, 4, 3, 3)
        assert (a.compose(b)).compose(c).lists == a.compose(b.compose(c)).lists


def test_composed_views_factor():
    """Composed views equal inner views of outer views, for any word."""
    rng = np.random.default_rng(29)
    outer = _random_graph(rng, 8, 4, 5)
    inner = _random_graph(rng, 5, 3, 2)
    composed = outer.compose(inner)
    values = rng.integers(0, 7, size=8)
    for j in range(outer.m_right):
        for jp in range(inner.m_right):
            direct = composed.view(values, j * inner.m_right + jp + 1)
            nested = inner.view(outer.view(values, j + 1), jp + 1)
            assert np.array_equal(direct, nested)


def test_tpc_of_composition_equals_nested_tpc():
    rep2 = repetition(GF2, 2)
    g3 = product_graph(2, 3)
    g4 = product_graph(2, 4)
    c2 = tensor_power(rep2, 2).as_linear_code()
    composed = TannerCode(g4.compose(g3), c2)
    medium = tpc_linear_code(g3, c2)
    nested = TannerCode(g4, medium)
    rng = np.random.default_rng(31)
    words = rng.integers(0, 2, size=(300, 16))
    words[:20] = tpc_linear_code(g4.compose(g3), c2).codewords()[
        rng.integers(0, 2, size=20)
    ]
    assert np.array_equal(composed.contains_batch(words), nested.contains_batch(words))


# --- the axis test graph family ---------------------------------------------------------


def test_product_graph_2_2():
    g = product_graph(2, 2)
    assert g.params() == (4, 4, 2)
    assert g.neighbors(1) == (1, 2)  # plane i_1 = 1 holds points (1,1),(1,2)


def test_product_graph_2_3_counts():
    assert product_graph(2, 3).params() == (8, 6, 4)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_product_graph_shape_formulas(n, m):
    g = product_graph(n, m)
    assert g.params() == (n**m, m * n, n ** (m - 1))
    assert np.all(g.left_degrees() == m)


def test_product_graph_views_are_axis_slices():
    from ltclab.tensor import TensorWord

    rng = np.random.default_rng(37)
    g = product_graph(3, 3)
    values = rng.integers(0, 5, size=27)
    w = TensorWord(Field(5), (3, 3, 3), values)
    for b in (1, 2, 3):
        for i in (1, 2, 3):
            j = (b - 1) * 3 + i
            assert np.array_equal(
                g.view(values, j), w.axis_slice(b, i).array.reshape(-1)
            )


def test_tpc_product_graph_equals_tensor_membership():
    rep2 = repetition(GF2, 2)
    g = product_graph(2, 2)
    t = TannerCode(g, rep2)
    square = tensor_power(rep2, 2)
    for bits in itertools.product((0, 1), repeat=4):
        w = Word(GF2, bits)
        assert t.contains(w) == square.contains_batch(w.values[None, :])[0]


def test_iterated_graph_base_case():
    assert iterated_graph(2, 3, 2).params() == (8, 6, 4)


def test_iterated_graph_4_2_counts():
    # One composition step: right count 4n * 3n, degree n^2.
    assert iterated_graph(2, 4, 2).params() == (16, 48, 4)


def test_square_graph_t2():
    assert square_test_graph(2, 2).params() == (16, 48, 4)


def test_square_graph_t3_counts():
    g = square_test_graph(2, 3)
    assert g.n_left == 256
    assert g.t_degree == 4


def test_tpc_iterated_and_square_match_tensor_low_weight():
    rep2 = repetition(GF2, 2)
    c2 = tensor_power(rep2, 2).as_linear_code()
    fourth = tensor_power(rep2, 4)
    words = [np.zeros(16, dtype=np.int64)]
    for i in range(16):
        w = np.zeros(16, dtype=np.int64)
        w[i] = 1
        words.append(w)
        for j in range(i + 1, 16):
            w2 = w.copy()
            w2[j] = 1
            words.append(w2)
    words = np.stack(words)
    expect = fourth.contains_batch(words)
    for graph in (iterated_graph(2, 4, 2), square_test_graph(2, 2)):
        got = TannerCode(graph, c2).contains_batch(words)
        assert np.array_equal(got, expect)


def test_lazy_graph_matches_explicit(monkeypatch):
    explicit = product_graph(3, 3)
    with monkeypatch.context() as patch:
        patch.setattr(ltclab.config, "ADJACENCY_BUDGET", 4)  # force the accessor form
        lazy = product_graph(3, 3)
    assert not lazy.is_explicit
    assert np.array_equal(lazy.rows0_block(0, 9), explicit.rows0_block(0, 9))
    with pytest.raises(GraphTooLargeError):
        _ = lazy.lists


def test_lazy_composition_matches_explicit(monkeypatch):
    explicit = iterated_graph(2, 4, 2)
    monkeypatch.setattr(ltclab.config, "ADJACENCY_BUDGET", 8)
    lazy = iterated_graph(2, 4, 2)
    assert not lazy.is_explicit
    assert np.array_equal(
        lazy.rows0_block(0, explicit.m_right),
        explicit.rows0_block(0, explicit.m_right),
    )


_FAMILIES = {
    "product": lambda: product_graph(3, 3),
    "iterated": lambda: iterated_graph(2, 4, 2),
    "square": lambda: square_test_graph(2, 3),
}


def _accessor_form(monkeypatch, build) -> OrderedGraph:
    with monkeypatch.context() as patch:
        patch.setattr(ltclab.config, "ADJACENCY_BUDGET", 0)  # every level in accessor form
        graph = build()
    assert not graph.is_explicit
    return graph


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_rows_at_unsorted_repeated_rows_match_explicit_rows(monkeypatch, family):
    explicit = _FAMILIES[family]()
    accessor = _accessor_form(monkeypatch, _FAMILIES[family])
    assert explicit.is_explicit
    rng = np.random.default_rng(47)
    js = rng.integers(0, explicit.m_right, size=30)
    js = np.concatenate([js, js[::-1], [js[0]] * 3])  # unsorted, with repeats
    expect = np.stack([np.array(explicit.neighbors(int(j0) + 1)) - 1 for j0 in js])
    assert np.array_equal(accessor.rows_at(js, np.arange(explicit.t_degree)), expect)
    positions = rng.integers(0, explicit.t_degree, size=(js.size, 5))
    picked = np.take_along_axis(expect, positions, axis=1)
    for graph in (explicit, accessor):
        assert np.array_equal(graph.rows_at(js), expect)  # whole rows
        assert np.array_equal(graph.rows_at(js, positions), picked)


@pytest.mark.parametrize("row_block", [1, 3])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_materialized_rows_equal_accessor_rows(monkeypatch, family, row_block):
    accessor = _accessor_form(monkeypatch, _FAMILIES[family])
    monkeypatch.setattr(ltclab.tanner, "_ROW_BLOCK", row_block)
    explicit = _FAMILIES[family]()
    assert explicit.is_explicit
    m = explicit.m_right
    assert np.array_equal(explicit.rows0_block(0, m), accessor.rows0_block(0, m))


_BUILDS = {**_FAMILIES, "lists": lambda: OrderedGraph.from_lists(4, [[1, 1], [4, 3]])}  # m * t = 4


@pytest.mark.parametrize("budget", [0, 4, "m*t", "default"])
@pytest.mark.parametrize("family", sorted(_BUILDS))
def test_a_graph_is_dense_exactly_when_it_fits_the_adjacency_budget(monkeypatch, family, budget):
    unpatched = _BUILDS[family]()
    m, t = unpatched.m_right, unpatched.t_degree
    limit = {"m*t": m * t, "default": ltclab.config.ADJACENCY_BUDGET}.get(budget, budget)
    monkeypatch.setattr(ltclab.config, "ADJACENCY_BUDGET", limit)
    graph = _BUILDS[family]()
    assert graph.is_explicit == (m * t <= limit)
    assert np.array_equal(graph.rows0_block(0, m), unpatched.rows0_block(0, m))


def test_a_materialized_graph_keeps_no_formula():
    inner = product_graph(2, 2)
    graph = OrderedGraph(*inner.params(), inner.rows_at)
    assert graph.is_explicit and graph._rows_at_fn is None
    assert not graph.rows0_block(0, 4).flags.writeable
    assert np.array_equal(graph.rows0_block(0, 4), inner.rows0_block(0, 4))
    outer = product_graph(2, 3)
    factor = weakref.ref(outer)
    composed = outer.compose(inner)
    del outer
    gc.collect()
    assert composed.is_explicit and composed._rows_at_fn is None and factor() is None


def test_a_list_graph_past_the_budget_answers_as_the_explicit_graph(monkeypatch):
    lists = [[1, 1, 2], [2, 3, 4], [3, 4, 1]]  # x1 twice in view 1
    explicit = OrderedGraph.from_lists(4, lists)
    monkeypatch.setattr(ltclab.config, "ADJACENCY_BUDGET", 8)  # m * t = 9
    accessor = OrderedGraph.from_lists(4, lists)
    assert explicit.is_explicit and not accessor.is_explicit
    assert explicit.lists == tuple(map(tuple, lists))
    with pytest.raises(GraphTooLargeError):
        _ = accessor.lists
    js = np.array([2, 0, 2, 1])
    for positions in (None, np.array([2, 0]), np.array([[0, 2], [1, 1], [2, 0], [0, 1]])):
        assert np.array_equal(accessor.rows_at(js, positions), explicit.rows_at(js, positions))
    words = np.array(list(itertools.product(range(2), repeat=4)), dtype=np.int64)
    for vertices in (None, js):
        got, expect = (
            [(w.indices(16), start, views.tolist()) for w, start, views in graph.view_chunks(words, vertices)]
            for graph in (accessor, explicit)
        )
        assert got == expect
    even = LinearCode.from_rows(GF2, [[1, 1, 0], [0, 1, 1]])
    members = TannerCode(explicit, even).contains_batch(words)
    assert members.any() and not members.all()
    assert np.array_equal(TannerCode(accessor, even).contains_batch(words), members)


def _tpc_cases(monkeypatch):
    repeated = OrderedGraph.from_lists(4, [[1, 1, 2], [2, 3, 4], [3, 4, 1]])  # x1 twice in view 1
    even = LinearCode.from_rows(GF2, [[1, 1, 0], [0, 1, 1]])
    yield repeated, even
    yield repeated, full_code(GF2, 3)
    monkeypatch.setattr(ltclab.config, "ADJACENCY_BUDGET", 4)  # force the accessor form
    lazy = product_graph(2, 3)
    assert not lazy.is_explicit
    yield lazy, repetition(GF2, 4)
    yield lazy, LinearCode.from_rows(GF2, [[1, 1, 0, 0], [0, 0, 1, 1]])


def test_tpc_linear_code_is_the_tanner_code(monkeypatch):
    """The derived code's codewords are exactly the members of TPC(G, C), over all of GF(2)^n."""
    for graph, small in _tpc_cases(monkeypatch):
        words = np.array(list(itertools.product(range(2), repeat=graph.n_left)), dtype=np.int64)
        members = words[TannerCode(graph, small).contains_batch(words)]
        codewords = tpc_linear_code(graph, small).codewords()
        assert sorted(map(tuple, codewords.tolist())) == sorted(map(tuple, members.tolist()))


def test_tpc_linear_code_of_product_graph_is_tensor_square():
    rep3 = repetition(GF2, 3)
    g = product_graph(3, 2)
    code = tpc_linear_code(g, rep3)
    square = tensor_power(rep3, 2).as_linear_code()
    assert code.n == 9 and code.k == square.k == 1
    assert np.array_equal(
        np.sort(code.codewords().view(np.ndarray), axis=0),
        np.sort(square.codewords().view(np.ndarray), axis=0),
    )


# --- chunked view gathers ---------------------------------------------------------------

_GATHER_CASES = {
    "product": (lambda: product_graph(3, 2), reed_solomon(Field(3), 3, 2)),
    "composed": (lambda: product_graph(2, 3).compose(product_graph(2, 2)), repetition(GF2, 2)),
    "repeated": (  # x1 twice in view 1
        lambda: OrderedGraph.from_lists(4, [[1, 1, 2], [2, 3, 4], [3, 4, 1]]),
        LinearCode.from_rows(GF2, [[1, 1, 0], [0, 1, 1]]),
    ),
}


def _explicit_and_accessor(monkeypatch, build) -> tuple[OrderedGraph, OrderedGraph]:
    explicit = build()
    with monkeypatch.context() as patch:
        patch.setattr(ltclab.config, "ADJACENCY_BUDGET", 0)
        accessor = build()
    assert explicit.is_explicit and not accessor.is_explicit
    return explicit, accessor


@pytest.mark.parametrize("cells, row_block", [(1, 4096), (40, 4096), (40, 3), (2**26, 1)])
@pytest.mark.parametrize("family", sorted(_GATHER_CASES))
def test_view_chunks_gather_every_view_once_within_the_budget(monkeypatch, family, cells, row_block):
    explicit, accessor = _explicit_and_accessor(monkeypatch, _GATHER_CASES[family][0])
    monkeypatch.setattr(ltclab.config, "BROADCAST_CELLS", cells)
    monkeypatch.setattr(ltclab.tanner, "_ROW_BLOCK", row_block)
    rng = np.random.default_rng(48)
    values = rng.integers(0, 5, size=(7, explicit.n_left))
    t = explicit.t_degree
    for js in (None, rng.integers(0, explicit.m_right, size=11)):
        vertices = range(explicit.m_right) if js is None else js
        expect = values[:, np.array([explicit.neighbors(int(j0) + 1) for j0 in vertices]) - 1]  # (B, r, t)
        for graph in (explicit, accessor):
            got, seen = np.full(expect.shape, -1), np.zeros(expect.shape[:2], dtype=np.int64)
            for words, start, views in graph.view_chunks(values, js):
                r = views.shape[1]
                assert r <= row_block and views.size <= max(cells, r * t)
                got[words, start : start + r] = views
                seen[words, start : start + r] += 1
            assert (seen == 1).all() and np.array_equal(got, expect)


@pytest.mark.parametrize(
    "name, value", [("BROADCAST_CELLS", 1), ("BROADCAST_CELLS", 40), ("_ROW_BLOCK", 1), ("_ROW_BLOCK", 3)]
)
@pytest.mark.parametrize("family", sorted(_GATHER_CASES))
def test_membership_is_the_same_in_any_view_chunks(monkeypatch, family, name, value):
    build, small = _GATHER_CASES[family]
    explicit, accessor = _explicit_and_accessor(monkeypatch, build)
    rng = np.random.default_rng(49)
    codewords = tpc_linear_code(explicit, small).codewords()
    words = np.concatenate([
        codewords[rng.integers(0, len(codewords), size=6)],
        rng.integers(0, small.field.q, size=(10, explicit.n_left)),
    ])[rng.permutation(16)]  # members and non-members interleaved
    for graph in (explicit, accessor):
        expect = TannerCode(graph, small).contains_batch(words)
        assert expect.sum() >= 6 and not expect.all()
        with monkeypatch.context() as patch:
            patch.setattr(ltclab.tanner if name == "_ROW_BLOCK" else ltclab.config, name, value)
            assert np.array_equal(TannerCode(graph, small).contains_batch(words), expect)
            assert TannerCode(graph, small).contains_batch(codewords).all()


@pytest.mark.parametrize("fill", [3, 1.0], ids=["not-a-residue", "float"])
def test_tanner_membership_batch_refuses_rows_that_are_not_residues(fill):
    code = TannerCode(product_graph(2, 2), repetition(GF2, 2))
    with pytest.raises(ValueError):
        code.contains_batch(np.full((1, 4), fill))


def test_rows_of_symbol_dtype_are_not_copied():
    code = TannerCode(product_graph(2, 2), repetition(GF2, 2))
    word = Word(GF2, [1, 0, 0, 1])
    assert word.values.dtype == symbol_dtype(GF2)
    rows = code._rows(code._values(word))
    assert np.shares_memory(rows, word.values) and rows.tolist() == [[1, 0, 0, 1]]
    wide = np.array([[1, 0, 0, 1]], dtype=np.int64)
    assert not np.shares_memory(code._rows(wide), wide)


# --- expansion --------------------------------------------------------------------------


def test_expansion_empty_sets():
    g = product_graph(2, 3)
    res = check_expansion(g, [], [])
    assert (res.gamma, res.bound, res.holds) == (0, Fraction(0), True)


def test_expansion_single_left_vertex():
    g = product_graph(2, 3)
    res = check_expansion(g, [1], [])
    assert res.gamma == 3  # all m edges of the point leave
    assert res.bound == Fraction(3, 8)
    assert res.holds


@pytest.mark.parametrize("s_subset, t_subset", [([1.9], []), ([True], []), ([], [2.0]), (["1"], [])])
def test_expansion_refuses_vertices_that_are_not_integers(s_subset, t_subset):
    # int() would count vertex 1 for 1.9.
    with pytest.raises(TypeError):
        check_expansion(product_graph(2, 3), s_subset, t_subset)


def test_expansion_refuses_a_vertex_out_of_range():
    with pytest.raises(EntryOutOfRangeError):
        check_expansion(product_graph(2, 3), [99], [])


def test_expansion_inapplicable_when_s_large():
    g = product_graph(2, 2)
    with pytest.raises(InapplicableError):
        check_expansion(g, [1, 2], [])


def test_expansion_full_right_side():
    g = product_graph(2, 3)
    res = check_expansion(g, [], range(1, 7))
    assert res.gamma == 24  # every edge leaves T
    assert res.holds


def test_expansion_exhaustive_small():
    g = product_graph(2, 3)
    worst = None
    for s_size in (0, 1, 2):
        for s in itertools.combinations(range(1, 9), s_size):
            for t_bits in range(64):
                t = [j + 1 for j in range(6) if (t_bits >> j) & 1]
                res = check_expansion(g, s, t)
                assert res.holds, (s, t)
                worst = res.slack if worst is None else min(worst, res.slack)
    assert worst == 0  # the empty pair is tight


@st.composite
def _graph_and_pairs(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    t = draw(st.integers(1, 5))
    lists = draw(st.lists(st.lists(st.integers(1, n), min_size=t, max_size=t), min_size=m, max_size=m))
    b = draw(st.integers(0, 6))
    s_rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=b, max_size=b))
    t_rows = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=b, max_size=b))
    # Empty and full S crossed with empty and full T.
    s_rows += [[False] * n, [True] * n, [False] * n, [True] * n]
    t_rows += [[False] * m, [False] * m, [True] * m, [True] * m]
    row_block = draw(st.sampled_from([1, 3, 4096]))
    return lists, np.array(s_rows, dtype=bool), np.array(t_rows, dtype=bool), row_block


@given(_graph_and_pairs())
def test_batched_boundary_count_matches_per_edge_count(case):
    lists, s_masks, t_masks, row_block = case
    explicit = OrderedGraph.from_lists(s_masks.shape[1], lists)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ltclab.config, "ADJACENCY_BUDGET", 0)  # the constructor would materialize it
        accessor = OrderedGraph(
            explicit.n_left, explicit.m_right, explicit.t_degree,
            rows_at_fn=explicit.rows_at,
        )
    assert not accessor.is_explicit
    expect = [
        sum(bool(s[u - 1]) != bool(t[j]) for j, row in enumerate(lists) for u in row)
        for s, t in zip(s_masks, t_masks)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ltclab.tanner, "_ROW_BLOCK", row_block)
        for graph in (explicit, accessor):
            got = boundary_edge_count(graph, s_masks, t_masks)
            assert got.tolist() == expect
