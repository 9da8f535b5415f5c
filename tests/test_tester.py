from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ltclab.code
import ltclab.config
import ltclab.tanner
import ltclab.tester
from ltclab.code import Word, repetition, reed_solomon
from ltclab.corpus import corpus_values, parse_corpus_spec
from ltclab.errors import FieldMismatchError, LengthMismatchError, TooLargeToEnumerateError
from ltclab.field import Field
from ltclab.harness import instance_from_specs, product_instance
from ltclab.tanner import OrderedGraph, TannerCode, product_graph, tpc_linear_code
from ltclab.tensor import TensorWord, tensor_power
from ltclab.tester import TestInstance

GF2 = Field(2)


@pytest.fixture(scope="module")
def rep3_square():
    """The 2-axis tester of the [3,1,3] repetition square over GF(2)."""
    return product_instance(repetition(GF2, 3), 2)


@pytest.fixture(scope="module")
def rs31_cube():
    """The 3-axis tester of the [31,1,31] code over GF(31)."""
    return product_instance(reed_solomon(Field(31), 31, 1), 3)


def _e11(instance) -> Word:
    values = np.zeros(instance.graph.n_left, dtype=np.int64)
    values[0] = 1
    return Word(instance.small.field, values)


# --- view robustness -----------------------------------------------------------


def test_views_of_codeword_are_zero(rep3_square):
    w = Word(GF2, [1] * 9)
    for j in range(1, 7):
        assert rep3_square.view_robustness(w, j) == 0


def test_view_robustness_values(rep3_square):
    w = _e11(rep3_square)
    assert rep3_square.view_robustness(w, 1) == Fraction(1, 3)  # axis 1, i=1
    assert rep3_square.view_robustness(w, 2) == 0  # axis 1, i=2
    assert rep3_square.view_robustness(w, 4) == Fraction(1, 3)  # axis 2, i=1


# --- expected robustness ----------------------------------------------------------


def test_expected_robustness_of_codeword(rep3_square):
    assert rep3_square.expected_robustness(Word(GF2, [1] * 9)) == 0


def test_expected_robustness_single_error(rep3_square):
    w = _e11(rep3_square)
    assert rep3_square.expected_robustness(w) == Fraction(1, 9)
    assert rep3_square.delta_exact(w) == Fraction(1, 9)


def test_membership_coincides_with_zero_robustness(rep3_square):
    rng = np.random.default_rng(41)
    for _ in range(40):
        w = Word(GF2, rng.integers(0, 2, size=9))
        rho = rep3_square.expected_robustness(w)
        delta = rep3_square.delta_exact(w)
        assert (rho == 0) == TannerCode(rep3_square.graph, rep3_square.small).contains(w)
        assert (rho == 0) == (delta == 0)


def test_sampled_estimator_deterministic(rep3_square):
    w = _e11(rep3_square)
    a = rep3_square.expected_robustness_sampled(w, seed=7, samples=100)
    b = rep3_square.expected_robustness_sampled(w, seed=7, samples=100)
    assert a == b


def test_sampled_estimator_matches_per_view_loop(rep3_square):
    w = Word(GF2, np.random.default_rng(44).integers(0, 2, size=9))
    js = np.random.default_rng([5, 0]).integers(0, rep3_square.graph.m_right, size=50)
    per_view = [rep3_square.view_robustness(w, int(j0) + 1) for j0 in js]
    est = rep3_square.expected_robustness_sampled(w, seed=5, samples=50)
    assert est.value == sum(per_view, Fraction(0)) / 50


@pytest.mark.parametrize("block", [1, 3])
def test_sampled_estimator_is_the_same_in_row_blocks(rs31_cube, block):
    # 10 samples in blocks of 1 or 3 views (the last block short), against one block.
    w = Word(Field(31), np.random.default_rng(45).integers(0, 31, size=rs31_cube.graph.n_left))
    expect = rs31_cube.expected_robustness_sampled(w, seed=9, samples=10, index=2)
    with mock.patch.object(ltclab.tanner, "_ROW_BLOCK", block):
        got = rs31_cube.expected_robustness_sampled(w, seed=9, samples=10, index=2)
    assert got == expect
    assert expect.stderr > 0


def test_sampled_estimator_near_exact(rep3_square):
    rng = np.random.default_rng(43)
    w = Word(GF2, rng.integers(0, 2, size=9))
    exact = rep3_square.expected_robustness(w)
    est = rep3_square.expected_robustness_sampled(w, seed=11, samples=400)
    if est.stderr == 0:
        assert est.value == exact
    else:
        assert abs(float(est.value - exact)) <= 5 * est.stderr


# --- soundness error ----------------------------------------------------------------


def test_tau_soundness_of_codeword(rep3_square):
    w = Word(GF2, [0] * 9)
    for tau in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
        assert rep3_square.tau_soundness_error(w, tau) == 0


def test_tau_soundness_single_error(rep3_square):
    w = _e11(rep3_square)
    assert rep3_square.tau_soundness_error(w, Fraction(0)) == Fraction(1, 3)
    assert rep3_square.tau_soundness_error(w, Fraction(1, 2)) == 0
    # Either side of the views' 1/3, with denominators far past the distances' dtype.
    assert rep3_square.tau_soundness_error(w, Fraction(2**70 - 1, 3 * 2**70)) == Fraction(1, 3)
    assert rep3_square.tau_soundness_error(w, Fraction(1, 3)) == 0
    assert rep3_square.tau_soundness_error(w, Fraction(2**70 + 1, 3 * 2**70)) == 0
    assert rep3_square.tau_soundness_error(w, Fraction(1)) == 0
    for tau in (Fraction(-2**70, 3), Fraction(-1, 2**70), Fraction(2**70 + 1, 2**70)):
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
            rep3_square.tau_soundness_error(w, tau)


# --- certification ---------------------------------------------------------------------


def test_certify_codeword_always_holds(rep3_square):
    report, holds = rep3_square.certify(Word(GF2, [1] * 9), Fraction(1))
    assert holds and report.rho == 0 and report.delta == 0
    assert report.ratio is None


def test_certify_single_error_ratio_one(rep3_square):
    report, holds = rep3_square.certify(_e11(rep3_square), Fraction(1, 2**16))
    assert holds
    assert report.ratio == 1


def test_certify_ratio_reported(rep3_square):
    rng = np.random.default_rng(47)
    for _ in range(10):
        w = Word(GF2, rng.integers(0, 2, size=9))
        report, _ = rep3_square.certify(w, Fraction(1, 2**16))
        if report.delta != 0:
            assert report.ratio == report.rho / report.delta


def test_certify_random_words_at_paper_constant(rs31_cube):
    rng = np.random.default_rng(53)
    alpha = Fraction(1, 2**16)
    for _ in range(5):
        w = Word(Field(31), rng.integers(0, 31, size=29791))
        report, holds = rs31_cube.certify(w, alpha)
        assert holds
        assert report.rho >= alpha * report.delta


def test_certify_interval_when_oracle_missing():
    graph = product_graph(3, 2)
    inst = TestInstance(graph, repetition(GF2, 3), full=None)
    w = Word(GF2, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    report, holds = inst.certify(w, Fraction(1, 8))
    assert not report.delta_exact
    assert report.delta_lower == report.rho  # left-regular graph: rho <= delta
    assert report.delta_upper == 1
    with pytest.raises(ValueError):
        _ = report.delta


def test_a_refused_oracle_falls_back_to_the_interval(monkeypatch):
    # RS[3,2] over GF(3) has 9 codewords, within the patched threshold; its square's 81 are not.
    inst = product_instance(reed_solomon(Field(3), 3, 2), 2)
    monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", 9)
    report, holds = inst.certify(Word(Field(3), [1] + [0] * 8), Fraction(1, 2))
    assert not report.delta_exact and (report.delta_lower, report.delta_upper) == (Fraction(1, 9), 1)
    assert report.rho == Fraction(1, 9) and holds is None


def test_the_interval_starts_at_zero_on_a_graph_that_is_not_left_regular():
    # Left vertex 1 is in both views and vertex 4 in none, so rho need not bound delta from below.
    inst = TestInstance(OrderedGraph.from_lists(4, [[1, 2], [1, 3]]), repetition(GF2, 2))
    report, _ = inst.certify(Word(GF2, [0, 1, 0, 0]), Fraction(1, 2))
    assert (report.delta_lower, report.delta_upper, report.delta_exact) == (0, 1, False)
    assert report.rho == Fraction(1, 4)


# (instance, corpus, ENUMERATION_THRESHOLD or None) of each way a block of words can be certified
CERTIFY_BLOCKS = {
    "exact": (lambda: product_instance(reed_solomon(Field(3), 3, 2), 2),
              "uniform:4;codeword_plus_weight:4,w=2;planted_slice:4;low_weight,wmax=1;codewords:3;mixed:6", None),
    # RS[3,2] over GF(3) has 9 codewords, within the patched threshold; its square's 81 are not.
    "reference-refused": (lambda: product_instance(reed_solomon(Field(3), 3, 2), 2),
                          "uniform:6;planted_slice:3;low_weight,wmax=1", 9),
    "not-left-regular": (lambda: TestInstance(OrderedGraph.from_lists(4, [[1, 2], [1, 3]]), repetition(GF2, 2)),
                         "low_weight,wmax=4", None),
}


@pytest.mark.parametrize("case", list(CERTIFY_BLOCKS))
def test_certify_is_a_batch_of_one(case, monkeypatch):
    build, corpus, threshold = CERTIFY_BLOCKS[case]
    inst = build()
    values, sources = corpus_values(inst, parse_corpus_spec(corpus), seed=11)
    if threshold is not None:
        monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", threshold)
    alpha, tau = Fraction(3, 4), Fraction(1, 3)
    block = inst.certify_batch(values, alpha, tau=tau, with_views=True, sources=sources)
    assert len(block) == len(values)
    for row, source, (report, holds) in zip(values, sources, block):
        one, one_holds = inst.certify(Word(inst.small.field, row), alpha, tau=tau, with_views=True, word_source=source)
        assert (report.to_json_dict(), holds) == (one.to_json_dict(), one_holds)
        assert report.delta_exact == (case == "exact")
    if case == "not-left-regular":
        assert all(report.delta_lower == 0 for report, _ in block)
    if case == "reference-refused":
        assert all(report.delta_lower == report.rho for report, _ in block)
    assert {holds for _, holds in block} >= ({True, False} if case == "exact" else {None})


def test_a_batch_refuses_alpha_and_tau_before_it_reads_the_block(rep3_square):
    not_a_block = np.zeros((1, 4), dtype=np.float64)  # wrong width and dtype
    not_a_word = Word(Field(3), [0] * 9)  # over the wrong field
    with pytest.raises(ValueError, match="alpha must be positive"):
        rep3_square.certify_batch(not_a_block, Fraction(0))
    with pytest.raises(ValueError, match="tau must lie in"):
        rep3_square.certify_batch(not_a_block, Fraction(1), tau=Fraction(2))
    with pytest.raises(ValueError, match="alpha must be positive"):
        rep3_square.certify(not_a_word, Fraction(0))
    with pytest.raises(ValueError, match="tau must lie in"):
        rep3_square.certify(not_a_word, Fraction(1), tau=Fraction(2))


def test_delta_oracle_refusal_propagates(monkeypatch):
    graph = product_graph(3, 2)
    full = tensor_power(repetition(GF2, 3), 2)
    inst = TestInstance(graph, repetition(GF2, 3), full=full)
    monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", 1)
    w = Word(GF2, [1] + [0] * 8)
    with pytest.raises(TooLargeToEnumerateError):
        inst.delta_exact(w)


# --- batch entry points ------------------------------------------------------------------


def _computed(graph: OrderedGraph) -> OrderedGraph:
    """The same graph behind a computed row accessor."""
    with mock.patch.object(ltclab.config, "ADJACENCY_BUDGET", 0):  # the constructor would materialize it
        return OrderedGraph(
            graph.n_left, graph.m_right, graph.t_degree,
            rows_at_fn=graph.rows_at, label=graph.label,
        )


def _batch_instance(kind: str, q: int) -> TestInstance:
    field = Field(q)
    if kind == "explicit":
        graph = product_graph(3, 2)
        small = repetition(field, 3) if q == 2 else reed_solomon(field, 3, 2)
    else:
        graph = _computed(product_graph(2, 3).compose(product_graph(2, 2)))
        assert not graph.is_explicit
        small = repetition(field, 2)
    return TestInstance(graph, small, full=tpc_linear_code(graph, small))


@pytest.mark.parametrize("index", [0, 5])
def test_sampled_estimator_on_accessor_graphs_matches_the_explicit_graph(index):
    explicit = TestInstance(product_graph(2, 3).compose(product_graph(2, 2)), repetition(Field(3), 2))
    with mock.patch.object(ltclab.config, "ADJACENCY_BUDGET", 0):  # the composition formula itself
        formula = product_graph(2, 3).compose(product_graph(2, 2))
    w = Word(Field(3), np.random.default_rng(53).integers(0, 3, size=explicit.graph.n_left))
    expect = explicit.expected_robustness_sampled(w, seed=17, samples=64, index=index)
    assert explicit.graph.is_explicit
    for graph in (_computed(explicit.graph), formula):
        assert not graph.is_explicit
        accessor = TestInstance(graph, explicit.small)
        assert accessor.expected_robustness_sampled(w, seed=17, samples=64, index=index) == expect


@given(
    kind=st.sampled_from(["explicit", "composed"]),
    q=st.sampled_from([2, 3, 5]),
    batch=st.integers(0, 7),
    cells=st.sampled_from([1, 40, 100, 2**26]),  # chunks of 1 to 5 words, or all
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_entry_points_match_batches_of_one(kind, q, batch, cells, seed):
    instance = _batch_instance(kind, q)
    words = [
        Word(Field(q), row)
        for row in np.random.default_rng(seed).integers(0, q, size=(batch, instance.graph.n_left))
    ]
    values = np.array([w.values for w in words], dtype=np.int64).reshape(batch, instance.graph.n_left)
    with mock.patch.object(ltclab.config, "BROADCAST_CELLS", cells):  # chunks of words
        with mock.patch.object(ltclab.code, "_CHUNK", cells):  # steps of the compare
            views = instance.view_hammings_batch(values)
    deltas = instance.delta_hammings_batch(values)
    assert views.shape == (batch, instance.graph.m_right) and deltas.shape == (batch,)
    assert views.dtype == np.int64
    for w, row, ham in zip(words, views, deltas):
        hams = instance.view_hammings(w)
        assert hams.dtype == np.int64 and np.array_equal(row, hams)
        assert ham == instance.delta_exact(w) * instance.graph.n_left


def test_batch_entry_points_check_the_word_length(rep3_square):
    for shape in [(2, 8), (9,), (1, 2, 9)]:
        values = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(LengthMismatchError):
            rep3_square.view_hammings_batch(values)
        with pytest.raises(LengthMismatchError):
            rep3_square.delta_hammings_batch(values)


@pytest.mark.parametrize(
    "values",
    [np.full((1, 9), 0.5), np.full((1, 9), 7), np.full((2, 9), -1), np.ones((1, 9), dtype=bool),
     np.zeros((1, 9), dtype=object)],
    ids=["float", "above-q", "negative", "bool", "object"],
)
def test_batch_entry_points_refuse_meaningless_symbols(rep3_square, values):
    with pytest.raises(ValueError):
        rep3_square.view_hammings_batch(values)
    with pytest.raises(ValueError):
        rep3_square.delta_hammings_batch(values)


# --- counted views: one pass over each word through the table of the views holding each vertex ---------


def _shuffled_lists(n: int, m: int, seed: int) -> list:
    """The 1-based adjacency lists of product_graph(n, m), with its rows and the entries of each row shuffled."""
    rng = np.random.default_rng(seed)
    graph = product_graph(n, m)
    return (rng.permuted(rng.permutation(graph.rows0_block(0, graph.m_right)), axis=1) + 1).tolist()


def _lists_instance(n_left: int, lists) -> TestInstance:
    return TestInstance(OrderedGraph.from_lists(n_left, lists), repetition(Field(17), len(lists[0])))


# Each case: the instance, and whether its views are counted (a table is built) or gathered.
COUNTED_VIEWS = {
    "rep17-square": (lambda: product_instance(repetition(Field(17), 17), 2), True),
    "rs17-cube": (lambda: product_instance(reed_solomon(Field(17), 17, 1), 3), True),
    "rs31-cube": (lambda: product_instance(reed_solomon(Field(31), 31, 1), 3), True),
    "shuffled-lists": (lambda: _lists_instance(17**2, _shuffled_lists(17, 2, 3)), True),
    # vertex 1 twice in view 1 and vertex 3 twice in view 2: every vertex occurs twice
    "repeated-entries": (lambda: _lists_instance(3, [[1, 1, 2], [2, 3, 3]]), True),
    "irregular": (lambda: _lists_instance(5, [[1, 2, 3], [1, 4, 5]]), False),
    "accessor": (lambda: TestInstance(_computed(product_graph(17, 2)), repetition(Field(17), 17)), False),
    "plane-side": (lambda: product_instance(repetition(Field(13), 13), 2), False),
}


def _counted_words(instance) -> np.ndarray:
    """Two uniform words, a constant word, a codeword plus errors and a word planted in view 1, as int64."""
    q, n = instance.small.field.q, instance.graph.n_left
    rng = np.random.default_rng([q, n])
    words = rng.integers(0, q, size=(5, n))
    words[2] = q - 1
    words[3] = 5
    words[3, rng.integers(0, n, size=max(1, n // 7))] = rng.integers(0, q, size=max(1, n // 7))
    words[4] = 2
    words[4, instance.graph.row0(0)] = rng.integers(0, q, size=instance.graph.t_degree)
    return words


def _brute_view_hammings(instance, words: np.ndarray) -> np.ndarray:
    """t minus the largest symbol count of each gathered view, in int64."""
    rows, q = instance.graph.rows0_block(0, instance.graph.m_right), instance.small.field.q
    t = np.int64(instance.graph.t_degree)
    return np.array([[t - np.bincount(w[row], minlength=q).max() for row in rows] for w in words], dtype=np.int64)


@pytest.mark.parametrize("case", list(COUNTED_VIEWS))
def test_counted_views_are_the_gathered_views(case):
    build, counted = COUNTED_VIEWS[case]
    instance = build()
    assert "_view_offsets" not in instance.__dict__  # never built at construction
    field, (m, t) = instance.small.field, (instance.graph.m_right, instance.graph.t_degree)
    words = _counted_words(instance)
    expected = _brute_view_hammings(instance, words)
    for dtype in (ltclab.code.symbol_dtype(field), np.int64):
        got = instance.view_hammings_batch(words.astype(dtype))
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    gathered = instance._per_view(words, instance.small.nearest_distance_batch, np.int64)
    assert np.array_equal(gathered, expected)
    table = instance._view_offsets
    assert (table is not None) == counted
    if counted:
        assert table.shape == (instance.graph.uniform_left_degree(), instance.graph.n_left)
        assert table.dtype == ltclab.code._unsigned(m * ltclab.code._LANES * field.q) and not table.flags.writeable
    for row, hams in zip(words, expected):
        word = Word(field, row)
        rho = Fraction(int(hams.sum()), m * t)
        assert np.array_equal(instance.view_hammings(word), hams)
        assert instance.expected_robustness(word) == rho
        assert instance.certify(word, Fraction(1, 2**16))[0].rho == rho


def _not_counted(*args):
    raise AssertionError("counted")


@pytest.mark.parametrize("budget", ["ADJACENCY_BUDGET", "ENUMERATION_THRESHOLD"])
def test_a_built_view_table_changes_no_refusal(budget):
    limit = {"ADJACENCY_BUDGET": 34 * 17 - 1, "ENUMERATION_THRESHOLD": 16}[budget]  # m t and q, less one
    words = np.zeros((2, 17 * 17), dtype=np.uint8)

    def refusal(instance) -> tuple:
        with pytest.MonkeyPatch.context() as mp, pytest.raises(TooLargeToEnumerateError) as err:
            mp.setattr(ltclab.config, budget, limit)
            mp.setattr(ltclab.tester, "max_counts", _not_counted)
            instance.view_hammings_batch(words)
        return err.value.budget, err.value.requested, str(err.value)

    fresh = refusal(product_instance(repetition(Field(17), 17), 2))
    instance = product_instance(repetition(Field(17), 17), 2)
    assert instance.view_hammings_batch(words).tolist() == [[0] * 34] * 2
    assert instance._view_offsets is not None
    assert refusal(instance) == fresh == (budget, limit + 1, fresh[2])
    with mock.patch.object(ltclab.tester, "max_counts", _not_counted):
        for values in (np.full((1, 289), 17), np.full((1, 289), -1), np.full((1, 289), 0.5)):
            with pytest.raises(ValueError) as err:
                instance.view_hammings_batch(values)
            assert not isinstance(err.value, TooLargeToEnumerateError)


# --- one count a block: counted views and a histogram-side reference read delta from the same count -------------


def _two_pass(instance) -> TestInstance:
    """The instance with its view table set to None, so that it certifies by gathered views and the delta oracle."""
    instance.__dict__["_view_offsets"] = None
    return instance


F17 = Field(17)

# Each case: an instance whose views are counted and whose reference full code is on the histogram side.
ONE_COUNT = {
    "rs31-cube": lambda: product_instance(reed_solomon(Field(31), 31, 1), 3),
    "rs17-cube": lambda: product_instance(reed_solomon(F17, 17, 1), 3),
    # vertex 1 twice in view 1 and vertex 3 twice in view 2: every vertex occurs twice
    "repeated-entries": lambda: TestInstance(
        OrderedGraph.from_lists(3, [[1, 1, 2], [2, 3, 3]]), repetition(F17, 3), full=repetition(F17, 3)
    ),
}


@pytest.mark.parametrize("case", list(ONE_COUNT))
def test_one_count_certifies_as_the_two_passes(case):
    instance, expected = ONE_COUNT[case](), _two_pass(ONE_COUNT[case]())
    words = _counted_words(instance)
    views, deltas = instance.view_hammings_batch(words), instance.delta_hammings_batch(words)
    n, m, t = instance.graph.n_left, instance.graph.m_right, instance.graph.t_degree
    assert deltas.tolist() == [n - int(np.bincount(w).max()) for w in words]
    tau, verdicts = Fraction(1, 3), set()
    for alpha in (Fraction(1, 2**16), Fraction(1, 2), Fraction(2)):
        spy = mock.patch.object(instance.full, "nearest_distance_batch", wraps=instance.full.nearest_distance_batch)
        with spy as oracle, mock.patch.object(ltclab.tester, "max_counts", wraps=ltclab.code.max_counts) as count:
            block = instance.certify_batch(words, alpha, tau=tau, with_views=True)
        assert oracle.call_count == 0 and count.call_count == 1
        two = expected.certify_batch(words, alpha, tau=tau, with_views=True)
        assert [(r.to_json_dict(), h) for r, h in block] == [(r.to_json_dict(), h) for r, h in two]
        for (report, holds), hams, ham in zip(block, views, deltas):
            rho, delta = Fraction(int(hams.sum()), m * t), Fraction(int(ham), n)
            assert (report.rho, report.delta_lower, report.delta_upper, report.delta_exact) == (rho, delta, delta, True)
            assert report.per_view == tuple((j + 1, Fraction(int(h), t)) for j, h in enumerate(hams))
            assert holds == (rho >= alpha * delta) == report.holds
            verdicts.add(holds)
    assert verdicts == {True, False}


def _lower_after_the_small_check(instance, monkeypatch) -> None:
    """Patch ENUMERATION_THRESHOLD to one below the full code's count once the small code's count has passed."""
    check = instance.small._checked_size

    def small_then_lower() -> int:
        size = check()
        monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", instance.full.num_codewords() - 1)
        return size

    monkeypatch.setattr(instance.small, "_checked_size", small_then_lower)


@pytest.mark.parametrize("refusal", ["ADJACENCY_BUDGET", "symbols", "small-code", "full-code"])
def test_one_count_refuses_as_the_two_passes(refusal):
    words = np.zeros((2, 17 * 17), dtype=np.uint8)
    words[1, :40] = 3

    def outcome(instance):
        with pytest.MonkeyPatch.context() as mp:
            if refusal == "ADJACENCY_BUDGET":
                mp.setattr(ltclab.config, "ADJACENCY_BUDGET", 34 * 17 - 1)  # m t, less one
            elif refusal == "small-code":
                mp.setattr(ltclab.config, "ENUMERATION_THRESHOLD", 16)  # q, less one
            elif refusal == "full-code":
                _lower_after_the_small_check(instance, mp)
            if refusal != "full-code":
                mp.setattr(ltclab.tester, "max_counts", _not_counted)  # refused before the count
            try:
                if refusal == "symbols":
                    return [str(_symbol_refusal(instance, symbol)) for symbol in (17, -1, 0.5)]
                return [(r.to_json_dict(), h) for r, h in instance.certify_batch(words, Fraction(1, 2))]
            except TooLargeToEnumerateError as err:
                return err.budget, err.requested, str(err)

    one = product_instance(repetition(F17, 17), 2)
    assert one._view_offsets is not None and one.full._histogram_side
    got = outcome(one)
    assert got == outcome(_two_pass(product_instance(repetition(F17, 17), 2)))
    if refusal == "ADJACENCY_BUDGET":
        assert got[:2] == ("ADJACENCY_BUDGET", 34 * 17)
    elif refusal == "small-code":
        assert got[:2] == ("ENUMERATION_THRESHOLD", 17)
    elif refusal == "full-code":  # the interval a reference-free instance reports: [rho, 1]
        free = TestInstance(one.graph, one.small, label=one.label).certify_batch(words, Fraction(1, 2))
        assert got == [(r.to_json_dict(), h) for r, h in free]
        assert got[1][0]["delta_interval"] == [got[1][0]["rho"], "1"] and got[1][1] is None


def _symbol_refusal(instance, symbol) -> ValueError:
    """The ValueError, not a budget's, that certifying a block holding ``symbol`` raises."""
    with pytest.raises(ValueError) as err:
        instance.certify_batch(np.full((1, 289), symbol), Fraction(1, 2))
    assert not isinstance(err.value, TooLargeToEnumerateError)
    return err.value


# Each case: an instance that certifies in two passes.
TWO_PASSES = {
    "tanner": lambda: instance_from_specs("product:n=4,m=3", "rs:q=5,n=4,k=2^2"),
    "irregular": lambda: TestInstance(
        OrderedGraph.from_lists(5, [[1, 2, 3], [1, 4, 5]]), repetition(F17, 3), full=repetition(F17, 5)
    ),
    "accessor": lambda: TestInstance(
        _computed(product_graph(17, 2)), repetition(F17, 17), full=tensor_power(repetition(F17, 17), 2)
    ),
    # counted views, but a reference on the plane side: the constants and the multiples of (v mod 17)_v
    "plane-side-reference": lambda: TestInstance(
        product_graph(17, 2), repetition(F17, 17),
        full=ltclab.code.LinearCode.from_rows(F17, [[1] * 289, [v % 17 for v in range(289)]]),
    ),
}


@pytest.mark.parametrize("case", list(TWO_PASSES))
def test_the_two_passes_stay_where_the_count_cannot_read_delta(case):
    instance = TWO_PASSES[case]()
    q, n = instance.small.field.q, instance.graph.n_left
    words = np.random.default_rng(5).integers(0, q, size=(3, n))
    words[1] = np.arange(n) % q  # a codeword of the plane-side reference, far from every constant word
    with mock.patch.object(instance.full, "nearest_distance_batch", wraps=instance.full.nearest_distance_batch) as spy:
        block = instance.certify_batch(words, Fraction(1, 2))
    assert spy.call_count >= 1
    deltas = instance.delta_hammings_batch(words)
    assert [report.delta for report, _ in block] == [Fraction(int(d), n) for d in deltas]
    if case == "plane-side-reference":
        assert instance._view_offsets is not None and deltas[1] == 0


# --- amplification ------------------------------------------------------------------------


def test_amplified_rejection_codeword(rep3_square):
    res = rep3_square.amplified_rejection(Word(GF2, [0] * 9), Fraction(1, 3))
    assert res.single_reject == 0 and res.reject_prob == 0 and res.holds


def test_amplified_rejection_single_error(rep3_square):
    res = rep3_square.amplified_rejection(_e11(rep3_square), Fraction(1, 3))
    assert res.repetitions == 3
    assert res.single_reject == Fraction(1, 3)
    assert res.reject_prob == Fraction(19, 27)
    assert res.holds  # 19/27 >= (1/9)/2


def test_amplified_rejection_all_words(rep3_square):
    for bits in range(512):
        values = [(bits >> i) & 1 for i in range(9)]
        res = rep3_square.amplified_rejection(Word(GF2, values), Fraction(1, 8))
        assert res.repetitions == 8
        assert res.holds, values


# --- coordinate weights -----------------------------------------------------------------------


def test_coordinate_weights_2x2():
    inst = product_instance(repetition(GF2, 2), 2)
    weights, wmin = inst.coordinate_weights()
    assert all(w == Fraction(1, 4) for w in weights)
    assert wmin == Fraction(1, 4)
    assert sum(weights) == 1


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_coordinate_weights_uniform_on_axis_testers(n, m):
    inst = product_instance(repetition(GF2, n), m)
    weights, wmin = inst.coordinate_weights()
    assert sum(weights) == 1
    assert wmin <= Fraction(1, n**m)
    assert all(w == Fraction(1, n**m) for w in weights)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
def test_min_weight_witness_bounds_robustness(n, m):
    """A single error at the lightest coordinate shows the tester cannot
    exceed ratio one on every word (small-code distance >= 2 required)."""
    inst = product_instance(repetition(GF2, n), m)
    weights, wmin = inst.coordinate_weights()
    i = weights.index(wmin)
    values = np.zeros(n**m, dtype=np.int64)
    values[i] = 1
    w = Word(GF2, values)
    rho = inst.expected_robustness(w)
    delta = inst.delta_exact(w)
    assert rho == wmin
    assert rho <= delta


# --- composition identity ------------------------------------------------------------------------


def test_composed_expectation_equals_nested_mean():
    rep2 = repetition(GF2, 2)
    outer = product_graph(2, 4)
    inner = product_graph(2, 3)
    c2 = tensor_power(rep2, 2).as_linear_code()
    composed_inst = TestInstance(outer.compose(inner), c2)
    inner_inst = TestInstance(inner, c2)
    rng = np.random.default_rng(59)
    for _ in range(25):
        values = rng.integers(0, 2, size=16)
        w = Word(GF2, values)
        lhs = composed_inst.expected_robustness(w)
        nested = [
            inner_inst.expected_robustness(Word(GF2, outer.view(values, j + 1)))
            for j in range(outer.m_right)
        ]
        assert lhs == sum(nested, Fraction(0)) / len(nested)


# --- structural checks from the analysis ----------------------------------------------------------


def test_self_improvement_bound(rs31_cube):
    """Words within 1/4 of the cube code sit within 8x the expected robustness."""
    rng = np.random.default_rng(61)
    full = rs31_cube.full
    checked = 0
    for _ in range(12):
        base = full.codewords()[int(rng.integers(0, 31))].copy()
        flips = rng.choice(29791, size=int(rng.integers(1, 2000)), replace=False)
        base[flips] = (base[flips] + rng.integers(1, 31, size=flips.size)) % 31
        w = Word(Field(31), base)
        delta = rs31_cube.delta_exact(w)
        if delta <= Fraction(1, 4):
            rho = rs31_cube.expected_robustness(w)
            assert delta <= 8 * rho
            checked += 1
    assert checked  # the corpus actually exercised the hypothesis


def test_soundness_error_distance_bound(rs31_cube):
    """Small tau-soundness-error pins the distance to the cube code."""
    n, d, m = 31, 31, 3
    limit = Fraction(1, 12) * Fraction(d - 1, n) ** m
    factor = 16 * Fraction(n, d) ** (m - 1)
    rng = np.random.default_rng(67)
    full = rs31_cube.full
    checked = 0
    for tau in (Fraction(0), Fraction(1, 31), Fraction(3, 31)):
        for _ in range(6):
            base = full.codewords()[int(rng.integers(0, 31))].copy()
            flips = rng.choice(29791, size=int(rng.integers(1, 900)), replace=False)
            base[flips] = (base[flips] + rng.integers(1, 31, size=flips.size)) % 31
            w = Word(Field(31), base)
            eps = rs31_cube.tau_soundness_error(w, tau)
            if tau + 2 * eps <= limit:
                delta = rs31_cube.delta_exact(w)
                assert delta <= factor * (tau + eps)
                checked += 1
    assert checked


def test_every_word_entry_point_checks_field_and_length(rep3_square):
    small, tanner = rep3_square.small, TannerCode(rep3_square.graph, rep3_square.small)
    calls = [
        (small.contains, 3),
        (small.nearest, 3),
        (tanner.contains, 9),
        (rep3_square.expected_robustness, 9),
        (rep3_square.delta_exact, 9),
    ]
    for call, n in calls:
        with pytest.raises(FieldMismatchError):
            call(Word(Field(5), [0] * n))
        with pytest.raises(LengthMismatchError):
            call(Word(GF2, [0] * (n - 1)))


def test_a_reference_code_must_share_the_field_and_the_length(rep3_square):
    graph, small = rep3_square.graph, rep3_square.small
    with pytest.raises(FieldMismatchError):
        TestInstance(graph, small, full=repetition(Field(3), 9))
    with pytest.raises(LengthMismatchError):
        TestInstance(graph, small, full=repetition(GF2, 8))


def test_view_robustness_refuses_a_view_past_m(rep3_square):
    with pytest.raises(IndexError):
        rep3_square.view_robustness(Word(GF2, [0] * 9), 7)


def test_a_sampled_estimate_needs_a_sample(rep3_square):
    with pytest.raises(ValueError, match="at least one sample"):
        rep3_square.expected_robustness_sampled(Word(GF2, [0] * 9), seed=0, samples=0)


@pytest.mark.parametrize("alpha", [0, -1, Fraction(-1, 3)])
def test_certify_refuses_a_robustness_constant_that_is_not_positive(rep3_square, alpha):
    # rho >= alpha * delta holds for every word at alpha <= 0.
    with pytest.raises(ValueError, match="alpha must be positive"):
        rep3_square.certify(_e11(rep3_square), alpha)


def test_every_object_names_itself_in_its_repr(monkeypatch):
    graph, small = product_graph(2, 2), repetition(GF2, 2)
    assert repr(Word(GF2, [1, 0, 1])) == "Word(GF(2), [1,0,1])"
    assert repr(Word(Field(3), [1] * 13)) == "Word(GF(3), [1,1,1,1,1,1,1,1,1,1,1,1,...])"
    assert repr(reed_solomon(Field(7), 7, 3)) == "LinearCode[7,3,5] over GF(7)"
    assert repr(reed_solomon(Field(7), 7, 3)._systematic[0]) == "LinearCode[7,3,?] over GF(7)"
    assert repr(tensor_power(small, 2)) == "TensorCode[4,1,4] over GF(2)"
    assert repr(TensorWord(GF2, (2, 2), [1, 1, 1, 1])) == "TensorWord(GF(2), shape=(2, 2))"
    named = "OrderedGraph(4, 4, 2, explicit 'product:n=2,m=2')"
    assert repr(graph) == named
    assert repr(OrderedGraph.from_lists(2, [[1, 2]])) == "OrderedGraph(2, 1, 2, explicit)"
    assert repr(TannerCode(graph, small)) == f"TannerCode({named}, LinearCode[2,1,2] over GF(2))"
    assert repr(TestInstance(graph, small)) == (
        f"TestInstance('product:n=2,m=2', {named}, small=LinearCode[2,1,2] over GF(2))"
    )
    monkeypatch.setattr(ltclab.config, "ADJACENCY_BUDGET", 0)
    assert repr(product_graph(2, 2)) == "OrderedGraph(4, 4, 2, computed 'product:n=2,m=2')"
