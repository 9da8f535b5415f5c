from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ltclab.code
import ltclab.config
import ltclab.tanner
from ltclab.code import Word, repetition, reed_solomon
from ltclab.errors import FieldMismatchError, LengthMismatchError, TooLargeToEnumerateError
from ltclab.field import Field
from ltclab.harness import product_instance
from ltclab.tanner import OrderedGraph, TannerCode, product_graph, tpc_linear_code
from ltclab.tensor import tensor_power
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
    assert rep3_square.tau_soundness_error(w, Fraction(-2**70, 3)) == 1


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
    with mock.patch.object(ltclab.tanner, "ADJACENCY_BUDGET", 0):  # the composition formula itself
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
    with mock.patch.object(ltclab.tanner, "BROADCAST_CELLS", cells):  # chunks of words
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
