"""Cross-module invariants that tie the independent computation routes together."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltclab.code import Word, repetition, reed_solomon
from ltclab.field import Field
from ltclab.harness import product_instance
from ltclab.tanner import OrderedGraph, TannerCode, tpc_linear_code
from ltclab.tensor import tensor_power, tensor_product
from ltclab.tester import TestInstance

GF2 = Field(2)
GF5 = Field(5)


def test_contraction_and_kronecker_encodings_agree_row_for_row():
    """The factor-contraction route and the flat Kronecker generator produce
    identical codeword tables in identical message order."""
    for base, m in ((reed_solomon(GF5, 5, 2), 2), (repetition(GF2, 3), 3)):
        t = tensor_power(base, m)
        assert np.array_equal(t.codewords(), t.as_linear_code().codewords())


def test_two_factor_power_equals_tensor_product_code():
    rs = reed_solomon(GF5, 5, 2)
    power = tensor_power(rs, 2).as_linear_code()
    product = tensor_product(rs, rs)
    assert np.array_equal(power.generator, product.generator)


@pytest.mark.parametrize(
    "n1,k1,n2,k2",
    [(n1, k1, n2, k2) for n1 in (2, 3, 4) for k1 in (1, 2) if k1 <= n1
     for n2 in (2, 3) for k2 in (1, 2) if k2 <= n2 and 5 ** (k1 * k2) <= 2**16],
)
def test_min_distance_multiplicative(n1, k1, n2, k2):
    a = reed_solomon(GF5, n1, k1)
    b = reed_solomon(GF5, n2, k2)
    c = tensor_product(a, b)
    assert c.min_distance() == a.d_known * b.d_known


def test_completeness_on_irregular_tanner_instance():
    """Every codeword of any Tanner product has zero robustness everywhere."""
    graph = OrderedGraph.from_lists(5, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]])
    small = repetition(GF2, 2)
    code = tpc_linear_code(graph, small)
    instance = TestInstance(graph, small, full=code)
    for row in code.codewords():
        w = Word(GF2, row)
        assert instance.expected_robustness(w) == 0
        for j in range(1, graph.m_right + 1):
            assert instance.view_robustness(w, j) == 0
        assert TannerCode(graph, small).contains(w)


def test_report_quantities_stay_in_unit_interval():
    instance = product_instance(repetition(GF2, 3), 2)
    rng = np.random.default_rng(71)
    for _ in range(50):
        w = Word(GF2, rng.integers(0, 2, size=9))
        report, _ = instance.certify(w, Fraction(1, 8), tau=Fraction(1, 3))
        assert 0 <= report.rho <= 1
        assert 0 <= report.delta <= 1
        assert 0 <= report.epsilon <= 1
        assert (report.rho == 0) == (report.delta == 0)


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(2, 7))
    m_outer = draw(st.integers(1, 4))
    d_outer = draw(st.integers(1, 5))
    outer = OrderedGraph.from_lists(
        n,
        [
            [draw(st.integers(1, n)) for _ in range(d_outer)]
            for _ in range(m_outer)
        ],
    )
    m_inner = draw(st.integers(1, 3))
    d_inner = draw(st.integers(1, 4))
    inner = OrderedGraph.from_lists(
        d_outer,
        [
            [draw(st.integers(1, d_outer)) for _ in range(d_inner)]
            for _ in range(m_inner)
        ],
    )
    return outer, inner


@given(graph_pairs(), st.data())
@settings(max_examples=40)
def test_composed_views_factor_hypothesis(pair, data):
    outer, inner = pair
    composed = outer.compose(inner)
    values = np.array(
        data.draw(
            st.lists(st.integers(0, 4), min_size=outer.n_left, max_size=outer.n_left)
        ),
        dtype=np.int64,
    )
    for j in range(outer.m_right):
        for jp in range(inner.m_right):
            direct = composed.view(values, j * inner.m_right + jp + 1)
            nested = inner.view(outer.view(values, j + 1), jp + 1)
            assert np.array_equal(direct, nested)


@given(graph_pairs(), st.integers(0, 2**31))
@settings(max_examples=20)
def test_composed_expectation_identity_hypothesis(pair, seed):
    """The exact two-level expectation identity on arbitrary ordered graphs."""
    outer, inner = pair
    small = repetition(GF2, inner.t_degree)
    composed_inst = TestInstance(outer.compose(inner), small)
    inner_inst = TestInstance(inner, small)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=outer.n_left)
    w = Word(GF2, values)
    lhs = composed_inst.expected_robustness(w)
    nested = [
        inner_inst.expected_robustness(Word(GF2, outer.view(values, j + 1)))
        for j in range(outer.m_right)
    ]
    assert lhs == sum(nested, Fraction(0)) / len(nested)


def test_axis_views_equal_slice_flattening_for_every_product_graph():
    from ltclab.tanner import product_graph
    from ltclab.tensor import TensorWord

    rng = np.random.default_rng(73)
    for n, m in itertools.product((2, 3), (2, 3)):
        g = product_graph(n, m)
        values = rng.integers(0, 5, size=n**m)
        w = TensorWord(GF5, (n,) * m, values)
        for b in range(1, m + 1):
            for i in range(1, n + 1):
                j = (b - 1) * n + i
                flat = w.axis_slice(b, i).array.reshape(-1)
                assert np.array_equal(g.view(values, j), flat)
