"""Every budget of ltclab.config refuses through config.within, and the refusal names its budget."""

import ast
import itertools
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ltclab.config
from ltclab.code import Word, full_code, reed_solomon, repetition
from ltclab.config import within
from ltclab.corpus import corpus_values, parse_corpus_spec
from ltclab.errors import FieldMismatchError, LtcLabError, TooLargeToEnumerateError
from ltclab.field import Field
from ltclab.harness import instance_from_specs, product_instance, run_expansion_check
from ltclab.tanner import OrderedGraph, power_code, product_graph, tpc_linear_code
from ltclab.tensor import TensorCode, tensor_power

GF2 = Field(2)
GF5 = Field(5)
GF7 = Field(7)

SRC = Path(__file__).resolve().parent.parent / "src" / "ltclab"


def _rep_square_instance():
    return product_instance(repetition(GF2, 3), 2)  # 6 views of length 3 on 9 symbols


# (budget, patched value or None, the refused call, requested)
REFUSALS = [
    ("ENUMERATION_THRESHOLD", 16, lambda: full_code(GF2, 5).min_distance(), 32),
    ("TABLE_CELLS", 49 * 7 - 1, lambda: reed_solomon(GF7, 7, 2).codewords(), 49 * 7),
    ("GENERATOR_CELLS", None, lambda: tensor_power(reed_solomon(GF5, 4, 2), 99).generator, 2**99 * 4**99),
    ("PARITY_CELLS", None, lambda: tpc_linear_code(
        product_graph(16, 3), tensor_power(repetition(GF2, 16), 2).as_linear_code()), 48 * 255 * 16**3),
    ("DERIVED_PARITY_CELLS", None, lambda: tpc_linear_code(
        product_graph(12, 3), tensor_power(repetition(GF2, 12), 2).as_linear_code(), "DERIVED_PARITY_CELLS"),
        8_895_744),
    ("ADJACENCY_BUDGET", 17, lambda: _rep_square_instance().view_hammings(Word(GF2, [0] * 9)), 18),
    # Of 2^9 C(27, <= 6) = 203,568,128 pairs, the running total of the terms C(27, |S|) C(9, |T|)
    # first passes the budget at |S| = 4, |T| = 7, and terms remain.
    ("EXPANSION_PAIRS", None, lambda: run_expansion_check(product_graph(3, 3)), 10_501_748),
    ("REPETITIONS", None, lambda: _rep_square_instance().amplified_rejection(
        Word(GF2, [0] * 9), Fraction(1, 10**6 + 1)), 10**6 + 1),
    # Refused before it is allocated: numpy would refuse 10^20 rows as too many dimensions, by no budget.
    ("CORPUS_CELLS", None, lambda: corpus_values(
        _rep_square_instance(), parse_corpus_spec("uniform:99999999999999999999"), 0), 9 * 99999999999999999999),
]

# PARITY_CELLS also refuses a code's own parity-check matrix, before it is allocated: 4999 x 5000 int64 here.
PARITY_CHECK_REFUSAL = ("PARITY_CELLS", None, lambda: repetition(GF2, 5000).parity_check, 4999 * 5000)
# CORPUS_CELLS also bounds a low_weight part: 1 + 9 + 36 words of 9 symbols, refused at its last term.
LOW_WEIGHT_REFUSAL = ("CORPUS_CELLS", 46 * 9 - 1, lambda: corpus_values(
    _rep_square_instance(), parse_corpus_spec("low_weight,wmax=2"), 0), 46 * 9)
# Counts refused before their last term, whose message shows the running total as a lower bound.
PARTIAL = {"EXPANSION_PAIRS"}


@pytest.mark.parametrize(
    "budget, patched, call, requested", REFUSALS + [PARITY_CHECK_REFUSAL, LOW_WEIGHT_REFUSAL],
    ids=[r[0] for r in REFUSALS] + ["PARITY_CELLS-parity-check", "CORPUS_CELLS-low-weight"],
)
def test_every_budget_refuses_by_name(monkeypatch, budget, patched, call, requested):
    if patched is not None:
        monkeypatch.setattr(ltclab.config, budget, patched)
    limit = getattr(ltclab.config, budget)
    with pytest.raises(TooLargeToEnumerateError) as err:
        call()
    exc = err.value
    assert (exc.budget, exc.requested, exc.limit) == (budget, requested, limit)
    assert isinstance(exc, ValueError) and isinstance(exc, LtcLabError)
    shown = f"at least {requested}" if budget in PARTIAL else requested
    assert str(exc).endswith(f" would hold {shown}, past {budget} = {limit}")


def test_a_refused_tanner_product_code_derives_no_parity_check():
    # The small code's parity check would be 960 x 961, and the cube's 29790 x 29791; neither is derived.
    small = tensor_power(reed_solomon(Field(31), 31, 1), 2)
    with pytest.raises(TooLargeToEnumerateError, match="past DERIVED_PARITY_CELLS"):
        tpc_linear_code(product_graph(31, 3), small, "DERIVED_PARITY_CELLS")
    assert "parity_check" not in small.__dict__ and "generator" not in small.__dict__


def test_adjacency_budget_refuses_coordinate_weights(monkeypatch):
    monkeypatch.setattr(ltclab.config, "ADJACENCY_BUDGET", 17)
    with pytest.raises(TooLargeToEnumerateError) as err:
        _rep_square_instance().coordinate_weights()
    assert (err.value.budget, err.value.requested) == ("ADJACENCY_BUDGET", 18)


def test_a_huge_enumeration_is_refused_without_computing_its_size():
    # RS[4,2]^99 has 5^(2^99) codewords; the count stops at 5^11, the first power of 5 past the budget.
    code = tensor_power(reed_solomon(GF5, 4, 2), 99)
    start = time.perf_counter()
    with pytest.raises(TooLargeToEnumerateError) as err:
        code.codewords()
    assert time.perf_counter() - start < 1.0
    assert err.value.budget == "ENUMERATION_THRESHOLD"
    assert str(err.value) == f"codeword enumeration would hold at least {5**11}, past ENUMERATION_THRESHOLD = {2**24}"


@pytest.mark.parametrize("q, axes", [(2, (217, 151)), (3, (217, 151)), (2, (256, 128)), (3, (256, 128))])
def test_an_enumeration_is_refused_at_the_first_power_of_q_past_the_budget(q, axes):
    # k = 2**15 - 1 or 2**15, in factor form: the running total q**(i + 1) passes 2**24 long before q**k.
    code = TensorCode([full_code(Field(q), n) for n in axes])
    with pytest.raises(TooLargeToEnumerateError) as err:
        code.codewords()
    requested = {2: 33_554_432, 3: 43_046_721}[q]  # 2**25 and 3**16
    assert err.value.requested == requested
    assert str(err.value) == f"codeword enumeration would hold at least {requested}, past ENUMERATION_THRESHOLD = {2**24}"


def test_a_running_total_is_refused_at_its_first_total_past_the_budget(monkeypatch):
    monkeypatch.setattr(ltclab.config, "REPETITIONS", 10)
    assert within("REPETITIONS", iter([4, 6]), "amplified test") == 10  # at the limit
    with pytest.raises(TooLargeToEnumerateError) as err:
        within("REPETITIONS", [4, 7], "amplified test")
    assert (err.value.requested, str(err.value)) == (11, "amplified test would hold 11, past REPETITIONS = 10")
    # With terms left the total is a lower bound; an endless count is refused all the same.
    with pytest.raises(TooLargeToEnumerateError) as err:
        within("REPETITIONS", itertools.count(), "amplified test")  # 0 + 1 + ... + 5
    assert (err.value.requested, str(err.value)) == (15, "amplified test would hold at least 15, past REPETITIONS = 10")


def test_a_low_weight_part_of_the_cube_is_refused_at_its_first_total_past_the_budget():
    # Weights 0 and 1 already pass CORPUS_CELLS; the count stops there, well before w = 5000.
    cube = product_instance(reed_solomon(Field(31), 31, 1), 3)
    start = time.perf_counter()
    with pytest.raises(TooLargeToEnumerateError) as err:
        corpus_values(cube, parse_corpus_spec("low_weight,wmax=5000"), 0)
    assert time.perf_counter() - start < 1.0
    n = 31**3
    assert str(err.value) == f"low_weight corpus would hold at least {n + n * 30 * n}, past CORPUS_CELLS = {2**26}"


def test_a_sampled_expansion_scan_is_refused_past_the_budget(monkeypatch):
    monkeypatch.setattr(ltclab.config, "EXPANSION_PAIRS", 99)
    assert run_expansion_check(product_graph(3, 3), mode="sampled", samples=99)["report"]["pairs_checked"] == 99
    with pytest.raises(TooLargeToEnumerateError) as err:
        run_expansion_check(product_graph(3, 3), mode="sampled", samples=100)
    assert str(err.value) == "sampled expansion scan would hold 100, past EXPANSION_PAIRS = 99"


def test_sampled_expansion_masks_are_refused_past_the_corpus_budget(monkeypatch):
    # The S masks are a corpus of `samples` words of n_left = 27 cells.
    monkeypatch.setattr(ltclab.config, "CORPUS_CELLS", 27 * 99)
    assert run_expansion_check(product_graph(3, 3), mode="sampled", samples=99)["report"]["pairs_checked"] == 99
    with pytest.raises(TooLargeToEnumerateError) as err:
        run_expansion_check(product_graph(3, 3), mode="sampled", samples=100)
    assert str(err.value) == f"sampled expansion S masks would hold {27 * 100}, past CORPUS_CELLS = {27 * 99}"


def test_sampled_expansion_t_masks_are_refused_past_the_corpus_budget(monkeypatch):
    # The T masks are a corpus of `samples` words of m_right = 100 cells; the S masks hold only 4 a word.
    graph = OrderedGraph.from_lists(4, [[1, 2], [3, 4]] * 50)
    monkeypatch.setattr(ltclab.config, "CORPUS_CELLS", 100 * 99)
    assert run_expansion_check(graph, mode="sampled", samples=99)["report"]["pairs_checked"] == 99
    with pytest.raises(TooLargeToEnumerateError) as err:
        run_expansion_check(graph, mode="sampled", samples=100)
    assert str(err.value) == f"sampled expansion T masks would hold {100 * 100}, past CORPUS_CELLS = {100 * 99}"


def test_within_returns_a_request_at_the_limit_and_reads_the_budget_per_call(monkeypatch):
    assert within("REPETITIONS", 10**6, "amplified test") == 10**6
    monkeypatch.setattr(ltclab.config, "REPETITIONS", 10**6 - 1)
    with pytest.raises(TooLargeToEnumerateError):
        within("REPETITIONS", 10**6, "amplified test")


@pytest.mark.parametrize(
    "requested, shown",
    [(2**14000 - 1, str(2**14000 - 1)), (2**14000, "at least 2^14000"), (65521**993, "at least 2^15887")],
    ids=["14000-bits", "14001-bits", "rep-reference"],
)
def test_a_refusal_too_large_to_print_shows_its_magnitude(requested, shown):
    # Python will not turn an int of more than 4,300 digits into a string.
    with pytest.raises(TooLargeToEnumerateError) as err:
        within("ENUMERATION_THRESHOLD", requested, "codeword enumeration")
    assert err.value.requested == requested
    assert str(err.value) == f"codeword enumeration would hold {shown}, past ENUMERATION_THRESHOLD = {2**24}"


def test_a_refused_reference_still_certifies_an_interval():
    # The derived Tanner product code is refused by DERIVED_PARITY_CELLS; delta stays an interval.  The flat small
    # code rep[144] = rep[12] x rep[12] takes the stacked route (the factor form of rep:q=2,n=12^2 is exact).
    instance = instance_from_specs("product:n=12,m=3", "rep:q=2,n=144")
    assert instance.full is None
    word = Word(GF2, [1] + [0] * (12**3 - 1))
    report, _ = instance.certify(word, Fraction(1, 2))
    assert (report.delta_lower, report.delta_upper, report.delta_exact) == (Fraction(1, 1728), Fraction(1), False)
    assert report.rho == Fraction(1, 1728)
    with pytest.raises(ValueError, match="no reference"):
        instance.delta_hammings_batch(np.zeros((1, 12**3), dtype=np.uint8))
    with pytest.raises(FieldMismatchError):  # no oracle runs, but the word is still checked
        instance.certify(Word(Field(3), [0] * 12**3), Fraction(1, 2))


def test_a_full_space_reference_is_refused_before_its_identity_is_formed(monkeypatch):
    # The small code is the whole space, so the reference is the n_left x n_left identity: 2 MiB of int64 here.
    n_left = 8**3
    monkeypatch.setattr(ltclab.config, "GENERATOR_CELLS", n_left**2 - 1)
    graph, small = product_graph(8, 3), tensor_power(full_code(GF2, 8), 2)
    message = f"full-space generator would hold {n_left**2}, past GENERATOR_CELLS = {n_left**2 - 1}"
    routes = {
        "power": lambda: power_code(graph, small),
        "stacked": lambda: tpc_linear_code(graph, small, "DERIVED_PARITY_CELLS"),
        "specs": lambda: instance_from_specs("product:n=8,m=3", "full:q=2,n=8^2"),
    }
    for name, route in routes.items():
        tracemalloc.start()
        try:
            if name == "specs":
                instance = route()
            else:
                with pytest.raises(TooLargeToEnumerateError) as err:
                    route()
                assert (err.value.budget, err.value.requested, str(err.value)) == ("GENERATOR_CELLS", n_left**2, message)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_left**2, name  # an eighth of the identity
    assert instance.full is None  # delta falls back to the interval, as after a derived refusal
    monkeypatch.setattr(ltclab.config, "GENERATOR_CELLS", n_left**2)
    for route in routes.values():
        full = route()
        full = getattr(full, "full", full)
        assert (full.k, full.n) == (n_left, n_left) and np.array_equal(full.generator, np.eye(n_left))


def _calls(path: Path, callee: str) -> list[int]:
    """Line numbers of the calls ``callee(...)`` or ``<anything>.callee(...)`` in one module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                lines.append(node.lineno)
    return lines


def test_only_config_within_constructs_a_refusal():
    calls = {path.name: _calls(path, "TooLargeToEnumerateError") for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in calls.items() if lines and name != "config.py"} == {}
    assert len(calls["config.py"]) == 1 and {"code.py", "tester.py", "harness.py"} <= calls.keys()


def test_only_the_tensor_module_flattens_a_tensor_code():
    # Everywhere else a tensor power stays in factor form: a flat copy of the cube derives a 6.6 GiB parity check.
    calls = {path.name: _calls(path, "as_linear_code") for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in calls.items() if lines and name != "tensor.py"} == {}
    assert calls["tensor.py"] and {"harness.py", "cli.py"} <= calls.keys()
