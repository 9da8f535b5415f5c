"""Every budget of ltclab.config refuses through config.within, and the refusal names its budget."""

import ast
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
from ltclab.tanner import product_graph, tpc_linear_code
from ltclab.tensor import tensor_power

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
    ("EXPANSION_PAIRS", None, lambda: run_expansion_check(product_graph(3, 3)), 203_568_128),
    ("LOW_WEIGHT_WORDS", 45, lambda: corpus_values(
        _rep_square_instance(), parse_corpus_spec("low_weight,wmax=2"), 0), 1 + 9 + 36),
    ("REPETITIONS", None, lambda: _rep_square_instance().amplified_rejection(
        Word(GF2, [0] * 9), Fraction(1, 10**6 + 1)), 10**6 + 1),
]


@pytest.mark.parametrize("budget, patched, call, requested", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_every_budget_refuses_by_name(monkeypatch, budget, patched, call, requested):
    if patched is not None:
        monkeypatch.setattr(ltclab.config, budget, patched)
    limit = getattr(ltclab.config, budget)
    with pytest.raises(TooLargeToEnumerateError) as err:
        call()
    exc = err.value
    assert (exc.budget, exc.requested, exc.limit) == (budget, requested, limit)
    assert isinstance(exc, ValueError) and isinstance(exc, LtcLabError)
    assert str(exc).endswith(f" would hold {requested}, past {budget} = {limit}")


def test_adjacency_budget_refuses_coordinate_weights(monkeypatch):
    monkeypatch.setattr(ltclab.config, "ADJACENCY_BUDGET", 17)
    with pytest.raises(TooLargeToEnumerateError) as err:
        _rep_square_instance().coordinate_weights()
    assert (err.value.budget, err.value.requested) == ("ADJACENCY_BUDGET", 18)


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
    # The derived Tanner product code is refused by DERIVED_PARITY_CELLS; delta stays an interval.
    instance = instance_from_specs("product:n=12,m=3", "rep:q=2,n=12^2")
    assert instance.full is None
    word = Word(GF2, [1] + [0] * (12**3 - 1))
    assert instance.delta_bounds(word, Fraction(1, 1728)) == (Fraction(1, 1728), Fraction(1), False)
    with pytest.raises(ValueError, match="no reference"):
        instance.delta_hammings_batch(np.zeros((1, 12**3), dtype=np.uint8))
    with pytest.raises(FieldMismatchError):  # no oracle runs, but the word is still checked
        instance.delta_bounds(Word(Field(3), [0] * 12**3))


def _refusal_calls(path: Path) -> list[int]:
    """Line numbers of the calls ``TooLargeToEnumerateError(...)`` in one module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "TooLargeToEnumerateError":
                lines.append(node.lineno)
    return lines


def test_only_config_within_constructs_a_refusal():
    calls = {path.name: _refusal_calls(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in calls.items() if lines and name != "config.py"} == {}
    assert len(calls["config.py"]) == 1 and {"code.py", "tester.py", "harness.py"} <= calls.keys()
