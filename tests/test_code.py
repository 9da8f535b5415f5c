from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltclab.config
from ltclab.code import (
    LinearCode,
    Word,
    distance,
    full_code,
    repetition,
    reed_solomon,
)
from ltclab.errors import (
    EmptyProjectionError,
    FieldMismatchError,
    LengthMismatchError,
    RankDeficiencyWarning,
    TooLargeToEnumerateError,
    TooLongError,
)
from ltclab.field import Field

from conftest import SMALL_PRIMES

GF2 = Field(2)
GF5 = Field(5)
GF7 = Field(7)


# --- construction ----------------------------------------------------------


def test_repetition_from_single_row():
    c = LinearCode.from_rows(GF2, [[1, 1, 1]])
    assert (c.n, c.k) == (3, 1)
    assert not np.any((c.parity_check @ c.generator.T) % 2)


def test_identity_generator_full_space():
    c = LinearCode.from_rows(GF2, [[1, 0], [0, 1]])
    assert (c.n, c.k) == (2, 2)
    assert c.parity_check.shape == (0, 2)
    assert c.contains(Word(GF2, [1, 0]))


def test_parity_check_is_derived_by_the_first_membership_query():
    c = reed_solomon(GF7, 7, 3)
    assert "parity_check" not in c.__dict__
    assert c.contains(c.encode([1, 2, 3]))
    assert c.parity_check.shape == (4, 7)
    assert not c.parity_check.flags.writeable


def test_duplicate_rows_warn_and_reduce():
    with pytest.warns(RankDeficiencyWarning):
        c = LinearCode.from_rows(GF2, [[1, 1], [1, 1]])
    assert c.k == 1


def test_reed_solomon_params():
    c = reed_solomon(Field(31), 31, 1)
    assert (c.n, c.k, c.d_known) == (31, 1, 31)


def test_reed_solomon_7_2_distance():
    c = reed_solomon(GF7, 7, 2)
    assert c.min_distance() == 6


def test_reed_solomon_too_long():
    with pytest.raises(TooLongError):
        reed_solomon(GF5, 6, 2)


def test_reed_solomon_bad_dimension():
    with pytest.raises(ValueError):
        reed_solomon(GF7, 7, 0)
    with pytest.raises(ValueError):
        reed_solomon(GF7, 3, 4)


@pytest.mark.parametrize("make", [repetition, full_code])
def test_empty_codes_rejected(make):
    with pytest.raises(ValueError):
        make(GF2, 0)


@pytest.mark.parametrize(
    "symbols", [np.array([1.7, 2.2, 0.0]), [1.7, 2, 0], ["1", 2, 0]]
)
def test_word_rejects_non_integer_symbols(symbols):
    with pytest.raises(ValueError):
        Word(GF5, symbols)


def test_word_reads_field_elements_of_its_own_field_only():
    assert Word(GF7, [GF7.element(3), 4]) == Word(GF7, [3, 4])
    with pytest.raises(FieldMismatchError):
        Word(GF7, [GF5.element(3), 4])


def test_word_refuses_symbols_that_are_not_a_vector():
    with pytest.raises(ValueError, match="1-d array"):
        Word(GF2, np.zeros((2, 2), dtype=np.int64))


# --- encoding ---------------------------------------------------------------


def test_encode_repetition():
    c = repetition(GF2, 3)
    assert c.encode([1]).to_list() == [1, 1, 1]


def test_encode_zero_message():
    c = reed_solomon(GF7, 7, 3)
    assert c.encode([0, 0, 0]).to_list() == [0] * 7


def test_encode_rs_evaluates_polynomial():
    c = reed_solomon(GF7, 7, 2)
    assert c.encode([1, 1]).to_list() == [1, 2, 3, 4, 5, 6, 0]
    # Independent oracle: Horner evaluation of the message polynomial.
    for msg in [(1, 1), (3, 5), (0, 6), (2, 0)]:
        expect = [(msg[0] + msg[1] * x) % 7 for x in range(7)]
        assert c.encode(list(msg)).to_list() == expect


def test_encode_length_mismatch():
    c = reed_solomon(GF7, 7, 2)
    with pytest.raises(LengthMismatchError):
        c.encode([1])


# --- membership ---------------------------------------------------------------


def test_encoded_words_are_members():
    c = reed_solomon(GF5, 5, 2)
    for a in range(5):
        for b in range(5):
            assert c.contains(c.encode([a, b]))


def test_zero_word_is_member():
    c = reed_solomon(GF7, 7, 3)
    assert c.contains(Word(GF7, [0] * 7))


def test_non_codeword_rejected():
    c = repetition(GF2, 3)
    assert not c.contains(Word(GF2, [1, 0, 0]))


# --- distance -------------------------------------------------------------------


def test_distance_identical():
    x = Word(GF2, [1, 0, 1])
    assert distance(x, x) == (0, Fraction(0))


def test_distance_all_positions():
    assert distance(Word(GF2, [1, 1, 1]), Word(GF2, [0, 0, 0])) == (3, Fraction(1))


def test_distance_one_position():
    assert distance(Word(GF2, [1, 0, 0]), Word(GF2, [0, 0, 0])) == (1, Fraction(1, 3))


def test_distance_length_mismatch():
    with pytest.raises(LengthMismatchError):
        distance(Word(GF2, [1]), Word(GF2, [1, 0]))


def test_distance_field_mismatch():
    with pytest.raises(FieldMismatchError):
        distance(Word(GF2, [1]), Word(GF5, [1]))


@given(st.data())
def test_distance_symmetry_and_triangle(data):
    q = data.draw(st.sampled_from(SMALL_PRIMES))
    n = data.draw(st.integers(1, 12))
    f = Field(q)
    draw_word = lambda: Word(f, data.draw(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    x, y, z = draw_word(), draw_word(), draw_word()
    assert distance(x, y) == distance(y, x)
    assert distance(x, z)[0] <= distance(x, y)[0] + distance(y, z)[0]


# --- minimum distance -------------------------------------------------------------


def test_min_distance_repetition():
    assert repetition(GF2, 3).min_distance() == 3


def test_min_distance_full_space():
    assert full_code(GF2, 3).min_distance() == 1


def test_min_distance_threshold_refusal(monkeypatch):
    c = full_code(GF2, 5)  # 32 codewords
    monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", 16)
    with pytest.raises(TooLargeToEnumerateError) as err:
        c.min_distance()
    assert "32" in str(err.value) and "16" in str(err.value)


def test_codeword_table_memory_guard():
    # 2^21 codewords of length 64 would need 2^27 table cells.
    big = LinearCode.from_rows(GF2, np.eye(21, 64, dtype=np.int64).tolist())
    with pytest.raises(TooLargeToEnumerateError):
        big.codewords()


def test_a_refused_table_is_not_cached(monkeypatch):
    c = reed_solomon(GF7, 7, 2)  # 49 codewords of length 7
    monkeypatch.setattr(ltclab.config, "TABLE_CELLS", 49 * 7 - 1)
    with pytest.raises(TooLargeToEnumerateError):
        c.codewords()
    assert "_tables" not in c.__dict__
    monkeypatch.undo()
    assert c.codewords().shape == (49, 7)
    assert "_tables" in c.__dict__


def test_threshold_refuses_on_a_warm_table(monkeypatch):
    c = reed_solomon(GF7, 7, 2)  # 49 codewords
    c.codewords()
    words = np.zeros((1, 7), dtype=np.int64)
    monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", 1)
    with pytest.raises(TooLargeToEnumerateError):
        c.nearest_distance_batch(words)
    with pytest.raises(TooLargeToEnumerateError):
        c.codewords()
    monkeypatch.undo()
    assert c.nearest_distance_batch(words).tolist() == [0]


def test_nearest_distance_streams_past_the_table_limit():
    # 2^21 <= 2^24 codewords, but a 2^27-cell table: the oracle streams.  The
    # code holds exactly the words that vanish off the first 21 coordinates.
    big = LinearCode.from_rows(GF2, np.eye(21, 64, dtype=np.int64).tolist())
    words = np.random.default_rng(9).integers(0, 2, size=(3, 64))
    hams = big.nearest_distance_batch(words)
    assert hams.tolist() == np.count_nonzero(words[:, 21:], axis=1).tolist()
    assert big.nearest(Word(GF2, words[0]))[1] == Fraction(int(hams[0]), 64)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_reed_solomon_is_mds(q):
    f = Field(q)
    for k in (1, 2, 3):
        for n in range(k, q + 1):
            assert reed_solomon(f, n, k).min_distance() == n - k + 1


# --- nearest codeword ---------------------------------------------------------------


def test_nearest_of_codeword_is_itself():
    c = reed_solomon(GF7, 7, 2)
    w = c.encode([2, 3])
    best, delta = c.nearest(w)
    assert best == w and delta == 0


def test_nearest_repetition_majority():
    c = repetition(GF2, 3)
    best, delta = c.nearest(Word(GF2, [1, 0, 0]))
    assert best.to_list() == [0, 0, 0]
    assert delta == Fraction(1, 3)


def test_nearest_repetition_two_ones():
    c = repetition(GF2, 3)
    best, delta = c.nearest(Word(GF2, [1, 1, 0]))
    assert best.to_list() == [1, 1, 1]
    assert delta == Fraction(1, 3)


def test_nearest_tie_breaks_to_smallest_message():
    c = repetition(GF2, 2)
    best, delta = c.nearest(Word(GF2, [1, 0]))
    assert best.to_list() == [0, 0]  # message [0] beats [1] on the tie
    assert delta == Fraction(1, 2)


def test_nearest_zero_iff_member():
    c = reed_solomon(GF5, 5, 2)
    rng = np.random.default_rng(5)
    for _ in range(25):
        w = Word(GF5, rng.integers(0, 5, size=5))
        _, delta = c.nearest(w)
        assert (delta == 0) == c.contains(w)


# --- projection ------------------------------------------------------------------------


def test_project_identity():
    c = reed_solomon(GF7, 7, 2)
    p = c.project(range(1, 8))
    assert (p.n, p.k) == (7, 2)


def test_project_repetition():
    p = repetition(GF2, 3).project([1, 2])
    assert (p.n, p.k, p.min_distance()) == (2, 1, 2)


def test_project_rs_to_information_set():
    c = reed_solomon(GF7, 7, 2)
    p = c.project([1, 2])
    assert (p.n, p.k, p.min_distance()) == (2, 2, 1)
    # Injective on codewords: all 49 projections distinct.
    seen = {tuple(row) for row in c.codewords()[:, [0, 1]]}
    assert len(seen) == 49


def test_project_empty():
    with pytest.raises(EmptyProjectionError):
        repetition(GF2, 3).project([])


def test_project_requires_increasing():
    with pytest.raises(ValueError):
        repetition(GF2, 3).project([2, 1])


@pytest.mark.parametrize("coords", [[1.9, 2.5], [True, 2], [1, 2.0], ["1", 2]])
def test_project_refuses_coordinates_that_are_not_integers(coords):
    # int() would project [1.9, 2.5] onto columns 1 and 2.
    with pytest.raises(TypeError):
        repetition(GF2, 3).project(coords)


# --- round trips (randomized) -------------------------------------------------------------


@st.composite
def random_codes(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, min(n, 3)))
    f = Field(q)
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        ).filter(lambda rs: any(any(r) for r in rs))
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        return f, LinearCode.from_rows(f, rows)


@given(random_codes(), st.data())
@settings(max_examples=40)
def test_encode_membership_roundtrip(fc, data):
    f, c = fc
    msg = data.draw(st.lists(st.integers(0, f.q - 1), min_size=c.k, max_size=c.k))
    assert c.contains(c.encode(msg))


@given(random_codes(), st.data())
@settings(max_examples=40)
def test_random_non_codeword_fails_membership(fc, data):
    f, c = fc
    if c.k == c.n:
        return  # the full space has no non-codewords
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(200):
        w = Word(f, rng.integers(0, f.q, size=c.n))
        if np.any((c.parity_check @ w.values) % f.q):
            assert not c.contains(w)
            return
    raise AssertionError("resampling never left the code (should be impossible)")
