import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltclab.code
from ltclab.code import LinearCode, Word, full_code, repetition, reed_solomon
from ltclab.errors import (
    EmptyProjectionError,
    FieldMismatchError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NotACodewordError,
    ShapeMismatchError,
    TooLargeToEnumerateError,
    UnderdeterminedError,
)
from ltclab.field import Field
from ltclab.harness import product_instance
from ltclab.tensor import TensorWord, project_word, tensor_power, tensor_product

GF2 = Field(2)
GF5 = Field(5)
GF7 = Field(7)


# --- products of codes -------------------------------------------------------


def test_product_parameters():
    rep3 = repetition(GF2, 3)
    c = tensor_product(rep3, rep3)
    assert (c.n, c.k, c.d_known) == (9, 1, 9)


def test_product_with_unit_factor():
    rs = reed_solomon(GF7, 7, 2)
    unit = full_code(GF7, 1)
    c = tensor_product(rs, unit)
    assert np.array_equal(c.generator, rs.generator)


def test_product_field_mismatch():
    with pytest.raises(FieldMismatchError):
        tensor_product(repetition(GF2, 2), repetition(GF5, 2))


def test_rs_square_distance_by_enumeration():
    c = tensor_product(reed_solomon(GF7, 7, 2), reed_solomon(GF7, 7, 2))
    assert (c.n, c.k, c.d_known) == (49, 4, 36)
    assert c.min_distance() == 36  # enumerates all 2401 codewords


def test_threshold_refuses_on_a_warm_table(monkeypatch):
    t = tensor_power(repetition(GF2, 2), 2)  # 2 codewords
    t.codewords()
    words = np.zeros((1, 4), dtype=np.int64)
    monkeypatch.setattr(ltclab.code, "ENUMERATION_THRESHOLD", 1)
    with pytest.raises(TooLargeToEnumerateError):
        t.nearest_distance_batch(words)
    monkeypatch.undo()
    assert t.nearest_distance_batch(words).tolist() == [0]


def test_power_one_is_the_code():
    rs = reed_solomon(GF7, 7, 2)
    t = tensor_power(rs, 1)
    assert t.n == 7 and t.k == 2 and t.d_known == 6
    w = rs.encode([1, 2])
    assert t.contains(w)


def test_power_two_parameters():
    t = tensor_power(repetition(GF2, 3), 2)
    assert (t.n, t.k, t.d_known) == (9, 1, 9)


def test_power_three_parameters():
    t = tensor_power(reed_solomon(Field(31), 31, 1), 3)
    assert (t.n, t.k, t.d_known) == (29791, 1, 29791)


def test_power_sizes_are_exact_past_int64():
    t = tensor_power(reed_solomon(GF5, 4, 2), 40)
    assert (t.k, t.n, t.d_known) == (2**40, 4**40, 3**40)


def test_tensor_code_is_a_linear_code():
    t = tensor_power(repetition(GF2, 2), 2)
    assert isinstance(t, LinearCode)
    assert t.min_distance() == 4


def test_distance_multiplicative_mixed_factors():
    a = reed_solomon(GF5, 5, 2)  # [5,2,4]
    b = repetition(GF5, 3)  # [3,1,3]
    c = tensor_product(a, b)
    assert c.d_known == 12
    assert c.min_distance() == 12


# --- tensor words and slices ----------------------------------------------------


def test_at_uses_one_based_indices():
    w = TensorWord(GF5, (2, 2), [1, 2, 3, 4])
    assert (w.at(1, 1), w.at(1, 2), w.at(2, 1), w.at(2, 2)) == (1, 2, 3, 4)
    with pytest.raises(IndexOutOfRangeError):
        w.at(0, 1)
    with pytest.raises(IndexOutOfRangeError):
        w.at(1, 3)


def test_axis_slice_rows_and_columns():
    # r = [[a,b],[c,d]] with a,b,c,d = 1,2,3,4
    w = TensorWord(GF5, (2, 2), [1, 2, 3, 4])
    assert w.axis_slice(1, 1).array.tolist() == [1, 2]
    assert w.axis_slice(2, 1).array.tolist() == [1, 3]


def test_axis_slice_against_reference_loop():
    rng = np.random.default_rng(3)
    shape = (2, 3, 4)
    w = TensorWord(GF5, shape, rng.integers(0, 5, size=24))
    for b in (1, 2, 3):
        for i in range(1, shape[b - 1] + 1):
            got = w.axis_slice(b, i)
            rest = [s for a, s in enumerate(shape, start=1) if a != b]
            for idx in itertools.product(*(range(1, s + 1) for s in rest)):
                full_idx = list(idx)
                full_idx.insert(b - 1, i)
                assert got.at(*idx) == w.at(*full_idx)


def test_axis_slice_of_vector_is_symbol():
    w = TensorWord(GF5, (3,), [2, 0, 4])
    assert w.axis_slice(1, 3) == 4


def test_axis_slice_bad_axis():
    w = TensorWord(GF5, (2, 2), [0, 1, 2, 3])
    with pytest.raises(IndexOutOfRangeError):
        w.axis_slice(3, 1)
    with pytest.raises(IndexOutOfRangeError):
        w.axis_slice(1, 0)


@pytest.mark.parametrize(
    "coords, error",
    [
        ([], EmptyProjectionError),
        ([0, 1], IndexOutOfRangeError),
        ([1, 4], IndexOutOfRangeError),
        ([1, 1], ValueError),
        ([2, 1], ValueError),
        ([1, 3, 2], ValueError),
    ],
)
def test_the_three_projections_refuse_the_same_index_sets(coords, error):
    code = reed_solomon(GF5, 3, 1)
    word = TensorWord(GF5, (3, 3), np.arange(9) % 5)
    calls = {
        "project": lambda: code.project(coords),
        "extend": lambda: tensor_power(code, 2).extend([coords, [1, 2, 3]], TensorWord(GF5, (1, 3), [0, 0, 0])),
        "project_word": lambda: project_word(word, [[1], coords]),
    }
    for name, call in calls.items():
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error, name
    assert issubclass(IndexOutOfRangeError, IndexError)


def test_shape_mismatch_on_construction():
    with pytest.raises(ShapeMismatchError):
        TensorWord(GF5, (2, 2), [1, 2, 3])


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (-2, -2), (), (5,), (2, 3)])
def test_shape_must_fill_the_symbols(shape):
    with pytest.raises(ShapeMismatchError):
        TensorWord(GF5, shape, [1, 2, 3, 4])


@pytest.mark.parametrize("shape", [(3.0, True), (2.0, 2), (True, 4), ("4",), "4", None, 4])
def test_shape_entries_must_be_integers(shape):
    # int() would read (3.0, True) as the grid (3, 1).
    with pytest.raises(ValueError, match="shape must be a list of integers"):
        TensorWord(GF2, shape, [0, 1, 0, 1])


def test_tensor_word_is_a_word_with_a_shape():
    w = TensorWord(GF5, (2, 2), [1, 2, 3, 0])
    flat = Word(GF5, [1, 2, 3, 0])
    assert isinstance(w, Word)
    assert (len(w), w.weight(), w.to_list(), list(w)) == (4, 3, [1, 2, 3, 0], [1, 2, 3, 0])
    assert w.array.tolist() == [[1, 2], [3, 0]] and not w.array.flags.writeable
    with pytest.raises(AttributeError):
        w.shape = (4,)
    # A tensor word never equals a plain word, in either order, nor one of another shape.
    assert w != flat and flat != w and not w == flat and not flat == w
    assert w != TensorWord(GF5, (4,), [1, 2, 3, 0]) and w != TensorWord(GF5, (1, 4), [1, 2, 3, 0])
    twin = TensorWord.from_array(GF5, np.array([[1, 2], [3, 0]]))
    assert w == twin and hash(w) == hash(twin) and len({w, twin, flat}) == 2


@pytest.mark.parametrize(
    "base, m", [(reed_solomon(GF5, 5, 2), 2), (repetition(GF2, 3), 3)], ids=["RS[5,2]^2", "rep[3]^3"]
)
def test_a_tensor_word_reads_as_the_word_of_its_values(base, m):
    code, instance = tensor_power(base, m), product_instance(base, m)
    flat = code.as_linear_code()
    rng = np.random.default_rng(5)
    rows = np.concatenate([rng.integers(0, base.field.q, size=(4, code.n)), code.codewords()[[0, -1]]])
    for row in rows:
        tword = TensorWord(base.field, code.shape, row)
        word = Word(base.field, row)
        assert code.contains(tword) == code.contains(word) == flat.contains(tword) == flat.contains(word)
        assert code.nearest(tword) == code.nearest(word)
        reports = [instance.certify(w, 1, with_views=True) for w in (tword, word)]
        assert reports[0][0].to_json_dict() == reports[1][0].to_json_dict() and reports[0][1] == reports[1][1]
    assert code.contains(tword) and instance.contains(tword)  # the last row is a codeword


# --- membership -------------------------------------------------------------------


def test_encoded_grid_is_member():
    t = tensor_power(reed_solomon(GF5, 5, 2), 2)
    w = t.encode_tensor(np.array([[1, 2], [3, 4]]))
    assert t.contains(w)


@pytest.mark.parametrize(
    "message",
    [[[0.9, 1.7], [7, -1]], [[0, 1], [2, 5]], [[0, 1], [2, -1]], [[True, False], [0, 1]], [[0, 1], [2, 2**70]]],
    ids=["float", "above-q", "negative", "bool", "huge"],
)
def test_encode_tensor_refuses_meaningless_symbols(message):
    t = tensor_power(reed_solomon(GF5, 5, 2), 2)
    with pytest.raises(ValueError):
        t.encode_tensor(message)


def test_zero_tensor_is_member():
    t = tensor_power(repetition(GF2, 2), 3)
    assert t.contains(TensorWord(GF2, (2, 2, 2), [0] * 8))


def test_single_flip_breaks_membership():
    t = tensor_power(repetition(GF2, 3), 2)
    arr = t.encode_tensor(np.array([[1]])).array.copy()
    arr[0, 0] ^= 1
    assert not t.contains(TensorWord.from_array(GF2, arr))


def test_membership_length_checked():
    t = tensor_power(repetition(GF2, 2), 2)
    with pytest.raises(LengthMismatchError):
        t.contains(TensorWord(GF2, (2, 2, 2), [0] * 8))


def test_axis_membership_equals_flat_parity_exhaustive():
    """Line-by-line membership agrees with the Kronecker-generator parity check."""
    t = tensor_power(repetition(GF2, 2), 2)
    flat = t.as_linear_code()
    for bits in itertools.product((0, 1), repeat=4):
        w = TensorWord(GF2, (2, 2), bits)
        assert t.contains(w) == flat.contains(w)


def test_axis_membership_equals_flat_parity_sampled():
    t = tensor_power(reed_solomon(GF5, 5, 2), 2)
    flat = t.as_linear_code()
    rng = np.random.default_rng(11)
    words = rng.integers(0, 5, size=(300, 25))
    # Mix in true codewords so both branches are exercised.
    words[:40] = t.codewords()[rng.integers(0, 625, size=40)]
    got = t.contains_batch(words)
    expect = flat.contains_batch(words)
    assert np.array_equal(got, expect)
    assert got[:40].all()


def test_axis_membership_three_dimensional():
    t = tensor_power(repetition(GF2, 2), 3)
    flat = t.as_linear_code()
    for bits in itertools.product((0, 1), repeat=8):
        w = TensorWord(GF2, (2, 2, 2), bits)
        assert t.contains(w) == flat.contains(w)


def test_slices_of_codewords_are_subproduct_codewords():
    t = tensor_power(reed_solomon(GF5, 5, 2), 3)
    sub = tensor_power(reed_solomon(GF5, 5, 2), 2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        msg = rng.integers(0, 5, size=(2, 2, 2))
        w = t.encode_tensor(msg)
        for b in (1, 2, 3):
            for i in range(1, 6):
                assert sub.contains(w.axis_slice(b, i))


# --- extension ---------------------------------------------------------------------


def test_extend_identity_on_full_grid():
    t = tensor_power(reed_solomon(GF7, 7, 2), 2)
    w = t.encode_tensor(np.array([[1, 2], [3, 4]]))
    assert t.extend([range(1, 8), range(1, 8)], w) == w


def test_extend_repetition_square_from_corner():
    t = tensor_power(repetition(GF2, 3), 2)
    partial = TensorWord(GF2, (1, 1), [1])
    ext = t.extend([[1], [1]], partial)
    assert ext.array.tolist() == [[1, 1, 1]] * 3


def test_extend_roundtrip_random_codewords():
    t = tensor_power(reed_solomon(GF7, 7, 2), 2)
    sets = [[1, 2], [1, 2]]
    rng = np.random.default_rng(19)
    for _ in range(20):
        w = t.encode_tensor(rng.integers(0, 7, size=(2, 2)))
        assert t.extend(sets, project_word(w, sets)) == w


def test_extend_rejects_non_codeword_partial():
    t = tensor_power(reed_solomon(GF7, 7, 2), 2)
    bad = np.zeros(9, dtype=np.int64)
    bad[0] = 1
    with pytest.raises(NotACodewordError):
        t.extend([[1, 2, 3], [1, 2, 3]], TensorWord(GF7, (3, 3), bad))


def test_extend_rejects_small_index_sets():
    t = tensor_power(reed_solomon(GF7, 7, 2), 2)
    with pytest.raises(UnderdeterminedError):
        t.extend([[1], [1, 2]], TensorWord(GF7, (1, 2), [1, 2]))


@given(st.data())
@settings(max_examples=30)
def test_extend_project_roundtrip_randomized(data):
    q = data.draw(st.sampled_from([3, 5, 7]))
    f = Field(q)
    n = data.draw(st.integers(2, min(q, 5)))
    k = data.draw(st.integers(1, n - 1))
    code = reed_solomon(f, n, k)
    t = tensor_power(code, 2)
    size = n - code.d_known + 1  # = k
    coords = sorted(data.draw(st.permutations(range(1, n + 1)))[:size])
    msg = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                min_size=k,
                max_size=k,
            )
        ),
        dtype=np.int64,
    )
    w = t.encode_tensor(msg)
    assert t.extend([coords, coords], project_word(w, [coords, coords])) == w
