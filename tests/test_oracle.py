"""The exact enumeration oracle against int64 brute force.

Codeword tables hold symbols row-major in the narrowest unsigned dtype, with
packed bit-planes beside every table, wide and tall, and are enumerated by
linearity in groups of q**j messages.  Cached tables and streamed blocks are
compared by their bit-planes.  Every check here compares against a reference
that shares none of that: messages from itertools.product, an int64 matmul,
and a per-row count.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltclab.code
import ltclab.config
from ltclab.code import LinearCode, Word, reed_solomon, symbol_dtype
from ltclab.field import Field
from ltclab.tensor import tensor_power


def systematic_code(q: int, k: int, n: int, seed: int) -> LinearCode:
    """A random [n, k] code over GF(q) with generator [I_k | A]."""
    gen = np.zeros((k, n), dtype=np.int64)
    gen[:, :k] = np.eye(k, dtype=np.int64)
    gen[:, k:] = np.random.default_rng(seed).integers(0, q, size=(k, n - k))
    return LinearCode(Field(q), gen)


def reference_table(code) -> np.ndarray:
    """Every codeword in message order, as int64."""
    q, k = code.field.q, code.k
    messages = np.array(list(itertools.product(range(q), repeat=k)), dtype=np.int64)
    return (messages @ code.generator) % q


def reference_distances(table: np.ndarray, words: np.ndarray) -> list[int]:
    return [int(np.count_nonzero(table != w, axis=1).min()) for w in words.astype(np.int64)]


def message_order(code, k: int) -> np.ndarray:
    q = code.field.q
    idx = np.arange(q**k, dtype=np.int64)
    return code.encode_batch(np.stack(np.unravel_index(idx, (q,) * k), axis=1))


# (q, k, n): tall tables (q**k > n), wide tables (q**k <= n), uint16 symbols
# (q = 257), and a tall table with n > 255, whose sums need a uint16 accumulator.
SHAPES = [
    (2, 6, 10),
    (2, 3, 12),
    (5, 3, 20),
    (5, 2, 30),
    (31, 2, 40),
    (31, 1, 40),
    (257, 1, 20),
    (257, 1, 300),
    (2, 9, 300),
]


@pytest.mark.parametrize("streamed", [False, True], ids=["table", "streamed"])
@pytest.mark.parametrize("q, k, n", SHAPES)
@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 5))
def test_nearest_distance_batch_matches_brute_force(q, k, n, streamed, seed, batch):
    code = systematic_code(q, k, n, seed)
    table = reference_table(code)
    rng = np.random.default_rng(seed)
    words = rng.integers(0, q, size=(batch + 2, n))
    words[:, 0], words[:, -1] = 0, q - 1
    words[-2] = q - 1
    # A codeword with its first batch - 1 symbols reflected: close to the code.
    words[-1] = table[rng.integers(len(table))]
    words[-1, : batch - 1] = q - 1 - words[-1, : batch - 1]
    expected = reference_distances(table, words)
    with pytest.MonkeyPatch.context() as mp:
        if streamed:
            # No table fits; several short blocks, and a few rows per compare step.
            mp.setattr(ltclab.config, "TABLE_CELLS", 0)
            mp.setattr(ltclab.code, "_CHUNK", 40)
        for dtype in (symbol_dtype(code.field), np.int64):
            got = code.nearest_distance_batch(words.astype(dtype))
            assert got.dtype == np.int64
            assert got.tolist() == expected


# The bit-plane path: n around multiples of 64 (one to three uint64 per plane),
# q = 2 (one plane), q just above a power of two (17, 257: a nearly empty top
# plane), and uint16 symbols (257).  Tall codes take the least k with
# q**k > n; wide codes take k = 1 (q <= n), and n = 4 and 12 (q = 2, k = 2
# and 3) give wide tables whose rows are not whole uint64 or whole octets.
PLANE_QS = [2, 3, 5, 17, 257]
PLANE_NS = [1, 63, 64, 65, 129]
WIDE_SHAPES = [(2, 2, 4), (2, 3, 12), (3, 1, 4), (5, 1, 12), (17, 1, 65), (2, 6, 64), (257, 1, 300)]


def tall_code(q: int, n: int) -> LinearCode:
    k = 1
    while q**k <= n:
        k += 1
    return systematic_code(q, k, n, seed=q * 1000 + n)


def wide_code(q: int, k: int, n: int) -> LinearCode:
    assert q**k <= n
    return systematic_code(q, k, n, seed=q * 1000 + n)


# (q, k, n) with k None for the tall code of tall_code(q, n).
PLANE_CODES = [pytest.param(q, None, n, id=f"{q}-{n}") for q in PLANE_QS for n in PLANE_NS] + [
    pytest.param(q, k, n, id=f"wide-{q}-{k}-{n}") for q, k, n in WIDE_SHAPES
]


def plane_code(q: int, k, n: int) -> LinearCode:
    return tall_code(q, n) if k is None else wide_code(q, k, n)


@pytest.mark.parametrize("path", ["table", "chunked", "streamed"])
@pytest.mark.parametrize("batch", [0, 1, 5])
@pytest.mark.parametrize("q, k, n", PLANE_CODES)
def test_plane_compare_matches_brute_force(q, k, n, batch, path):
    code = plane_code(q, k, n)
    table = reference_table(code)
    rng = np.random.default_rng([q, n, batch])
    words = rng.integers(0, q, size=(batch, n))
    if batch:
        words[:, 0], words[:, -1] = 0, q - 1
    if batch > 2:
        words[1], words[2] = q - 1, table[rng.integers(len(table))]
        words[2, 0] = (words[2, 0] + 1) % q  # one symbol off a codeword
    expected = reference_distances(table, words)
    with pytest.MonkeyPatch.context() as mp:
        if path == "chunked":
            mp.setattr(ltclab.code, "_CHUNK", 40)  # a few rows per compare step
        if path == "streamed":
            mp.setattr(ltclab.config, "TABLE_CELLS", 0)
            mp.setattr(ltclab.code, "_CHUNK", 40)
        for dtype in (symbol_dtype(code.field), np.int64):
            got = code.nearest_distance_batch(words.astype(dtype))
            assert got.dtype == np.int64
            assert got.tolist() == expected
    assert ("_tables" not in code.__dict__) == (path == "streamed")


@pytest.mark.parametrize("q, k, n", PLANE_CODES)
def test_planes_unpack_to_the_codewords(q, k, n):
    code = plane_code(q, k, n)
    symbols = code.codewords()
    _, planes = code._tables
    bits, rows, width = planes.shape
    assert (bits, rows, width) == ((q - 1).bit_length(), q**code.k, -(-n // 64))
    assert planes.dtype == np.uint64 and not planes.flags.writeable
    unpacked = np.unpackbits(planes.view(np.uint8), axis=2).astype(np.int64)
    assert not unpacked[:, :, n:].any()  # the padding past n is zero
    assert np.array_equal((unpacked[:, :, :n] << np.arange(bits)[:, None, None]).sum(axis=0), symbols)


@pytest.mark.parametrize(
    "q, k, n",
    [(5, 2, 30), (2, 2, 4), (2, 3, 12), (31, 1, 40), (2, 6, 10), (5, 3, 20), (257, 1, 20)],
)
def test_every_cached_table_has_planes(q, k, n):
    # Wide (q**k <= n) and tall tables alike, of both symbol dtypes.
    code = systematic_code(q, k, n, seed=1)
    code.codewords()
    planes = code._tables[1]
    assert planes.shape == ((q - 1).bit_length(), q**k, -(-n // 64))
    assert planes.dtype == np.uint64 and not planes.flags.writeable


@pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 65])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_pack_matches_per_row_packbits(n, dtype):
    bits = 9 if dtype != np.uint8 else 8
    values = np.random.default_rng(n).integers(0, 1 << bits, size=(5, n)).astype(dtype)
    values[0], values[1] = 0, (1 << bits) - 1
    width = -(-n // 64)
    out = np.zeros((bits, 5, width), dtype=np.uint64)
    ltclab.code._pack(values, out)
    octets = out.view(np.uint8)
    for p in range(bits):
        for r in range(5):
            expected = np.packbits([(int(v) >> p) & 1 for v in values[r]])
            assert octets[p, r, : expected.size].tolist() == expected.tolist()
            assert not octets[p, r, expected.size :].any()  # padding past the octets of n
        # Bits past n inside the last octet are zero too.
        assert not np.unpackbits(octets[p], axis=1)[:, n:].any()


@pytest.mark.parametrize("q, k", [(2, 9), (3, 6)])
def test_plane_sums_hold_distances_past_255(q, k):
    # [I_k | 0] of length 300: the all-(q - 1) word is 300 - k from every codeword.
    n = 300
    gen = np.eye(k, n, dtype=np.int64)
    code = LinearCode(Field(q), gen)
    words = np.array([[q - 1] * n, [0] * n, [1] * k + [0] * (n - k)], dtype=np.int64)
    assert code.nearest_distance_batch(words).tolist() == [n - k, 0, 0]
    assert code._tables[1].shape[2] == 5


@pytest.mark.parametrize("chunk", [7, 100, ltclab.code._CHUNK])
@pytest.mark.parametrize(
    "code",
    [
        reed_solomon(Field(5), 4, 3),  # 125 codewords in groups of 5 or 25
        reed_solomon(Field(257), 3, 1),  # groups of one message; 257 rows
        systematic_code(2, 8, 5 + 8, seed=3),
        tensor_power(reed_solomon(Field(5), 3, 2), 2),  # 625 = 6 * 100 + 25 rows
    ],
    ids=["rs5", "rs257", "binary", "tensor"],
)
def test_codewords_follow_message_order(monkeypatch, code, chunk):
    monkeypatch.setattr(ltclab.code, "_CHUNK", chunk)
    code.__dict__.pop("_tables", None)
    table = code.codewords()
    assert np.array_equal(table, message_order(code, code.k))
    assert table.dtype == symbol_dtype(code.field)
    assert not table.flags.writeable
    assert table.flags.c_contiguous


def test_rs131_blocks_are_whole_groups_in_message_order():
    # q = 131: groups of 131 messages, 125 groups (16375 rows) per block.
    code = reed_solomon(Field(131), 131, 3)
    total, sizes, last = 131**3, [], None
    for s, block in code._blocks():
        assert s == sum(sizes)
        sizes.append(block.shape[0])
        if s == 0:
            first = block
        last = s, block
    assert sum(sizes) == total
    assert set(sizes[:-1]) == {125 * 131} and sizes[-1] == total % (125 * 131)
    for s, block in ((0, first), last):
        idx = np.arange(s, s + block.shape[0], dtype=np.int64)
        messages = np.stack(np.unravel_index(idx, (131,) * 3), axis=1)
        assert np.array_equal(block, code.encode_batch(messages))


def test_blocks_of_a_long_code_hold_a_bounded_number_of_symbols():
    # Blocks are bounded by symbols too: 16,384 messages of length 16,000 a block peaked at 246 MB.
    code = LinearCode(Field(31), np.random.default_rng(0).integers(0, 31, size=(2, 16000)))
    assert max(block.size for _, block in code._blocks()) <= 1 << 22
    tracemalloc.start()
    try:
        code.min_distance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6


@pytest.mark.parametrize(
    "code",
    [
        reed_solomon(Field(251), 6, 2),  # uint8 symbols near the top of the dtype
        reed_solomon(Field(257), 4, 2),  # uint16 symbols
        tensor_power(reed_solomon(Field(13), 3, 2), 2),
    ],
    ids=["rs251", "rs257", "tensor"],
)
def test_enumerated_codewords_pass_membership(code):
    # Membership multiplies by the int64 parity check; narrow symbols must not wrap.
    assert code.contains_batch(code.codewords()).all()


@settings(max_examples=30)
@given(
    q=st.sampled_from([2, 3, 5]),
    chunk=st.sampled_from([1, 4, 7, 30]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_breaks_ties_toward_the_smaller_message_across_blocks(q, chunk, seed):
    code = systematic_code(q, 3, 4, seed)
    table = reference_table(code)
    word = np.random.default_rng(seed).integers(0, q, size=4)
    hams = np.count_nonzero(table != word, axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ltclab.code, "_CHUNK", chunk)
        best, delta = code.nearest(Word(code.field, word))
    assert best.to_list() == table[int(np.argmin(hams))].tolist()
    assert delta * 4 == int(hams.min())


@pytest.mark.parametrize("q", [2, 257])
def test_word_values_take_the_table_dtype_after_the_range_check(q):
    field = Field(q)
    source = np.array([q - 1, 0], dtype=np.int64)
    word = Word(field, source)
    assert word.values.dtype == symbol_dtype(field)
    assert word.to_list() == [q - 1, 0]
    narrow = np.array([q - 1, 0], dtype=symbol_dtype(field))
    copied = Word(field, narrow)
    narrow[0] = 0
    assert copied[0] == q - 1
    # Narrowed before the check, 2**16 + 1 and 2**40 + 1 would wrap to 1.
    for bad in (q, 2**16 + 1, 2**40 + 1):
        with pytest.raises(ValueError):
            Word(field, np.array([0, bad], dtype=np.int64))
