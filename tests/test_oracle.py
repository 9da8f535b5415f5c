"""The exact enumeration oracle against int64 brute force.

Codeword tables hold symbols row-major in the narrowest unsigned dtype and
are enumerated by linearity in groups of q**j messages, the first group built
digit by digit.  Distances compare words with the packed bit-planes of that
first group only: as they are, and shifted mod q by every later group start.
The multiples of the all-ones row over GF(17) and up are answered instead by
a histogram of each word's symbols, in blocks of rows.  Every check here
compares against a reference that shares none of that: messages from
itertools.product, an int64 matmul, and a per-row count.
"""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltclab.code
import ltclab.config
from ltclab.code import LinearCode, Word, reed_solomon, repetition, symbol_dtype
from ltclab.errors import TooLargeToEnumerateError
from ltclab.field import Field
from ltclab.harness import product_instance
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


def no_table(code):
    raise AssertionError("the distance oracle read a codeword table")


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
        mp.setattr(LinearCode, "codewords", no_table)
        if path == "chunked":
            mp.setattr(ltclab.code, "_CHUNK", 40)  # a few rows per compare step
        if path == "streamed":
            # Groups smaller than the code, so words are shifted by every later group start; no table fits.
            mp.setattr(ltclab.config, "TABLE_CELLS", 0)
            mp.setattr(ltclab.code, "_CHUNK", min(40, code.num_codewords() - 1))
        # An all-ones row over GF(17) and up (n = 1) takes the histogram side; call the plane side itself.
        oracle = code._plane_distances if code._histogram_side else code.nearest_distance_batch
        for dtype in (symbol_dtype(code.field), np.int64):
            got = oracle(words.astype(dtype))
            assert got.dtype == np.int64
            assert got.tolist() == expected
    if path == "streamed":
        assert code._group_planes.shape[2] < code.num_codewords()  # several groups


# The histogram side: q = 17 (the least q that takes it), 31 and 257 (uint16
# symbols); n = 1 and n around 64 and past 255.
HISTOGRAM_QS = [17, 31, 257]
HISTOGRAM_NS = [1, 63, 64, 65, 300]


@pytest.mark.parametrize("path", ["whole", "blocked"])
@pytest.mark.parametrize("batch", [0, 1, 5])
@pytest.mark.parametrize("n", HISTOGRAM_NS)
@pytest.mark.parametrize("q", HISTOGRAM_QS)
def test_histogram_side_matches_brute_force(q, n, batch, path):
    code = repetition(Field(q), n)
    table = reference_table(code)
    rng = np.random.default_rng([q, n, batch])
    words = rng.integers(0, q, size=(batch, n))
    if batch:
        words[:, 0], words[:, -1] = 0, q - 1
    if batch > 2:
        words[1], words[2] = q - 1, table[rng.integers(1, q)]
        words[2, 0] = (words[2, 0] + 1) % q  # one symbol off a nonzero codeword
        words[3] = 0
    expected = reference_distances(table, words)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearCode, "codewords", no_table)
        if path == "blocked":
            mp.setattr(ltclab.code, "_CHUNK", 4)  # blocks of 64 symbols and bins: 1 to 3 rows
        for dtype in (symbol_dtype(code.field), np.int64):
            got = code.nearest_distance_batch(words.astype(dtype))
            assert got.dtype == np.int64
            assert got.tolist() == expected


@pytest.mark.parametrize(
    "code, histogram",
    [
        pytest.param(repetition(Field(13), 20), False, id="ones-13"),
        pytest.param(repetition(Field(17), 20), True, id="ones-17"),
        pytest.param(tensor_power(reed_solomon(Field(17), 4, 1), 2), True, id="ones-17-tensor"),
        pytest.param(systematic_code(17, 1, 20, seed=17), False, id="mixed-17"),
        pytest.param(systematic_code(31, 2, 20, seed=31), False, id="k2-31"),
        pytest.param(repetition(Field(2), 20), False, id="ones-2"),
    ],
)
def test_the_histogram_side_answers_the_all_ones_row_from_gf17(code, histogram):
    # The side depends only on the code: a plane-side call builds the planes of the first group.
    words = np.zeros((2, code.n), dtype=np.int64)
    words[1, 0] = 1
    expected = reference_distances(reference_table(code), words)
    assert code.nearest_distance_batch(words).tolist() == expected
    assert ("_group_planes" in code.__dict__) != histogram


@pytest.mark.parametrize("q", [13, 17])
def test_both_sides_check_residues_then_the_threshold(monkeypatch, q):
    code = repetition(Field(q), 5)
    monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", q - 1)
    with pytest.raises(ValueError) as err:
        code.nearest_distance_batch(np.full((1, 5), q))
    assert not isinstance(err.value, TooLargeToEnumerateError)
    with pytest.raises(TooLargeToEnumerateError) as err:
        code.nearest_distance_batch(np.zeros((1, 5), dtype=np.int64))
    assert (err.value.budget, err.value.requested) == ("ENUMERATION_THRESHOLD", q)


def test_a_cube_batch_of_views_and_distances_stays_small():
    # RS[31,1,31]^3: 256 words hold 7.6 MB, their 93 views each 22.9 MB.  The plane compare peaked at 83 MB.
    instance = product_instance(reed_solomon(Field(31), 31, 1), 3)
    words = np.random.default_rng(0).integers(0, 31, size=(256, 31**3)).astype(np.uint8)
    tracemalloc.start()
    try:
        views = instance.view_hammings_batch(words)
        deltas = instance.delta_hammings_batch(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert views.shape == (256, 93) and deltas.shape == (256,)
    assert peak < 40 * 10**6


def test_a_histogram_block_bounds_its_bins_as_well_as_its_symbols():
    # RS[8,1] over GF(65521): 500 words hold 8 KB, but each row needs 65521 bins, 262 MB in one block.
    code = reed_solomon(Field(65521), 8, 1)
    words = np.random.default_rng(0).integers(0, 65521, size=(500, 8)).astype(np.uint16)
    words[0] = 7
    tracemalloc.start()
    try:
        got = code.nearest_distance_batch(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [8 - max(Counter(w.tolist()).values()) for w in words]
    assert peak < 8 * 10**6


def test_a_histogram_block_of_a_few_wide_field_words_bounds_its_bins():
    # As above on 24 words, so that a block bounded by its symbols alone holds 13 MB of bins, not 262 MB.
    code = reed_solomon(Field(65521), 8, 1)
    words = np.random.default_rng(1).integers(0, 65521, size=(24, 8)).astype(np.uint16)
    words[3] = 65520
    tracemalloc.start()
    try:
        got = code.nearest_distance_batch(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [8 - max(Counter(w.tolist()).values()) for w in words]
    assert peak < 8 * 10**6


@pytest.mark.parametrize("n, q, lanes", [(67, 17, 1), (68, 17, 4), (8, 65521, 1), (961, 31, 4), (123, 31, 1)])
def test_lanes_only_where_a_row_is_long_next_to_its_bins(n, q, lanes):
    assert ltclab.code.lane_count(n, q) == lanes
    table = ltclab.code.count_offsets(np.zeros((1, n), dtype=np.uint8), 1, q)
    assert table[0].tolist() == [v % lanes * q for v in range(n)]


@pytest.mark.parametrize("n, q, groups", [(40, 17, 3), (200, 17, 5), (9, 257, 2)])
def test_max_counts_gives_each_group_and_the_total_over_groups(n, q, groups):
    rng = np.random.default_rng([n, q])
    labels = rng.integers(0, groups, size=(2, n))  # two table rows: a position counts in two groups
    words = rng.integers(0, q, size=(7, n))
    words[1] = 3
    words[2, : n // 2] = 5
    most, total = ltclab.code.max_counts(words, ltclab.code.count_offsets(labels, groups, q), q, groups)
    counts = np.zeros((7, groups, q), dtype=np.int64)
    for r, word in enumerate(words):
        for row in labels:
            np.add.at(counts[r], (row, word), 1)
    assert most.tolist() == counts.max(axis=2).tolist()
    assert total.tolist() == counts.sum(axis=1).max(axis=1).tolist()


def test_the_cube_view_table_is_built_narrow_on_first_use():
    # 3 x 29791 uint16 offsets hold 179 KB; the sort's int64 indices 715 KB.
    instance = product_instance(reed_solomon(Field(31), 31, 1), 3)
    assert "_view_offsets" not in instance.__dict__
    tracemalloc.start()
    try:
        table = instance._view_offsets
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (3, 31**3) and table.dtype == np.uint16 and not table.flags.writeable
    assert peak < 1.5 * 10**6


def row_octets(planes: np.ndarray) -> np.ndarray:
    """The (b, R, 8 * W) octets of the rows of (b, W, R) planes, row by row."""
    return np.ascontiguousarray(planes.transpose(0, 2, 1)).view(np.uint8)


@pytest.mark.parametrize("q, k, n", PLANE_CODES)
def test_planes_unpack_to_the_codewords(q, k, n):
    code = plane_code(q, k, n)
    span, block_rows = q**code.k, min(ltclab.code._CHUNK, (ltclab.code._CHUNK << 8) // n)
    while span > max(block_rows, q):  # the first group: the largest power of q within both, or q
        span //= q
    symbols = code.codewords()[:span]
    planes = code._group_planes
    bits, width, rows = planes.shape
    assert (bits, width, rows) == ((q - 1).bit_length(), -(-n // 64), span)
    assert planes.dtype == np.uint64 and not planes.flags.writeable
    unpacked = np.unpackbits(row_octets(planes), axis=2).astype(np.int64)
    assert not unpacked[:, :, n:].any()  # the padding past n is zero
    assert np.array_equal((unpacked[:, :, :n] << np.arange(bits)[:, None, None]).sum(axis=0), symbols)


@pytest.mark.parametrize(
    "q, k, n",
    [(5, 2, 30), (2, 2, 4), (2, 3, 12), (31, 1, 40), (2, 6, 10), (5, 3, 20), (257, 1, 20)],
)
def test_every_cached_table_has_planes(q, k, n):
    # Wide (q**k <= n) and tall tables alike, of both symbol dtypes; each is one group.
    code = systematic_code(q, k, n, seed=1)
    code.nearest_distance_batch(np.zeros((1, n), dtype=np.int64))
    planes = code.__dict__["_group_planes"]
    assert planes.shape == ((q - 1).bit_length(), -(-n // 64), q**k)
    assert planes.dtype == np.uint64 and not planes.flags.writeable


@pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 65])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_pack_matches_per_row_packbits(n, dtype):
    bits = 9 if dtype != np.uint8 else 8
    values = np.random.default_rng(n).integers(0, 1 << bits, size=(5, n)).astype(dtype)
    values[0], values[1] = 0, (1 << bits) - 1
    out = ltclab.code._pack(values, bits)
    assert out.shape == (bits, -(-n // 64), 5) and out.dtype == np.uint64
    assert out.flags.c_contiguous  # W-major
    octets = row_octets(out)
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
    assert code._group_planes.shape[1] == 5


# Codes of several groups over GF(q), q > 2, as (code, _CHUNK): the chunk sets
# the group size q**j below q**k.  Over GF(2), w - c_s = w + c_s, so a shift
# that added c_s without reducing it mod q would go unseen there.
SEVERAL_GROUPS = [
    pytest.param(lambda: reed_solomon(Field(5), 4, 3), 7, id="rs5-4-3"),  # 25 groups of 5
    pytest.param(lambda: systematic_code(5, 3, 20, seed=5), 30, id="random5-20-3"),  # 5 groups of 25
    pytest.param(lambda: reed_solomon(Field(7), 7, 5), 60, id="rs7-7-5"),  # 343 groups of 49
    pytest.param(lambda: systematic_code(257, 2, 12, seed=257), 300, id="uint16"),  # 257 groups of 257
]


@pytest.mark.parametrize("batch", [1, 9])
@pytest.mark.parametrize("make, chunk", SEVERAL_GROUPS)
def test_shifted_words_match_brute_force_over_several_groups(make, chunk, batch):
    code = make()
    q, table = code.field.q, reference_table(code)
    total = len(table)
    rng = np.random.default_rng(total)
    words = rng.integers(0, q, size=(9, code.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ltclab.code, "_CHUNK", chunk)
        span = code._group_planes.shape[2]
        assert 1 < span < total
        # Codewords of the second, a middle and the last group, two of them a symbol off.
        words[:5] = table[[span, span + 1, total // 2 + 3, total - span, total - 1]]
        words[1, 0] = (words[1, 0] + 1) % q
        words[3, -1] = (words[3, -1] + 2) % q
        words = np.roll(words, -4, axis=0)[:batch]  # a batch of one is a last-group codeword
        expected = reference_distances(table, words)
        for dtype in (symbol_dtype(code.field), np.int64):
            assert code.nearest_distance_batch(words.astype(dtype)).tolist() == expected


def test_a_field_past_the_rows_of_a_block_keeps_groups_of_q_codewords(monkeypatch):
    # GF(65521) is past the 16,384 rows of a block of length-20 words; its 65,521 codewords
    # fit TABLE_CELLS, so they are one group, and a word is compared with no shift.
    code = systematic_code(65521, 1, 20, seed=65521)
    table = reference_table(code)
    words = np.random.default_rng(65521).integers(0, 65521, size=(5, 20))
    words[0], words[1] = table[-1], table[40000]
    words[1, 3] = (words[1, 3] + 1) % 65521
    assert code.nearest_distance_batch(words).tolist() == reference_distances(table, words)
    assert code._group_planes.shape[2] == 65521
    # With _CHUNK = 64, GF(257) is past the 64 rows of a block of length-12 words: the groups
    # of 257 codewords are yielded 64 rows at a time.
    monkeypatch.setattr(ltclab.code, "_CHUNK", 64)
    code = systematic_code(257, 2, 12, seed=257)
    table = reference_table(code)
    starts = [(s + r, min(64, 257 - r)) for s in range(0, len(table), 257) for r in range(0, 257, 64)]
    assert [(s, len(block)) for s, block in code._blocks()] == starts
    assert np.array_equal(code.codewords(), table)
    words = np.random.default_rng(257).integers(0, 257, size=(5, 12))
    words[0] = table[-100]
    assert code.nearest_distance_batch(words).tolist() == reference_distances(table, words)
    assert code._group_planes.shape[2] == 257


def test_the_distance_oracle_builds_no_table_and_never_reaches_table_cells(monkeypatch):
    code = reed_solomon(Field(7), 7, 5)
    table = reference_table(code)
    words = np.random.default_rng(7).integers(0, 7, size=(6, 7))
    words[0] = table[-1]
    monkeypatch.setattr(ltclab.config, "TABLE_CELLS", 0)
    with monkeypatch.context() as mp:
        mp.setattr(LinearCode, "codewords", no_table)
        assert code.nearest_distance_batch(words).tolist() == reference_distances(table, words)
    assert code._group_planes.shape[2] < len(table)
    with pytest.raises(TooLargeToEnumerateError):
        code.codewords()


def near_codewords(code, count: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """``count`` codewords from messages spread over the code, word i with i symbols changed.

    Each is i from the code while 2 * i is below its minimum distance.
    """
    q, k, n = code.field.q, code.k, code.n
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, q, size=(count, k))
    words = (messages @ code.generator) % q
    for i, word in enumerate(words):
        cols = rng.choice(n, size=i, replace=False)
        word[cols] = (word[cols] + rng.integers(1, q, size=i)) % q
    return words.astype(symbol_dtype(code.field)), list(range(count))


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_many_groups_and_words_of_a_long_code_stay_small():
    # A [2000, 7] code over GF(5): 125 groups of 625; its table (156M cells) is past TABLE_CELLS.
    # The first 1001 columns repeat the unit vectors, so the minimum distance is at least 143.
    gen = np.random.default_rng(2000).integers(0, 5, size=(7, 2000))
    gen[:, :1001] = np.tile(np.eye(7, dtype=np.int64), 143)
    code = LinearCode(Field(5), gen)
    words, expected = near_codewords(code, 10, seed=5)
    got, peak = traced_peak(lambda: code.nearest_distance_batch(words))
    assert got.tolist() == expected
    assert code._group_planes.shape[2] == 625
    assert peak < 12 * 10**6


def test_many_words_of_the_long_code_of_blocks_stay_small():
    # The [16000, 2] code over GF(31) of the block test: 31 groups of 31, 40 words of 16,000.
    code = LinearCode(Field(31), np.random.default_rng(0).integers(0, 31, size=(2, 16000)))
    messages = itertools.islice(itertools.product(range(31), repeat=2), 1, None)
    assert min(np.count_nonzero((np.array(m) @ code.generator) % 31) for m in messages) > 80
    words, expected = near_codewords(code, 40, seed=31)
    got, peak = traced_peak(lambda: code.nearest_distance_batch(words))
    assert got.tolist() == expected
    assert peak < 20 * 10**6


@pytest.mark.parametrize("cells, span", [(ltclab.config.TABLE_CELLS, 5), (0, 1)])
@pytest.mark.parametrize("batch", [1, 40, 60])
def test_a_block_of_shifted_words_holds_a_bounded_number_of_symbols(monkeypatch, batch, cells, span):
    # _CHUNK = 4: blocks of at most 1024 symbols, and groups of 5 codewords, past the 4 rows
    # of a block as 5 codewords fit TABLE_CELLS, or else of one codeword, 125 of them.
    n = 20
    code = systematic_code(5, 3, n, seed=4)
    words = np.random.default_rng(batch).integers(0, 5, size=(batch, n))
    expected = reference_distances(reference_table(code), words)
    monkeypatch.setattr(ltclab.code, "_CHUNK", 4)
    monkeypatch.setattr(ltclab.config, "TABLE_CELLS", cells)
    assert code._group_planes.shape[2] == span
    sizes, pack = [], ltclab.code._pack

    def spy(values, *args):
        if values is not words:
            sizes.append(values.size)
        return pack(values, *args)

    monkeypatch.setattr(ltclab.code, "_pack", spy)
    assert code.nearest_distance_batch(words).tolist() == expected
    assert sum(sizes) >= (125 // span - 1) * batch * n  # every later group start shifts every word
    assert max(sizes) <= 4 << 8


@pytest.mark.parametrize("chunk", [7, 100, ltclab.code._CHUNK])
@pytest.mark.parametrize(
    "code",
    [
        reed_solomon(Field(5), 4, 3),  # 125 codewords in groups of 5 or 25
        reed_solomon(Field(257), 3, 1),  # one group of 257 rows, yielded in blocks of _CHUNK rows
        systematic_code(2, 8, 5 + 8, seed=3),
        tensor_power(reed_solomon(Field(5), 3, 2), 2),  # 625 = 6 * 100 + 25 rows
    ],
    ids=["rs5", "rs257", "binary", "tensor"],
)
def test_codewords_follow_message_order(monkeypatch, code, chunk):
    monkeypatch.setattr(ltclab.code, "_CHUNK", chunk)
    code.__dict__.pop("_group", None)
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
