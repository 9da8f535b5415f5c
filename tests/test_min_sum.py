"""The min-sum side of a tensor code's distance oracle against int64 brute force.

A codeword of Y (x) X is, slice by slice along the last axis, Y's codeword of sum_l R[l, j] u_l for the rows R of
X's ``_systematic`` generator, systematic on X's last information set; the min-sum side takes the least of the
per-slice distances over all message tuples.  Each check here
compares with every codeword, encoded from itertools.product messages by an int64 Kronecker matmul, and counted
word by word.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import ltclab.config
import ltclab.tensor
from ltclab import linalg
from ltclab.code import LinearCode, reed_solomon, repetition
from ltclab.errors import TooLargeToEnumerateError
from ltclab.field import Field
from ltclab.harness import instance_from_specs
from ltclab.tensor import TensorCode, tensor_power


def random_code(q: int, n: int, k: int, seed: int) -> LinearCode:
    """An [n, k] code over GF(q) given by a random full-rank generator, kept as it is: not systematic."""
    rng = np.random.default_rng(seed)
    while True:
        gen = rng.integers(0, q, size=(k, n))
        if linalg.rank(gen, q) == k:
            return LinearCode(Field(q), gen, _reduced=True)


def brute_distances(code: TensorCode, words: np.ndarray) -> list[int]:
    """Least Hamming distances over every codeword, a chunk of int64 codewords at a time."""
    q, gen = code.field.q, functools.reduce(np.kron, (f.generator for f in code.factors))
    best = np.full(len(words), code.n, dtype=np.int64)
    messages = np.array(list(itertools.product(range(q), repeat=code.k)), dtype=np.int64)
    for s in range(0, len(messages), 4096):
        table = messages[s : s + 4096] @ gen % q
        for i, word in enumerate(words.astype(np.int64)):
            best[i] = min(best[i], int(np.count_nonzero(table != word, axis=1).min()))
    return best.tolist()


def sample_words(code: TensorCode, batch: int, seed: int) -> np.ndarray:
    """Random words, the first a codeword and the second a codeword with two symbols changed."""
    rng = np.random.default_rng(seed)
    q = code.field.q
    words = rng.integers(0, q, size=(batch, code.n))
    near = code.encode_batch(rng.integers(0, q, size=(2, code.k)))
    near[1, :2] = (near[1, :2] + 1) % q
    words[: min(batch, 2)] = near[:batch]
    return words


# Each code fills more than one group.  k_X = 3, 2 and 1; m = 2 and 3; unequal factors; RS factors, which are not
# systematic, and random full-rank ones; and RS[18,2]^2 over GF(19), whose n = 324 needs a uint16 accumulator.
CODES = {
    "rs7-2x3": lambda: TensorCode((reed_solomon(Field(7), 7, 2), reed_solomon(Field(7), 7, 3))),
    "rs7-3x2": lambda: TensorCode((reed_solomon(Field(7), 7, 3), reed_solomon(Field(7), 6, 2))),
    "rs7-6x1": lambda: TensorCode((reed_solomon(Field(7), 7, 6), reed_solomon(Field(7), 5, 1))),
    "gf3-m3": lambda: TensorCode((random_code(3, 4, 3, 1), random_code(3, 3, 1, 2), random_code(3, 5, 3, 3))),
    "gf2-m3-kx2": lambda: TensorCode((random_code(2, 5, 4, 4), random_code(2, 3, 2, 5), random_code(2, 4, 2, 6))),
    "rs19-18x18": lambda: tensor_power(reed_solomon(Field(19), 18, 2), 2),
}
BATCHES = {"rs19-18x18": [9]}  # two lanes of 8 words and one of 1


@pytest.mark.parametrize(
    "name, batch", [(name, batch) for name in CODES for batch in BATCHES.get(name, [0, 1, 16, 17])]
)
def test_the_min_sum_side_matches_brute_force(name, batch):
    code = CODES[name]()
    words = sample_words(code, batch, seed=batch)
    expected = brute_distances(code, words)
    assert code.nearest_distance_batch(words).tolist() == expected  # the side the batch pays for
    got = code._min_sum_distances(words)
    assert code._min_sum_side and got.dtype == np.int64 and got.tolist() == expected
    if name == "rs19-18x18":
        assert code._min_sum_plan.acc == np.uint16 and code._min_sum_plan.lanes == 8


@functools.lru_cache(maxsize=None)
def words_and_distances(name: str) -> tuple[np.ndarray, tuple[int, ...]]:
    code = CODES[name]()
    words = sample_words(code, 17, seed=17)
    return words, tuple(brute_distances(code, words))


# Block bounds of a few cells, as (code, _CHUNK, message l* holding the split, fixed digits of the inner plans):
# the split in the first, a middle or the last message, and the last message's fixed digits read through a
# translated table.
BLOCKS = [
    ("gf3-m3", 1, 2, 1),
    ("gf3-m3", 8, 1, 0),
    ("gf3-m3", 256, 0, 0),
    ("gf2-m3-kx2", 8, 1, 1),
    ("gf2-m3-kx2", 64, 0, 0),
    ("rs7-6x1", 256, 0, 2),
    ("rs7-6x1", 4096, 0, 1),
    ("rs7-3x2", 32, 1, 0),
    ("rs7-3x2", 256, 0, 0),
    ("rs7-2x3", 32, 1, 0),
]


def last_tuple_codeword(code: TensorCode) -> np.ndarray:
    """The codeword of the message tuple whose every digit is q - 1, which the last block holds: each u_l is the
    Y message (q - 1, ..., q - 1), so slice j is Y's codeword of it times the sum of column j of the rows that the
    plan reads, X's systematic generator."""
    *lead, last = code.factors
    q = code.field.q
    y = TensorCode(lead).encode_batch(np.full((1, code.k // last.k), q - 1))[0].astype(np.int64)
    rows = last._systematic[0].generator
    assert code._min_sum_plan.pivots is last._systematic[1]
    return (y[:, None] * rows.sum(axis=0)[None, :] % q).reshape(1, -1)


@pytest.mark.parametrize("name, chunk, split, low", BLOCKS)
def test_the_min_sum_side_matches_brute_force_in_any_blocks(monkeypatch, name, chunk, split, low):
    monkeypatch.setattr(ltclab.tensor, "_CHUNK", chunk)
    code = CODES[name]()
    words, expected = words_and_distances(name)
    last = last_tuple_codeword(code)
    assert code.contains_batch(last).all()
    words = np.concatenate([words, last])
    assert code._min_sum_distances(words).tolist() == list(expected) + [0]
    plan = code._min_sum_plan
    assert (plan.split, plan.low) == (split, low) and len(plan.starts[0]) > 1


@pytest.mark.parametrize(
    "batch, side", [(1, "planes"), (2, "planes"), (5, "min-sum"), (15, "min-sum"), (40, "min-sum")]
)
def test_a_batch_takes_the_min_sum_side_where_it_pays(monkeypatch, batch, side):
    # tanner_sweep's reference: three planes of one uint64 a word, against 3 x 4 table reads per 16 words.
    full = instance_from_specs("product:n=4,m=3", "rs:q=5,n=4,k=2^2").full
    words = sample_words(full, batch, seed=batch)
    sides = []
    for name in ("_min_sum_distances", "_plane_distances"):
        original = getattr(type(full), name)
        monkeypatch.setattr(type(full), name, lambda self, w, f=original, n=name: sides.append(n) or f(self, w))
    assert full.nearest_distance_batch(words).tolist() == full.as_linear_code().nearest_distance_batch(words).tolist()
    assert sides[:1] == [{"planes": "_plane_distances", "min-sum": "_min_sum_distances"}[side]]


def test_the_tanner_reference_takes_the_min_sum_side_in_one_span(monkeypatch):
    full = instance_from_specs("product:n=4,m=3", "rs:q=5,n=4,k=2^2").full
    words = sample_words(full, 15, seed=3)
    expected = full.as_linear_code().nearest_distance_batch(words)

    def refuse(*args):
        raise AssertionError("the min-sum side called a LinearCode oracle")

    monkeypatch.setattr(LinearCode, "nearest_distance_batch", refuse)
    monkeypatch.setattr(LinearCode, "codewords", refuse)
    monkeypatch.setattr(LinearCode, "_plane_distances", refuse)
    assert isinstance(full, TensorCode) and full._min_sum_side
    assert full.nearest_distance_batch(words).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "make",
    [
        lambda: tensor_power(reed_solomon(Field(3), 3, 2), 3),  # one group
        lambda: TensorCode((reed_solomon(Field(5), 5, 3), reed_solomon(Field(5), 5, 2), reed_solomon(Field(5), 5, 1))),
        lambda: tensor_power(reed_solomon(Field(31), 31, 1), 3),  # the histogram side
        lambda: tensor_power(repetition(Field(17), 4), 2),  # the histogram side
        lambda: TensorCode((reed_solomon(Field(7), 7, 2),)),  # one factor
    ],
    ids=["rs3-cube", "rs5-3x2x1", "rs31-cube", "rep17-square", "one-factor"],
)
def test_single_group_and_histogram_codes_never_take_the_min_sum_side(monkeypatch, make):
    def refuse(*args):
        raise AssertionError("the min-sum side was taken")

    monkeypatch.setattr(TensorCode, "_min_sum_distances", refuse)
    code = make()
    words = sample_words(code, 3, seed=1)
    got = code.nearest_distance_batch(words)
    assert not code._min_sum_side and "_min_sum_plan" not in code.__dict__
    if code.num_codewords() * code.n <= 1 << 20:
        assert got.tolist() == brute_distances(code, words)


def test_an_enumeration_refusal_is_raised_identically_before_any_work(monkeypatch):
    factor = instance_from_specs("product:n=4,m=3", "rs:q=5,n=4,k=2^2").full
    flat = factor.as_linear_code()
    monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", 5**8 - 1)
    refusals = []
    for code in (factor, flat):
        with pytest.raises(TooLargeToEnumerateError) as err:
            code.nearest_distance_batch(np.zeros((2, 64), dtype=np.uint8))
        refusals.append((err.value.budget, err.value.requested, err.value.limit, str(err.value)))
    assert refusals[0] == refusals[1] and refusals[0][:2] == ("ENUMERATION_THRESHOLD", 5**8)
    assert not {"_min_sum_side", "_min_sum_plan", "_histogram_side", "_group"} & set(factor.__dict__)
    monkeypatch.setattr(ltclab.config, "ENUMERATION_THRESHOLD", 5**8)
    assert factor.nearest_distance_batch(np.zeros((2, 64), dtype=np.uint8)).tolist() == [0, 0]
    assert factor._min_sum_side


def test_the_group_starts_of_a_table_are_encoded_in_one_call(monkeypatch):
    full = instance_from_specs("product:n=4,m=3", "rs:q=5,n=4,k=2^2").full
    calls = []
    encode = TensorCode.encode_batch
    monkeypatch.setattr(TensorCode, "encode_batch", lambda self, m: calls.append(len(m)) or encode(self, m))
    table = full.codewords()
    assert len(full._group) == 5**6 and calls == [6, 25]  # the group's unit codewords, then all 25 group starts
    assert np.array_equal(table[-3:], full.as_linear_code().codewords()[-3:])


def test_a_derived_full_space_reference_holds_one_copy_of_its_identity():
    # The n_left x n_left int64 identity is 2 MiB; the code takes it as it is built, with no second copy.
    tracemalloc.start()
    try:
        instance = instance_from_specs("product:n=8,m=3", "full:q=2,n=8^2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    identity = 8 * 512**2
    assert instance.full.generator.nbytes == identity and not instance.full.generator.flags.writeable
    assert identity <= peak < 1.25 * identity
