"""Membership by re-encoding an information set, against the parity check.

Every code answers ``contains_batch`` by one rule: w is a codeword exactly when the generator S of
``_systematic``, systematic on the code's last information set, re-encodes w's symbols at its pivots into w.
Each check here compares that answer with w H^T = 0 for the code's parity check H (a tensor code's is the
flat code's), on codewords, words one symbol off and random words.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltclab import linalg
from ltclab.code import LinearCode, full_code, reed_solomon, repetition
from ltclab.errors import RankDeficiencyWarning
from ltclab.field import Field
from ltclab.tensor import TensorCode, tensor_power


def random_code(q: int, n: int, k: int, seed: int) -> LinearCode:
    """An [n, k] code over GF(q) given by a random full-rank generator that is not systematic, kept as it is."""
    rng = np.random.default_rng(seed)
    while True:
        gen = rng.integers(0, q, size=(k, n))
        if linalg.rank(gen, q) == k and not any((gen[:, cols] == np.eye(k)).all() for cols in _increasing(n, k)):
            return LinearCode(Field(q), gen, _reduced=True)


def _increasing(n: int, k: int):
    """Every strictly increasing k-tuple of columns below n, as index arrays."""
    if k == 0:
        yield np.zeros(0, dtype=np.int64)
        return
    for last in range(k - 1, n):
        for head in _increasing(last, k - 1):
            yield np.append(head, last)


def dependent_rows() -> LinearCode:
    """A [5, 2] code over GF(5) from three rows, the third the sum of the first two."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        return LinearCode.from_rows(Field(5), [[1, 2, 3, 4, 0], [0, 1, 1, 1, 1], [1, 3, 4, 0, 1]])


CODES = {
    "rs-7-3": lambda: reed_solomon(Field(7), 7, 3),
    "rs-5-2": lambda: reed_solomon(Field(5), 5, 2),
    "rs-11-4-short": lambda: reed_solomon(Field(11), 9, 4),
    "rep-2-5": lambda: repetition(Field(2), 5),
    "rep-3-4": lambda: repetition(Field(3), 4),
    "full-5-4": lambda: full_code(Field(5), 4),
    "from-rows-dependent": dependent_rows,
    "random-7-6-3": lambda: random_code(7, 6, 3, seed=1),
    "random-2-8-4": lambda: random_code(2, 8, 4, seed=2),
    "random-5-5-2": lambda: random_code(5, 5, 2, seed=3),
    "rs-7-2-x-rs-6-3": lambda: TensorCode((reed_solomon(Field(7), 7, 2), reed_solomon(Field(7), 6, 3))),
    "random-x-rs": lambda: TensorCode((random_code(5, 4, 2, seed=4), reed_solomon(Field(5), 5, 3))),
    "rep-3-cubed": lambda: tensor_power(repetition(Field(2), 3), 3),
    "rs-4-2-x-rs-3-2-x-rs-5-3": lambda: TensorCode(
        (reed_solomon(Field(5), 4, 2), reed_solomon(Field(5), 3, 2), reed_solomon(Field(5), 5, 3))
    ),
    "random-cube": lambda: TensorCode(
        (random_code(3, 3, 2, seed=5), random_code(3, 4, 2, seed=6), random_code(3, 2, 1, seed=7))
    ),
}


def parity(code: LinearCode) -> np.ndarray:
    """The code's parity check; a tensor code's is its flat code's."""
    flat = code.as_linear_code() if isinstance(code, TensorCode) else code
    return flat.parity_check


def zero_syndrome(code: LinearCode, words: np.ndarray) -> list[bool]:
    return ((words.astype(np.int64) @ parity(code).T) % code.field.q == 0).all(axis=1).tolist()


def mixed_words(code: LinearCode, batch: int, seed: int) -> np.ndarray:
    """``batch`` int64 words, cycling through a codeword, a codeword with one symbol changed and a random word."""
    rng = np.random.default_rng(seed)
    q, n = code.field.q, code.n
    words = code.encode_batch(rng.integers(0, q, size=(batch, code.k))).astype(np.int64)
    for i in range(batch):
        if i % 3 == 1:
            words[i, rng.integers(n)] += rng.integers(1, q)
        elif i % 3 == 2:
            words[i] = rng.integers(0, q, size=n)
    return words % q


@settings(max_examples=80)
@given(name=st.sampled_from(sorted(CODES)), batch=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_membership_is_a_zero_syndrome(name, batch, seed):
    code = CODES[name]()
    words = mixed_words(code, batch, seed)
    answers = code.contains_batch(words)
    assert answers.shape == (batch,) and answers.dtype == bool
    assert answers.tolist() == zero_syndrome(code, words)


@pytest.mark.parametrize("name", sorted(CODES))
def test_a_codeword_is_in_and_a_word_one_symbol_off_is_out(name):
    code = CODES[name]()
    q, n = code.field.q, code.n
    word = code.encode_batch(np.arange(code.k)[None] % q).astype(np.int64)
    off = np.repeat(word, n * (q - 1), axis=0)
    positions, shifts = np.divmod(np.arange(n * (q - 1)), q - 1)
    off[np.arange(len(off)), positions] += shifts + 1
    off %= q
    words = np.concatenate([word, off])
    answers = code.contains_batch(words).tolist()
    assert answers == zero_syndrome(code, words) and answers[0]
    if code.min_distance() > 1:  # else some words one symbol off are codewords
        assert not any(answers[1:])
    assert code.contains_batch(words[:0]).shape == (0,)
    assert code.contains_batch(word.astype(np.uint8)).tolist() == [True]


@pytest.mark.parametrize("name", sorted(CODES))
def test_the_systematic_form_is_the_identity_on_its_increasing_pivots(name):
    code = CODES[name]()
    system, pivots = code._systematic
    k, q = code.k, code.field.q
    assert system.d_known is None and len(pivots) == k and (np.diff(pivots) > 0).all()
    flat = system.as_linear_code() if isinstance(system, TensorCode) else system
    assert np.array_equal(flat.generator[:, pivots], np.eye(k, dtype=np.int64))
    # S spans the code: its codewords pass the code's parity check, and it has full rank k.
    assert not ((flat.generator @ parity(code).T) % q).any() and linalg.rank(flat.generator, q) == k


def test_a_tensor_code_takes_its_factors_forms_and_its_pivot_grid_in_row_major_order():
    code = CODES["rs-7-2-x-rs-6-3"]()
    system, pivots = code._systematic
    (s1, p1), (s2, p2) = (factor._systematic for factor in code.factors)
    assert system.factors == (s1, s2)
    assert pivots.tolist() == [i * code.shape[1] + j for i in p1.tolist() for j in p2.tolist()]
    # The last information set of each factor: RS[7,2]'s last two columns, RS[6,3]'s last three.
    assert (p1.tolist(), p2.tolist()) == ([5, 6], [3, 4, 5])


def test_membership_reads_no_parity_check():
    for name in sorted(CODES):
        code = CODES[name]()
        code.contains_batch(mixed_words(code, 4, seed=0))
        for part in (code,) + getattr(code, "factors", ()):
            assert "parity_check" not in vars(part), name
    assert "contains_batch" not in vars(TensorCode)

