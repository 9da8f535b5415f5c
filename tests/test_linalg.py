import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltclab import linalg
from ltclab.errors import InconsistentSystemError, UnderdeterminedSystemError


def test_rref_identity():
    a = np.eye(3, dtype=np.int64)
    r, pivots = linalg.rref(a, 5)
    assert np.array_equal(r, a)
    assert pivots == [0, 1, 2]


def test_rank_and_null_space():
    a = np.array([[1, 1, 1]], dtype=np.int64)
    assert linalg.rank(a, 2) == 1
    ns = linalg.null_space(a, 2)
    assert ns.shape == (2, 3)
    assert not np.any((a @ ns.T) % 2)


def test_null_space_of_full_rank_square():
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert linalg.null_space(a, 5).shape == (0, 2)


def test_solve_unique():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    x = linalg.solve_unique(a, np.array([3, 2]), 5)
    assert np.array_equal((a @ x) % 5, [3, 2])


def test_solve_inconsistent():
    a = np.array([[1, 1], [1, 1]], dtype=np.int64)
    with pytest.raises(InconsistentSystemError):
        linalg.solve_unique(a, np.array([1, 2]), 5)


def test_solve_underdetermined():
    a = np.array([[1, 1]], dtype=np.int64)
    with pytest.raises(UnderdeterminedSystemError):
        linalg.solve_unique(a, np.array([1]), 5)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        linalg.as_matrix([[1, 2], [3]], 5)


@st.composite
def matrices(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return q, np.array(data, dtype=np.int64)


@given(matrices())
def test_rref_preserves_row_space(args):
    q, a = args
    r, pivots = linalg.rref(a, q)
    # Every original row reduces to zero against the RREF basis, and ranks agree.
    basis = r[: len(pivots)]
    stacked = np.concatenate([basis, a], axis=0)
    assert linalg.rank(stacked, q) == len(pivots)


@given(matrices())
def test_null_space_annihilates(args):
    q, a = args
    ns = linalg.null_space(a, q)
    assert ns.shape[0] == a.shape[1] - linalg.rank(a, q)
    if ns.shape[0]:
        assert not np.any((a @ ns.T) % q)


@given(matrices(), st.integers(1, 4), st.data())
def test_a_matrix_right_hand_side_is_solved_column_by_column(args, r, data):
    q, a = args
    symbols = st.lists(st.integers(0, q - 1), min_size=r, max_size=r)
    x = np.array(data.draw(st.lists(symbols, min_size=a.shape[1], max_size=a.shape[1])), dtype=np.int64)
    b = a @ x % q
    if linalg.rank(a, q) < a.shape[1]:
        with pytest.raises(UnderdeterminedSystemError):
            linalg.solve_unique(a, b, q)
        return
    solved = linalg.solve_unique(a, b, q)
    assert solved.shape == x.shape and np.array_equal(solved, x)
    assert np.array_equal(solved, np.stack([linalg.solve_unique(a, b[:, j], q) for j in range(r)], axis=1))


def test_one_inconsistent_column_makes_a_matrix_right_hand_side_inconsistent():
    a = np.array([[1, 2], [3, 4], [0, 0]], dtype=np.int64)  # full column rank over GF(5), with a zero row
    b = np.array([[1, 0, 2], [0, 1, 3], [0, 1, 0]], dtype=np.int64)  # only column 2 is nonzero on that row
    assert linalg.solve_unique(a, b[:, [0, 2]], 5).shape == (2, 2)
    with pytest.raises(InconsistentSystemError):
        linalg.solve_unique(a, b, 5)


def _null_space_by_loops(a, q):
    """The reference: the null-space basis built by loops over the free and pivot columns."""
    r, pivots = linalg.rref(a, q)
    n = a.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, p in enumerate(pivots):
            basis[i, p] = (-r[row, f]) % q
    return basis


@given(matrices())
def test_null_space_is_the_basis_of_the_reference_loops(args):
    # The row order fixes the message order of every derived reference code, and through it ties.
    q, a = args
    assert np.array_equal(linalg.null_space(a, q), _null_space_by_loops(a, q))


@pytest.mark.parametrize("q, rows, cols, rank", [(2, 12, 30, 9), (31, 20, 40, 13), (5, 40, 25, 25)])
def test_null_space_of_larger_matrices_is_the_basis_of_the_reference_loops(q, rows, cols, rank):
    rng = np.random.default_rng([q, rows, cols])
    a = rng.integers(0, q, size=(rows, rank)) @ rng.integers(0, q, size=(rank, cols)) % q
    basis = linalg.null_space(a, q)
    assert basis.dtype == np.int64 and np.array_equal(basis, _null_space_by_loops(a, q))
    assert not np.any((a @ basis.T) % q)
