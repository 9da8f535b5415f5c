"""Dense exact linear algebra modulo a prime.

Matrices are numpy int64 arrays with entries in ``[0, q)``.  All routines are
exact: reductions happen in arbitrary-precision integer space before the final
``% q``.  Entries stay below 2**16 and inner dimensions below 2**30, so int64
accumulators cannot overflow.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentSystemError, UnderdeterminedSystemError


def as_matrix(rows, q: int) -> np.ndarray:
    """Validate a rectangular integer matrix and reduce entries mod q."""
    try:
        a = np.array(rows)
    except (ValueError, TypeError) as exc:
        raise ValueError("matrix rows must be rectangular sequences of integers") from exc
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"matrix entries must be integers, got dtype {a.dtype}")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return np.mod(a, q).astype(np.int64, copy=False)


def kron(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    return np.kron(a, b) % q


def rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q); returns (matrix, pivot columns)."""
    r = np.mod(a, q).astype(np.int64)
    rows, cols = r.shape
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr == rows:
            break
        nz = np.nonzero(r[pr:, c])[0]
        if nz.size == 0:
            continue
        p = pr + int(nz[0])
        if p != pr:
            r[[pr, p]] = r[[p, pr]]
        inv = pow(int(r[pr, c]), q - 2, q)
        r[pr] = (r[pr] * inv) % q
        col = r[:, c].copy()
        col[pr] = 0
        r = (r - np.outer(col, r[pr])) % q
        pivots.append(c)
        pr += 1
    return r, pivots


def rank(a: np.ndarray, q: int) -> int:
    return len(rref(a, q)[1])


def row_basis(a: np.ndarray, q: int) -> np.ndarray:
    """A full-rank matrix in RREF whose rows span the row space of ``a``."""
    r, pivots = rref(a, q)
    return r[: len(pivots)]


def null_space(a: np.ndarray, q: int) -> np.ndarray:
    """Rows spanning ``{x : a @ x = 0}``; shape (n - rank, n)."""
    r, pivots = rref(a, q)
    free = np.setdiff1d(np.arange(a.shape[1]), pivots)
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free].T) % q
    return basis


def solve_unique(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Solve ``a @ x = b`` for the unique x over GF(q).

    Raises InconsistentSystemError if no solution exists and
    UnderdeterminedSystemError if the solution is not unique.
    """
    b = np.mod(np.asarray(b, dtype=np.int64), q)
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side shape does not match the matrix")
    aug = np.concatenate([np.mod(a, q).astype(np.int64), b[:, None]], axis=1)
    r, pivots = rref(aug, q)
    n = a.shape[1]
    if n in pivots:
        raise InconsistentSystemError("system has no solution")
    if len(pivots) < n:
        raise UnderdeterminedSystemError(
            f"system rank {len(pivots)} < {n} unknowns"
        )
    x = np.zeros(n, dtype=np.int64)
    for row, p in enumerate(pivots):
        x[p] = r[row, n]
    return x
