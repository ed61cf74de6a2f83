"""Small exact linear algebra over prime fields, on numpy integer arrays.

All matrices are numpy int64 arrays with entries reduced mod p.  Sizes here
are tiny (at most a few dozen rows), so plain Gaussian elimination is fine.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class CheckFailed(AssertionError):
    """An identity recomputed by two routes, or an internal invariant, does
    not hold."""


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """The inverse of each residue mod p, indexed by the residue (0 at 0)."""
    table = np.array([0] + [inv_mod(c, p) for c in range(1, p)], dtype=np.int64)
    table.setflags(write=False)
    return table


def digit_table(p: int, k: int) -> np.ndarray:
    """All points of F_p^k as rows, coordinate 0 varying fastest."""
    return np.arange(p**k, dtype=np.int64)[:, None] // p ** np.arange(k) % p


def rref(mat: np.ndarray, p: int,
         pivot_cols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form and pivot column list; with ``pivot_cols``
    set, only the first that many columns are reduced (the row operations
    still act on whole rows)."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols if pivot_cols is None else pivot_cols):
        if r >= rows:
            break
        piv = None
        for i in range(r, rows):
            if m[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * inv_mod(m[r, c], p) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m % p, pivots


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(rref(mat, p)[1])


def row_space_basis(mat: np.ndarray, p: int) -> np.ndarray:
    red, piv = rref(mat, p)
    return red[: len(piv)]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Rows span the right kernel of mat."""
    rows, cols = mat.shape
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    red, piv = rref(mat, p)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(piv):
            basis[k, pc] = (-red[r, fc]) % p
    return basis


def mat_inv(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a square matrix, or of each matrix of a stack
    (leading axes), by Gauss-Jordan elimination on the first live pivot."""
    n = mat.shape[-1]
    a = np.concatenate([mat % p, np.broadcast_to(
        np.eye(n, dtype=np.int64), mat.shape)], axis=-1).reshape(-1, n, 2 * n)
    rows = np.arange(a.shape[0])
    inverses = inverse_table(p)
    singular = np.zeros(a.shape[0], dtype=bool)
    for c in range(n):
        # A singular matrix goes on with a zero pivot row, so that every
        # singular matrix of the stack is found.
        live = a[:, c:, c] != 0
        singular |= ~live.any(axis=1)
        r = c + live.argmax(axis=1)
        pivot_row = a[rows, r]
        a[rows, r] = a[:, c]
        a[:, c] = pivot_row * inverses[pivot_row[:, c]][:, None] % p
        factors = a[:, :, c].copy()
        factors[:, c] = 0
        a -= factors[:, :, None] * a[:, None, c]
        a %= p
    if singular.any():
        where = (f" (stack index {int(np.flatnonzero(singular)[0])})"
                 if mat.ndim > 2 else "")
        raise ZeroDivisionError(f"matrix is singular mod p{where}")
    return a[:, :, n:].reshape(mat.shape)


def complete_basis(lower: np.ndarray, upper: np.ndarray, p: int) -> np.ndarray:
    """Rows of `upper`, taken greedily in order, completing a basis of
    `lower` to one of `upper`.

    A row is taken exactly when it is a pivot column of one rref of the
    rows of [lower; upper] as columns: it lies outside the span of all rows
    before it."""
    stacked = np.vstack([lower, upper]) % p
    _, pivots = rref(stacked.T, p)
    want = rank(upper, p) - sum(c < len(lower) for c in pivots)
    take = [c - len(lower) for c in pivots if c >= len(lower)][:want]
    if len(take) != want:
        raise CheckFailed("could not complete the basis")
    return stacked[len(lower) + np.array(take, dtype=np.int64)]
