"""Small exact linear algebra over prime fields, on numpy integer arrays.

All matrices are numpy int64 arrays with entries reduced mod p.  Sizes here
are tiny (at most a few dozen rows), so plain Gaussian elimination is fine.
"""

from __future__ import annotations

import numpy as np


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form and pivot column list."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
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
    if mat.size == 0:
        return mat.reshape(0, mat.shape[1] if mat.ndim == 2 else 0)
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


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One particular solution x of mat @ x = rhs, or None."""
    rows, cols = mat.shape
    aug = np.concatenate([mat % p, rhs.reshape(rows, 1) % p], axis=1)
    red, piv = rref(aug, p)
    if cols in piv:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(piv):
        x[pc] = red[r, cols]
    return x


def mat_inv(mat: np.ndarray, p: int) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1)
    red, piv = rref(aug, p)
    if piv != list(range(n)):
        raise ZeroDivisionError("matrix is singular mod p")
    return red[:, n:]


def in_row_space(vec: np.ndarray, basis: np.ndarray, p: int) -> bool:
    if basis.size == 0:
        return not np.any(vec % p)
    return rank(np.vstack([basis, vec]), p) == rank(basis, p)


def complete_basis(lower: np.ndarray, upper: np.ndarray, p: int) -> np.ndarray:
    """Rows of `upper`, taken greedily in order, completing a basis of
    `lower` to one of `upper`."""
    want = rank(upper, p) - rank(lower, p)
    span = [row % p for row in lower]
    out: list[np.ndarray] = []
    for v in upper:
        if len(out) == want:
            break
        if span:
            if in_row_space(v, np.array(span), p):
                continue
        elif not np.any(v % p):
            continue
        out.append(v % p)
        span.append(v % p)
    if len(out) != want:
        raise AssertionError("could not complete the basis")
    return np.array(out, dtype=np.int64).reshape(want, upper.shape[1])
