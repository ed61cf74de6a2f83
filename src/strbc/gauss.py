"""Quadratic Gauss sums over finite-dimensional F_q-spaces.

Two independent evaluation routes are provided and cross-checked everywhere:

* ``gauss_sum_brute`` enumerates every point of F_q^n and adds the exact
  character values (the oracle route; refuses to run past a configured bound
  rather than approximate);
* ``gauss_sum_closed`` diagonalizes the Gram matrix by congruence
  transformations and returns chi(det S) * g(psi)^n with g(psi) the
  one-dimensional sum.

``normalized_sign`` divides by the square root of the space size and
returns the quotient, an int +1 or -1.  It refuses a space of odd
F_p-dimension, where the quotient is not rational; every form the package
builds has even F_p-dimension.

A ``QuadSpace`` holds its Gram matrix only as a read-only int64 (n, n, f)
array of polynomial-basis coefficients; the diagonalization and
``prime_gram`` multiply through ``FqField.mul_tensor``.
"""

from __future__ import annotations

import threading
from functools import cached_property, lru_cache

import numpy as np

from ._modp import CheckFailed, digit_table
from .cyclotomic import CycNum
from .finite_field import (
    AddChar,
    FqElem,
    FqField,
    MixedFields,
    quadratic_residue_char,
)

DEFAULT_ENUMERATION_BOUND = 10**7


class EnumerationTooLarge(ValueError):
    pass


class TrivialAdditiveCharacter(ValueError):
    pass


class DegenerateForm(ValueError):
    pass


class QuadSpace:
    """A quadratic form Q(x) = x^T S x on F_q^n, S symmetric, held as gram:
    the read-only int64 (n, n, f) array of the coefficients of S."""

    def __init__(self, field: FqField, gram):
        """gram: an int (n, n, f) array of the coefficients of S."""
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square")
        gram = np.array(gram, dtype=np.int64).reshape(n, n, field.f) % field.p
        if (gram != gram.swapaxes(0, 1)).any():
            raise ValueError("Gram matrix must be symmetric")
        gram.setflags(write=False)
        self.field = field
        self.dim = n
        self.gram = gram

    @staticmethod
    def from_ints(field: FqField, rows) -> "QuadSpace":
        """The form with prime-field entries rows, lists or an (n, n) array."""
        ints = np.array(rows, dtype=np.int64)
        return QuadSpace(field, ints[..., None] * np.eye(field.f, dtype=np.int64)[0])

    @cached_property
    def _diagonal(self) -> tuple[FqElem, ...]:
        """Diagonal of the congruence-diagonalized Gram matrix, computed once.

        Int64 elimination on the (n, n, f) coefficient array: each pivot
        clears its row and column with one Schur step on the trailing block,
        multiplying through the field's mul_tensor."""
        fld, n, p = self.field, self.dim, self.field.p
        mul = fld.mul_tensor
        m = self.gram.copy()
        diag = []
        for i in range(n):
            if not m[i, i].any():
                piv = next((r for r in range(i + 1, n) if m[r, r].any()), None)
                if piv is not None:
                    m[[i, piv]] = m[[piv, i]]
                    m[:, [i, piv]] = m[:, [piv, i]]
                else:
                    # Standard char != 2 pivot repair: e_i <- e_i + e_j with
                    # B(e_i, e_j) != 0 turns the zero diagonal entry into
                    # 2 S_ij != 0.
                    piv = next((r for r in range(i + 1, n) if m[i, r].any()), None)
                    if piv is not None:
                        m[i] += m[piv]
                        m[:, i] += m[:, piv]
                        m %= p
            pivot = fld.element(tuple(m[i, i].tolist()))
            diag.append(pivot)
            if pivot:
                # Schur step: S_rc -= (S_ri / S_ii) S_ic on the trailing block.
                inv = np.array(pivot.inverse().coeffs, dtype=np.int64)
                quot = np.einsum("rj,k,jkl->rl", m[i + 1:, i], inv, mul) % p
                m[i + 1:, i + 1:] -= np.einsum("rj,ck,jkl->rcl", quot, m[i, i + 1:], mul)
                m %= p
        return tuple(diag)

    def det(self) -> FqElem:
        """det S: every congruence step has determinant +-1, which squares
        to 1, so it is the product of the diagonal."""
        det = self.field.one()
        for d in self._diagonal:
            det = det * d
        return det

    def is_nondegenerate(self) -> bool:
        return all(self._diagonal)

    def prime_gram(self, psi: AddChar) -> np.ndarray:
        """Gram of the F_p-quadratic form x -> Tr(a Q(x)) after restriction
        of scalars, on the coordinates of the F_p-basis of F_q^n.

        The entry at (i, b), (j, c) is the bilinear form Tr(a S_ij w_b w_c)
        on the basis vectors w_b e_i and w_c e_j, with w_b = t^b."""
        fld, n, f, p = self.field, self.dim, self.field.f, self.field.p
        if psi.field != fld:
            raise MixedFields(f"character over {psi.field}, space over {fld}")
        mul = fld.mul_tensor
        # trip[x, b, c] = Tr(t^x w_b w_c); scaled[i, j] = a S_ij.
        trip = np.einsum("bcy,xyl,l->xbc", mul, mul, fld.trace_vector)
        twist = np.array(psi.twist.coeffs, dtype=np.int64)
        scaled = np.einsum("k,ijy,kyx->ijx", twist, self.gram, mul)
        return np.einsum("ijx,xbc->ibjc", scaled % p, trip).reshape(n * f, n * f) % p


def _phase_histogram(gram: np.ndarray, p: int, threads: int = 1) -> np.ndarray:
    """Counts of x^T G x mod p over all of F_p^d, d = gram.shape[0].

    Every point is evaluated, in integers, through split coordinates
    x = (x_lo, x_hi), m = ceil(d/2) of them in x_lo:
    Q(x) = Q_lo(x_lo) + Q_hi(x_hi) + sum_k (c_k x_k mod p), c = C x_hi,
    C = G_hl + G_lh^T.  Q_lo and Q_hi are tabulated once.  A block of x_hi
    rows builds its values over the x_lo grid as nested outer sums of a
    (rows, m, p) table of c_k t mod p, coordinate 0 fastest.  No value is
    reduced: each, at most (m+2)(p-1), is held in the smallest unsigned
    dtype and counted as it is, and the counts are folded mod p once.  A
    block holds about 2^16 points, or one x_hi row when the x_lo grid is
    larger than that."""
    d = gram.shape[0]
    g = np.asarray(gram, dtype=np.int64) % p
    m = (d + 1) // 2
    lo, hi = digit_table(p, m), digit_table(p, d - m)
    top = (m + 2) * (p - 1) + 1
    dt = np.min_scalar_type(top - 1)
    q_lo = (((lo @ g[:m, :m]) * lo).sum(axis=1) % p).astype(dt)
    q_hi = (((hi @ g[m:, m:]) * hi).sum(axis=1) % p).astype(dt)
    cross = hi @ (g[m:, :m] + g[:m, m:].T) % p
    rows = max(1, (1 << 16) // len(lo))

    def process(start):
        tab = (cross[start:start + rows, :, None] * np.arange(p) % p).astype(dt)
        vals = q_hi[start:start + rows, None]
        for k in range(m):
            vals = (tab[:, k, :, None] + vals[:, None, :]).reshape(len(tab), -1)
        return np.bincount((vals + q_lo).ravel(), minlength=top)

    # The caller counts share 0 and one plain thread each of the others: a
    # futures pool would also load logging into every cold process.
    blocks = range(0, len(hi), rows)
    n = min(threads, len(blocks))
    counts, errors = [0] * n, []

    def share(i):
        try:
            counts[i] = sum(map(process, blocks[i::n]))
        except Exception as exc:
            errors.append(exc)

    workers = [threading.Thread(target=share, args=(i,)) for i in range(1, n)]
    for w in workers:
        w.start()
    share(0)
    for w in workers:
        w.join()
    if errors:
        raise errors[0]
    return np.pad(sum(counts), (0, -top % p)).reshape(-1, p).sum(axis=0)


def phase_sum(gram: np.ndarray, p: int, threads: int = 1) -> CycNum:
    """Sum of zeta_p^(x^T G x) over all of F_p^d, exactly; 1 when d = 0."""
    if gram.shape[0] == 0:
        return CycNum.one(p)
    return CycNum(p, _phase_histogram(gram, p, threads=threads).tolist())


def gauss_sum_brute(space: QuadSpace, psi: AddChar,
                    bound: int = DEFAULT_ENUMERATION_BOUND,
                    threads: int = 1) -> CycNum:
    """Sum of psi(Q(x)) over all points of the space, exactly."""
    if psi.is_trivial():
        raise TrivialAdditiveCharacter("brute Gauss sum needs nontrivial psi")
    fld = space.field
    npoints = fld.q**space.dim
    if npoints > bound:
        raise EnumerationTooLarge(f"{npoints} points exceeds bound {bound}")
    return phase_sum(space.prime_gram(psi), fld.p, threads=threads)


@lru_cache(maxsize=None)
def one_dim_gauss_value(field: FqField, psi: AddChar) -> CycNum:
    """g(psi) = sum over t of psi(t^2); computed once per (field, psi)."""
    counts = [0] * field.p
    for t in field.elements():
        counts[psi.residue_phase(t * t)] += 1
    return CycNum(field.p, counts)


def gauss_sum_closed(space: QuadSpace, psi: AddChar) -> CycNum:
    """chi_quad(det S) * g(psi)^n via congruence diagonalization."""
    if psi.is_trivial():
        raise TrivialAdditiveCharacter("closed Gauss sum needs nontrivial psi")
    if not space.is_nondegenerate():
        raise DegenerateForm("closed form requires a nondegenerate Gram matrix")
    fld = space.field
    if space.dim == 0:
        return CycNum.one(fld.p)
    chi = quadratic_residue_char(fld)
    g = one_dim_gauss_value(fld, psi)
    return chi.sign(space.det()) * g**space.dim


def normalized_sign(space: QuadSpace, psi: AddChar,
                    bound: int = DEFAULT_ENUMERATION_BOUND) -> int:
    """The Gauss sum divided by sqrt(#space): +1 or -1."""
    fld = space.field
    # F_p-dimension of the space; even dimension is the paper-side parity
    # under which the normalized value is rational.
    pdim = space.dim * fld.f
    if pdim % 2:
        raise CheckFailed(f"odd F_p-dimension {pdim}: the normalized Gauss "
                          "sum is not a sign")
    if not space.is_nondegenerate():
        raise DegenerateForm("normalized sign requires nondegeneracy")
    closed = gauss_sum_closed(space, psi)
    if fld.q**space.dim <= bound:
        brute = gauss_sum_brute(space, psi, bound=bound)
        if brute != closed:
            raise CheckFailed("brute and closed Gauss sums disagree")
    root = fld.p ** (pdim // 2)
    s = {root: 1, -root: -1}.get(closed.as_int())
    if s is None:
        # The sum is +-g_p^pdim and g_p^2 = chi(-1) p: a sign times p^(pdim/2).
        raise CheckFailed("normalized quotient is not +-1")
    return s
