"""Quadratic Gauss sums over finite-dimensional F_q-spaces.

Two independent evaluation routes are provided and cross-checked everywhere:

* ``gauss_sum_brute`` enumerates every point of F_q^n and adds the exact
  character values (the oracle route; refuses to run past a configured bound
  rather than approximate);
* ``gauss_sum_closed`` diagonalizes the Gram matrix by congruence
  transformations and returns chi(det S) * g(psi)^n with g(psi) the
  one-dimensional sum.

``normalized_sign`` divides by the square root of the space size and
classifies the quotient as a fourth root of unity; with the even-dimension
parity in force the result is a plain sign.

A ``QuadSpace`` holds its Gram matrix only as a read-only int64 (n, n, f)
array of polynomial-basis coefficients; the diagonalization and
``prime_gram`` multiply through ``FqField.mul_tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._modp import CheckFailed, digit_table
from .cyclotomic import CycNum, cyc_is_rational_sign_times
from .finite_field import (
    AddChar,
    FqElem,
    FqField,
    MixedFields,
    get_field,
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

    blocks = range(0, len(hi), rows)
    if threads > 1:
        # Imported here, since it also loads logging, queue and traceback.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(process, blocks))
    else:
        counts = sum(map(process, blocks))
    return np.pad(counts, (0, -top % p)).reshape(-1, p).sum(axis=0)


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
        return CycNum.one()
    chi = quadratic_residue_char(fld)
    g = one_dim_gauss_value(fld, psi)
    return chi.sign(space.det()) * g**space.dim


@dataclass(frozen=True)
class SignResult:
    """A normalized Gauss sum: a sign (or classified fourth root) and the
    number of points summed over."""

    value: int | None  # +1 or -1 when the quotient is rational
    fourth_root: str  # "+1", "-1", "+i", "-i", or "(+-)g/sqrt(q)" diagnostics
    space_size: int

    def __post_init__(self):
        if self.value not in (None, 1, -1):
            raise ValueError(f"sign value must be +1, -1 or None, got {self.value!r}")


def normalized_sign(space: QuadSpace, psi: AddChar,
                    bound: int = DEFAULT_ENUMERATION_BOUND) -> SignResult:
    """The Gauss sum divided by sqrt(#space), classified as a fourth root."""
    if not space.is_nondegenerate():
        raise DegenerateForm("normalized sign requires nondegeneracy")
    fld = space.field
    closed = gauss_sum_closed(space, psi)
    if fld.q**space.dim <= bound:
        brute = gauss_sum_brute(space, psi, bound=bound)
        if brute != closed:
            raise CheckFailed("brute and closed Gauss sums disagree")
    npoints = fld.q**space.dim
    # F_p-dimension of the space; even dimension is the paper-side parity
    # under which the normalized value is rational.
    pdim = space.dim * fld.f
    if pdim % 2 == 0:
        ref = CycNum.integer(fld.p ** (pdim // 2))
        s = cyc_is_rational_sign_times(closed, ref)
        if s is None:
            # The sum is +-g_p^pdim and g_p^2 = chi(-1) p: a sign times p^(pdim/2).
            raise CheckFailed("normalized quotient is not +-1")
        quadrant = "+1" if s == 1 else "-1"
        return SignResult(s, quadrant, npoints)
    # Odd F_p-dimension: express against the one-dimensional Gauss value.
    fp = get_field(fld.p)
    g = one_dim_gauss_value(fp, psi_restricted(psi))
    ref = CycNum.integer(fld.p ** ((pdim - 1) // 2)) * g
    s = cyc_is_rational_sign_times(closed, ref)
    if s is None:
        raise CheckFailed("normalized quotient is not a fourth root")
    real = quadratic_residue_char(fp).sign(-fp.one()) == 1
    quadrant = ("+" if s == 1 else "-") + ("g/sqrt(q):real" if real else "g/sqrt(q):imag")
    return SignResult(None, quadrant, npoints)


def psi_restricted(psi: AddChar) -> AddChar:
    """The restriction of psi to the prime field (twist = Tr of the twist)."""
    fp = get_field(psi.field.p)
    # For x in F_p, Tr_{F_q/F_p}(a x) = Tr(a) x.
    return AddChar(fp, psi.field.trace(psi.twist))
