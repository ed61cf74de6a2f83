"""Truncated equal-characteristic model of a tower of local fields and the
ambient matrix algebra.

The base field is F = k((w_F)) with k = F_q, q an odd prime.  On top of it
sits an extension E with odd ramification index e and residue degree f,
realized concretely through a uniformizer symbol w_E with w_E^e = u * w_F
and a Teichmueller generator zeta of k_E^x.  The conjugation
sigma fixes the residue field and sends w_E to -w_E (hence w_F to -w_F,
because e is odd).

Elements of E are truncated Laurent series (EElem), each one read-only
int64 array of k_E coordinate rows, one per power of w_E from the least
live one, and a precision that its memo key names too.  F-linear
endomorphisms of V = E are matrices over truncated F-series in the basis
w_{a,b} = w_E^a zeta^b (MatF), stored as a stack of mod-p coefficient
layers indexed by the power of w_F; leading batch axes hold many such
matrices, which every operation treats at once.  A scalar F-series, such as
a determinant, is a layer array too: the int64 vector of its w_F^0, w_F^1,
... coefficients.  Precision is tracked explicitly and reads past the known
window raise PrecisionTooLow instead of silently truncating.

The valuation grading is E-normalized: v(w_E) = 1, and the degree-m
homogeneous layer of the algebra is an n*f-dimensional k-space.  One degree
map per grade holds both directions: mat_from_layer reads its layer map,
layer_coords its inverse and valuation its w_F-layer span; m_of(x) sums the
layer maps of the monomials of x.  Graded layers of centralizers, the coset
spaces W_z, and the unipotent-radical index counts are all computed by
small exact linear algebra over k.  cent_layer is the one solver for a
centralizer layer; minimality is read from it too.  The basis of a degree-m
layer enters such a computation as one MatF stack, mat_from_layer(m,
identity), not one matrix per row.  Each is built once per tower by a
memoized builder, keyed by its name and the content of its arguments.
"""

from __future__ import annotations

import operator
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from . import _modp
from .finite_field import FqElem, MixedFields, get_field


class EvenRamification(ValueError):
    pass


class BadChain(ValueError):
    pass


class ZeroElement(ValueError):
    pass


class NotInSubfield(ValueError):
    pass


class EvenExponent(ValueError):
    pass


class PrecisionTooLow(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# Elements of E as truncated Laurent series over k_E.


class EElem:
    """sum_i a_i w_E^i with a_i in k_E, known for i < prec.

    rows is one read-only int64 array: row k holds the polynomial-basis
    coordinates of a_(lo+k).  Its first and last rows are nonzero; zero has
    no rows and lo == prec.  key() names lo, prec and the rows, so memo keys
    built from elements tell two precisions apart."""

    __slots__ = ("tower", "lo", "rows", "prec")

    def __init__(self, tower: "TowerSpec", lo: int, rows, prec: int):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, tower.f)
        rows = rows[: max(prec - lo, 0)] % tower.p
        live = np.flatnonzero(rows.any(axis=1))
        lo = lo + int(live[0]) if live.size else prec
        rows = rows[live[0] : live[-1] + 1] if live.size else rows[:0]
        rows.setflags(write=False)
        self.tower, self.lo, self.rows, self.prec = tower, lo, rows, prec

    def row(self, i: int) -> np.ndarray:
        """The polynomial-basis coordinates of a_i."""
        if i >= self.prec:
            raise PrecisionTooLow(f"w_E^{i} beyond precision {self.prec}")
        k = i - self.lo
        inside = 0 <= k < len(self.rows)
        return self.rows[k] if inside else np.zeros(self.tower.f, dtype=np.int64)

    def exponents(self) -> tuple[int, ...]:
        """The exponents i with a_i != 0, in increasing order."""
        return tuple((self.lo + np.flatnonzero(self.rows.any(axis=1))).tolist())

    def val(self) -> int:
        if self.is_zero():
            raise ZeroElement("valuation of an element that is zero mod precision")
        return self.lo

    def __add__(self, other: "EElem") -> "EElem":
        lo = min(self.lo, other.lo)
        out = np.zeros((max(x.lo + len(x.rows) for x in (self, other)) - lo,
                        self.tower.f), dtype=np.int64)
        for x in (self, other):
            out[x.lo - lo : x.lo - lo + len(x.rows)] += x.rows
        return EElem(self.tower, lo, out, min(self.prec, other.prec))

    def __neg__(self) -> "EElem":
        return EElem(self.tower, self.lo, -self.rows, self.prec)

    def __sub__(self, other: "EElem") -> "EElem":
        return self + (-other)

    def __mul__(self, other: "EElem") -> "EElem":
        a, b = self.rows, other.rows
        # a_i b_j through the multiplication tensor, summed along i + j.
        prods = np.einsum("is,jt,stl->ijl", a, b, self.tower.kE.mul_tensor)
        out = np.zeros((max(len(a) + len(b) - 1, 0), self.tower.f), dtype=np.int64)
        np.add.at(out, np.add.outer(np.arange(len(a)), np.arange(len(b))), prods)
        prec = min(self.prec + other.lo, other.prec + self.lo)
        return EElem(self.tower, self.lo + other.lo, out, prec)

    def scale(self, c: FqElem | int) -> "EElem":
        return self * self.tower.e_monomial(0, c, prec=self.prec - self.lo)

    def sigma(self) -> "EElem":
        """The conjugation over E-bullet: w_E -> -w_E, identity on k_E."""
        signs = 1 - 2 * ((self.lo + np.arange(len(self.rows))) % 2)
        return EElem(self.tower, self.lo, self.rows * signs[:, None], self.prec)

    def is_zero(self) -> bool:
        return len(self.rows) == 0

    def is_skew(self) -> bool:
        """sigma(x) = -x, i.e. only odd powers of w_E occur."""
        return all(i % 2 for i in self.exponents())

    def __eq__(self, other):
        return (self - other).is_zero()

    def key(self) -> tuple:
        return self.lo, self.prec, self.rows.tobytes()


# ---------------------------------------------------------------------------
# Matrices over truncated F-series.


class MatF:
    """An n x n matrix over F, or a stack of them, stored as stacked
    w_F-coefficient layers.

    arr[..., k, :, :] holds the mod-p matrix of the coefficient of
    w_F^(g+k); layers past the stack are zero up to w_F^(fprec-1) and unknown
    from there on.  Leading axes of arr before the layer axis, if any, are
    batch axes: arr[b] is the layer stack of the b-th matrix, and every
    matrix of the stack shares g and fprec.  Operations broadcast over the
    batch axes.  The stack starts and ends with a layer that is nonzero in
    some matrix; the zero-mod-precision stack has no layers and g == fprec.
    """

    __slots__ = ("tower", "g", "arr", "fprec")

    def __init__(self, tower: "TowerSpec", g: int, arr: np.ndarray, fprec: int):
        arr = arr % tower.p
        live = arr.any(axis=(-2, -1))
        if live.ndim > 1:
            live = live.any(axis=tuple(range(live.ndim - 1)))
        live = live.tolist()
        if True in live:
            lo, hi = live.index(True), len(live) - live[::-1].index(True)
            if lo or hi < len(live):
                g += lo
                arr = arr[..., lo:hi, :, :]
        else:
            g = fprec
            arr = arr[..., :0, :, :]
        self.tower = tower
        self.g = g
        self.arr = arr
        self.fprec = fprec

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(tower: "TowerSpec", fprec: int | None = None,
             batch: tuple[int, ...] = ()) -> "MatF":
        fp = tower.fcap if fprec is None else fprec
        n = tower.n
        return MatF(tower, fp, np.zeros(batch + (0, n, n), dtype=np.int64), fp)

    @staticmethod
    def identity(tower: "TowerSpec", fprec: int | None = None) -> "MatF":
        fp = tower.fcap if fprec is None else fprec
        arr = np.eye(tower.n, dtype=np.int64)[None, :, :]
        return MatF(tower, 0, arr, fp)

    @staticmethod
    def stack(mats: list["MatF"]) -> "MatF":
        """One stack of the given matrices, or of the matrices of the given
        stacks, in order, at their common precision."""
        t, n = mats[0].tower, mats[0].tower.n
        fp = min(M.fprec for M in mats)
        g = min(M.g for M in mats)
        top = max(min(M.g + M.arr.shape[-3], fp) for M in mats)
        parts = []
        for M in mats:
            k = max(min(M.arr.shape[-3], fp - M.g), 0)
            count = int(np.prod(M.batch))
            part = np.zeros((count, max(top - g, 0), n, n), dtype=np.int64)
            part[:, M.g - g : M.g - g + k] = M.arr[..., :k, :, :].reshape(
                (count, k, n, n))
            parts.append(part)
        return MatF(t, g, np.concatenate(parts), fp)

    # -- batch access --------------------------------------------------------

    @property
    def batch(self) -> tuple[int, ...]:
        return self.arr.shape[:-3]

    def take(self, index) -> "MatF":
        """The matrices at the given positions of the first batch axis."""
        return MatF(self.tower, self.g, self.arr[index], self.fprec)

    def nonzero_mask(self) -> np.ndarray:
        """Per matrix of the stack, whether it is nonzero mod precision."""
        return self.arr.any(axis=(-3, -2, -1))

    # -- layer access --------------------------------------------------------

    def layer(self, k: int) -> np.ndarray:
        if k >= self.fprec:
            raise PrecisionTooLow(f"w_F^{k} layer beyond precision {self.fprec}")
        i = k - self.g
        if i < 0 or i >= self.arr.shape[-3]:
            n = self.tower.n
            return np.zeros(self.batch + (n, n), dtype=np.int64)
        return self.arr[..., i, :, :]

    def is_zero(self) -> bool:
        """Whether every matrix of the stack is zero mod precision."""
        return self.arr.shape[-3] == 0

    # -- arithmetic ----------------------------------------------------------

    def _batch_with(self, other: "MatF") -> tuple[int, ...]:
        a, b = self.batch, other.batch
        return a if a == b else np.broadcast_shapes(a, b)

    def __add__(self, other: "MatF") -> "MatF":
        return self._plus(other, 1)

    def __neg__(self) -> "MatF":
        return MatF(self.tower, self.g, -self.arr, self.fprec)

    def __sub__(self, other: "MatF") -> "MatF":
        return self._plus(other, -1)

    def _plus(self, other: "MatF", sign: int) -> "MatF":
        """self + sign * other, for sign = 1 or -1."""
        t = self.tower
        fp = min(self.fprec, other.fprec)
        batch = self._batch_with(other)
        if self.is_zero() and other.batch == batch:
            return (other if sign == 1 else -other).truncated(fp)
        if other.is_zero() and self.batch == batch:
            return self.truncated(fp)
        g = min(self.g, other.g)
        top = min(fp, max(self.g + self.arr.shape[-3], other.g + other.arr.shape[-3]))
        arr = np.zeros(batch + (max(top - g, 0), t.n, t.n), dtype=np.int64)
        for src, s in ((self, 1), (other, sign)):
            lo, hi = src.g, min(src.g + src.arr.shape[-3], fp)
            if hi > lo:
                arr[..., lo - g : hi - g, :, :] += s * src.arr[..., : hi - lo, :, :]
        return MatF(t, g, arr, fp)

    def product_fprec(self, other: "MatF") -> int:
        """The precision of self @ other: each factor's precision shifted by
        the other's valuation, whichever is less."""
        return min(self.fprec + other.g, other.fprec + self.g)

    def __matmul__(self, other: "MatF") -> "MatF":
        t = self.tower
        fp = self.product_fprec(other)
        if self.is_zero() or other.is_zero():
            return MatF.zero(t, fp, self._batch_with(other))
        g = self.g + other.g
        L = fp - g
        if L <= 0:
            raise _modp.CheckFailed("MatF invariant broken: a nonzero factor "
                                    "has g >= fprec")
        n = t.n
        a, b = self.arr[..., :L, :, :], other.arr[..., :L, :, :]
        la, lb = a.shape[-3], b.shape[-3]
        # Layer k of the product is sum_j a[k - j] @ b[j]: one product of the
        # block-Toeplitz matrix of a (block (k, j) = a[k - j]) with b stacked.
        L = min(L, la + lb - 1)
        ba, bb = a.shape[:-3], b.shape[:-3]
        padded = np.concatenate([a, np.zeros(ba + (1, n, n), dtype=np.int64)], axis=-3)
        toeplitz = padded[..., _toeplitz_slots(L, la, lb), :, :]
        toeplitz = toeplitz.swapaxes(-3, -2).reshape(ba + (L * n, lb * n))
        arr = toeplitz @ b.reshape(bb + (lb * n, n))
        return MatF(t, g, arr.reshape(arr.shape[:-2] + (L, n, n)), fp)

    def scale_int(self, c: int) -> "MatF":
        return MatF(self.tower, self.g, self.arr * (c % self.tower.p), self.fprec)

    def conj(self) -> "MatF":
        """Entrywise sigma on F: negate odd powers of w_F."""
        signs = 1 - 2 * ((self.g + np.arange(self.arr.shape[-3])) % 2)
        return MatF(self.tower, self.g, self.arr * signs[:, None, None], self.fprec)

    def transpose(self) -> "MatF":
        return MatF(self.tower, self.g, self.arr.swapaxes(-2, -1), self.fprec)

    def truncated(self, fprec: int) -> "MatF":
        fp = min(self.fprec, fprec)
        keep = max(0, fp - self.g)
        return MatF(self.tower, self.g, self.arr[..., :keep, :, :], fp)


@lru_cache(maxsize=None)
def _toeplitz_slots(L: int, la: int, lb: int) -> np.ndarray:
    """Index k - j of the left factor's layer in block (k, j) of the L x lb
    block-Toeplitz matrix, or la (a zero layer) where k - j is out of range."""
    k_minus_j = np.arange(L)[:, None] - np.arange(lb)[None, :]
    rows = np.where((k_minus_j >= 0) & (k_minus_j < la), k_minus_j, la)
    rows.setflags(write=False)
    return rows


def inverse_unit(X: "MatF") -> "MatF":
    """Inverse of X when its w_F^0 layer is invertible (v(X) = 0 units), for
    each matrix of a stack.

    Newton iteration Z <- Z(2I - XZ) doubles the number of correct layers.
    """
    t = X.tower
    if X.g < 0:
        raise ValueError("inverse_unit expects an integral unit")
    if X.g > 0 or X.is_zero():
        raise ZeroElement("inverse_unit needs a unit with a w_F^0 layer")
    z0 = _modp.mat_inv(X.layer(0), t.p)
    Z = MatF(t, 0, z0[..., None, :, :], 1)
    two_i = MatF.identity(t, X.fprec).scale_int(2)
    while Z.fprec < X.fprec:
        Z = MatF(t, Z.g, Z.arr, min(2 * Z.fprec, X.fprec))
        Z = Z @ (two_i - (X @ Z))
    return Z


def det_unit(X: "MatF") -> np.ndarray:
    """det X for integral X, as its w_F^0 .. w_F^(fprec-1) coefficients; for
    a stack, one coefficient row per matrix.

    Gaussian elimination on each (n, n, fprec) layer stack, pivoting in each
    column on an entry of least w_F-valuation v (the first such row), so
    every multiplier is integral.  Clearing with that pivot leaves the
    entries below it known only under w_F^(fprec - v), but the pivot puts
    w_F^v into the product, so the result is exact to the full fprec, for
    non-units too.  A column with no live entry makes the pivot, and so the
    determinant, zero.
    """
    t = X.tower
    if X.g < 0:
        raise ValueError("det_unit expects an integral matrix")
    p, n, P = t.p, t.n, X.fprec
    batch = X.batch
    B = int(np.prod(batch))
    rows = np.arange(B)
    layers = X.arr[..., : max(P - X.g, 0), :, :]
    a = np.zeros((B, n, n, P), dtype=np.int64)
    a[..., X.g : X.g + layers.shape[-3]] = np.moveaxis(
        layers.reshape((B,) + layers.shape[-3:]), 1, -1)
    det = np.zeros((B, P), dtype=np.int64)
    det[:, 0] = 1
    for i in range(n):
        live = a[:, i:, i] != 0
        vals = np.where(live.any(axis=2), live.argmax(axis=2), P)
        r = vals.argmin(axis=1)
        v = vals[rows, r]
        if r.any():
            r += i
            pivot_row = a[rows, r]
            a[rows, r] = a[:, i]
            a[:, i] = pivot_row
            det[r != i] *= -1
        det = (_series_toeplitz(det) @ a[:, i, i, :, None])[..., 0] % p
        if i + 1 == n:
            break
        # Multipliers a[r, i] / a[i, i]: both series shifted down by v,
        # known below w_F^(P - v).  What they hold past that only reaches
        # the rows below at w_F^(P - v) and up, and so the determinant past
        # w_F^(P - 1), since the pivot carries w_F^v.  A dead column
        # (v = P) is all zero, and so are its multipliers.
        pivot, col = a[:, i, i], a[:, i + 1 :, i]
        if v.any():
            shift = np.minimum(np.arange(P) + np.where(v == P, 0, v)[:, None], P - 1)
            pivot = np.take_along_axis(pivot, shift, axis=1)
            col = np.take_along_axis(col, shift[:, None, :], axis=2)
        mult = col @ _series_inverse(pivot, p).swapaxes(-1, -2) % p
        a[:, i + 1 :, i + 1 :] -= (_series_toeplitz(mult)[:, :, None]
                                   @ a[:, i, None, i + 1 :, :, None])[..., 0]
        a[:, i + 1 :, i + 1 :] %= p
    return det.reshape(batch + (P,))


def _series_toeplitz(s: np.ndarray) -> np.ndarray:
    """T[..., k, j] = s[..., k - j] (zero for k < j): the matrix of
    multiplication by the series s on coefficient vectors of its length."""
    L = s.shape[-1]
    padded = np.concatenate([s, np.zeros(s.shape[:-1] + (1,), dtype=np.int64)], -1)
    return padded[..., _toeplitz_slots(L, L, L)]


def _series_inverse(u: np.ndarray, p: int) -> np.ndarray:
    """The multiplication matrix (as in _series_toeplitz) of 1 / u modulo
    w_F^len(u), for series u (over leading axes) whose w_F^0 coefficient is
    a unit (zero where it is zero): Newton steps Z <- Z (2 - u Z) double
    the correct coefficients."""
    L = u.shape[-1]
    eye = np.eye(L, dtype=np.int64)
    T = _series_toeplitz(u)
    Z = _modp.inverse_table(p)[u[..., 0]][..., None, None] * eye
    known = 1
    while known < L:
        Z = Z @ (2 * eye - T @ Z % p) % p
        known *= 2
    return Z


# ---------------------------------------------------------------------------
# Tower construction.


def memoized(build):
    """Build once per tower: build(tower, *args) is kept in the tower's memo,
    keyed by the builder's name and the content of its other arguments, and
    shared, never mutated; its arrays, alone or in a tuple, are read-only."""

    @wraps(build)
    def cached(tower, *args):
        key = (build.__name__,) + tuple(map(_content, args))
        hit = tower._memo.get(key)
        if hit is None:
            hit = tower._memo[key] = build(tower, *args)
            for part in hit if isinstance(hit, tuple) else (hit,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
        return hit

    return cached


def _content(x):
    """What a memo key names of an argument: each element of a tuple, the
    shape and bytes of an array, the elements and exponents r_j of a stratum
    (all its other data follow from them), key() of an EElem, an integer."""
    if isinstance(x, tuple):
        return tuple(map(_content, x))
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    if hasattr(x, "r_list"):
        return _content(tuple(x.c_elems)), tuple(x.r_list)
    return x.key() if isinstance(x, EElem) else operator.index(x)


class TowerConfig(NamedTuple):
    q: int
    e: int
    f: int
    N: int | None = None
    levels: tuple[tuple[int, int], ...] | None = None
    u: int = 1


class TowerSpec:
    """Fixed model data for F-bullet < F < E and End_F(E); immutable."""

    def __init__(self, config: TowerConfig):
        q, e, f = config.q, config.e, config.f
        if e % 2 == 0:
            raise EvenRamification(f"ramification index e = {e} must be odd")
        kk = get_field(q)  # validates q = p odd prime
        # p | e (wild, inseparable in the equal-characteristic model) is
        # supported: the Hermitian pairing below avoids the field trace,
        # which would vanish identically there.
        levels = config.levels
        if levels is None:
            levels = ((e, f), (1, 1))
        levels = tuple(tuple(x) for x in levels)
        if len(levels) < 2 or levels[0] != (e, f) or levels[-1] != (1, 1):
            raise BadChain("chain must run from E_0 = E down to E_{d+1} = F")
        for ea, fa in levels:
            if ea < 1 or fa < 1:
                raise BadChain(f"level degrees must be positive: ({ea},{fa})")
        for (ea, fa), (eb, fb) in zip(levels, levels[1:]):
            if ea % eb or fa % fb:
                raise BadChain(f"({eb},{fb}) must divide ({ea},{fa})")
            # Strictly decreasing degrees, except the degenerate E = F tower.
            if ea * fa <= eb * fb and e * f > 1:
                raise BadChain(f"({eb},{fb}) must strictly divide ({ea},{fa})")
        self.p = q
        self.e = e
        self.f = f
        self.n = e * f
        self.d = len(levels) - 2
        self.levels = levels
        self.k = kk
        self.kE = get_field(q, f)
        self.u = self.kE.from_int(config.u)
        if not self.u:
            raise BadChain("unit u must be nonzero")
        self.N = config.N if config.N is not None else 2 * e + 6
        if self.N < 2:
            raise BadChain("precision must be at least 2")
        # Generous internal precision caps (exact monomial data lives here).
        self.Ecap = self.N + 2 * e + 2
        self.fcap = self.Ecap // e + 4
        # Change of basis between the polynomial basis of k_E and the
        # Teichmueller basis 1, zeta, ..., zeta^{f-1}.
        self.Zmat = np.array([self.kE.exp(b).coeffs for b in range(f)], dtype=np.int64).T
        self.Zinv = _modp.mat_inv(self.Zmat, self.p)
        # x -> x^p is F_p-linear on k_E: column k is (t^k)^p = t^(kp).
        log_t = self.kE.element((0, 1)).discrete_log() if f > 1 else 0
        self.frob = np.array([self.kE.exp(k * self.p * log_t).coeffs for k in range(f)],
                             dtype=np.int64).T
        # Hermitian-form data.  h(v, w) = tau(v sigma(w)) with tau the
        # extraction functional at shift e-1: it reads the coefficients at
        # exponents = e-1 mod e and pushes their k_E-traces down to F.  The
        # shift e-1 is even (e odd), which makes h Hermitian, and the
        # standard chain self-dual; when p does not divide e this is the
        # trace form with lambda = w_E^(1-e) up to the unit e.  The adjoint
        # is unchanged by any E-monomial rescaling of the form (tested).
        self.form_shift = e - 1
        self.H = self._build_gram(self.form_shift)
        self.Hinv = inverse_unit(self.H)
        self._memo: dict = {}

    # -- E-element helpers ---------------------------------------------------

    def e_monomial(self, i: int, c: FqElem | int = 1, prec: int | None = None) -> EElem:
        if not isinstance(c, int) and c.field != self.kE:
            raise MixedFields(f"{c.field} vs {self.kE}")
        row = [c] + [0] * (self.f - 1) if isinstance(c, int) else c.coeffs
        return EElem(self, i, row, self.Ecap if prec is None else prec)

    def varpi_E(self) -> EElem:
        return self.e_monomial(1)

    def varpi_F(self) -> EElem:
        # w_F = u^{-1} w_E^e.
        return self.e_monomial(self.e, self.u.inverse())

    # -- the regular representation ------------------------------------------

    def basis_index(self, a: int, b: int) -> int:
        return a * self.f + b

    @memoized
    def m_of(self, x: EElem) -> "MatF":
        """Matrix of multiplication by x on the basis w_E^a zeta^b: the sum,
        over the monomials c w_E^i of x, of the degree-i layer map with every
        coordinate d_{a,b} = c."""
        fprec = -((self.e - 1 - x.prec) // self.e)
        out = MatF.zero(self, fprec)
        for i in x.exponents():
            out = out + self.mat_from_layer(i, np.tile(x.row(i), self.n), fprec)
        out.arr.setflags(write=False)
        return out

    # -- the Hermitian structure ---------------------------------------------

    def tau(self, x: EElem, shift: int) -> tuple[dict[int, int], int]:
        """Extraction functional: sum_t Tr_{k_E/k}(a_{et+shift} u^t) w_F^t,
        as ({t: c} nonzero coefficients, fprec).

        F-linear E -> F; nonzero, hence the associated pairing on E is
        nondegenerate in every characteristic."""
        coeffs: dict[int, int] = {}
        for i in x.exponents():
            if (i - shift) % self.e == 0:
                t = (i - shift) // self.e
                c_ut = self._kE_mul(self._zeta_u(0, t)) @ x.row(i)
                if val := int(self.kE.trace_vector @ c_ut) % self.p:
                    coeffs[t] = val
        fprec = -((shift - x.prec) // self.e)
        return coeffs, fprec

    def _build_gram(self, shift: int) -> "MatF":
        n = self.n
        basis = [self.e_monomial(a, self.kE.exp(b))
                 for a in range(self.e) for b in range(self.f)]
        entries = [[self.tau(wi * wj.sigma(), shift) for wj in basis] for wi in basis]
        fprec = min(fp for row in entries for _, fp in row)
        g = min(min(cs, default=fprec) for row in entries for cs, _ in row)
        arr = np.zeros((fprec - g, n, n), dtype=np.int64)
        for i, row in enumerate(entries):
            for j, (cs, _) in enumerate(row):
                for k, c in cs.items():
                    arr[k - g, i, j] = c
        return MatF(self, g, arr, fprec)

    def adjoint(self, X: "MatF") -> "MatF":
        """X-bar with h(Xx, y) = h(x, X-bar y)."""
        return self.Hinv @ X.conj().transpose() @ self.H

    def alpha(self, X: "MatF") -> "MatF":
        """The anti-involution alpha(X) = -X-bar; alpha(XY) = -alpha(Y)alpha(X)."""
        return -self.adjoint(X)

    # -- graded layers -------------------------------------------------------

    def mat_from_layer(self, m: int, vec: np.ndarray, fprec: int | None = None) -> "MatF":
        """The homogeneous degree-m map with layer coordinates vec, or the
        stack of them for the rows of a (..., n*f) vec.

        Coordinates: X w_{a,b} = d_{a,b} * zeta^b * w_E^{a+m} with d_{a,b}
        in k_E; vec stacks the polynomial-basis coefficients of d_{a,b}.
        """
        fp = self.fcap if fprec is None else fprec
        vec = np.asarray(vec, dtype=np.int64)
        ts, tensor, _, _ = self._degree_map(m)
        g = ts[0]
        L = min(fp - g, tensor.shape[0])
        if L <= 0:
            return MatF.zero(self, fp, vec.shape[:-1])
        n = self.n
        arr = vec @ tensor[:L].reshape(L * n * n, -1).T
        return MatF(self, g, arr.reshape(vec.shape[:-1] + (L, n, n)), fp)

    def layer_coords(self, X: "MatF", m: int) -> np.ndarray:
        """Degree-m layer coordinates of X, one row per matrix of a stack
        (reads each position exactly once)."""
        ts, _, slots, kmat = self._degree_map(m)
        if ts[-1] >= X.fprec:
            t = next(t for t in ts if t >= X.fprec)
            raise PrecisionTooLow(
                f"degree-{m} layer needs w_F^{t}, precision is {X.fprec}"
            )
        stack = np.stack([X.layer(t) for t in range(ts[0], ts[-1] + 1)], axis=-3)
        return stack[(...,) + slots] @ kmat.T % self.p

    def _kE_mul(self, c) -> np.ndarray:
        """Matrix of x -> c x on polynomial-basis coordinates of k_E, for the
        coordinates c of an element."""
        return np.einsum("j,jkl->lk", c, self.kE.mul_tensor) % self.p

    def _zeta_u(self, b: int, t: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of zeta^b u^t."""
        return self.kE.exp(b + t * self.u.discrete_log()).coeffs

    @memoized
    def _degree_map(self, m: int) -> tuple:
        """(ts, T, slots, K): the degree-m layer map and its inverse, built
        together once per grade.

        Column (a, b) of a degree-m map lives in w_F-layer ts[a] = (m + a) // e
        at rows (a2, .), a2 = (m + a) % e, where it holds d_{a,b} zeta^b u^t
        in Teichmueller coordinates.  T @ vec is the w_F-layer stack, from
        w_F^ts[0] on, of mat_from_layer(m, vec).  The slots gather those
        Teichmueller coordinates kappa from the layers ts[0]..ts[-1], and the
        block diagonal K turns them back into d = kappa u^-t zeta^-b in the
        polynomial basis.
        """
        e, f, n, p = self.e, self.f, self.n, self.p
        ts = tuple((m + a) // e for a in range(e))
        tensor = np.zeros((ts[-1] - ts[0] + 1, n, n, n * f), dtype=np.int64)
        layer, row, col = (np.zeros(n * f, dtype=np.int64) for _ in range(3))
        kmat = np.zeros((n * f, n * f), dtype=np.int64)
        for a, t in enumerate(ts):
            a2 = (m + a) % e
            rows = np.arange(a2 * f, (a2 + 1) * f)
            for b in range(f):
                c = self.basis_index(a, b)
                out = slice(c * f, (c + 1) * f)
                scale = self._kE_mul(self._zeta_u(b, t))
                tensor[t - ts[0], rows, c, out] = self.Zinv @ scale % p
                kmat[out, out] = self._kE_mul(self._zeta_u(-b, -t)) @ self.Zmat % p
                layer[out], row[out], col[out] = t - ts[0], rows, c
        for arr in (tensor, layer, row, col, kmat):
            arr.setflags(write=False)
        return ts, tensor, (layer, row, col), kmat

    def valuation(self, X: "MatF"):
        """v(X) = max{k : X L(m) in L(m+k) for all m}, E-normalized; for a
        stack, the array of the valuations of its matrices."""
        if not X.nonzero_mask().all():
            raise ZeroElement("valuation of a matrix that is zero mod precision")
        lo = X.g * self.e - (self.e - 1)
        hi = X.fprec * self.e
        found = np.full(X.batch, hi)
        for m in range(lo, hi):
            if self._degree_map(m)[0][-1] >= X.fprec:
                break
            found[self.layer_coords(X, m).any(axis=-1) & (found == hi)] = m
            if (found < hi).all():
                return found if X.batch else int(found)
        raise ZeroElement("no nonzero layer inside the precision window")

    # -- centralizer layers --------------------------------------------------

    @memoized
    def cent_layer(self, gens: tuple[EElem, ...], m: int) -> np.ndarray:
        """Basis (rows) of the degree-m layer of the centralizer of gens."""
        if not gens:
            return np.eye(self.n * self.f, dtype=np.int64)
        # Brackets with distinct-grade monomial parts vanish independently,
        # so each generator splits into one constraint per w_E-exponent.
        X = self.mat_from_layer(m, np.eye(self.n * self.f, dtype=np.int64))
        maps = []
        for g in gens:
            for i in g.exponents():
                mg = self.m_of(EElem(self, i, g.row(i), g.prec))
                maps.append(self.layer_coords((X @ mg) - (mg @ X), m + i).T)
        out = _modp.nullspace(np.vstack(maps), self.p)
        return _modp.row_space_basis(out, self.p) if out.size else out


def build_tower(config: TowerConfig) -> TowerSpec:
    tower = TowerSpec(config)
    # Verify the uniformizer relation w_E^e = u w_F by evaluation.
    we = tower.varpi_E()
    acc = tower.e_monomial(0)
    for _ in range(tower.e):
        acc = acc * we
    if acc != tower.varpi_F().scale(tower.u):
        raise _modp.CheckFailed("w_E^e != u w_F in the tower model")
    return tower


# ---------------------------------------------------------------------------
# Field membership, coset spaces, index counts.


def _in_level(tower: TowerSpec, x: EElem, level: int) -> bool:
    """Whether x lies in the level-th subfield of the chain; level -1 is F."""
    e_l, f_l = tower.levels[level]
    fixed = x.rows
    for _ in range(f_l):
        fixed = fixed @ tower.frob.T % tower.p
    return (all(i % (tower.e // e_l) == 0 for i in x.exponents())
            and np.array_equal(fixed, x.rows))


class WzBlock:
    __slots__ = ("j", "grade", "basis")

    def __init__(self, j: int, grade: int, basis: np.ndarray):
        # basis rows are layer coordinates at the given grade
        self.j, self.grade, self.basis = j, grade, basis


class WzSpace:
    __slots__ = ("tower", "blocks")

    def __init__(self, tower: TowerSpec, blocks: tuple[WzBlock, ...]):
        self.tower, self.blocks = tower, blocks

    @property
    def dim_k(self) -> int:
        return sum(b.basis.shape[0] for b in self.blocks)

    @property
    def dim_kE(self) -> int:
        if self.dim_k % self.tower.f:
            raise _modp.CheckFailed(
                f"dim_k W_z = {self.dim_k} is not a multiple of f = {self.tower.f}"
            )
        return self.dim_k // self.tower.f

    @property
    def size(self) -> int:
        return self.tower.p**self.dim_k


def level_gens(stratum, j: int) -> tuple[EElem, ...]:
    """Generators of E_j = F[c_j, ..., c_d]; empty for E_{d+1} = F."""
    return tuple(c for c in stratum.c_elems[j:] if not _in_level(stratum.tower, c, -1))


@memoized
def build_Wz(tower: TowerSpec, stratum) -> WzSpace:
    """Graded coset space W_z = sum_j of layer quotients, with bases taken
    inside the trace-orthogonal complement of the lower level.

    Built once per stratum content; the block bases are read-only."""
    if even := [r for r in stratum.r_list if r % 2 == 0]:
        raise EvenExponent(f"exponent r = {even[0]} must be odd")
    blocks: list[WzBlock] = []
    for j in range(stratum.d + 1):
        s_j = stratum.s_list[j]
        upper = tower.cent_layer(level_gens(stratum, j + 1), s_j)
        lower = tower.cent_layer(level_gens(stratum, j), s_j)
        comp = _orthogonal_complement(tower, stratum, j, s_j, upper, lower)
        if comp.shape[0] != upper.shape[0] - lower.shape[0]:
            raise _modp.CheckFailed(
                "orthogonal complement dimension mismatch at level "
                f"{j}: {comp.shape[0]} vs {upper.shape[0] - lower.shape[0]}"
            )
        comp.setflags(write=False)
        blocks.append(WzBlock(j, s_j, comp))
    space = WzSpace(tower, tuple(blocks))
    if space.dim_kE != tower.f * tower.e - 1:
        raise _modp.CheckFailed(
            f"dim_kE W_z = {space.dim_kE}, expected fe - 1 = {tower.f * tower.e - 1}"
        )
    return space


def _orthogonal_complement(tower, stratum, j, m, upper, lower) -> np.ndarray:
    """A complement of `lower` in `upper`, taken greedily from the vectors
    of `upper` orthogonal to the level-j centralizer under the residue
    pairing (X, U) -> coefficient of w_F^0 in tr(XU), then from `upper`."""
    p = tower.p
    X = tower.mat_from_layer(m, np.eye(tower.n * tower.f, dtype=np.int64))
    cond = np.array([
        np.trace((X @ tower.mat_from_layer(-m, v)).layer(0), axis1=-2, axis2=-1) % p
        for v in tower.cent_layer(level_gens(stratum, j), -m)
    ], dtype=np.int64)
    ortho = intersect_row_spaces(upper, _modp.nullspace(cond, p), p)
    # Wild case: the residue pairing can vanish on the lower level (the trace
    # of an inseparable extension is zero), so orthogonality alone no longer
    # splits off a complement and the pick goes on into `upper`.
    return _modp.complete_basis(lower, np.vstack([ortho, upper]), p)


def intersect_row_spaces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Basis of the intersection of two row spaces (Zassenhaus-style)."""
    if a.size == 0 or b.size == 0:
        return np.zeros((0, a.shape[1] if a.size else b.shape[1]), dtype=np.int64)
    # x in both spans: x = u A = v B; solve [A^T | -B^T] kernel.
    stacked = np.concatenate([a.T, (-b.T) % p], axis=1)
    kern = _modp.nullspace(stacked, p)
    if kern.size == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    vecs = kern[:, : a.shape[0]] @ a % p
    return _modp.row_space_basis(vecs, p)


# ---------------------------------------------------------------------------
# Lattices in the block model and unipotent index counts.


class GradedLattice:
    """A graded o_E-stable lattice given by centralizer-layer terms.

    Each term is (gens, threshold): it contributes the degree-m layer of the
    centralizer of gens whenever m >= threshold.  The E-part is the term with
    the full generator of E.
    """

    def __init__(self, tower: TowerSpec, terms: list[tuple[tuple[EElem, ...], int]]):
        self.tower = tower
        self.terms = terms

    def shifted(self, delta: int) -> "GradedLattice":
        return GradedLattice(
            self.tower, [(g, thr + delta) for g, thr in self.terms]
        )

    def layer(self, m: int) -> np.ndarray:
        """Row-reduced basis of the degree-m layer."""
        return _lattice_layer(self.tower, tuple(g for g, t in self.terms if m >= t), m)


@memoized
def _lattice_layer(tower: TowerSpec, active: tuple, m: int) -> np.ndarray:
    """The degree-m layer of every lattice with these active terms."""
    rows = [tower.cent_layer(gens, m) for gens in active]
    rows = [r for r in rows if r.size]
    if not rows:
        return np.zeros((0, tower.n * tower.f), dtype=np.int64)
    return _modp.row_space_basis(np.vstack(rows), tower.p)


def h1_lattice(tower: TowerSpec, stratum) -> GradedLattice:
    """The lattice of H-tilde-1: p_E + sum_j P^(s_j+1) at level E_{j+1}."""
    terms: list[tuple[tuple[EElem, ...], int]] = [(e_full_gens(tower, stratum), 1)]
    for j in range(stratum.d + 1):
        terms.append((level_gens(stratum, j + 1), stratum.s_list[j] + 1))
    return GradedLattice(tower, terms)


def j0_lattice(tower: TowerSpec, stratum) -> GradedLattice:
    """The lattice of J-tilde-0: o_E + the H-tilde-1 lattice."""
    lat = h1_lattice(tower, stratum)
    return GradedLattice(tower, [(e_full_gens(tower, stratum), 0)] + lat.terms)


def e_full_gens(tower: TowerSpec, stratum) -> tuple[EElem, ...]:
    gens = level_gens(stratum, 0)
    if gens:
        return gens
    # E = F (the U(1)-type degenerate case): the E-layer is the full algebra
    # only when n = 1; use an explicit generator of E otherwise.
    if tower.n == 1:
        return ()
    raise NotInSubfield("stratum carries no generator of E over F")


@memoized
def _alpha_matrix(tower: TowerSpec, m: int) -> np.ndarray:
    """Matrix of alpha on degree-m layer coordinates (columns are images)."""
    return tower.layer_coords(tower.alpha(
        tower.mat_from_layer(m, np.eye(tower.n * tower.f, dtype=np.int64))), m).T


@memoized
def _alpha_fixed_basis(tower: TowerSpec, m: int) -> np.ndarray:
    """Basis (rows) of the degree-m coordinate vectors that alpha fixes."""
    amat = _alpha_matrix(tower, m)
    eye = np.eye(amat.shape[0], dtype=np.int64)
    return _modp.nullspace((amat - eye) % tower.p, tower.p)


def _alpha_fixed_dim(tower: TowerSpec, space: np.ndarray, m: int) -> int:
    """Dimension of the alpha-fixed part of a subspace of the degree-m layer."""
    # An empty layer (every grade below a lattice's least threshold) needs
    # no alpha matrix at its grade.
    if space.size == 0:
        return 0
    return intersect_row_spaces(space, _alpha_fixed_basis(tower, m), tower.p).shape[0]


def _index_exponent(tower, big: GradedLattice, small: GradedLattice,
                    window: tuple[int, int], alpha_fixed: bool) -> int:
    lo, hi = window
    total = 0
    for m in range(lo, hi + 1):
        b, s = big.layer(m), small.layer(m)
        if alpha_fixed:
            db = _alpha_fixed_dim(tower, b, m)
            ds = _alpha_fixed_dim(tower, s, m)
        else:
            db, ds = b.shape[0], s.shape[0]
        if ds > db:
            raise _modp.CheckFailed("small lattice exceeds big lattice in a layer")
        total += db - ds
    # Edge sanity: the profiles must agree outside the window.
    for m in (lo - 1, hi + 1):
        b, s = big.layer(m), small.layer(m)
        if b.shape[0] != s.shape[0]:
            raise PrecisionTooLow("index window too narrow")
    return total


@memoized
def iwahori_indices(tower: TowerSpec, stratum) -> tuple[int, int]:
    """(c_y, c_z): indices of unipotent-radical congruence subgroups.

    c_z = q_E * #W_z.  c_y = [J_P^+ : s_y J_P^- s_y] counted in the block
    model: the X-coordinate contributes [J-tilde-0 : H-tilde-1] and the
    Y-coordinate the alpha-fixed part of w_E^{-1} h / w_E j.  Built once
    per stratum content.
    """
    wz = build_Wz(tower, stratum)
    c_z = tower.kE.q * wz.size
    h1 = h1_lattice(tower, stratum)
    j0 = j0_lattice(tower, stratum)
    s0 = stratum.s_list[0] if stratum.s_list else 0
    win = (-(s0 + 2 * tower.e + 2), s0 + 2 * tower.e + 2)
    x_exp = _index_exponent(tower, j0, h1, win, alpha_fixed=False)
    y_exp = _index_exponent(
        tower, h1.shifted(-1), j0.shifted(1), win, alpha_fixed=True
    )
    c_y = tower.p ** (x_exp + y_exp)
    return c_y, c_z
