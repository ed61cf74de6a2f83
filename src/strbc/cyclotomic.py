"""Exact arithmetic in Z[zeta_p], p prime: integer sums of p-th roots of unity.

Every exact sum the package builds (a phase histogram, the one-dimensional
Gauss sum, an oracle total) lies in Z[zeta_p] for the residue
characteristic p.  As 1 + zeta_p + ... + zeta_p^(p-1) = 0, an element is
its p counts of zeta_p^0, ..., zeta_p^(p-1) taken modulo the all-ones
vector, stored as the p-1 arbitrary-precision integers c_k - c_(p-1),
k < p-1: its coefficients on the power basis.  Equality is a tuple
comparison, sums are exact and order-independent (which makes the
brute-force character sums trustworthy oracles), and a product is a cyclic
convolution mod x^p - 1.

Values are immutable, and values of different p do not mix.  The general
ring Z[zeta_M] is the tests' reference (tests/_support.py).
"""

from __future__ import annotations

from typing import Iterable


class CycNum:
    """An element of Z[zeta_p]: coeffs[k] multiplies zeta_p^k, k < p - 1."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, counts: Iterable[int]):
        """The sum of counts[k] zeta_p^k over the (at most p) counts."""
        counts = list(counts)
        if len(counts) > p:
            raise ValueError(f"{len(counts)} counts for the {p}-th roots of unity")
        counts += [0] * (p - len(counts))
        top = counts.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(c - top for c in counts))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNum is immutable")

    @staticmethod
    def zero(p: int) -> "CycNum":
        return CycNum(p, ())

    @staticmethod
    def one(p: int) -> "CycNum":
        return CycNum(p, (1,))

    # -- ring structure ------------------------------------------------------

    def _coeffs_of(self, other) -> tuple[int, ...]:
        """The coefficients of an int, or of a CycNum of the same p."""
        if isinstance(other, int):
            return (other,) + (0,) * (self.p - 2)
        if other.p != self.p:
            raise ValueError(f"Z[zeta_{self.p}] and Z[zeta_{other.p}] do not mix")
        return other.coeffs

    def __add__(self, other):
        ys = self._coeffs_of(other)
        return CycNum(self.p, [x + y for x, y in zip(self.coeffs, ys)])

    __radd__ = __add__

    def __mul__(self, other):
        p = self.p
        raw = [0] * p
        terms = [(j, y) for j, y in enumerate(self._coeffs_of(other)) if y]
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in terms:
                    raw[(i + j) % p] += x * y
        return CycNum(p, raw)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("only nonnegative powers are supported")
        out = CycNum.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        return self.coeffs == self._coeffs_of(other)

    # -- queries -------------------------------------------------------------

    def as_int(self) -> int | None:
        """The value as a plain integer, or None if it is not rational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def cyc_root(p: int, k: int) -> CycNum:
    """The root of unity zeta_p^k as an exact element of Z[zeta_p]."""
    return CycNum(p, [0] * (k % p) + [1])
