"""Exact arithmetic in the rings of cyclotomic integers Z[zeta_M].

Elements are stored on the power basis zeta_M^0, ..., zeta_M^(phi(M)-1),
reduced modulo the M-th cyclotomic polynomial, with arbitrary-precision
integer coefficients.  Equality is therefore a plain vector comparison and
sums are exact and order-independent, which is what makes the brute-force
character sums elsewhere in this package trustworthy oracles.

All values are immutable.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable


class NonDivisibleModulus(ValueError):
    """Raised when embedding Z[zeta_M] -> Z[zeta_M'] with M not dividing M'."""


class ZeroReference(ZeroDivisionError):
    """Raised when extracting a sign against a zero reference value."""


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("modulus must be positive")
    result = m
    n, p = m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def poly_divmod(num, den, p: int = 0) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den (coefficients low to
    high), over Z, or over F_p with both reduced mod p when p > 0."""
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * max(0, len(rem) - dd)
    if quo:
        terms = [(j, d) for j, d in enumerate(den[:dd]) if d]
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] % p if p else rem[i]
            if c:
                quo[i - dd] = c
                for j, d in terms:
                    rem[i - dd + j] -= c * d
    if p:
        return quo, [c % p for c in rem[:dd]]
    return quo, rem[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficient tuple (low to high) of the monic polynomial Phi_m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return (-1, 1)
    # Phi_m = (x^m - 1) / prod_{d|m, d<m} Phi_d
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(num)


class CycNum:
    """An element of Z[zeta_M] in canonical (reduced power basis) form."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Iterable[int]):
        coeffs = list(coeffs)
        deg = euler_phi(modulus)
        if len(coeffs) > deg:
            coeffs = poly_divmod(coeffs, cyclotomic_polynomial(modulus))[1]
        else:
            coeffs += [0] * (deg - len(coeffs))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNum is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def integer(n: int, modulus: int = 1) -> "CycNum":
        deg = euler_phi(modulus)
        return CycNum(modulus, [n] + [0] * (deg - 1))

    @staticmethod
    def zero(modulus: int = 1) -> "CycNum":
        return CycNum.integer(0, modulus)

    @staticmethod
    def one(modulus: int = 1) -> "CycNum":
        return CycNum.integer(1, modulus)

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> tuple["CycNum", "CycNum"]:
        if isinstance(other, int):
            other = CycNum.integer(other, self.modulus)
        if other.modulus == self.modulus:
            return self, other
        m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
        return cyc_embed(self, m), cyc_embed(other, m)

    def __add__(self, other):
        a, b = self._coerce(other)
        return CycNum(a.modulus, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.modulus, [-x for x in self.coeffs])

    def __mul__(self, other):
        a, b = self._coerce(other)
        deg = len(a.coeffs)
        raw = [0] * (2 * deg - 1)
        terms = [(j, y) for j, y in enumerate(b.coeffs) if y]
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in terms:
                    raw[i + j] += x * y
        return CycNum(a.modulus, raw)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("only nonnegative powers are supported")
        out = CycNum.one(self.modulus)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return any(self.coeffs)

    # -- queries -------------------------------------------------------------

    def as_int(self) -> int | None:
        """The value as a plain integer, or None if it is not rational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def cyc_root(modulus: int, k: int) -> CycNum:
    """The root of unity zeta_M^k as an exact element of Z[zeta_M]."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    k %= modulus
    deg = euler_phi(modulus)
    raw = [0] * (modulus if k >= deg else deg)
    raw[k] = 1
    return CycNum(modulus, raw)


def cyc_embed(src: CycNum, modulus: int) -> CycNum:
    """The same algebraic number rewritten in Z[zeta_M'] for src.M | M'."""
    if modulus % src.modulus != 0:
        raise NonDivisibleModulus(
            f"cannot embed Z[zeta_{src.modulus}] into Z[zeta_{modulus}]"
        )
    if modulus == src.modulus:
        return src
    step = modulus // src.modulus
    raw = [0] * ((len(src.coeffs) - 1) * step + 1)
    for i, c in enumerate(src.coeffs):
        raw[i * step] += c
    return CycNum(modulus, raw)


def cyc_is_rational_sign_times(value: CycNum, reference: CycNum) -> int | None:
    """+1 or -1 when value = (+-1) * reference exactly, else None."""
    if not reference:
        raise ZeroReference("sign extraction against zero reference")
    if value == reference:
        return 1
    if value == -reference:
        return -1
    return None
