"""Arithmetic in small finite fields F_q (q = p^f, p odd) and their characters.

Fields are constructed deterministically: the modulus is the lexicographically
least monic irreducible polynomial of degree f over F_p (counting order on the
little-endian coefficient tuple), and the generator is the least element of
multiplicative order q-1 in the same counting order.  A character value is a
single root of unity, so it is read as its exponent: MultChar.sign gives the
value of a character of order dividing 2 as +-1, and AddChar.residue_phase
gives the exponent of zeta_p.  Only sums of additive character values,
elements of Z[zeta_p], are CycNums.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from ._modp import CheckFailed, digit_table


def poly_rem(num, den, p: int) -> list[int]:
    """Remainder of num by the monic den over F_p, both given by their
    coefficients from low to high."""
    rem = list(num)
    dd = len(den) - 1
    terms = [(j, d) for j, d in enumerate(den[:dd]) if d]
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] % p
        if c:
            for j, d in terms:
                rem[i - dd + j] -= c * d
    return [c % p for c in rem[:dd]]


class DivisionByZero(ZeroDivisionError):
    pass


class MixedFields(ValueError):
    pass


class EvalAtZero(ValueError):
    pass


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# A field tabulates one discrete log per element (about 0.35 s to build at
# 2^16 elements, 6.5 s and 200 MB at 2^20), so its order is capped before
# anything, primality included, is computed.
_MAX_ORDER = 2**16


class FqField:
    """The field with p^f elements, with a fixed modulus and generator.

    mul_tensor is the multiplication of the polynomial basis 1, t, ...,
    t^(f-1) as a read-only int64 (f, f, f) array: t^j t^k = sum_l
    mul_tensor[j, k, l] t^l.  Array kernels over F_q read it and
    trace_vector, the traces Tr(t^k) of the basis."""

    def __init__(self, p: int, f: int = 1):
        if f < 1:
            raise ValueError("extension degree must be positive")
        # p^min(f, 17) > 2^16 for every p >= 2, and a huge p is never raised.
        if p > _MAX_ORDER or p ** min(f, _MAX_ORDER.bit_length()) > _MAX_ORDER:
            order = p if f == 1 else f"{p}^{f}"
            raise ValueError(f"field order {order} exceeds {_MAX_ORDER}")
        if not _is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = self._least_irreducible()
        monos = [self.element((0,) * j + (1,)) for j in range(f)]
        self.mul_tensor = np.array([[(a * b).coeffs for b in monos] for a in monos],
                                   dtype=np.int64)
        self.mul_tensor.setflags(write=False)
        # Tr(t^k) is the trace of multiplication by t^k, and Tr is F_p-linear.
        self.trace_vector = np.trace(self.mul_tensor, axis1=1, axis2=2) % p
        self.trace_vector.setflags(write=False)
        self._build_log_tables()

    def _least_irreducible(self) -> tuple[int, ...]:
        # Little-endian coefficients of the non-leading part; poly is monic.
        p, f = self.p, self.f
        if f == 1:
            return (0, 1)
        for cs in digit_table(p, f).tolist():
            if self._irreducible(cs):
                return tuple(cs) + (1,)
        raise CheckFailed("no irreducible polynomial found")

    def _irreducible(self, low) -> bool:
        # low: the little-endian non-leading coefficients.  Trial division
        # by every monic polynomial of degree <= f/2.
        p, f = self.p, self.f
        poly = list(low) + [1]
        for deg in range(1, f // 2 + 1):
            for div in digit_table(p, deg).tolist():
                if not any(poly_rem(poly, div + [1], p)):
                    return False
        return True

    def _build_log_tables(self):
        # Find the least generator, then tabulate discrete logs.
        for cs in digit_table(self.p, self.f)[1:].tolist():
            g = self.element(cs)
            if self._order_is_full(g):
                self.generator = g
                break
        logs: dict[tuple[int, ...], int] = {}
        exps: list[FqElem] = []
        x = self.one()
        for a in range(self.q - 1):
            logs[x.coeffs] = a
            exps.append(x)
            x = x * self.generator
        self._logs = logs
        self._exps = exps

    def _order_is_full(self, g: "FqElem") -> bool:
        n = self.q - 1
        return all(pow_fq(g, n // ell) != self.one() for ell in _prime_factors(n))

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FqElem":
        cs = tuple(c % self.p for c in coeffs)
        if len(cs) < self.f:
            cs = cs + (0,) * (self.f - len(cs))
        elif len(cs) > self.f:
            raise ValueError("too many coefficients")
        return FqElem(self, cs)

    def one(self) -> "FqElem":
        return self.element((1,))

    def from_int(self, n: int) -> "FqElem":
        return self.element((n,))

    def exp(self, a: int) -> "FqElem":
        """g^a for the fixed generator g."""
        return self._exps[a % (self.q - 1)]

    def elements(self):
        for cs in digit_table(self.p, self.f).tolist():
            yield self.element(cs)

    def units(self):
        for x in self.elements():
            if x:
                yield x

    def trace(self, x: "FqElem") -> int:
        """Absolute trace Tr_{F_q/F_p}(x) as an integer in [0, p)."""
        if x.field != self:
            raise MixedFields(f"{x.field} vs {self}")
        return int(np.dot(x.coeffs, self.trace_vector)) % self.p

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def __repr__(self):
        return f"FqField(p={self.p}, f={self.f})"


# One field object per order: the memo key is always the pair (p, f).
_field = lru_cache(maxsize=None)(FqField)


def get_field(p: int, f: int = 1) -> FqField:
    return _field(p, f)


class FqElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("FqElem is immutable")

    def _check(self, other: "FqElem"):
        if self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FqElem(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FqElem(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            return FqElem(self.field, tuple((a * other) % p for a in self.coeffs))
        self._check(other)
        p, f = self.field.p, self.field.f
        raw = [0] * (2 * f - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    raw[i + j] += a * b
        return FqElem(self.field, tuple(poly_rem(raw, self.field.modulus, p)))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if not self:
            raise DivisionByZero("inverse of zero")
        return self.field.exp(-self.discrete_log())

    def discrete_log(self) -> int:
        if not self:
            raise DivisionByZero("discrete log of zero")
        return self.field._logs[self.coeffs]

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.f, self.coeffs))

    def __repr__(self):
        return f"FqElem({self.coeffs} over F_{self.field.q})"


def pow_fq(x: FqElem, k: int) -> FqElem:
    if k < 0:
        return pow_fq(x.inverse(), -k)
    out, base = x.field.one(), x
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


class MultChar:
    """Multiplicative character g^a -> zeta_{q-1}^{k a}."""

    def __init__(self, field: FqField, exponent: int):
        self.field = field
        self.exponent = exponent % (field.q - 1)

    def sign(self, x: FqElem) -> int:
        """Value as +-1; only valid for characters of order dividing 2."""
        if not x:
            raise EvalAtZero("multiplicative character at zero")
        m = self.field.q - 1
        a = self.exponent * x.discrete_log() % m
        if 2 * a % m:
            raise ValueError(f"{self!r} at {x!r} is not a sign")
        return -1 if a else 1

    def __repr__(self):
        return f"MultChar(k={self.exponent} over F_{self.field.q})"


class AddChar:
    """Additive character x -> zeta_p^{Tr(a x)}."""

    def __init__(self, field: FqField, twist: FqElem | int = 1):
        self.field = field
        self.twist = field.from_int(twist) if isinstance(twist, int) else twist

    def residue_phase(self, x: FqElem) -> int:
        """Tr(a x) in [0, p); the exponent of zeta_p in the value."""
        return self.field.trace(self.twist * x)

    def is_trivial(self) -> bool:
        return not self.twist

    def __eq__(self, other):
        return (isinstance(other, AddChar)
                and (self.field, self.twist) == (other.field, other.twist))

    def __hash__(self):
        return hash((self.field, self.twist))


def quadratic_residue_char(field: FqField) -> MultChar:
    """The quadratic character: +1 on nonzero squares, -1 otherwise."""
    if field.q % 2 == 0:
        raise ValueError("q must be odd")
    return MultChar(field, (field.q - 1) // 2)
