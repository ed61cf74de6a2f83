"""Rank-2 Hecke algebra data, reducibility-point solving, and base change.

Everything here is exact bookkeeping: values that live in q_E^{1/2}-powers
are carried as (sign, half-exponent) pairs, a fourth root of unity i^k as
its quarter-turn exponent k, and the imaginary reducibility offset as the
symbolic token pi*i/log q_E.  Only the b_w inputs may be cyclotomic
integers.  The normalization scalars of the two generators cancel in
every exported result; they are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from ._modp import CheckFailed
from .cyclotomic import CycNum
from .finite_field import FqField, MultChar, quadratic_residue_char
from .local_model import TowerSpec


class InconsistentParams(ValueError):
    pass


class NoConsistentValue(ValueError):
    pass


class NotSelfDual(ValueError):
    pass


IMAG_TOKEN = "pi*i/log qE"


def to_turns(sign: int) -> int:
    """The quarter-turn exponent k in {0, 2} with i^k = sign."""
    if sign not in (-1, 1):
        raise ValueError(f"cannot interpret {sign!r} as a sign")
    return 1 - sign


def turns_sign(k: int) -> int | None:
    """i^k as +-1, or None when it is +-i."""
    return None if k % 2 else 1 - k % 4


# ---------------------------------------------------------------------------
# Exact q-power arithmetic.


@dataclass(frozen=True)
class QPower:
    """sign * q^(half/2), or zero; the exact scalar type for Hecke data."""

    sign: int
    half: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")

    @staticmethod
    def zero() -> "QPower":
        return QPower(0, 0)

    def is_zero(self) -> bool:
        return self.sign == 0

    def as_int(self, q: int) -> int:
        if self.is_zero():
            return 0
        if self.half % 2 == 0:
            return self.sign * q ** (self.half // 2)
        s = isqrt(q)
        if s * s != q:
            raise ValueError("half-integral exponent is not an integer")
        return self.sign * s**self.half


def _power_of(q: int, c: int) -> int:
    """log_q(c) for an exact positive power, else InconsistentParams."""
    if c < 1:
        raise InconsistentParams(f"{c} is not a positive power of {q}")
    k = 0
    while c > 1:
        if c % q:
            raise InconsistentParams(f"{c} is not a power of {q}")
        c //= q
        k += 1
    return k


# ---------------------------------------------------------------------------
# The Hecke datum.


class HeckeParams:
    """The rank-2 datum: two generators w in {y, z}, each with an index
    c_w = q_E^k_w, a rank r_w (r_y = 1, r_z in {0, 1}), a sign eps_w, and
    the coefficient b_w of its quadratic relation T^2 = b T + c.

    b_w is pinned by the invariant b_w = eps_w (q_E - 1)(c_w/q_E)^{1/2}
    when r_w = 1 and b_w = 0 when r_w = 0.  A passed b_w, an integer or an
    exact cyclotomic total, is validated; eps_w is -1 when a passed b_w is
    not positive, else +1.  ``rank``, ``k`` and ``b`` map each generator to
    r_w, k_w and b_w (a QPower of sign eps_w, without its factor q_E - 1).
    """

    def __init__(self, q_E: int, r_z: int, c_y: int, c_z: int,
                 b_y=None, b_z=None):
        if q_E < 3:
            raise InconsistentParams("q_E must be an odd prime power >= 3")
        if r_z not in (0, 1):
            raise InconsistentParams("r_z must be 0 or 1")
        self.q_E = q_E
        self.rank = {"y": 1, "z": r_z}
        self.k = {"y": _power_of(q_E, c_y), "z": _power_of(q_E, c_z)}
        self.b = {"y": self._coefficient("y", b_y),
                  "z": self._coefficient("z", b_z)}

    def _coefficient(self, w: str, given) -> QPower:
        got = given.as_int() if isinstance(given, CycNum) else given
        if given is not None and got is None:
            raise InconsistentParams(f"b_{w} must be rational")
        eps = -1 if got is not None and got <= 0 else 1
        k = self.k[w]
        if self.rank[w] == 0:
            expect = QPower.zero()
        else:
            if (k - 1) % 2 and isqrt(self.q_E) ** 2 != self.q_E:
                raise InconsistentParams(
                    f"(c_{w}/q_E)^(1/2) must be integral when r_{w} = 1"
                )
            expect = QPower(eps, k - 1)  # times (q_E - 1), tracked separately
        if got is not None:
            want = 0 if expect.is_zero() else (
                (self.q_E - 1) * expect.as_int(self.q_E)
            )
            if got != want:
                raise InconsistentParams(
                    f"b_{w} = {got} does not match the invariant value {want}"
                )
        return expect


def hecke_eigenvalues(hp: HeckeParams) -> dict[str, tuple[QPower, QPower]]:
    """Roots of T^2 = b_w T + c_w per generator, as exact q-powers.

    With b_w = eps (q_E - 1)(c_w/q_E)^{1/2} the discriminant is the perfect
    square (q_E + 1)^2 c_w/q_E, so the roots are
    eps * {-(c_w/q_E)^{1/2}, q_E (c_w/q_E)^{1/2}}; with b_w = 0 they are
    +-c_w^{1/2}.
    """
    out = {}
    for w in ("y", "z"):
        b, k = hp.b[w], hp.k[w]
        if b.is_zero():
            out[w] = (QPower(-1, k), QPower(1, k))
        else:
            out[w] = (QPower(-b.sign, b.half), QPower(b.sign, b.half + 2))
    return out


def normalized_spectrum(hp: HeckeParams) -> dict[str, tuple[int, int]]:
    """Eigenvalues rescaled so the quadratic relation reads
    (T + 1)(T - q_E^{r_w}) = 0; returns {-1, q_E^{r_w}} per generator."""
    raw = hecke_eigenvalues(hp)
    out = {}
    for w in ("y", "z"):
        lo, hi = raw[w]
        r = (hi.half - lo.half) // 2
        if (hi.half - lo.half) % 2:
            raise InconsistentParams(
                f"spectrum of T_{w} is not q_E^r apart for an integer r"
            )
        out[w] = (-1, hp.q_E**r)
        if r != hp.rank[w]:
            raise InconsistentParams(
                f"spectrum of T_{w} implies rank {r}, datum says {hp.rank[w]}"
            )
    return out


# ---------------------------------------------------------------------------
# Level-zero characters.


class LevelZeroChar:
    """The tame datum of the big character rho-tilde: a multiplicative
    character of the residue Teichmueller group plus its value i^k at the
    uniformizer, kept as k.

    The restriction is at most quadratic and rho-tilde(pi_E)^2 =
    rho-tilde(-1) (self-duality under the chosen conjugation, which sends
    pi_E to -pi_E^{-1}).  Of the U-side rho only rho(-1) enters, as a sign.
    """

    def __init__(self, field: FqField, mu_part: MultChar, *,
                 varpi_turns: int):
        if mu_part.field != field:
            raise ValueError("mu_part must live on the given field")
        self.field = field
        self.mu_part = mu_part
        if mu_part.exponent not in (0, (field.q - 1) // 2):
            raise NotSelfDual(
                "restriction to the Teichmueller group must be at most "
                "quadratic"
            )
        if turns_sign(2 * varpi_turns) != self.minus_one():
            raise NotSelfDual(
                "uniformizer value squared must equal the value at -1"
            )
        self.varpi_turns = varpi_turns % 4

    def minus_one(self) -> int:
        return self.mu_part.sign(-self.field.one())

    def varpi_F_turns(self, tower: TowerSpec) -> int:
        """Value at pi_F = u^{-1} pi_E^e, as its quarter-turn exponent."""
        # the restriction to units is at most quadratic, so its value on
        # u^{-1} is a plain sign
        unit = to_turns(self.mu_part.sign(tower.u.inverse()))
        return (unit + tower.e * self.varpi_turns) % 4


def p_primary_extension(e: int, known: int, minus_one: int) -> int:
    """The unique z mod 4 with e z = known and 2 z = minus_one, e odd.

    i^z is the value at pi_E of the p-primary extension (trivial on the
    Teichmueller group, 1 at pi_F), i^known the value forced on the pi_E^e
    side and i^minus_one the value at -1.  Oddness of e makes z -> e z
    injective mod 4, so a consistent pair has exactly one solution.
    """
    if e % 2 == 0:
        raise ValueError("e must be odd")
    hits = [z for z in range(4)
            if (e * z - known) % 4 == 0 and (2 * z - minus_one) % 4 == 0]
    if not hits:
        raise NoConsistentValue(
            f"no 4-th root i^z with i^({e} z) = i^{known} and "
            f"i^(2 z) = i^{minus_one}"
        )
    if len(hits) != 1:
        raise CheckFailed("solution must be unique for odd e")
    return hits[0]


def checked_varpi_F_turns(rho_tilde: LevelZeroChar, tower: TowerSpec) -> int:
    """rho_tilde(pi_F) as its quarter-turn exponent, after the
    varpi-extension check: p_primary_extension re-solves rho_tilde(pi_E)
    from it through pi_E^e = u pi_F and rho_tilde(pi_E)^2 = rho_tilde(-1),
    and must find the recorded value."""
    varpi_F = rho_tilde.varpi_F_turns(tower)
    known = (varpi_F + to_turns(rho_tilde.mu_part.sign(tower.u))) % 4
    try:
        varpi_E = p_primary_extension(tower.e, known,
                                      to_turns(rho_tilde.minus_one()))
    except NoConsistentValue as exc:
        raise CheckFailed(f"varpi-extension check: {exc}") from exc
    if varpi_E != rho_tilde.varpi_turns:
        raise CheckFailed("varpi-extension check: the pi_E value re-solved "
                          "from pi_F is not the recorded one")
    return varpi_F


# ---------------------------------------------------------------------------
# Reducibility.


@dataclass(frozen=True)
class ReducibilityReport:
    real_points: frozenset
    shifted_points: frozenset  # real parts of points offset by IMAG_TOKEN
    branch: str


def solve_reducibility(hp: HeckeParams, rho_tilde: LevelZeroChar,
                       rho_minus_one: int) -> ReducibilityReport:
    """The reducibility points of the family attached to the datum.

    Matches rho-tilde(pi_E) q_E^s against each product branch of the two
    eigenvalue lists (with both generator normalizations cancelled) and
    solves for s by exponent comparison; a sign mismatch contributes the
    offset pi*i/log q_E.  rho_minus_one is rho(-1) of the U-side character,
    and eps_z is the sign of b_z in hp.
    """
    from fractions import Fraction  # here, since it also loads decimal
    r_y, r_z = hp.rank["y"], hp.rank["z"]
    s1 = Fraction(r_y + r_z, 2)
    s2 = Fraction(abs(r_y - r_z), 2)
    if r_z == 1:
        # Both coefficients are nonzero; after cancelling the scalar
        # normalizations the matching relation reads
        # rho-tilde(pi_E) q_E^s = rho(-1) eps_z * (q_E^{+-1} or -1).
        eps_z = hp.b["z"].sign
        w = turns_sign(rho_tilde.varpi_turns)
        if w is None:
            raise NotSelfDual(
                "the r_z = 1 branch needs a rational uniformizer value"
            )
        agree = w == rho_minus_one * eps_z
        if agree:
            real = {s1, -s1}
            shifted = {s2} if s2 == 0 else {s2, -s2}
            branch = "rho-tilde(pi_E) = rho(-1) eps_z"
        else:
            real = {s2} if s2 == 0 else {s2, -s2}
            shifted = {s1, -s1}
            branch = "rho-tilde(pi_E) = -rho(-1) eps_z"
    else:
        # b_z = 0: the z-eigenvalues come in an exact +- pair, so all four
        # half-integral points occur regardless of the 4-th root chosen.
        real = {s1, -s1}
        shifted = {s1, -s1}
        branch = "b_z = 0"
    return ReducibilityReport(
        real_points=frozenset(real),
        shifted_points=frozenset(shifted),
        branch=branch,
    )


# ---------------------------------------------------------------------------
# Base change.


def base_change(rho_minus_one: int, eps_z: int, tower: TowerSpec) -> LevelZeroChar:
    """The GL-side tame datum matched to the U-side one, given by rho(-1).

    The restriction to the Teichmueller group is the (f-1)-th power of the
    quadratic character and the uniformizer value is rho(-1) times the
    computed Gauss-sum sign.
    """
    kE = tower.kE
    mu = MultChar(kE, (kE.q - 1) // 2 * (tower.f - 1))
    return LevelZeroChar(kE, mu,
                         varpi_turns=to_turns(rho_minus_one * eps_z))


def rechoice_covariance(rho_tilde: LevelZeroChar, rho_minus_one: int,
                        invariance_report: dict, tower: TowerSpec) -> bool:
    """Whether the base-change relation is stable under every uniformizer
    rechoice pi_E -> u pi_E recorded in an epsilon_z_invariance report.

    Rechoosing multiplies the sign by chi^{f-1}(u-bar) and the value of the
    big character at the new uniformizer picks up exactly the same factor,
    so the relation must hold verbatim for every unit row.
    """
    chi = quadratic_residue_char(tower.kE)
    base = turns_sign(rho_tilde.varpi_turns)
    if base is None:
        raise NotSelfDual("the rechoice relation needs a rational "
                          "uniformizer value")
    for row in invariance_report["uniformizer"]:
        u = tower.kE.element(row["unit"])
        lhs = base * (chi.sign(u) ** (tower.f - 1))
        if lhs != rho_minus_one * row["sign"]:
            return False
    return True
