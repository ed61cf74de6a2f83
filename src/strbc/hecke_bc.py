"""Rank-2 Hecke algebra data, reducibility-point solving, and base change.

Everything here is exact bookkeeping: values that live in q_E^{1/2}-powers
are carried as (sign, half-exponent) pairs, roots of unity as cyclotomic
integers, and the imaginary reducibility offset as the symbolic token
pi*i/log q_E.  The normalization scalars of the two generators cancel in
every exported result; they are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt

from .cyclotomic import CycNum, cyc_embed, cyc_root
from .finite_field import FqField, MultChar, quadratic_residue_char
from .gauss import SignResult
from .local_model import TowerSpec


class InconsistentParams(ValueError):
    pass


class NoConsistentValue(ValueError):
    pass


class NotSelfDual(ValueError):
    pass


class MissingSign(ValueError):
    pass


IMAG_TOKEN = "pi*i/log qE"

FOURTH_ROOTS = tuple(cyc_root(4, k) for k in range(4))


def _as_fourth_root(v) -> CycNum:
    if isinstance(v, CycNum):
        return cyc_embed(v, 4)
    if v == 1:
        return cyc_root(4, 0)
    if v == -1:
        return cyc_root(4, 2)
    raise ValueError(f"cannot interpret {v!r} as a 4-th root of unity")


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

    def __mul__(self, other: "QPower") -> "QPower":
        if self.is_zero() or other.is_zero():
            return QPower.zero()
        return QPower(self.sign * other.sign, self.half + other.half)

    def __neg__(self) -> "QPower":
        return QPower(-self.sign, self.half)

    def as_int(self, q: int) -> int:
        if self.is_zero():
            return 0
        if self.half % 2 == 0:
            return self.sign * q ** (self.half // 2)
        s = isqrt(q)
        if s * s != q:
            raise ValueError("half-integral exponent is not an integer")
        return self.sign * s**self.half

    def __repr__(self):
        if self.is_zero():
            return "0"
        s = "-" if self.sign < 0 else ""
        if self.half % 2 == 0:
            return f"{s}q^{self.half // 2}"
        return f"{s}q^{self.half}/2"


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
    """The rank-2 datum: two generators, each with an index c_w, a rank
    r_w in {0, 1}, a sign eps_w, and the coefficient b_w of its quadratic
    relation T^2 = b T + c.

    b_w is pinned by the invariant b_w = eps_w (q_E - 1)(c_w/q_E)^{1/2}
    when r_w = 1 and b_w = 0 when r_w = 0; a passed b_w is validated.
    """

    def __init__(self, q_E: int, r_y: int, r_z: int, c_y: int, c_z: int,
                 eps_y: int = 1, eps_z: int = 1,
                 b_y=None, b_z=None):
        if q_E < 3:
            raise InconsistentParams("q_E must be an odd prime power >= 3")
        if r_y not in (0, 1) or r_z not in (0, 1):
            raise InconsistentParams("ranks must be 0 or 1")
        if eps_y not in (-1, 1) or eps_z not in (-1, 1):
            raise InconsistentParams("eps_w must be signs")
        self.q_E = q_E
        self.r_y, self.r_z = r_y, r_z
        self.c_y, self.c_z = c_y, c_z
        self.eps_y, self.eps_z = eps_y, eps_z
        self.k_y = _power_of(q_E, c_y)
        self.k_z = _power_of(q_E, c_z)
        self.b_y = self._coefficient("y", b_y)
        self.b_z = self._coefficient("z", b_z)

    def _coefficient(self, w: str, given) -> QPower:
        r = getattr(self, f"r_{w}")
        eps = getattr(self, f"eps_{w}")
        k = getattr(self, f"k_{w}")
        if r == 0:
            expect = QPower.zero()
        else:
            if (k - 1) % 2 and isqrt(self.q_E) ** 2 != self.q_E:
                raise InconsistentParams(
                    f"(c_{w}/q_E)^(1/2) must be integral when r_{w} = 1"
                )
            expect = QPower(eps, k - 1)  # times (q_E - 1), tracked separately
        if given is not None:
            got = given
            if isinstance(got, CycNum):
                got = got.as_int()
                if got is None:
                    raise InconsistentParams(f"b_{w} must be rational")
            want = 0 if expect.is_zero() else (
                (self.q_E - 1) * expect.as_int(self.q_E)
            )
            if got != want:
                raise InconsistentParams(
                    f"b_{w} = {got} does not match the invariant value {want}"
                )
        return expect

    def __repr__(self):
        return (
            f"HeckeParams(q_E={self.q_E}, r=({self.r_y},{self.r_z}), "
            f"c=({self.c_y},{self.c_z}), eps=({self.eps_y},{self.eps_z}))"
        )


def hecke_eigenvalues(hp: HeckeParams) -> dict[str, tuple[QPower, QPower]]:
    """Roots of T^2 = b_w T + c_w per generator, as exact q-powers.

    With b_w = eps (q_E - 1)(c_w/q_E)^{1/2} the discriminant is the perfect
    square (q_E + 1)^2 c_w/q_E, so the roots are
    eps * {-(c_w/q_E)^{1/2}, q_E (c_w/q_E)^{1/2}}; with b_w = 0 they are
    +-c_w^{1/2}.
    """
    out = {}
    for w in ("y", "z"):
        b = getattr(hp, f"b_{w}")
        k = getattr(hp, f"k_{w}")
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
        if r != getattr(hp, f"r_{w}"):
            raise InconsistentParams(
                f"spectrum of T_{w} implies rank {r}, datum says "
                f"{getattr(hp, f'r_{w}')}"
            )
    return out


# ---------------------------------------------------------------------------
# Level-zero characters.


class LevelZeroChar:
    """A tame character datum: a multiplicative character of the residue
    Teichmueller group plus a value at the uniformizer.

    GL side: the big character rho-tilde, with at most quadratic restriction
    and rho-tilde(pi_E)^2 = rho-tilde(-1) (self-duality under the chosen
    conjugation, which sends pi_E to -pi_E^{-1}).  U side: rho, where only
    rho(-1) enters downstream.
    """

    def __init__(self, field: FqField, mu_part: MultChar,
                 varpi_value=None, side: str = "gl"):
        if side not in ("gl", "u"):
            raise ValueError(f"side must be 'gl' or 'u', got {side!r}")
        if mu_part.field != field:
            raise ValueError("mu_part must live on the given field")
        self.field = field
        self.mu_part = mu_part
        self.side = side
        if side == "gl":
            half = (field.q - 1) // 2
            if mu_part.exponent not in (0, half):
                raise NotSelfDual(
                    "restriction to the Teichmueller group must be at most "
                    "quadratic"
                )
            if varpi_value is None:
                raise ValueError("the GL side needs a uniformizer value")
            self.varpi_value = _as_fourth_root(varpi_value)
            sq = self.varpi_value * self.varpi_value
            if sq.as_int() != self.minus_one():
                raise NotSelfDual(
                    "uniformizer value squared must equal the value at -1"
                )
        else:
            self.varpi_value = (
                None if varpi_value is None else _as_fourth_root(varpi_value)
            )

    def minus_one(self) -> int:
        return self.mu_part.sign(-self.field.one())

    def mu_is_trivial(self) -> bool:
        return self.mu_part.is_trivial()

    def varpi_F_value(self, tower: TowerSpec) -> CycNum:
        """Value at pi_F = u^{-1} pi_E^e."""
        if self.varpi_value is None:
            raise MissingSign("no uniformizer value recorded")
        # the restriction to units is at most quadratic, so its value on
        # u^{-1} is a plain sign
        out = _as_fourth_root(self.mu_part.sign(tower.u.inverse()))
        for _ in range(tower.e):
            out = out * self.varpi_value
        return out

    def __repr__(self):
        return (
            f"LevelZeroChar({self.side}, mu^{self.mu_part.exponent} over "
            f"F_{self.field.q}, varpi={self.varpi_value!r})"
        )


@dataclass(frozen=True)
class ExtensionChar:
    """The p-primary extension datum: trivial on the Teichmueller group,
    value 1 at pi_F, and a 4-th root of unity at pi_E."""

    varpi_E_value: CycNum
    minus_one: CycNum
    varpi_F_value: CycNum = field(default_factory=lambda: cyc_root(4, 0))


def p_primary_extension(e: int, known, minus_one) -> ExtensionChar:
    """The unique 4-th root z with z^e = known and z^2 = minus_one, e odd.

    ``known`` is the value forced on the pi_E^e side, ``minus_one`` the
    value at -1.  Oddness of e makes z -> z^e injective on 4-th roots, so a
    consistent pair has exactly one solution.
    """
    if e % 2 == 0:
        raise ValueError("e must be odd")
    known = _as_fourth_root(known)
    minus_one = _as_fourth_root(minus_one)
    hits = []
    for z in FOURTH_ROOTS:
        p = cyc_root(4, 0)
        for _ in range(e):
            p = p * z
        if p == known and z * z == minus_one:
            hits.append(z)
    if not hits:
        raise NoConsistentValue(
            f"no 4-th root z with z^{e} = {known!r} and z^2 = {minus_one!r}"
        )
    if len(hits) != 1:
        raise AssertionError("solution must be unique for odd e")
    return ExtensionChar(varpi_E_value=hits[0], minus_one=minus_one)


# ---------------------------------------------------------------------------
# Ranks and reducibility.


def rank_values(rho_tilde: LevelZeroChar) -> tuple[int, int]:
    """(r_y, r_z): r_y = 1 always; r_z = 1 exactly when the restriction of
    the big character to the Teichmueller group is trivial."""
    if rho_tilde.side != "gl":
        raise ValueError("rank values are read off the GL-side character")
    return (1, 1 if rho_tilde.mu_is_trivial() else 0)


@dataclass(frozen=True)
class ReducibilityReport:
    real_points: frozenset
    shifted_points: frozenset  # real parts of points offset by pi*i/log qE
    imag_token: str
    eigenvalues: dict
    branch: str

    @property
    def s_values(self) -> set:
        return {abs(x) for x in self.real_points} | {
            abs(x) for x in self.shifted_points
        }


def solve_reducibility(hp: HeckeParams, rho_tilde: LevelZeroChar,
                       rho: LevelZeroChar, eps_z) -> ReducibilityReport:
    """The reducibility points of the family attached to the datum.

    Matches rho-tilde(pi_E) q_E^s against each product branch of the two
    eigenvalue lists (with both generator normalizations cancelled) and
    solves for s by exponent comparison; a sign mismatch contributes the
    offset pi*i/log q_E.
    """
    if rho_tilde.side != "gl":
        raise NotSelfDual("need the GL-side character")
    eps = eps_z.value if isinstance(eps_z, SignResult) else eps_z
    if eps not in (-1, 1):
        raise MissingSign("eps_z sign unavailable")
    from fractions import Fraction  # here, since it also loads decimal
    eig = hecke_eigenvalues(hp)
    s1 = Fraction(hp.r_y + hp.r_z, 2)
    s2 = Fraction(abs(hp.r_y - hp.r_z), 2)
    if hp.r_z == 1:
        # Both coefficients are nonzero; after cancelling the scalar
        # normalizations the matching relation reads
        # rho-tilde(pi_E) q_E^s = rho(-1) eps_z * (q_E^{+-1} or -1).
        w = rho_tilde.varpi_value.as_int()
        if w is None:
            raise NotSelfDual(
                "the r_z = 1 branch needs a rational uniformizer value"
            )
        agree = w == rho.minus_one() * eps
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
        imag_token=IMAG_TOKEN,
        eigenvalues=eig,
        branch=branch,
    )


# ---------------------------------------------------------------------------
# Base change.


def base_change(rho: LevelZeroChar, eps_z, tower: TowerSpec) -> LevelZeroChar:
    """The GL-side tame datum matched to the U-side one.

    The restriction to the Teichmueller group is the (f-1)-th power of the
    quadratic character and the uniformizer value is rho(-1) times the
    computed Gauss-sum sign.
    """
    if rho.side != "u":
        raise ValueError("base change starts from the U-side character")
    if eps_z is None:
        raise MissingSign("the Gauss-sum sign is required")
    eps = eps_z.value if isinstance(eps_z, SignResult) else eps_z
    if eps not in (-1, 1):
        raise MissingSign("the Gauss-sum sign must be +-1")
    kE = tower.kE
    mu = MultChar(kE, (kE.q - 1) // 2 * (tower.f - 1))
    return LevelZeroChar(kE, mu, varpi_value=rho.minus_one() * eps,
                         side="gl")


def rechoice_covariance(rho_tilde: LevelZeroChar, rho: LevelZeroChar,
                        invariance_report: dict, tower: TowerSpec) -> bool:
    """Whether the base-change relation is stable under every uniformizer
    rechoice pi_E -> u pi_E recorded in an epsilon_z_invariance report.

    Rechoosing multiplies the sign by chi^{f-1}(u-bar) and the value of the
    big character at the new uniformizer picks up exactly the same factor,
    so the relation must hold verbatim for every unit row.
    """
    chi = quadratic_residue_char(tower.kE)
    base = rho_tilde.varpi_value.as_int()
    for row in invariance_report["uniformizer"]:
        u = tower.kE.element(row["unit"])
        lhs = base * (chi.sign(u) ** (tower.f - 1))
        if lhs != rho.minus_one() * row["sign"]:
            return False
    return True


# ---------------------------------------------------------------------------
# Parity.


class ParityClass(Enum):
    CONJUGATE_ORTHOGONAL = "ConjugateOrthogonal"
    CONJUGATE_SYMPLECTIC = "ConjugateSymplectic"
    NOT_CONJUGATE_SELF_DUAL = "NotConjugateSelfDual"


def parity_classifier(chi: tuple[MultChar, CycNum],
                      tower: TowerSpec) -> ParityClass:
    """Classify a tame character of F-cross under the ramified quadratic
    descent.

    ``chi`` is (restriction to the Teichmueller group of F, value at pi_F).
    The conjugation fixes the residue field and sends pi_F to -pi_F, so
    conjugate-self-duality means the square of the character is trivial on
    units and chi(-1) chi(pi_F)^2 = 1.  A conjugate-self-dual character is
    orthogonal exactly when its unit part is trivial (its restriction to
    the index-2 subfield is then trivial); otherwise the restriction equals
    the quadratic descent character and the parity is symplectic.
    """
    mu_char, varpi_val = chi
    k = mu_char.field
    if k != tower.k:
        raise ValueError("character must live on the residue field of F")
    half = (k.q - 1) // 2
    varpi_val = _as_fourth_root(varpi_val)
    if mu_char.exponent % (k.q - 1) not in (0, half):
        return ParityClass.NOT_CONJUGATE_SELF_DUAL
    sq = varpi_val * varpi_val
    cm1 = mu_char.sign(-k.one())
    if sq.as_int() is None or sq.as_int() * cm1 != 1:
        return ParityClass.NOT_CONJUGATE_SELF_DUAL
    if mu_char.is_trivial():
        return ParityClass.CONJUGATE_ORTHOGONAL
    return ParityClass.CONJUGATE_SYMPLECTIC
