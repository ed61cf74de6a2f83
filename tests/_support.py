"""Reference routes and checks that only the tests use.

Each is an independent second route to something the package computes
(exact sums in the general ring Z[zeta_M] of cyclotomic integers, a
character value as an element of it, the Gauss sum point by point, the trace and the inverse of the regular representation, the graded
centralizer, the zeta-conjugation index, the graded layer maps one basis
matrix at a time, the ad-kernel minimality test, the two-branch W_z
complement, and the general coset solver ``ref_solve_Y_from_X``, the
reference for the window-only ``stratum.solve_Y_from_X``: one coordinate
array per W_z block, an auxiliary degree-0 component and the cross terms of
two live components) or a check of an identity the package relies on (the
embedding relations of E in the matrices, the independence of a path-A term
from its auxiliary degree-0 component).  The rest is data that only the tests read:
the five depth-one case names, a coefficient and the inverse of an
E-element, the zero of F_q, the triviality of a multiplicative character,
the leading-term minimality test, the rank values and s-values of the Hecke
datum and the parity of a tame character of F-cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from math import gcd
from pathlib import Path
from typing import Iterable

import numpy as np

from strbc import _modp, stratum
from strbc.cli import ExperimentConfig
from strbc.cyclotomic import CycNum, cyc_root
from strbc.finite_field import AddChar, FqElem, FqField, MultChar, pow_fq
from strbc.gauss import EnumerationTooLarge, QuadSpace, TrivialAdditiveCharacter
from strbc.hecke_bc import LevelZeroChar, ReducibilityReport, turns_sign
from strbc.local_model import (
    EElem,
    MatF,
    NotInSubfield,
    TowerSpec,
    ZeroElement,
    _in_level,
    _index_exponent,
    build_Wz,
    h1_lattice,
    intersect_row_spaces,
    inverse_unit,
    j0_lattice,
    level_gens,
)

GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"
R1_CASE_NAMES = ("u1", "e3f1", "e1f2", "e3f2", "e5f1")


def golden_stratum(name: str):
    """The stratum of the golden config tests/golden/configs/<name>.json."""
    return ExperimentConfig.load(str(GOLDEN_CONFIGS / f"{name}.json")).build_stratum()


# ---------------------------------------------------------------------------
# The general ring Z[zeta_M]: the reference for the package's Z[zeta_p].
#
# Elements are stored on the power basis zeta_M^0, ..., zeta_M^(phi(M)-1),
# reduced modulo the M-th cyclotomic polynomial, with arbitrary-precision
# integer coefficients.  Values of different moduli coerce to their lcm.


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


def poly_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den over Z (coefficients
    low to high)."""
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * max(0, len(rem) - dd)
    if quo:
        terms = [(j, d) for j, d in enumerate(den[:dd]) if d]
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                quo[i - dd] = c
                for j, d in terms:
                    rem[i - dd + j] -= c * d
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


class RefCycNum:
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

    def __setattr__(self, *a):
        raise AttributeError("RefCycNum is immutable")

    @staticmethod
    def integer(n: int, modulus: int = 1) -> "RefCycNum":
        deg = euler_phi(modulus)
        return RefCycNum(modulus, [n] + [0] * (deg - 1))

    @staticmethod
    def zero(modulus: int = 1) -> "RefCycNum":
        return RefCycNum.integer(0, modulus)

    @staticmethod
    def one(modulus: int = 1) -> "RefCycNum":
        return RefCycNum.integer(1, modulus)

    def _coerce(self, other) -> tuple["RefCycNum", "RefCycNum"]:
        if isinstance(other, int):
            other = RefCycNum.integer(other, self.modulus)
        if other.modulus == self.modulus:
            return self, other
        m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
        return ref_embed(self, m), ref_embed(other, m)

    def __add__(self, other):
        a, b = self._coerce(other)
        return RefCycNum(a.modulus, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return RefCycNum(self.modulus, [-x for x in self.coeffs])

    def __mul__(self, other):
        a, b = self._coerce(other)
        deg = len(a.coeffs)
        raw = [0] * (2 * deg - 1)
        terms = [(j, y) for j, y in enumerate(b.coeffs) if y]
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in terms:
                    raw[i + j] += x * y
        return RefCycNum(a.modulus, raw)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("only nonnegative powers are supported")
        out = RefCycNum.one(self.modulus)
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

    def as_int(self) -> int | None:
        """The value as a plain integer, or None if it is not rational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def ref_root(modulus: int, k: int) -> RefCycNum:
    """The root of unity zeta_M^k as an exact element of Z[zeta_M]."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    k %= modulus
    deg = euler_phi(modulus)
    raw = [0] * (modulus if k >= deg else deg)
    raw[k] = 1
    return RefCycNum(modulus, raw)


def ref_embed(src: RefCycNum, modulus: int) -> RefCycNum:
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
    return RefCycNum(modulus, raw)


def ref_is_rational_sign_times(value: RefCycNum, reference: RefCycNum) -> int | None:
    """+1 or -1 when value = (+-1) * reference exactly, else None."""
    if not reference:
        raise ZeroReference("sign extraction against zero reference")
    if value == reference:
        return 1
    if value == -reference:
        return -1
    return None


def as_ref(x: CycNum) -> RefCycNum:
    """A package element of Z[zeta_p] as the same element of the reference
    ring: both store the coefficients of zeta_p^0, ..., zeta_p^(p-2)."""
    return RefCycNum(x.p, x.coeffs)


# ---------------------------------------------------------------------------
# Character values and Gauss sums point by point.


def zero(field: FqField) -> FqElem:
    return field.element(())


def is_trivial(chi: MultChar) -> bool:
    return chi.exponent == 0


def mult_value(chi: MultChar, x: FqElem) -> RefCycNum:
    """chi(x) = zeta_{q-1}^(a log x) for chi = MultChar(k, a)."""
    return ref_root(chi.field.q - 1, chi.exponent * x.discrete_log())


def add_phase(psi: AddChar, x: FqElem) -> int:
    """The exponent a x of zeta_p in psi(x), psi = AddChar(F_p, a)."""
    (c,) = x.coeffs
    return psi.twist * c % psi.field.p


def add_value(psi: AddChar, x: FqElem) -> RefCycNum:
    """psi(x) = zeta_p^(a x) for psi = AddChar(F_p, a)."""
    return ref_root(psi.field.p, add_phase(psi, x))


def evaluate(space: QuadSpace, xs: list[FqElem]) -> FqElem:
    """Q(xs) = xs^T S xs, entry by entry over F_p."""
    acc = zero(space.field)
    for i in range(space.dim):
        if not xs[i]:
            continue
        for j in range(space.dim):
            acc = acc + xs[i] * space.field.from_int(int(space.gram[i, j])) * xs[j]
    return acc


def gauss_sum_brute_slow(space: QuadSpace, psi: AddChar,
                         bound: int = 10**5) -> RefCycNum:
    """Pure point-by-point enumeration; cross-checks the vectorized route."""
    if psi.is_trivial():
        raise TrivialAdditiveCharacter("brute Gauss sum needs nontrivial psi")
    fld = space.field
    if fld.p**space.dim > bound:
        raise EnumerationTooLarge("slow brute route past its bound")
    total = RefCycNum.zero(fld.p)
    for xs in product(list(fld.elements()), repeat=space.dim):
        total = total + add_value(psi, evaluate(space, list(xs)))
    return total


# ---------------------------------------------------------------------------
# Row spaces mod p.


def in_row_space(vec: np.ndarray, basis: np.ndarray, p: int) -> bool:
    """Whether vec lies in the row space of basis mod p."""
    if basis.size == 0:
        return not np.any(vec % p)
    return _modp.rank(np.vstack([basis, vec]), p) == _modp.rank(basis, p)


# ---------------------------------------------------------------------------
# The tower model.


def trace_EF(tower: TowerSpec, x: EElem) -> tuple[dict[int, int], int]:
    """Tr_{E/F}(x) as ({t: c} nonzero w_F^t coefficients, fprec): e times
    the extraction functional tau at shift 0, e * Tr_{k_E/k}(a_{et} u^t)."""
    coeffs, fprec = tower.tau(x, 0)
    return {t: v for t, c in coeffs.items() if (v := c * tower.e % tower.p)}, fprec


def coeff(x: EElem, i: int) -> FqElem:
    """The coefficient a_i of x as an element of k_E."""
    return x.tower.kE.element(x.row(i).tolist())


def e_inverse(x: EElem) -> EElem:
    """x = w_E^v (a_0 + a_1 w_E + ...) is inverted row by row: the
    coefficients y_k of w_E^v / x solve sum_j a_j y_(k-j) = [k = 0]."""
    v, a, t = x.val(), x.rows, x.tower
    lead_inv = _modp.mat_inv(t._kE_mul(a[0]), t.p)
    y = np.zeros((x.prec - v, t.f), dtype=np.int64)
    for k in range(len(y)):
        j = np.arange(1, min(k, len(a) - 1) + 1)
        rhs = -np.einsum("js,jt,stl->l", a[j], y[k - j], t.kE.mul_tensor)
        rhs[0] += k == 0
        y[k] = lead_inv @ rhs % t.p
    return EElem(t, -v, y, x.prec - 2 * v)


def e_from_mat(tower: TowerSpec, X: MatF) -> EElem:
    """Image of 1 = w_{0,0} under X, as an element of E."""
    col = tower.basis_index(0, 0)
    prec = X.fprec * tower.e
    out = EElem(tower, 0, [], prec)
    for k in range(X.arr.shape[0]):
        t = X.g + k
        uinv_t = pow_fq(tower.u, -t)
        for a in range(tower.e):
            c = zero(tower.kE)
            for b in range(tower.f):
                v = int(X.arr[k, tower.basis_index(a, b), col])
                if v:
                    c = c + pow_fq(tower.kE.generator, b) * v
            if c:
                out = out + tower.e_monomial(a + tower.e * t, c * uinv_t, prec)
    return out


def embed_E_in_matrices(tower: TowerSpec) -> dict:
    """Build m_x on generators and verify the embedding relations."""
    we = tower.m_of(tower.varpi_E())
    wf = tower.m_of(tower.varpi_F())
    mu = tower.m_of(tower.e_monomial(0, tower.u))
    acc = MatF.identity(tower)
    for _ in range(tower.e):
        acc = acc @ we
    if not (acc - mu @ wf).is_zero():
        raise AssertionError("m_{w_E}^e != m_u m_{w_F}")
    mz = tower.m_of(tower.e_monomial(0, tower.kE.generator))
    order = 1
    cur = mz
    ident = MatF.identity(tower)
    while not (cur - ident).is_zero():
        cur = cur @ mz
        order += 1
        if order > tower.kE.q:
            raise AssertionError("m_zeta order overflow")
    if order != tower.kE.q - 1:
        raise AssertionError(f"m_zeta has order {order}, wanted {tower.kE.q - 1}")
    # alpha(m_x) = -m_{sigma(x)} on a sample of monomials.
    for i in (-1, 0, 1, 2):
        for c in (tower.kE.one(), tower.kE.generator):
            x = tower.e_monomial(i, c)
            lhs = tower.alpha(tower.m_of(x))
            rhs = -tower.m_of(x.sigma())
            if not (lhs.truncated(rhs.fprec) - rhs.truncated(lhs.fprec)).is_zero():
                raise AssertionError(f"alpha(m_x) != -m_sigma(x) at x = {c!r} w_E^{i}")
    return {"varpi_E": we, "varpi_F": wf, "zeta": mz}


@dataclass
class GradedSpace:
    tower: TowerSpec
    grades: dict[int, np.ndarray]

    def dim_k(self, m: int) -> int:
        basis = self.grades.get(m)
        return 0 if basis is None else basis.shape[0]


def centralizer_filtration(
    tower: TowerSpec, gamma: EElem, k: int, horizon: int | None = None
) -> GradedSpace:
    """Graded basis of {X : X gamma = gamma X, v(X) >= k}."""
    gens: tuple[EElem, ...] = () if _in_level(tower, gamma, -1) else (gamma,)
    if gens:
        _check_support(tower, gamma)
    span = tower.e if horizon is None else horizon
    grades = {
        m: (
            tower.cent_layer(gens, m)
            if m < tower.N
            else np.zeros((0, tower.n * tower.f), dtype=np.int64)
        )
        for m in range(k, k + span)
    }
    return GradedSpace(tower, grades)


def _check_support(tower: TowerSpec, gamma: EElem) -> None:
    # gamma must generate a subfield of E over F; any Laurent support works
    # for the commutator construction, so only sanity is enforced here.
    if gamma.is_zero():
        raise NotInSubfield("zero element generates nothing")


# ---------------------------------------------------------------------------
# Graded layers one basis matrix at a time.


def layer_basis_loop(tower: TowerSpec, m: int) -> list[MatF]:
    """The degree-m maps of the unit coordinate vectors, one MatF each."""
    return [tower.mat_from_layer(m, vec)
            for vec in np.eye(tower.n * tower.f, dtype=np.int64)]


def cent_layer_loop(tower: TowerSpec, gens: tuple[EElem, ...], m: int) -> np.ndarray:
    """Basis (rows) of the degree-m centralizer layer of gens, one bracket
    per basis matrix and monomial."""
    if not gens:
        return np.eye(tower.n * tower.f, dtype=np.int64)
    maps = []
    for g in gens:
        for i in g.exponents():
            mg = tower.m_of(tower.e_monomial(i, coeff(g, i), prec=g.prec))
            cols = [tower.layer_coords((Xk @ mg) - (mg @ Xk), m + i)
                    for Xk in layer_basis_loop(tower, m)]
            maps.append(np.array(cols, dtype=np.int64).T)
    out = _modp.nullspace(np.vstack(maps), tower.p)
    return _modp.row_space_basis(out, tower.p) if out.size else out


def alpha_matrix_loop(tower: TowerSpec, m: int) -> np.ndarray:
    """Matrix of alpha on degree-m layer coordinates, one column per basis
    matrix."""
    return np.array([tower.layer_coords(tower.alpha(X), m)
                     for X in layer_basis_loop(tower, m)], dtype=np.int64).T


def ad_kernel(tower: TowerSpec, c: EElem, space: np.ndarray) -> np.ndarray:
    """Basis of {X in span(space), degree 0 : [X, c] = 0 mod higher degree},
    with the whole of c in the bracket."""
    v = c.val()
    cm = tower.m_of(c)
    rows = []
    for row in space:
        X = tower.mat_from_layer(0, row)
        rows.append(tower.layer_coords((X @ cm) - (cm @ X), v))
    if not rows:
        return space
    amap = np.array(rows, dtype=np.int64)
    combos = _modp.nullspace(amap.T, tower.p)
    if combos.size == 0:
        return np.zeros((0, space.shape[1]), dtype=np.int64)
    return _modp.row_space_basis(combos @ space % tower.p, tower.p)


def minimal_by_ad_kernel(tower: TowerSpec, c: EElem, j: int | None = None) -> bool:
    """Minimality of c by the rank of its ad-kernel: inside the declared
    level-(j+1) centralizer against the declared level-j one, or, with j
    None, inside the whole degree-0 layer against one copy of k_E."""
    if j is None:
        kern = ad_kernel(tower, c, np.eye(tower.n * tower.f, dtype=np.int64))
        return _modp.rank(kern, tower.p) == tower.f
    upper = cent_layer_loop(tower, stratum._declared_gens(tower, j + 1), 0)
    lower = cent_layer_loop(tower, stratum._declared_gens(tower, j), 0)
    return (_modp.rank(ad_kernel(tower, c, upper), tower.p)
            == _modp.rank(lower, tower.p))


def minimality_check(t: TowerSpec, c: EElem) -> bool:
    """Whether the single-element stratum generated by c is minimal.

    Graded criterion: the kernel of ad_c from the degree-0 layer to the
    degree-v(c) layer must be exactly one copy of the residue field of E,
    i.e. commuting with c to leading order already forces membership in the
    E-line modulo depth.
    """
    if c.is_zero():
        raise ZeroElement("zero element")
    v = c.val()
    if v >= 0:
        raise stratum.NonNegativeValuation(f"v(c) = {v} must be negative")
    # Only the leading monomial of c brackets the degree-0 layer into degree v.
    lead = EElem(t, v, c.rows[:1], c.prec)
    return t.cent_layer((lead,), 0).shape[0] == t.f


def orthogonal_complement_branches(tower: TowerSpec, stratum, j: int, m: int,
                                   upper: np.ndarray, lower: np.ndarray
                                   ) -> tuple[np.ndarray, str]:
    """The W_z complement of `lower` in `upper` with a separate tame branch,
    and the branch taken: "no dual", "tame" or "wild"."""
    p = tower.p
    dual = cent_layer_loop(tower, level_gens(stratum, j), -m)
    if dual.shape[0] == 0:
        return upper, "no dual"
    umats = [tower.mat_from_layer(-m, v) for v in dual]
    cond = np.array([[np.trace((Xc @ U).layer(0)) % p
                      for Xc in layer_basis_loop(tower, m)] for U in umats],
                    dtype=np.int64)
    ortho = intersect_row_spaces(upper, _modp.nullspace(cond, p), p)
    want = upper.shape[0] - lower.shape[0]
    if (ortho.shape[0] == want
            and _modp.rank(np.vstack([lower, ortho]), p) == lower.shape[0] + want):
        return ortho, "tame"
    return _modp.complete_basis(lower, np.vstack([ortho, upper]), p), "wild"


def wz_blocks_by_branches(tower: TowerSpec, stratum) -> list[tuple[np.ndarray, str]]:
    """(basis, branch) of each W_z block, from the row loops and the
    two-branch complement."""
    out = []
    for j in range(stratum.d + 1):
        s_j = stratum.s_list[j]
        upper = cent_layer_loop(tower, level_gens(stratum, j + 1), s_j)
        lower = cent_layer_loop(tower, level_gens(stratum, j), s_j)
        out.append(orthogonal_complement_branches(tower, stratum, j, s_j,
                                                  upper, lower))
    return out


def zeta_conjugation_index(tower: TowerSpec, stratum) -> int:
    """[J_P^+ : zeta J_P^+ zeta^{-1}] with zeta = i_M(w_E I, I); the block
    conjugation shifts the X-lattice by one grade and the Y-lattice by two."""
    h1 = h1_lattice(tower, stratum)
    j0 = j0_lattice(tower, stratum)
    s0 = stratum.s_list[0] if stratum.s_list else 0
    win = (-(s0 + 2 * tower.e + 3), s0 + 2 * tower.e + 3)
    x_exp = _index_exponent(tower, j0, j0.shifted(1), win, alpha_fixed=False)
    y_exp = _index_exponent(
        tower, h1.shifted(-1), h1.shifted(1), win, alpha_fixed=True
    )
    return tower.p ** (x_exp + y_exp)


# ---------------------------------------------------------------------------
# The general coset solver and the b_z oracle.
#
# The package solver is window-only: one W_z block and no auxiliary
# component.  The general form below takes one coordinate array per block
# and an auxiliary degree-0 component, and adds the P_t cross terms of two
# live components, so it also solves on strata of two blocks (d1-tower).


def ref_solve_Y_from_X(s, x_coords, logs, aux: EElem | None = None):
    """Solve the coset relation for Y given a stack of W_z representatives X.

    ``logs`` holds the discrete logs of B units y of k_E and ``x_coords``
    one (B, n f) coordinate array per graded block of W_z; ``aux`` is the
    auxiliary degree-0 component X_0 in o_E (default 0), shared by the
    stack.  Returns the stacks (Y', X, alpha(X)) of the solved Y' and the
    assembled X with its alpha.  Y' is the sum of the P_t and Q_t terms,
    each solved from its own (1 - alpha) system, and X alpha(X) =
    Y - alpha(Y) with Y = y w_E^-1 (1 + Y') is verified exactly for every
    term before returning; a term that fails a check is named by its stack
    index.
    """
    tower = s.tower
    p, nf = tower.p, tower.n * tower.f
    logs = np.asarray(logs, dtype=np.int64)
    wz = build_Wz(tower, s)
    x_coords = [np.asarray(v, dtype=np.int64) % p for v in x_coords]
    if len(x_coords) != len(wz.blocks):
        raise stratum.DegenerateX(
            f"need {len(wz.blocks)} block components, got {len(x_coords)}"
        )
    # Component index t: t = 0 is the auxiliary o_E piece (degree 0), and
    # t = j + 1 is the block-j piece at degree s_j.
    if aux is None or aux.is_zero():
        comps = [MatF.zero(tower)]
    elif aux.val() < 0:
        raise stratum.DegenerateX("auxiliary part must be integral")
    else:
        comps = [tower.m_of(aux)]
    grades = [0]
    for block, vec in zip(wz.blocks, x_coords):
        if vec.shape != (len(logs), nf):
            raise stratum.DegenerateX("component has the wrong coordinate length")
        stratum._fail_first(
            (vec @ stratum._annihilator(tower, block.basis).T % p).any(axis=-1),
            stratum.DegenerateX, f"component at level {block.j} escapes its block")
        comps.append(tower.mat_from_layer(block.grade, vec))
        grades.append(block.grade)
    # A zero component (X_0 unless aux is given) enters only terms that
    # solve to zero, so its alpha, products and solves are skipped.
    live = [t for t, C in enumerate(comps) if not C.is_zero()]
    alphas = {t: tower.alpha(comps[t]) for t in live}
    winv = stratum._unit_mats(tower, 1, -logs)
    yp = MatF.zero(tower, batch=(len(logs),))
    for t in live:
        gens = level_gens(s, t)
        # Q_t: the diagonal square term, a single homogeneous degree.
        terms = [(2 * grades[t], comps[t] @ alphas[t])]
        # P_t: cross terms with max index t, grouped by degree.
        by_grade: dict[int, MatF] = {}
        for k in live:
            for l in live:
                if k != l and max(k, l) == t:
                    gkl = grades[k] + grades[l]
                    term = comps[k] @ alphas[l]
                    prev = by_grade.get(gkl)
                    by_grade[gkl] = term if prev is None else prev + term
        for m, mat in terms + list(by_grade.items()):
            z = stratum._solve_one_minus_alpha(tower, m, gens,
                                               _coords_or_zero(tower, mat, m))
            yp = yp + winv @ tower.mat_from_layer(m, z)
    Y = stratum._unit_mats(tower, -1, logs) @ (MatF.identity(tower, yp.fprec) + yp)
    xtot = comps[0]
    for C in comps[1:]:
        xtot = xtot + C
    alpha_x = tower.alpha(xtot)
    stratum._fail_first((xtot @ alpha_x - (Y - tower.alpha(Y))).nonzero_mask(),
                        stratum.NoSolution, "assembled Y fails the defining relation")
    return yp, xtot, alpha_x


def _coords_or_zero(tower: TowerSpec, mat: MatF, m: int) -> np.ndarray:
    if mat.is_zero():
        return np.zeros(mat.batch + (tower.n * tower.f,), dtype=np.int64)
    return tower.layer_coords(mat, m)


def block_coords(wz, X: np.ndarray) -> list[np.ndarray]:
    """The per-block coordinate arrays of ``ref_solve_Y_from_X`` for a
    (B, dim) stack X of W_z coordinates."""
    out, at = [], 0
    for block in wz.blocks:
        k = block.basis.shape[0]
        out.append(X[:, at : at + k] @ block.basis % wz.tower.p)
        at += k
    return out


def _bz_term_with_aux(s, big, root, wz, y: FqElem, X: np.ndarray,
                      aux: EElem) -> CycNum:
    """The path-A value of one term (unit y, W_z coordinates X, a (1, dim)
    array) whose representative also carries the auxiliary degree-0
    component aux: the evaluation of ``stratum._bz_chunk``, with the general
    solver and aux handed to it."""
    tower = s.tower
    ident = MatF.identity(tower)
    yp, xtot, alpha_x = ref_solve_Y_from_X(s, block_coords(wz, X),
                                           [y.discrete_log()], aux=aux)
    one_plus = ident + yp
    g = MatF.zero(tower, batch=(1,)) + ident
    if not xtot.is_zero():
        yinv = inverse_unit(one_plus) @ tower.m_of(tower.e_monomial(1, y.inverse()))
        g = ident - (alpha_x @ yinv @ xtot)
    return (cyc_root(tower.p, stratum.eval_simple_char(big, one_plus)[0])
            * cyc_root(tower.p, stratum.eval_simple_char(root, g)[0]))


def bz_aux_independence(s, chars, y: FqElem, xv, aux_list) -> bool:
    """Whether the path-A term value is unchanged for every listed auxiliary
    degree-0 component choice."""
    big, root = chars
    wz = build_Wz(s.tower, s)
    X = np.array([xv], dtype=np.int64).reshape(1, wz.dim_k)
    logs = np.array([y.discrete_log()], dtype=np.int64)
    base = cyc_root(s.tower.p, stratum._bz_chunk(s, big, root, wz, logs, X)[0])
    return all(_bz_term_with_aux(s, big, root, wz, y, X, a) == base
               for a in aux_list)


# ---------------------------------------------------------------------------
# Hecke data: ranks, reducibility values and parity.


def rank_values(rho_tilde: LevelZeroChar) -> tuple[int, int]:
    """(r_y, r_z): r_y = 1 always; r_z = 1 exactly when the restriction of
    the big character to the Teichmueller group is trivial."""
    return (1, 1 if is_trivial(rho_tilde.mu_part) else 0)


def s_values(rep: ReducibilityReport) -> set:
    """The absolute real parts of every reducibility point of a report."""
    return {abs(x) for x in rep.real_points} | {
        abs(x) for x in rep.shifted_points
    }


class ParityClass(Enum):
    CONJUGATE_ORTHOGONAL = "ConjugateOrthogonal"
    CONJUGATE_SYMPLECTIC = "ConjugateSymplectic"
    NOT_CONJUGATE_SELF_DUAL = "NotConjugateSelfDual"


def parity_classifier(chi: tuple[MultChar, int],
                      tower: TowerSpec) -> ParityClass:
    """Classify a tame character of F-cross under the ramified quadratic
    descent.

    ``chi`` is (restriction to the Teichmueller group of F, quarter-turn
    exponent of the value at pi_F).
    The conjugation fixes the residue field and sends pi_F to -pi_F, so
    conjugate-self-duality means the square of the character is trivial on
    units and chi(-1) chi(pi_F)^2 = 1.  A conjugate-self-dual character is
    orthogonal exactly when its unit part is trivial (its restriction to
    the index-2 subfield is then trivial); otherwise the restriction equals
    the quadratic descent character and the parity is symplectic.
    """
    mu_char, varpi_turns = chi
    k = mu_char.field
    if k != tower.k:
        raise ValueError("character must live on the residue field of F")
    half = (k.q - 1) // 2
    if mu_char.exponent % (k.q - 1) not in (0, half):
        return ParityClass.NOT_CONJUGATE_SELF_DUAL
    if turns_sign(2 * varpi_turns) != mu_char.sign(-k.one()):
        return ParityClass.NOT_CONJUGATE_SELF_DUAL
    if is_trivial(mu_char):
        return ParityClass.CONJUGATE_ORTHOGONAL
    return ParityClass.CONJUGATE_SYMPLECTIC
