"""Skew strata on the ramified tower, their quadratic forms and sign, simple
characters in the exact linearization window, and the brute-force coefficient
oracles.

A stratum is a list of monomial elements c_0, ..., c_d of strictly decreasing
odd negative valuation, each skew and living in its level subfield, each
minimal at its level.  On top of a stratum sit:

* the block quadratic forms D_j on the graded coset space W_z and the
  normalized Gauss-sum sign attached to them (``epsilon_z``), together with
  its character-twist and uniformizer-rechoice covariance suite;
* simple characters (``SimpleCharSpec``/``eval_simple_char``), evaluated
  exactly on their linearization window r_0 = 1 as psi of a trace part
  plus a determinant-residue part;
* the coset-representative solver ``solve_Y_from_X`` (one (1 - alpha)
  system for the relation X alpha(X) = Y - alpha(Y) on the window);
* the two enumeration oracles ``by_oracle`` and ``bz_oracle`` that recompute
  the quadratic-relation coefficients from first principles and cross-check
  every identity they rely on term by term.  Both run on one term walk,
  ``_walk``, in chunks on the batch axis of MatF: it refuses more than
  ``bound`` terms up front and names the term behind a failed check, and
  each oracle supplies a chunk's values and the values they must equal.

A window character value zeta_p^a is carried as its exponent a in F_p;
sums are exact cyclotomic integers, and enumerations refuse to approximate.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

from . import _modp
from .cyclotomic import CycNum, cyc_root
from .finite_field import (
    AddChar,
    FqElem,
    MultChar,
    quadratic_residue_char,
)
from .gauss import (
    DEFAULT_ENUMERATION_BOUND,
    EnumerationTooLarge,
    QuadSpace,
    gauss_sum_brute,
    normalized_sign,
    phase_sum,
)
from .local_model import (
    EElem,
    EvenExponent,
    MatF,
    NotInSubfield,
    PrecisionTooLow,
    TowerConfig,
    TowerSpec,
    ZeroElement,
    _alpha_fixed_basis,
    _alpha_fixed_dim,
    _alpha_matrix,
    _in_level,
    build_tower,
    build_Wz,
    det_unit,
    h1_lattice,
    intersect_row_spaces,
    inverse_unit,
    iwahori_indices,
    j0_lattice,
    level_gens,
    memoized,
)


class NonNegativeValuation(ValueError):
    pass


class NotSkew(ValueError):
    pass


class NotMinimal(ValueError):
    pass


class ZeroY(ValueError):
    pass


class NotInDomain(ValueError):
    pass


class LinearizationInvalid(ValueError):
    pass


class NonUnitQuotient(ArithmeticError):
    pass


class NoSolution(ArithmeticError):
    pass


class DegenerateX(ValueError):
    pass


# ---------------------------------------------------------------------------
# Strata.


class StratumSpec:
    """A skew stratum: monomials c_0, ..., c_d over a fixed tower.

    Validates odd strictly-decreasing exponents, skewness, membership of each
    c_j in its level subfield, sufficient precision, and minimality of each
    c_j relative to the next level's centralizer.  At d = 0 the minimality
    check compares that with the quotient form of c_0, which decides
    absolute minimality; at d >= 1 the two notions differ.
    """

    def __init__(self, tower: TowerSpec, c_elems):
        self.tower = tower
        c_elems = tuple(c_elems)
        if not c_elems:
            raise ValueError("a stratum needs at least one element")
        self.c_elems = c_elems
        self.d = len(c_elems) - 1
        if self.d + 2 > len(tower.levels):
            raise NotInSubfield(
                f"{self.d + 1} stratum elements need a subfield chain of "
                f"length {self.d + 2}, tower has {len(tower.levels)}"
            )
        r_list = []
        for j, c in enumerate(c_elems):
            if c.is_zero():
                raise ZeroElement("stratum element is zero")
            if len(c.rows) != 1:
                raise ValueError("stratum elements must be monomials")
            v = c.val()
            if v >= 0:
                raise NonNegativeValuation(f"v(c_{j}) = {v} must be negative")
            r = -v
            if r % 2 == 0:
                raise EvenExponent(f"exponent r_{j} = {r} must be odd")
            if not c.is_skew():
                raise NotSkew(f"c_{j} is not skew under the conjugation")
            if not _in_level(tower, c, j):
                raise NotInSubfield(f"c_{j} does not lie in level {j}")
            r_list.append(r)
        if any(a <= b for a, b in zip(r_list, r_list[1:])):
            raise ValueError(f"exponents must strictly decrease, got {r_list}")
        self.r_list = tuple(r_list)
        self.s_list = tuple((r - 1) // 2 for r in r_list)
        if tower.N < r_list[0] + 2:
            raise PrecisionTooLow(
                f"precision N = {tower.N} too low for r_0 = {r_list[0]}"
            )
        for j in range(self.d + 1):
            minimal = self._level_minimal(j)
            if self.d == 0 and minimal != quotient_form(
                    tower, c_elems[0]).is_nondegenerate():
                raise _modp.CheckFailed("minimality check: the quotient form "
                                        "and the centralizer of c_0 disagree")
            if not minimal:
                raise NotMinimal(f"c_{j} is not minimal at level {j}")

    def _level_minimal(self, j: int) -> bool:
        # c_j must cut the declared level-(j+1) centralizer down to the
        # declared level-j one; a c_j generating less (e.g. a central
        # element) leaves a larger kernel.
        tower = self.tower
        cut = _declared_gens(tower, j + 1) + (self.c_elems[j],)
        return (tower.cent_layer(cut, 0).shape[0]
                == tower.cent_layer(_declared_gens(tower, j), 0).shape[0])


def _declared_gens(tower: TowerSpec, j: int) -> tuple[EElem, ...]:
    """Field generators of the level-j subfield named in the tower chain."""
    e_j, f_j = tower.levels[j]
    gens = [tower.e_monomial(tower.e // e_j)]
    if f_j > 1:
        sub_generator = tower.kE.exp((tower.kE.q - 1) // (tower.p**f_j - 1))
        gens.append(tower.e_monomial(0, sub_generator))
    return tuple(gens)


# ---------------------------------------------------------------------------
# Quadratic forms on the coset space.


def _block_gram_raw(tower: TowerSpec, c: EElem, basis: np.ndarray, grade: int,
                    scalar: EElem) -> np.ndarray:
    """Raw (unsymmetrized) Gram of X -> Tr(scalar * (X c - c X) * alpha(X))
    at the residue level, on the given degree-`grade` coordinate basis.

    Entry (a, b) is the w_F^0 coefficient of Tr(left_a @ alpha(X_b)): the
    sum over k of Tr(left_a[k] @ alpha(X_b)[-k]), one contraction over the
    layers of the two stacks.  A pair whose left_a @ alpha(X_b) does not know
    its w_F^0 coefficient raises, first pair in row order."""
    rows = basis.shape[0]
    if rows == 0:
        return np.zeros((0, 0), dtype=np.int64)
    mats = tower.mat_from_layer(grade, basis)
    left, right = _gram_sides(tower, c, mats, scalar)
    if left.product_fprec(right) <= 0:
        # A stack carries the least valuation and precision of its rows, so
        # the rows' own sides decide which pairs are unknown.
        sides = [_gram_sides(tower, c, mats.take(a), scalar)
                 for a in range(rows)]
        for la, _ in sides:
            for _, rb in sides:
                fprec = la.product_fprec(rb)
                if fprec <= 0:
                    raise PrecisionTooLow(f"w_F^0 beyond precision {fprec}")
        left, right = (MatF.stack(list(ms)) for ms in zip(*sides))
    # Layers k of left pairing with layers -k of right: lo <= k < hi.
    lo = max(left.g, 1 - right.g - right.arr.shape[-3])
    hi = min(left.g + left.arr.shape[-3], 1 - right.g)
    if hi <= lo:
        return np.zeros((rows, rows), dtype=np.int64)
    L = left.arr[:, lo - left.g : hi - left.g]
    R = right.arr[:, 1 - hi - right.g : 1 - lo - right.g]
    return np.einsum("akij,bkji->ab", L, R[:, ::-1]) % tower.p


def _gram_sides(tower: TowerSpec, c: EElem, X: MatF,
                scalar: EElem) -> tuple[MatF, MatF]:
    """(scalar (X c - c X), alpha(X)) for X or a stack of them."""
    cm = tower.m_of(c)
    return tower.m_of(scalar) @ (X @ cm - cm @ X), tower.alpha(X)


def _symmetrized_space(tower: TowerSpec, raw: np.ndarray) -> QuadSpace:
    inv2 = (tower.p + 1) // 2
    sym = (raw + raw.T) * inv2 % tower.p
    return QuadSpace.from_ints(tower.k, sym)


def quotient_form(t: TowerSpec, c: EElem) -> QuadSpace:
    """The form X -> Tr(w_E (X c - c X) alpha(X)) on a complement of the
    centralizer of c inside the degree-s layer, s = (r - 1) / 2.

    Well defined on the complement for any c (the centralizer is in the
    radical); nondegenerate exactly when c is minimal over F (absolute
    minimality, not minimality relative to a larger level field).
    """
    if c.is_zero():
        raise ZeroElement("zero element")
    v = c.val()
    if v >= 0:
        raise NonNegativeValuation(f"v(c) = {v} must be negative")
    if v % 2 == 0:
        raise EvenExponent(f"exponent {-v} must be odd")
    grade = (-v - 1) // 2
    # Complete from the full E-line: the form descends to the complement
    # for any c, and its radical there detects non-minimality.
    lower = t.cent_layer(_declared_gens(t, 0), grade)
    comp = _modp.complete_basis(lower, np.eye(t.n * t.f, dtype=np.int64), t.p)
    raw = _block_gram_raw(t, c, comp, grade, t.varpi_E())
    return _symmetrized_space(t, raw)


def build_Dj_forms(s: StratumSpec) -> list[QuadSpace]:
    """The block forms D_j(X, X) = Tr(w_E (X c_j - c_j X) alpha(X)) on the
    graded coset space, one QuadSpace per level."""
    tower = s.tower
    wz = build_Wz(tower, s)
    scalar = tower.varpi_E()
    out = []
    for block in wz.blocks:
        if block.basis.shape[0] == 0:
            continue
        raw = _block_gram_raw(
            tower, s.c_elems[block.j], block.basis, block.grade, scalar
        )
        out.append(_symmetrized_space(tower, raw))
    return out


def _gauss_gram(s: StratumSpec, wz, scalar: EElem) -> np.ndarray:
    """Block-diagonal raw Gram of the Gauss-sum phase X -> Tr(scalar
    (c_j X - X c_j) alpha(X)) on full W_z coords."""
    tower = s.tower
    blocks = [
        _block_gram_raw(tower, s.c_elems[b.j], b.basis, b.grade, -scalar)
        for b in wz.blocks
    ]
    dim = sum(b.shape[0] for b in blocks)
    gram = np.zeros((dim, dim), dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.shape[0]
        gram[at : at + k, at : at + k] = b
        at += k
    return gram


def epsilon_z(s: StratumSpec, psi: AddChar, scale_unit: FqElem | None = None,
              bound: int = DEFAULT_ENUMERATION_BOUND) -> int:
    """The sign of the normalized quadratic Gauss sum attached to the stratum.

    Evaluates sum over X in W_z of psi(Tr(w_E (c_j X - X c_j) alpha(X)))
    brute force, cross-checks against the closed diagonalized form, divides
    by the square root of #W_z, and asserts the quotient is +-1.  Passing
    ``scale_unit`` u computes the sign for the rechosen uniformizer u w_E.
    Brute force runs only on spaces of at most ``bound`` points; a degenerate
    form past the bound, which has no closed form, raises EnumerationTooLarge.
    """
    tower = s.tower
    unit = tower.kE.one() if scale_unit is None else scale_unit
    if not unit:
        raise ZeroY("uniformizer rescale unit must be nonzero")
    wz = build_Wz(tower, s)
    gram = _gauss_gram(s, wz, tower.e_monomial(1, unit))
    space = _symmetrized_space(tower, gram)
    if not space.is_nondegenerate():
        # The phase form can degenerate (a wild sub-extension kills the
        # trace residue on a whole block); the raw sum is then a higher
        # power of p and there is no sign to extract.
        total = gauss_sum_brute(space, psi, bound=bound).as_int()
        root = math.isqrt(wz.size)
        sign = {root: 1, -root: -1}.get(total)
        if sign is None:
            raise NonUnitQuotient(
                "degenerate phase form: the normalized sum is not a unit"
            )
        return sign
    sign = normalized_sign(space, psi, bound=bound)
    # Cross-check against the D-form assembly (opposite bracket order:
    # complex conjugate sum, identical rational sign).
    if scale_unit is None:
        d_forms = build_Dj_forms(s)
        d_sign = 1
        for f in d_forms:
            d_sign *= normalized_sign(f, psi, bound=bound)
        if d_sign != sign:
            raise _modp.CheckFailed("D-form sign disagrees with the Gauss sign")
    return sign


def epsilon_z_invariance(s: StratumSpec, psi: AddChar,
                         bound: int = DEFAULT_ENUMERATION_BOUND) -> dict:
    """Exhaustive invariance suite for the sign.

    (a) psi-twists by every residue of F-bullet-cross leave the sign alone;
    (b) rechoosing the uniformizer as u w_E multiplies the sign by
        chi_quad(u-bar)^(f-1) over the residue field of E.
    Returns a report with every checked pair and an overall flag.  A suite
    of more than ``bound`` epsilon_z calls (the base, one per twist and one
    per unit) raises EnumerationTooLarge before the first.
    """
    tower = s.tower
    calls = tower.k.q + tower.kE.q - 1
    if calls > bound:
        raise EnumerationTooLarge(f"{calls} sign evaluations exceeds bound {bound}")
    base = epsilon_z(s, psi, bound=bound)
    chi = quadratic_residue_char(tower.kE)
    psi_rows = []
    for a in range(1, tower.p):
        sign_a = epsilon_z(s, AddChar(tower.k, a), bound=bound)
        psi_rows.append({"twist": a, "sign": sign_a,
                         "matches": sign_a == base})
    unit_rows = []
    for u in tower.kE.units():
        sign_u = epsilon_z(s, psi, scale_unit=u, bound=bound)
        predicted = base * chi.sign(u) ** (tower.f - 1)
        unit_rows.append({"unit": u.coeffs, "sign": sign_u,
                          "predicted": predicted,
                          "matches": sign_u == predicted})
    ok = all(r["matches"] for r in psi_rows + unit_rows)
    return {"base": base, "psi_twists": psi_rows, "uniformizer": unit_rows,
            "ok": ok}


# ---------------------------------------------------------------------------
# Simple characters.


class SimpleCharSpec:
    """A simple character over a stratum.

    Of its twist elements b_0, ..., b_{d+1} in F only the last one enters
    the evaluation window, through the residue 1 of w_F b_{d+1} in F_p (the
    deeper ones are pinned by the gluing conditions and cancel in every
    oracle product).  ``side`` is "gl" for the big character theta-tilde and
    "u" for its square root theta, realized by halving c_0 and the twist.
    """

    def __init__(self, stratum: StratumSpec, psi: AddChar,
                 side: str = "gl"):
        if side not in ("gl", "u"):
            raise ValueError(f"side must be 'gl' or 'u', got {side!r}")
        tower = stratum.tower
        if psi.field != tower.k:
            raise ValueError("psi must live on the residue field of F")
        if psi.is_trivial():
            raise ValueError("psi must be nontrivial")
        self.stratum = stratum
        self.psi = psi
        self.side = side
        half = (tower.p + 1) // 2
        if side == "u":
            self.bhat = half
            self.c_eff = tuple(c.scale(half) for c in stratum.c_elems)
        else:
            self.bhat = 1
            self.c_eff = stratum.c_elems


def default_chars(s: StratumSpec, psi: AddChar
                  ) -> tuple[SimpleCharSpec, SimpleCharSpec]:
    """A matched (big, square-root) character pair."""
    return (
        SimpleCharSpec(s, psi, side="gl"),
        SimpleCharSpec(s, psi, side="u"),
    )


def _domain_check(chi: SimpleCharSpec, g: MatF) -> MatF:
    """Validate membership of g (each matrix of a stack) in the character's
    domain on the window, where s_0 = 0 and H-tilde-1 holds every g with
    g - 1 of positive valuation; returns g - 1."""
    tower = chi.stratum.tower
    if g.fprec < 2:
        raise PrecisionTooLow("need at least two coefficient layers")
    W = g - MatF.identity(tower, g.fprec)
    live = W.nonzero_mask()
    if live.any():
        terms = np.flatnonzero(live)
        v = tower.valuation(W if live.all() else W.take(terms))
        _fail_first(np.asarray(v) < 1, NotInDomain,
                    "g - 1 must have positive valuation", terms)
    if chi.side == "u":
        prod = tower.adjoint(g) @ g
        _fail_first((prod - MatF.identity(tower, prod.fprec)).nonzero_mask(),
                    NotInDomain, "g is not compatible with the Hermitian form")
    return W


def eval_simple_char(chi: SimpleCharSpec, g: MatF):
    """The simple character at g as the exponent a in [0, p) of its value
    zeta_p^a: an int, or for a stack the int64 array of its exponents.

    Window-only: on d = 0, r_0 = 1 the exponent is the twist of psi times
    the sum of a trace part and a det-residue part, both additive in g.  An
    off-window stratum raises LinearizationInvalid before g is looked at.
    """
    s = chi.stratum
    tower = s.tower
    _check_window(s, "eval_simple_char")
    W = _domain_check(chi, g)
    p = tower.p
    phase = np.zeros(g.batch, dtype=np.int64)
    if not W.is_zero():
        prod = tower.m_of(chi.c_eff[0]) @ W
        phase = np.trace(prod.layer(0), axis1=-2, axis2=-1) % p
    det = det_unit(g.truncated(2))
    _fail_first(det[..., 0] != 1, NotInDomain, "determinant is not a one-unit")
    phase = phase + chi.bhat * det[..., 1]
    expo = chi.psi.twist * phase % p
    return expo if g.batch else int(expo)


# ---------------------------------------------------------------------------
# Stacks of oracle terms.


def _fail_first(bad, exc: type, message: str, index=None):
    """Raise exc(message) if a check failed; for a stack of checks, name the
    stack index of the first failure (``index`` maps positions to it)."""
    bad = np.asarray(bad)
    if bad.any():
        if bad.ndim:
            k = int(np.flatnonzero(bad)[0])
            message += f" (stack index {k if index is None else int(index[k])})"
        raise exc(message)


@memoized
def _annihilator(tower: TowerSpec, basis: np.ndarray) -> np.ndarray:
    """Rows N with v in the row space of basis exactly when N v = 0."""
    return _modp.nullspace(basis % tower.p, tower.p)


@memoized
def _unit_mat_stack(tower: TowerSpec, i: int) -> MatF:
    """The stack of m_of(g^k w_E^i) over every discrete log k."""
    return MatF.stack([tower.m_of(tower.e_monomial(i, tower.kE.exp(k)))
                       for k in range(tower.kE.q - 1)])


def _unit_mats(tower: TowerSpec, i: int, logs) -> MatF:
    """The matrices of _unit_mat_stack(tower, i) at the discrete logs ``logs``."""
    return _unit_mat_stack(tower, i).take(np.asarray(logs) % (tower.kE.q - 1))


# ---------------------------------------------------------------------------
# Coset representative solvers.


@memoized
def _one_minus_alpha_solver(tower: TowerSpec, gens: tuple, m: int):
    """(S, C) for Z - alpha(Z) = rhs with Z in the degree-m layer of the
    centralizer of gens: rhs is reached exactly when C rhs = 0, and Z then
    has coordinates rhs @ S.

    The row operations that bring the matrix A of (1 - alpha) on that layer
    to reduced echelon form give both: the rows past the rank are the
    consistency conditions, and the pivot rows the particular solution whose
    free variables are zero.  Built once per (level, degree)."""
    p, nf = tower.p, tower.n * tower.f
    sub = tower.cent_layer(gens, m)
    amat = _alpha_matrix(tower, m)
    A = (sub - sub @ amat.T).T % p
    red, piv = _modp.rref(
        np.concatenate([A, np.eye(nf, dtype=np.int64)], axis=1), p,
        pivot_cols=A.shape[1])
    ops = red[:, A.shape[1]:]
    x = np.zeros((sub.shape[0], nf), dtype=np.int64)
    x[piv] = ops[: len(piv)]
    return x.T @ sub % p, ops[len(piv):]


def _solve_one_minus_alpha(tower: TowerSpec, m: int, gens: tuple,
                           rhs: np.ndarray) -> np.ndarray:
    """Coordinates (at degree m) of the Z in the degree-m layer of the
    centralizer of gens with Z - alpha(Z) = rhs, one row per right side;
    raises NoSolution when one is inconsistent."""
    S, C = _one_minus_alpha_solver(tower, gens, m)
    _fail_first((rhs @ C.T % tower.p).any(axis=-1), NoSolution,
                "(1 - alpha) does not reach the right side")
    return rhs @ S % tower.p


def solve_Y_from_X(s: StratumSpec, x_coords, logs):
    """Solve the coset relation for Y given a stack of W_z representatives X.

    Window-only (d = 0, r_0 = 1, where W_z is one block): ``logs`` holds the
    discrete logs of B units y of k_E and ``x_coords`` the (B, n f)
    coordinates of X in that block.  Returns the stacks (Y', X, alpha(X)).
    Y' solves the one (1 - alpha) system of X alpha(X), at twice the block's
    degree, and X alpha(X) = Y - alpha(Y) with Y = y w_E^-1 (1 + Y') is
    verified exactly for every term before returning; a term that fails a
    check is named by its stack index.
    """
    _check_window(s, "solve_Y_from_X")
    tower = s.tower
    p, nf = tower.p, tower.n * tower.f
    logs = np.asarray(logs, dtype=np.int64)
    (block,) = build_Wz(tower, s).blocks
    vec = np.asarray(x_coords, dtype=np.int64) % p
    if vec.shape != (len(logs), nf):
        raise DegenerateX("X has the wrong coordinate shape")
    _fail_first((vec @ _annihilator(tower, block.basis).T % p).any(axis=-1),
                DegenerateX, "X escapes its block")
    X = tower.mat_from_layer(block.grade, vec)
    alpha_x = tower.alpha(X)
    yp = MatF.zero(tower, batch=(len(logs),))
    # A zero X solves to zero, so its product and solve are skipped.
    if not X.is_zero():
        m = 2 * block.grade
        z = _solve_one_minus_alpha(tower, m, level_gens(s, 1),
                                   tower.layer_coords(X @ alpha_x, m))
        yp = yp + _unit_mats(tower, 1, -logs) @ tower.mat_from_layer(m, z)
    Y = _unit_mats(tower, -1, logs) @ (MatF.identity(tower, yp.fprec) + yp)
    _fail_first((X @ alpha_x - (Y - tower.alpha(Y))).nonzero_mask(),
                NoSolution, "assembled Y fails the defining relation")
    return yp, X, alpha_x


# ---------------------------------------------------------------------------
# The coefficient oracles.


def _check_window(s: StratumSpec, what: str):
    if s.d != 0 or s.r_list[0] != 1:
        raise LinearizationInvalid(
            f"{what} evaluates simple characters and needs the "
            "d = 0, r_0 = 1 window"
        )


def _check_char_pair(s: StratumSpec, chars) -> tuple[SimpleCharSpec, SimpleCharSpec]:
    big, root = chars
    if big.side != "gl" or root.side != "u":
        raise ValueError("chars must be a (big, square-root) pair")
    if big.stratum is not s or root.stratum is not s:
        raise ValueError("character pair must sit on the given stratum")
    if big.psi != root.psi:
        raise ValueError("character pair must share psi")
    return big, root


def _y_side_zbases(s: StratumSpec) -> list[tuple[int, np.ndarray]]:
    """Per-degree bases of the free part of the Y coordinate: the alpha-fixed
    layers of the big lattice modulo those of its w_E-shifted counterpart."""
    tower = s.tower
    p = tower.p
    h1 = h1_lattice(tower, s)
    jw = j0_lattice(tower, s).shifted(1)
    out = []
    for m in range(1, s.s_list[0] + 2):
        fix = _alpha_fixed_basis(tower, m)
        fh = intersect_row_spaces(h1.layer(m), fix, p)
        fj = intersect_row_spaces(jw.layer(m), fix, p)
        comp = _modp.complete_basis(fj, fh, p)
        if comp.shape[0]:
            out.append((m, comp))
    # The two profiles must agree immediately past the window.
    m_edge = s.s_list[0] + 2
    if (_alpha_fixed_dim(tower, h1.layer(m_edge), m_edge)
            != _alpha_fixed_dim(tower, jw.layer(m_edge), m_edge)):
        raise _modp.CheckFailed("Y-coordinate window is too narrow")
    return out


def by_oracle(s: StratumSpec, chars,
              sample: int | None = None, seed: int = 0,
              bound: int = DEFAULT_ENUMERATION_BOUND) -> CycNum:
    """Enumerates the first-generator coset representatives, checks that the
    normalized integrand is one and the same value at every representative,
    and returns the full sum (the two residue-character constants, the big
    character at -2 and its square root at -1, count as +1).  With ``sample``
    set, constancy is verified on that many deterministically chosen
    representatives and the sum is count * constant.  A run over more than
    ``bound`` representatives raises EnumerationTooLarge up front.  The
    representatives run on the term walk ``_walk``.
    """
    _check_window(s, "by_oracle")
    big, root = _check_char_pair(s, chars)
    tower = s.tower
    p, kE = tower.p, tower.kE
    zbases = _y_side_zbases(s)
    zdim = sum(b.shape[0] for _, b in zbases)
    c_y, _ = iwahori_indices(tower, s)
    if p**zdim != math.isqrt(c_y // kE.q):
        raise _modp.CheckFailed(
            "representative count disagrees with the lattice index")
    neg_two = kE.from_int(-2).discrete_log()
    ident = MatF.identity(tower)
    const = None

    def step(ts, zv):
        nonlocal const
        zmat = MatF.zero(tower, batch=(len(ts),))
        at = 0
        for m, basis in zbases:
            k = basis.shape[0]
            zmat = zmat + tower.mat_from_layer(m, zv[:, at : at + k] @ basis % p)
            at += k
        y0 = 2 * ts - neg_two  # y0 = -t^2 / 2, as a discrete log
        Y = _unit_mats(tower, 0, y0) + zmat
        yp = _unit_mats(tower, 0, -y0) @ zmat
        xm = _unit_mats(tower, 0, ts)
        g = ident - (tower.alpha(xm) @ inverse_unit(Y) @ xm)
        vals = (eval_simple_char(big, ident + yp) + eval_simple_char(root, -g)) % p
        if const is None:
            const = int(vals[0])
        return vals, const

    _walk(kE, p, zdim, sample, seed, bound, step,
          "integrand is not constant across representatives")
    return ((kE.q - 1) * p**zdim) * cyc_root(p, const)


# Oracle terms evaluated together on the batch axis of MatF.  A chunk may
# mix units; its working set is a few MB at n = 6.
_CHUNK = 64


def _count_terms(kE, p: int, dim: int, sample: int | None,
                 bound: int) -> tuple[int, int]:
    """(total, count): the number of oracle terms, one per unit of kE and
    point of F_p^dim, and of those checked.  More than ``bound`` checked
    terms, or more than a draw can index (sys.maxsize), are refused."""
    total = (kE.q - 1) * p**dim
    count = total if sample is None else min(sample, total)
    if count > bound:
        raise EnumerationTooLarge(f"{count} terms exceeds bound {bound}")
    if total > sys.maxsize:
        raise EnumerationTooLarge(f"{total} terms exceeds {sys.maxsize}, "
                                  "the most a draw can index")
    return total, count


def _walk(kE, p: int, dim: int, sample: int | None, seed: int,
          bound: int, step, message: str) -> bool:
    """Check the oracle terms of ``_terms``, _CHUNK at a time; returns
    whether they are a sample.  Too many terms are refused first
    (``_count_terms``).

    Term i pairs the unit at position i // p^dim of ``kE.units()`` with the
    base-p digits of i % p^dim, most significant first (the order of
    itertools.product over F_p^dim).  ``step(logs, X)`` gets a chunk's
    units as discrete logs and its (B, dim) coordinates and returns its
    zeta_p exponents with the exponents they must equal.  A check failing
    inside ``step`` (a NoSolution, NotInDomain or CheckFailed naming its
    stack index) is raised again as CheckFailed naming the chunk's first
    term; an exponent that differs raises CheckFailed(message) naming its
    term."""
    total, count = _count_terms(kE, p, dim, sample, bound)
    per_unit = p**dim
    logs = np.array([u.discrete_log() for u in kE.units()], dtype=np.int64)
    digits = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    terms = _terms(total, sample, seed)
    for start in range(0, len(terms), _CHUNK):
        chunk = np.asarray(terms[start : start + _CHUNK], dtype=np.int64)
        unit, rest = np.divmod(chunk, per_unit)
        try:
            values, wanted = step(logs[unit], rest[:, None] // digits % p)
        except (NoSolution, NotInDomain, _modp.CheckFailed) as err:
            raise _modp.CheckFailed(f"{err}, in the chunk from term {start}") from err
        differ = np.flatnonzero(values != wanted)
        if differ.size:
            raise _modp.CheckFailed(f"{message} (term {start + int(differ[0])})")
    return count < total


def _terms(total: int, sample: int | None, seed: int):
    """The indices of the oracle terms to check: all ``total`` of them, or
    index 0 and a seeded draw of sample - 1 further indices."""
    if sample is None or sample >= total:
        return range(total)
    rng = random.Random(seed)
    return [0] + rng.sample(range(1, total), sample - 1)


def bz_oracle(s: StratumSpec, chars, mus: tuple,
              sample: int | None = None, seed: int = 0,
              bound: int = DEFAULT_ENUMERATION_BOUND) -> tuple:
    """The second-generator coefficient for each character in the tuple
    ``mus``, by two independent routes that read one phase form Q_y (a
    QuadSpace on W_z) per unit y.

    Path A evaluates, for each (y, X), the simple characters at the solved
    (Y', 1 - alpha(X) Y^-1 X) pair as an exponent of zeta_p, which must be
    the term's Gauss-sum phase psi(Q_y(X)); the determinant exchange identity
    is asserted on it.  Path B sums psi(Q_y) with ``phase_sum``, and
    the two totals must agree exactly.  With ``sample`` set, path A is
    verified on that many deterministically chosen terms and the path-B
    totals are returned (the per-term identity is what makes the totals
    equal).  Path A runs on the term walk ``_walk``; a failing term is named
    by its index in the enumeration.  Only the mu(-y) weighting is per
    character; the totals come back in the order of ``mus``.  A phase sum of
    more than ``bound`` points, or more than ``bound`` path-A terms, raises
    EnumerationTooLarge up front.
    """
    _check_window(s, "bz_oracle")
    big, root = _check_char_pair(s, chars)
    tower = s.tower
    p, kE = tower.p, tower.kE
    for mu in mus:
        if not isinstance(mu, MultChar) or mu.field != kE:
            raise ValueError("need a multiplicative character on the residue "
                             "field of E")
        if mu.exponent not in (0, (kE.q - 1) // 2):
            raise ValueError("the restriction to the Teichmueller units must be "
                             "at most quadratic")
    wz = build_Wz(tower, s)
    dim = wz.dim_k
    if p**dim > bound:
        raise EnumerationTooLarge(f"{p**dim} points exceeds bound {bound}")
    _count_terms(kE, p, dim, sample, bound)  # path A, before any phase form
    # Row k belongs to the unit y = g^k: its phase form (scalar y^-1 w_E / 2),
    # its prime Gram and its weights mu(-y), where -y = g^(k + (q_E - 1) / 2).
    two = kE.from_int(2).discrete_log()
    grams = np.stack([_symmetrized_space(tower, _gauss_gram(
        s, wz, tower.e_monomial(1, kE.exp(-k - two)))).prime_gram(big.psi)
        for k in range(kE.q - 1)])
    signs = np.array([[mu.sign(kE.exp(k + (kE.q - 1) // 2)) for mu in mus]
                      for k in range(kE.q - 1)], dtype=np.int64)

    # Path A: direct evaluation through the solved representatives.  Each
    # term's exponent must be its phase X^T G X, where it adds its weight.
    weights = np.zeros((len(mus), p), dtype=np.int64)

    def step(logs, X):
        expo = np.einsum("bi,bij,bj->b", X, grams[logs], X) % p
        np.add.at(weights.T, expo, signs[logs])
        return _bz_chunk(s, big, root, wz, logs, X), expo

    sampled = _walk(kE, p, dim, sample, seed, bound, step,
                    "direct term value disagrees with its Gauss-sum phase")
    # Path B: one Gauss sum of the phase form per y.
    totals_b = [CycNum.zero(p)] * len(mus)
    for gram, row in zip(grams, signs.tolist()):
        gy = phase_sum(gram, p)
        totals_b = [t + w * gy for t, w in zip(totals_b, row)]
    totals_a = [CycNum(p, row.tolist()) for row in weights]
    if not sampled and totals_a != totals_b:
        raise _modp.CheckFailed("the two evaluation routes disagree")
    return tuple(totals_b)


def _bz_chunk(s: StratumSpec, big: SimpleCharSpec, root: SimpleCharSpec,
              wz, logs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Path-A values of a chunk of terms (unit g^logs[b], W_z coordinates
    X[b]): per term, the sum of the two simple-character exponents at the
    representative determined by (y, X), with the exchange identity on
    determinants asserted for every term with X != 0."""
    tower = s.tower
    p = tower.p
    ident = MatF.identity(tower)
    yp, xtot, alpha_x = solve_Y_from_X(s, X @ wz.blocks[0].basis % p, logs)
    one_plus = ident + yp
    g = MatF.zero(tower, batch=(len(logs),)) + ident
    live = np.broadcast_to(xtot.nonzero_mask(), g.batch)
    if live.any():
        yinv = inverse_unit(one_plus) @ _unit_mats(tower, 1, -logs)
        w = alpha_x @ yinv
        g = ident - (w @ xtot)
        # Exchange identity behind the multiplicative-part cancellation,
        # both sides in one stack, compared on their common precision.
        terms = np.flatnonzero(live)
        sides = [g, ident - (xtot @ w)]
        if not live.all():
            sides = [M.take(terms) for M in sides]
        dets = det_unit(MatF.stack(sides))
        _fail_first((dets[: len(terms)] != dets[len(terms) :]).any(axis=-1),
                    _modp.CheckFailed, "determinant exchange identity fails", terms)
    return (eval_simple_char(big, one_plus) + eval_simple_char(root, g)) % p


# ---------------------------------------------------------------------------
# Built-in desk instances.


_CASE_DATA = {
    "u1": dict(config=TowerConfig(q=3, e=1, f=1), c=[(0, -1)]),
    "e3f1": dict(config=TowerConfig(q=3, e=3, f=1, N=8), c=[(0, -1)]),
    "e1f2": dict(config=TowerConfig(q=3, e=1, f=2, N=6), c=[(1, -1)]),
    "e3f2": dict(config=TowerConfig(q=3, e=3, f=2, N=8), c=[(1, -1)]),
    "e5f1": dict(config=TowerConfig(q=3, e=5, f=1, N=12), c=[(0, -1)]),
    "d1-tower": dict(
        config=TowerConfig(
            q=3, e=3, f=2, N=8, levels=((3, 2), (3, 1), (1, 1))
        ),
        c=[(1, -3), (0, -1)],
    ),
}

BUILTIN_CASE_NAMES = tuple(_CASE_DATA)


def builtin_case(name: str) -> StratumSpec:
    """One of the six desk instances, by name."""
    try:
        data = _CASE_DATA[name]
    except KeyError:
        raise KeyError(
            f"unknown case {name!r}; choose from {BUILTIN_CASE_NAMES}"
        ) from None
    tower = build_tower(data["config"])
    c_elems = [
        tower.e_monomial(expo, tower.kE.exp(zp))
        for zp, expo in data["c"]
    ]
    return StratumSpec(tower, c_elems)
