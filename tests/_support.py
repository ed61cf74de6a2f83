"""Reference routes and checks that only the tests use.

Each is an independent second route to something the package computes
(the Gauss sum point by point, the trace and the inverse of the regular
representation, the graded centralizer, the zeta-conjugation index, the
graded layer maps one basis matrix at a time, the ad-kernel minimality
test and the two-branch W_z complement) or a check of an identity the
package relies on (the embedding relations of E in the matrices, the
independence of a path-A term from its auxiliary degree-0 component).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from strbc import _modp, stratum
from strbc.cli import ExperimentConfig
from strbc.cyclotomic import CycNum, cyc_root
from strbc.finite_field import AddChar, FqElem, pow_fq
from strbc.gauss import EnumerationTooLarge, QuadSpace, TrivialAdditiveCharacter
from strbc.local_model import (
    EElem,
    MatF,
    NotInSubfield,
    TowerSpec,
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


def golden_stratum(name: str):
    """The stratum of the golden config tests/golden/configs/<name>.json."""
    return ExperimentConfig.load(str(GOLDEN_CONFIGS / f"{name}.json")).build_stratum()


# ---------------------------------------------------------------------------
# Gauss sums point by point.


def evaluate(space: QuadSpace, xs: list[FqElem]) -> FqElem:
    """Q(xs) = xs^T S xs, entry by entry over F_q."""
    acc = space.field.zero()
    for i in range(space.dim):
        if not xs[i]:
            continue
        for j in range(space.dim):
            acc = acc + xs[i] * space.field.element(space.gram[i, j].tolist()) * xs[j]
    return acc


def gauss_sum_brute_slow(space: QuadSpace, psi: AddChar,
                         bound: int = 10**5) -> CycNum:
    """Pure point-by-point enumeration; cross-checks the vectorized route."""
    if psi.is_trivial():
        raise TrivialAdditiveCharacter("brute Gauss sum needs nontrivial psi")
    fld = space.field
    if fld.q**space.dim > bound:
        raise EnumerationTooLarge("slow brute route past its bound")
    total = CycNum.zero(fld.p)
    for xs in product(list(fld.elements()), repeat=space.dim):
        total = total + cyc_root(fld.p, psi.residue_phase(evaluate(space, list(xs))))
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


def e_from_mat(tower: TowerSpec, X: MatF) -> EElem:
    """Image of 1 = w_{0,0} under X, as an element of E."""
    col = tower.basis_index(0, 0)
    prec = X.fprec * tower.e
    out = tower.e_zero(prec)
    for k in range(X.arr.shape[0]):
        t = X.g + k
        uinv_t = pow_fq(tower.u, -t)
        for a in range(tower.e):
            c = tower.kE.zero()
            for b in range(tower.f):
                v = int(X.arr[k, tower.basis_index(a, b), col])
                if v:
                    c = c + pow_fq(tower.zeta, b) * v
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
    if acc != mu @ wf:
        raise AssertionError("m_{w_E}^e != m_u m_{w_F}")
    mz = tower.m_of(tower.e_monomial(0, tower.zeta))
    order = 1
    cur = mz
    ident = MatF.identity(tower)
    while cur != ident:
        cur = cur @ mz
        order += 1
        if order > tower.kE.q:
            raise AssertionError("m_zeta order overflow")
    if order != tower.kE.q - 1:
        raise AssertionError(f"m_zeta has order {order}, wanted {tower.kE.q - 1}")
    # alpha(m_x) = -m_{sigma(x)} on a sample of monomials.
    for i in (-1, 0, 1, 2):
        for c in (tower.kE.one(), tower.zeta):
            x = tower.e_monomial(i, c)
            lhs = tower.alpha(tower.m_of(x))
            rhs = -tower.m_of(x.sigma())
            if lhs.truncated(rhs.fprec) != rhs.truncated(lhs.fprec):
                raise AssertionError(f"alpha(m_x) != -m_sigma(x) at x = {x}")
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
            mg = tower.m_of(tower.e_monomial(i, g.coeff(i), prec=g.prec))
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
# The b_z oracle.


def _bz_term_with_aux(s, big, root, wz, y: FqElem, X: np.ndarray,
                      aux: EElem) -> CycNum:
    """The path-A value of one term (unit y, W_z coordinates X, a (1, dim)
    array) whose representative also carries the auxiliary degree-0
    component aux: the evaluation of ``stratum._bz_chunk``, with aux handed
    to the solver."""
    tower = s.tower
    ident = MatF.identity(tower)
    x_coords, at = [], 0
    for block in wz.blocks:
        k = block.basis.shape[0]
        x_coords.append(X[:, at : at + k] @ block.basis % tower.p)
        at += k
    yp, xtot, alpha_x = stratum.solve_Y_from_X(s, x_coords, [y], aux=aux)
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
    base = cyc_root(s.tower.p, stratum._bz_chunk(s, big, root, wz, [y], X)[0])
    return all(_bz_term_with_aux(s, big, root, wz, y, X, a) == base
               for a in aux_list)
