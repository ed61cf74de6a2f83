import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strbc import _modp
from strbc.finite_field import MixedFields, get_field, pow_fq
from strbc.local_model import (
    BadChain,
    EElem,
    EvenExponent,
    EvenRamification,
    MatF,
    PrecisionTooLow,
    TowerConfig,
    ZeroElement,
    _alpha_matrix,
    build_tower,
    build_Wz,
    det_unit,
    h1_lattice,
    intersect_row_spaces,
    inverse_unit,
    iwahori_indices,
    j0_lattice,
    level_gens,
)
from strbc.stratum import BUILTIN_CASE_NAMES, _declared_gens, builtin_case

from _support import (
    alpha_matrix_loop,
    cent_layer_loop,
    centralizer_filtration,
    coeff,
    e_from_mat,
    e_inverse,
    embed_E_in_matrices,
    golden_stratum,
    in_row_space,
    trace_EF,
    wz_blocks_by_branches,
    zeta_conjugation_index,
)


def mk_stratum(t, c_list, r_list):
    s_list = [(r - 1) // 2 for r in r_list]
    return SimpleNamespace(
        tower=t, d=len(c_list) - 1, c_elems=c_list, r_list=r_list, s_list=s_list
    )


def tower_e3f1(N=8):
    return build_tower(TowerConfig(q=3, e=3, f=1, N=N))


def tower_u1(N=6):
    return build_tower(TowerConfig(q=3, e=1, f=1, N=N))


def tower_e1f2(N=6):
    return build_tower(TowerConfig(q=3, e=1, f=2, N=N))


def tower_e3f2(N=8):
    return build_tower(TowerConfig(q=3, e=3, f=2, N=N))


def tower_e5f1(N=12):
    return build_tower(TowerConfig(q=3, e=5, f=1, N=N))


def tower_d1(N=8):
    return build_tower(
        TowerConfig(q=3, e=3, f=2, N=N, levels=((3, 2), (3, 1), (1, 1)))
    )


CASE_STRATA = {
    "u1": (tower_u1, lambda t: mk_stratum(t, [t.e_monomial(-1)], [1])),
    "e3f1": (tower_e3f1, lambda t: mk_stratum(t, [t.e_monomial(-1)], [1])),
    "e1f2": (tower_e1f2, lambda t: mk_stratum(t, [t.e_monomial(-1, t.kE.generator)], [1])),
    "e3f2": (tower_e3f2, lambda t: mk_stratum(t, [t.e_monomial(-1, t.kE.generator)], [1])),
    "e5f1": (tower_e5f1, lambda t: mk_stratum(t, [t.e_monomial(-1)], [1])),
    "d1": (
        tower_d1,
        lambda t: mk_stratum(
            t, [t.e_monomial(-3, t.kE.generator), t.e_monomial(-1, 1)], [3, 1]
        ),
    ),
}


def get_case(name):
    mk_t, mk_s = CASE_STRATA[name]
    t = mk_t()
    return t, mk_s(t)


# -- series and field-element arithmetic -------------------------------------


def test_eelem_ring_ops():
    t = tower_e3f1()
    x = t.e_monomial(-1) + t.e_monomial(2, 2)
    y = t.e_monomial(1)
    assert coeff(x * y, 0) == t.kE.one()
    assert x * y == y * x
    inv = e_inverse(y)
    assert coeff(y * inv, 0) == t.kE.one()
    assert (x - x).is_zero()
    assert x.val() == -1


def test_e_monomial_rejects_a_coefficient_from_another_field():
    t = tower_e3f1()
    with pytest.raises(MixedFields):
        t.e_monomial(-1, get_field(5).from_int(4))
    with pytest.raises(MixedFields):
        t.varpi_E().scale(get_field(5).from_int(4))


@pytest.mark.parametrize("name", ["e3f1", "e1f2", "e3f2", "e5f1"])
def test_eelem_inverse_of_a_series(name):
    # Not only monomials: x has three terms, and x * x^-1 = 1 to the
    # precision of the product.
    t, _ = get_case(name)
    z = t.kE.generator
    x = t.e_monomial(-1, z) + t.e_monomial(0, 2) + t.e_monomial(3, z, prec=9)
    inv = e_inverse(x)
    assert (inv.val(), inv.prec) == (1, 11)
    assert x * inv == t.e_monomial(0) and inv * x == t.e_monomial(0)
    assert (x * inv).prec == 10


def test_sigma_negates_odd_exponents_only():
    t = tower_e3f1()
    x = t.e_monomial(1) + t.e_monomial(2) + t.e_monomial(-3)
    sx = x.sigma()
    assert coeff(sx, 1) == -t.kE.one()
    assert coeff(sx, 2) == t.kE.one()
    assert coeff(sx, -3) == -t.kE.one()
    assert (x * x.sigma()).is_skew() is False
    assert t.varpi_E().is_skew()
    assert not t.e_monomial(2).is_skew()


def test_skew_iff_odd_support():
    t = tower_e5f1()
    odd = t.e_monomial(-1) + t.e_monomial(3, 2)
    mixed = odd + t.e_monomial(0)
    assert odd.is_skew()
    assert not mixed.is_skew()


# -- tower construction ------------------------------------------------------


def test_build_tower_valid_cases():
    for name in CASE_STRATA:
        t, _ = get_case(name)
        assert t.varpi_E() * e_inverse(t.varpi_E()) == t.e_monomial(0)


def test_even_ramification_rejected():
    with pytest.raises(EvenRamification):
        build_tower(TowerConfig(q=3, e=2, f=1))


def test_bad_chains_rejected():
    with pytest.raises(BadChain):
        build_tower(
            TowerConfig(q=3, e=3, f=2, levels=((3, 2), (2, 1), (1, 1)))
        )
    with pytest.raises(BadChain):
        build_tower(
            TowerConfig(q=3, e=3, f=2, levels=((3, 2), (3, 2), (1, 1)))
        )
    for levels in [((1, 1),), ()]:  # d = len(levels) - 2 must be >= 0
        with pytest.raises(BadChain):
            build_tower(TowerConfig(q=3, e=1, f=1, levels=levels))
    with pytest.raises(BadChain):
        build_tower(TowerConfig(q=3, e=3, f=1, levels=((3, 1), (3, 1))))
    # A level degree that is not positive is named, not divided by.
    for e, f, bad in [(3, 2, (0, 1)), (3, 2, (3, 0)), (3, 2, (-1, 2)),
                      (9, 1, (-3, -1))]:
        with pytest.raises(BadChain, match=r"must be positive: \(%d,%d\)" % bad):
            build_tower(TowerConfig(q=3, e=e, f=f, levels=((e, f), bad, (1, 1))))


def test_nonprime_or_even_q_rejected():
    with pytest.raises(ValueError):
        build_tower(TowerConfig(q=9, e=1, f=1))
    with pytest.raises(ValueError):
        build_tower(TowerConfig(q=2, e=1, f=1))


def test_uniformizer_relation_with_unit():
    t = build_tower(TowerConfig(q=5, e=3, f=1, u=2))
    acc = t.e_monomial(0)
    for _ in range(t.e):
        acc = acc * t.varpi_E()
    assert acc == t.varpi_F().scale(t.u)


def test_trace_vanishes_iff_wild():
    t = tower_e3f1()  # p = e = 3: inseparable, trace identically zero
    for x in (t.e_monomial(0), t.e_monomial(3), t.e_monomial(-3, 2)):
        assert not trace_EF(t, x)[0]
    tu = tower_e1f2()  # unramified quadratic: Tr(zeta) = zeta + zeta^3
    z = tu.kE.generator
    tr = trace_EF(tu, tu.e_monomial(0, z))
    from strbc.finite_field import pow_fq

    expect = z + pow_fq(z, 3)
    assert tr[0].get(0, 0) == expect.coeffs[0]
    assert all(c == 0 for c in expect.coeffs[1:])


# -- the matrix model and the form -------------------------------------------


def test_m_of_roundtrip():
    for name in ("e3f1", "e1f2", "e3f2"):
        t, _ = get_case(name)
        for x in (t.varpi_E(), t.e_monomial(-2, t.kE.generator), t.e_monomial(0, 2)):
            X = t.m_of(x)
            back = e_from_mat(t, X)
            assert back == x


def test_embedding_relations_all_towers():
    for name in CASE_STRATA:
        t, _ = get_case(name)
        embed_E_in_matrices(t)


def test_gram_is_hermitian():
    for name in ("e3f1", "e1f2", "e3f2", "e5f1"):
        t, _ = get_case(name)
        Ht = t.H.conj().transpose()
        fp = min(Ht.fprec, t.H.fprec)
        assert (Ht.truncated(fp) - t.H.truncated(fp)).is_zero()


def test_adjoint_is_antimultiplicative_and_involutive():
    t = tower_e3f1()
    X = t.m_of(t.e_monomial(-1) + t.e_monomial(2, 2))
    Y = t.m_of(t.varpi_E())
    rng = np.random.default_rng(5)
    Z = MatF(t, 0, rng.integers(0, 3, size=(3, t.n, t.n)), 3)
    for A, B in ((X, Y), (X, Z), (Z, Y)):
        lhs = t.adjoint(A @ B)
        rhs = t.adjoint(B) @ t.adjoint(A)
        fp = min(lhs.fprec, rhs.fprec)
        assert (lhs.truncated(fp) - rhs.truncated(fp)).is_zero()
    dd = t.adjoint(t.adjoint(Z))
    fp = min(dd.fprec, Z.fprec)
    assert (dd.truncated(fp) - Z.truncated(fp)).is_zero()


def test_alpha_fixes_skew_E_elements():
    for name in ("e3f1", "e1f2", "e5f1"):
        t, _ = get_case(name)
        for x in (t.varpi_E(), t.e_monomial(-1), t.e_monomial(3, 2)):
            X = t.m_of(x)
            aX = t.alpha(X)
            fp = min(aX.fprec, X.fprec)
            assert (aX.truncated(fp) - X.truncated(fp)).is_zero()


def test_adjoint_independent_of_form_rescaling():
    # Rescaling the pairing by any E-monomial (even the odd-uniformizer
    # convention, which flips Hermitian to anti-Hermitian) must not change
    # the adjoint.
    for name in ("e3f1", "e1f2"):
        t, _ = get_case(name)
        M = t.m_of(t.varpi_E())
        Minv = t.m_of(e_inverse(t.varpi_E()))
        X = t.m_of(t.e_monomial(-1) + t.e_monomial(2, t.kE.generator))
        alt = (Minv @ t.Hinv) @ X.conj().transpose() @ (t.H @ M)
        ref = t.adjoint(X)
        fp = min(alt.fprec, ref.fprec)
        assert (alt.truncated(fp) - ref.truncated(fp)).is_zero()


def test_valuations():
    t = tower_e3f1()
    assert t.valuation(t.m_of(t.varpi_E())) == 1
    assert t.valuation(t.m_of(t.e_monomial(-3, 2))) == -3
    assert t.valuation(MatF.identity(t)) == 0
    t2 = tower_e1f2()
    assert t2.valuation(t2.m_of(t2.e_monomial(-3, t2.kE.generator))) == -3


# -- matrix series utilities -------------------------------------------------


def test_inverse_unit_and_nilpotent():
    t = tower_e3f1()
    rng = np.random.default_rng(11)
    arr = rng.integers(0, 3, size=(4, t.n, t.n))
    arr[0] = np.eye(t.n, dtype=np.int64)
    X = MatF(t, 0, arr, 4)
    Z = inverse_unit(X)
    fp = min((Z @ X).fprec, 4)
    assert ((Z @ X).truncated(fp) - MatF.identity(t).truncated(fp)).is_zero()
    V = MatF(t, 1, rng.integers(0, 3, size=(3, t.n, t.n)), 4)
    W = inverse_unit(MatF.identity(t, 4) + V)
    prod = W @ (MatF.identity(t, 4) + V)
    fp = min(prod.fprec, 4)
    assert (prod.truncated(fp) - MatF.identity(t).truncated(fp)).is_zero()


def test_det_series_multiplicative():
    t = tower_e1f2()
    rng = np.random.default_rng(3)
    A = MatF(t, 0, rng.integers(0, 3, size=(3, t.n, t.n)), 3)
    B = MatF(t, 0, rng.integers(0, 3, size=(3, t.n, t.n)), 3)
    dAB = det_unit(A @ B)
    dA, dB = det_unit(A), det_unit(B)
    prod = np.convolve(dA, dB)[: min(len(dA), len(dB))] % t.p
    for k in range(min(len(dAB), len(prod))):
        assert dAB[k] == prod[k]
    assert det_unit(MatF.identity(t, 3))[0] == 1


def test_inverse_series_matrix_identity():
    t = tower_e3f1()
    prod = t.Hinv @ t.H
    fp = min(prod.fprec, 3)
    assert (prod.truncated(fp) - MatF.identity(t).truncated(fp)).is_zero()


def test_intersect_row_spaces():
    a = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    b = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    got = intersect_row_spaces(a, b, 3)
    assert got.shape[0] == 1
    assert in_row_space(np.array([0, 1, 0]), got, 3)


def greedy_complete_basis(lower, upper, p):
    # The former completion: each row of upper is kept when a pair of ranks
    # says it lies outside the span of lower and the rows kept so far.
    want = _modp.rank(upper, p) - _modp.rank(lower, p)
    span = [row % p for row in lower]
    out = []
    for v in upper:
        if len(out) == want:
            break
        if span:
            if in_row_space(v, np.array(span), p):
                continue
        elif not np.any(v % p):
            continue
        out.append(v % p)
        span.append(v % p)
    if len(out) != want:
        raise AssertionError("could not complete the basis")
    return np.array(out, dtype=np.int64).reshape(want, upper.shape[1])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 5), st.integers(0, 4),
       st.integers(0, 6), st.booleans(), st.randoms(use_true_random=False))
def test_complete_basis_matches_the_greedy_loop(p, n, nl, nu, inside, rng):
    # Rows are drawn from a few short combinations, so that dependent,
    # repeated and zero rows occur; with inside set, lower is built from
    # rows of upper, otherwise it may leave the span of upper.
    def combos(gens, k):
        return np.array([sum(rng.randrange(p) * g for g in gens)
                         if gens else np.zeros(n, dtype=np.int64)
                         for _ in range(k)], dtype=np.int64).reshape(k, n)

    gens = [np.array([rng.randrange(-p, 2 * p) for _ in range(n)], dtype=np.int64)
            for _ in range(rng.randrange(0, n + 1))]
    upper = combos(gens, nu)
    lower = combos(list(upper), nl) if inside else combos(gens + gens[:1], nl)
    if not inside and rng.random() < 0.5:
        lower = np.vstack([lower, np.eye(n, dtype=np.int64)[:1]])
    try:
        want = greedy_complete_basis(lower, upper, p)
    except AssertionError:
        with pytest.raises(AssertionError, match="could not complete the basis"):
            _modp.complete_basis(lower, upper, p)
        return
    got = _modp.complete_basis(lower, upper, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()


# -- centralizers and graded coset spaces ------------------------------------


def test_centralizer_filtration_dims():
    t = tower_e3f1()
    full = centralizer_filtration(t, t.e_monomial(0, 2), 0)
    assert all(full.dim_k(m) == t.n * t.f for m in full.grades)
    cent = centralizer_filtration(t, t.e_monomial(-1), -1)
    assert all(cent.dim_k(m) == t.f for m in cent.grades)
    deep = centralizer_filtration(t, t.e_monomial(-1), t.N, horizon=2)
    assert all(deep.dim_k(m) == 0 for m in deep.grades)
    t2 = tower_e3f2()
    c2 = centralizer_filtration(t2, t2.e_monomial(-1, t2.kE.generator), 0, horizon=3)
    assert all(c2.dim_k(m) == t2.f for m in c2.grades)


def test_wz_dimension_law():
    expect = {"u1": 0, "e3f1": 2, "e1f2": 1, "e3f2": 5, "e5f1": 4, "d1": 5}
    for name, dim in expect.items():
        t, st = get_case(name)
        wz = build_Wz(t, st)
        assert wz.dim_kE == dim
        assert wz.dim_kE == t.f * t.e - 1
        assert wz.size == t.p ** (dim * t.f)


def test_wz_bases_are_genuine_complements():
    for name in CASE_STRATA:
        t, st = get_case(name)
        wz = build_Wz(t, st)
        for b in wz.blocks:
            lower = t.cent_layer(level_gens(st, b.j), b.grade)
            upper = t.cent_layer(level_gens(st, b.j + 1), b.grade)
            stacked = np.vstack([lower, b.basis]) if lower.size else b.basis
            assert _modp.rank(stacked, t.p) == lower.shape[0] + b.basis.shape[0]
            assert _modp.rank(np.vstack([upper, b.basis]), t.p) == upper.shape[0]


# Golden configs off the built-in cases: W_z past grade 0, f = 3, q = 5 and
# the least allowed precision N = 3.
GOLDEN_STRATA = ("q3_e3f1_r5", "q3_e3f2_r5", "q3_e5f1_r3", "q5_e1f2_r3",
                 "q3_e1f3", "q3_e3f1_N3", "q5_e3f1")
LAYER_CASES = BUILTIN_CASE_NAMES + GOLDEN_STRATA


def stratum_named(name):
    return builtin_case(name) if name in BUILTIN_CASE_NAMES else golden_stratum(name)


def layer_outcome(fn, *args):
    try:
        out = fn(*args)
    except PrecisionTooLow as exc:
        return "PrecisionTooLow", str(exc)
    assert out.dtype == np.int64
    return out.shape, out.tolist()


@pytest.mark.parametrize("name", LAYER_CASES)
def test_layer_stacks_match_row_loops(name):
    # From the low end of the iwahori_indices window up past the precision,
    # the one-stack centralizer layers and alpha matrix agree with the loops
    # over one basis matrix at a time, and raise at the same grades.
    s = stratum_named(name)
    t = s.tower
    gen_sets = [level_gens(s, j) for j in range(s.d + 2)]
    gen_sets += [_declared_gens(t, j) for j in range(len(t.levels))]
    raised = 0
    for m in range(-(s.s_list[0] + 2 * t.e + 2), t.e * (t.fcap + 1)):
        for gens in gen_sets:
            got = layer_outcome(t.cent_layer, gens, m)
            assert got == layer_outcome(cent_layer_loop, t, gens, m)
            raised += got[0] == "PrecisionTooLow"
        got = layer_outcome(_alpha_matrix, t, m)
        assert got == layer_outcome(alpha_matrix_loop, t, m)
        raised += got[0] == "PrecisionTooLow"
    assert raised


@pytest.mark.parametrize("name", LAYER_CASES)
def test_wz_bases_match_two_branch_complement(name):
    s = stratum_named(name)
    blocks = build_Wz(s.tower, s).blocks
    ref = wz_blocks_by_branches(s.tower, s)
    assert [b.basis.tolist() for b in blocks] == [basis.tolist() for basis, _ in ref]
    # The level-j centralizer contains E, so its dual layer is never empty;
    # p = 3 divides e = 3, and the trace of the wild part vanishes.
    branches = {branch for _, branch in ref}
    assert "no dual" not in branches
    want = {"e1f2": "tame", "e5f1": "tame", "q3_e5f1_r3": "tame",
            "e3f1": "wild", "e3f2": "wild", "q3_e3f1_r5": "wild",
            "q3_e3f2_r5": "wild"}
    if name in want:
        assert branches == {want[name]}


def test_wz_even_exponent_rejected():
    t, st = get_case("e3f1")
    bad = mk_stratum(t, st.c_elems, [2])
    with pytest.raises(EvenExponent):
        build_Wz(t, bad)


def test_d1_block_structure():
    t, st = get_case("d1")
    wz = build_Wz(t, st)
    shapes = [(b.j, b.grade, b.basis.shape[0]) for b in wz.blocks]
    assert shapes == [(0, 1, 2), (1, 0, 8)]


# -- lattices and index counts -----------------------------------------------


def test_lattice_layers_e3f1():
    t, st = get_case("e3f1")
    h = h1_lattice(t, st)
    j = j0_lattice(t, st)
    assert h.layer(0).shape[0] == 0
    assert h.layer(1).shape[0] == t.n * t.f
    assert j.layer(0).shape[0] == t.f
    assert j.layer(1).shape[0] == t.n * t.f
    sh = h.shifted(-1)
    assert sh.layer(0).shape[0] == t.n * t.f


def test_iwahori_indices_frozen():
    expect = {
        "u1": (3, 3),
        "e3f1": (27, 27),
        "e1f2": (81, 81),
        "e3f2": (531441, 531441),
        "e5f1": (243, 243),
        "d1": (531441, 531441),
    }
    for name, (cy, cz) in expect.items():
        t, st = get_case(name)
        assert iwahori_indices(t, st) == (cy, cz)


def test_cz_counts_wz_cosets():
    for name in CASE_STRATA:
        t, st = get_case(name)
        _, cz = iwahori_indices(t, st)
        wz = build_Wz(t, st)
        qE = t.p**t.f
        assert cz == qE * wz.size


def test_zeta_conjugation_index_is_cy_times_cz():
    for name in CASE_STRATA:
        t, st = get_case(name)
        cy, cz = iwahori_indices(t, st)
        assert zeta_conjugation_index(t, st) == cy * cz


# -- array kernels against their per-entry definitions ------------------------


def ref_matmul(A, B):
    """The layer convolution as a double loop over layer pairs."""
    t = A.tower
    fp = min(A.fprec + B.g, B.fprec + A.g)
    if A.is_zero() or B.is_zero():
        return MatF.zero(t, fp)
    g = A.g + B.g
    L = fp - g
    if L <= 0:
        return MatF.zero(t, fp)
    arr = np.zeros((L, t.n, t.n), dtype=np.int64)
    for i in range(A.arr.shape[0]):
        for j in range(B.arr.shape[0]):
            if i + j < L:
                arr[i + j] = (arr[i + j] + A.arr[i] @ B.arr[j]) % t.p
    return MatF(t, g, arr, fp)


def ref_mat_from_layer(t, m, vec, fprec=None):
    """mat_from_layer entry by entry through k_E arithmetic."""
    e, f, n, p = t.e, t.f, t.n, t.p
    fp = t.fcap if fprec is None else fprec
    g = min((m + a) // e for a in range(e))
    L = fp - g
    if L <= 0:
        return MatF.zero(t, fp)
    arr = np.zeros((L, n, n), dtype=np.int64)
    for a in range(e):
        a2, tt = (m + a) % e, (m + a) // e
        if tt >= fp:
            continue
        for b in range(f):
            col = t.basis_index(a, b)
            d = t.kE.element(tuple(int(vec[col * f + k]) for k in range(f)))
            if not d:
                continue
            val = d * pow_fq(t.kE.generator, b) * pow_fq(t.u, tt)
            coords = t.Zinv @ np.array(val.coeffs, dtype=np.int64) % p
            for b2 in range(f):
                arr[tt - g, t.basis_index(a2, b2), col] = coords[b2]
    return MatF(t, g, arr, fp)


def ref_layer_coords(t, X, m):
    """layer_coords entry by entry through k_E arithmetic."""
    e, f, p = t.e, t.f, t.p
    out = np.zeros(t.n * f, dtype=np.int64)
    for a in range(e):
        a2, tt = (m + a) % e, (m + a) // e
        if tt >= X.fprec:
            raise PrecisionTooLow(
                f"degree-{m} layer needs w_F^{tt}, precision is {X.fprec}"
            )
        lay = X.layer(tt)
        for b in range(f):
            col = t.basis_index(a, b)
            poly = np.array([lay[t.basis_index(a2, b2), col] for b2 in range(f)])
            kappa = t.kE.element(tuple((t.Zmat @ poly) % p))
            d = kappa * pow_fq(t.u, -tt) * pow_fq(t.kE.generator, -b)
            out[col * f : (col + 1) * f] = d.coeffs
    return out


def same_matf(X, Y):
    return X.g == Y.g and X.fprec == Y.fprec and np.array_equal(X.arr, Y.arr)


@functools.lru_cache(maxsize=None)
def builtin_tower(name):
    s = builtin_case(name)
    return s.tower, s


def index_window(name):
    """Every grade iwahori_indices reads, edge checks included."""
    t, s = builtin_tower(name)
    s0 = s.s_list[0]
    return range(-(s0 + 2 * t.e + 2) - 1, s0 + 2 * t.e + 2 + 2)


def random_matf(t, rng, g, layers, extra):
    """A series matrix with some all-zero layers and fprec g + layers + extra."""
    arr = rng.integers(0, t.p, size=(layers, t.n, t.n))
    arr[rng.random(layers) < 0.3] = 0
    return MatF(t, g, arr, g + layers + extra)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BUILTIN_CASE_NAMES), st.integers(0, 2**32 - 1),
       st.integers(-3, 3), st.integers(0, 5), st.integers(0, 3),
       st.integers(-3, 3), st.integers(0, 5), st.integers(0, 3))
def test_matmul_matches_layer_pair_loop(name, seed, ga, la, xa, gb, lb, xb):
    t, _ = builtin_tower(name)
    rng = np.random.default_rng(seed)
    A = random_matf(t, rng, ga, la, xa)
    B = random_matf(t, rng, gb, lb, xb)
    assert same_matf(A @ B, ref_matmul(A, B))
    assert same_matf(B @ A, ref_matmul(B, A))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUILTIN_CASE_NAMES), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.integers(-4, 6)))
def test_mat_from_layer_matches_per_entry_definition(name, seed, fprec):
    t, _ = builtin_tower(name)
    rng = np.random.default_rng(seed)
    for m in index_window(name):
        vec = rng.integers(-t.p, 2 * t.p, size=t.n * t.f)
        assert same_matf(t.mat_from_layer(m, vec, fprec),
                         ref_mat_from_layer(t, m, vec, fprec))


def loop_m_of(t, x):
    """The regular representation of x entry by entry through k_E
    arithmetic: w_E^a zeta^b -> c u^t zeta^b at row (a2, .) of layer t."""
    e, f, n, p = t.e, t.f, t.n, t.p
    fprec = -((e - 1 - x.prec) // e)
    if x.is_zero():
        return MatF.zero(t, fprec)
    gmin = min(i // e for i in x.exponents())
    L = fprec - gmin
    if L <= 0:
        return MatF.zero(t, fprec)
    arr = np.zeros((L, n, n), dtype=np.int64)
    for i in x.exponents():
        c = coeff(x, i)
        for a in range(e):
            m = i + a
            a2 = m % e
            tt = m // e
            if not (gmin <= tt < fprec):
                continue
            scalar = c * pow_fq(t.u, tt)
            for b in range(f):
                val = scalar * pow_fq(t.kE.generator, b)
                coords = t.Zinv @ np.array(val.coeffs, dtype=np.int64) % p
                for b2 in range(f):
                    row, col = t.basis_index(a2, b2), t.basis_index(a, b)
                    arr[tt - gmin, row, col] = (arr[tt - gmin, row, col] + coords[b2]) % p
    return MatF(t, gmin, arr, fprec)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BUILTIN_CASE_NAMES), st.data())
def test_m_of_matches_per_entry_definition(name, data):
    t, _ = builtin_tower(name)
    terms = data.draw(st.lists(
        st.tuples(st.integers(-4, 11), st.integers(0, t.kE.q - 1)),
        min_size=1, max_size=3))
    prec = data.draw(st.integers(-3, t.Ecap))
    x = EElem(t, 0, [], prec)
    for i, k in terms:
        coeffs = tuple(k // t.p**j % t.p for j in range(t.f))
        x = x + t.e_monomial(i, t.kE.element(coeffs), prec=prec)
    X = t.m_of(x)
    assert same_matf(X, loop_m_of(t, x))
    assert not X.arr.flags.writeable
    assert t.m_of(x) is X


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_layer_coords_inverts_mat_from_layer_on_every_builtin_tower(seed):
    rng = np.random.default_rng(seed)
    for name in BUILTIN_CASE_NAMES:
        t, _ = builtin_tower(name)
        for m in index_window(name):
            vec = rng.integers(0, t.p, size=t.n * t.f)
            assert np.array_equal(t.layer_coords(t.mat_from_layer(m, vec), m), vec)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUILTIN_CASE_NAMES), st.integers(0, 2**32 - 1),
       st.integers(-3, 2), st.integers(0, 4), st.integers(0, 2))
def test_layer_coords_matches_per_entry_definition(name, seed, g, layers, extra):
    t, _ = builtin_tower(name)
    X = random_matf(t, np.random.default_rng(seed), g, layers, extra)
    for m in range(g * t.e - t.e, (X.fprec + 1) * t.e):
        try:
            want = ref_layer_coords(t, X, m)
        except PrecisionTooLow as exc:
            with pytest.raises(PrecisionTooLow) as got:
                t.layer_coords(X, m)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(t.layer_coords(X, m), want)


def test_layer_coords_past_precision_raises():
    t, _ = builtin_tower("e3f2")
    X = t.mat_from_layer(4, np.ones(t.n * t.f, dtype=np.int64), fprec=2)
    # Degree 4 spans w_F^1 (a = 0, 1) and w_F^2 (a = 2).
    with pytest.raises(PrecisionTooLow, match=r"^degree-4 layer needs w_F\^2, precision is 2$"):
        t.layer_coords(X, 4)
    with pytest.raises(PrecisionTooLow, match=r"^degree-6 layer needs w_F\^2, precision is 2$"):
        t.layer_coords(X, 6)
    # The message names the first missing layer, not the last.
    with pytest.raises(PrecisionTooLow, match=r"^degree-4 layer needs w_F\^1, precision is 1$"):
        t.layer_coords(MatF.zero(t, 1), 4)


def test_build_Wz_is_memoised_and_read_only():
    t, st_ = get_case("e3f1")
    wz = build_Wz(t, st_)
    assert build_Wz(t, mk_stratum(t, [t.e_monomial(-1)], [1])) is wz
    assert wz.blocks[0].basis.shape[0] == 2
    with pytest.raises(ValueError, match="read-only"):
        wz.blocks[0].basis[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        t.cent_layer((), 0)[0, 0] = 1
    # The EvenExponent check still runs on a memo hit.
    with pytest.raises(EvenExponent):
        build_Wz(t, mk_stratum(t, [t.e_monomial(-1)], [2]))


def test_lattice_layer_memo_matches_fresh_reduction():
    t, st_ = get_case("e3f2")
    h1 = h1_lattice(t, st_)
    for m in range(-4, 6):
        first = h1.layer(m)
        rows = [t.cent_layer(g, m) for g, thr in h1.terms if m >= thr]
        rows = [r for r in rows if r.size]
        fresh = (_modp.row_space_basis(np.vstack(rows), t.p) if rows
                 else np.zeros((0, t.n * t.f), dtype=np.int64))
        assert np.array_equal(first, fresh)
        assert h1_lattice(t, st_).layer(m) is first


# -- det_unit and inverse_unit against the series code they replaced ----------


class OldSeries:
    """Test-local copy of the dict-based truncated F-series: sum_k c_k w_F^k
    with c_k in F_p, known for k < prec."""

    def __init__(self, p, coeffs, prec):
        self.p = p
        self.coeffs = {k: c % p for k, c in coeffs.items() if c % p and k < prec}
        self.prec = prec

    def lower_bound(self):
        return min(self.coeffs) if self.coeffs else self.prec

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return OldSeries(self.p, out, min(self.prec, other.prec))

    def __mul__(self, other):
        va, vb = self.lower_bound(), other.lower_bound()
        prec = min(self.prec + vb, other.prec + va)
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if i + j < prec:
                    out[i + j] = out.get(i + j, 0) + a * b
        return OldSeries(self.p, out, prec)

    def scale(self, c):
        return OldSeries(self.p, {k: v * c for k, v in self.coeffs.items()}, self.prec)


def laplace_det(X):
    """Test-local copy of the exact Laplace-expansion determinant."""
    t = X.tower
    entries = [[OldSeries(t.p, {X.g + k: int(X.arr[k, i, j])
                                for k in range(X.arr.shape[0])}, X.fprec)
                for j in range(t.n)] for i in range(t.n)]

    def expand(rows, cols):
        if not rows:
            return OldSeries(t.p, {0: 1}, X.fprec)
        total, sign = OldSeries(t.p, {}, X.fprec), 1
        for pos, j in enumerate(cols):
            e = entries[rows[0]][j]
            if e.coeffs:
                sub = expand(rows[1:], cols[:pos] + cols[pos + 1:])
                total = total + (e * sub).scale(sign)
            sign = -sign
        return total

    return expand(list(range(t.n)), list(range(t.n)))


def neumann_inverse(X):
    """Test-local copy of the Neumann-series inverse of X = I + A, v(A) > 0."""
    t = X.tower
    A = X - MatF.identity(t, X.fprec)
    acc = term = MatF.identity(t, X.fprec)
    for _ in range(t.n * max(1, X.fprec) * max(1, t.e) + 2):
        term = -(term @ A)
        if term.fprec > X.fprec:
            term = term.truncated(X.fprec)
        if term.is_zero():
            break
        acc = acc + term
    else:
        raise ValueError("Neumann series did not terminate")
    return acc


@functools.lru_cache(maxsize=None)
def small_tower(q, e, f):
    return build_tower(TowerConfig(q=q, e=e, f=f))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 1, 2), (3, 3, 1), (5, 3, 1)]), st.integers(0, 1),
       st.integers(1, 6), st.integers(0, 7), st.sampled_from(["unit", "singular", "any"]),
       st.integers(0, 2**32 - 1))
def test_det_unit_matches_laplace_expansion(tower, g, fprec, layers, kind, seed):
    t = small_tower(*tower)
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, t.p, size=(layers, t.n, t.n))
    arr[rng.random(layers) < 0.2] = 0
    if layers and kind == "unit":
        # Unipotent times a permutation: invertible mod w_F.
        arr[0] = np.triu(arr[0], 1) + np.eye(t.n, dtype=np.int64)
        arr[0] = arr[0][rng.permutation(t.n)]
    elif layers and kind == "singular":
        # One row of the w_F^0 layer is a combination of the others.
        row = rng.integers(t.n)
        arr[0, row] = rng.integers(0, t.p, size=t.n - 1) @ np.delete(arr[0], row, 0) % t.p
    X = MatF(t, g, arr, fprec)
    old = laplace_det(X)
    got = det_unit(X)
    assert got.dtype == np.int64 and old.prec == fprec
    assert got.tolist() == [old.coeffs.get(k, 0) for k in range(fprec)]


def test_det_unit_rejects_non_integral():
    t = small_tower(3, 3, 1)
    with pytest.raises(ValueError):
        det_unit(MatF(t, -1, np.eye(t.n, dtype=np.int64)[None], 3))
    assert det_unit(MatF.zero(t, 4)).tolist() == [0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["e3f1", "e1f2", "e3f2", "e5f1"]), st.integers(1, 3),
       st.integers(0, 4), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_inverse_unit_matches_neumann_series(name, g, layers, fprec, seed):
    # I + A with A of positive valuation: a w_F-divisible part and a sum of
    # positive-degree layers, which may reach into the w_F^0 layer.
    t, _ = builtin_tower(name)
    rng = np.random.default_rng(seed)
    A = MatF(t, g, rng.integers(0, t.p, size=(layers, t.n, t.n)), fprec)
    for m in range(1, 1 + rng.integers(0, 3)):
        A = A + t.mat_from_layer(m, rng.integers(0, t.p, size=t.n * t.f), fprec)
    X = MatF.identity(t, fprec) + A
    assert same_matf(inverse_unit(X), neumann_inverse(X))


# -- the batch axis of MatF against the unbatched operations -----------------


def random_stack(t, rng, size, g, layers, fprec):
    """A stack of `size` matrices sharing fprec, each starting at its own
    layer g .. g + 2 and with some all-zero members and layers."""
    mats = []
    for _ in range(size):
        arr = rng.integers(0, t.p, size=(layers, t.n, t.n))
        arr[rng.random(layers) < 0.3] = 0
        if rng.random() < 0.15:
            arr[:] = 0
        mats.append(MatF(t, g + int(rng.integers(0, 3)), arr, fprec).truncated(fprec))
    return MatF.stack(mats), mats


def agrees(stacked, k, single):
    """Member k of a stacked result is the unbatched result at the stack's
    precision, which the shared valuation can only lower."""
    assert stacked.fprec <= single.fprec
    return same_matf(stacked.take(k), single.truncated(stacked.fprec))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BUILTIN_CASE_NAMES), st.integers(0, 2**32 - 1),
       st.integers(1, 5), st.integers(-2, 2), st.integers(0, 4), st.integers(0, 6),
       st.integers(-2, 2), st.integers(0, 4))
def test_stack_operations_match_each_member(name, seed, size, ga, la, xa, gb, lb):
    t, _ = builtin_tower(name)
    rng = np.random.default_rng(seed)
    A, As = random_stack(t, rng, size, ga, la, ga + la + xa)
    B, Bs = random_stack(t, rng, size, gb, lb, gb + lb + xa)
    C = random_matf(t, rng, gb, lb, 2)
    for k in range(size):
        assert same_matf(A.take(k), As[k].truncated(A.fprec))
        assert agrees(A @ B, k, As[k] @ Bs[k])
        assert agrees(A @ C, k, As[k] @ C)
        assert agrees(C @ A, k, C @ As[k])
        assert agrees(A + B, k, As[k] + Bs[k])
        assert agrees(A - C, k, As[k] - C)
        assert agrees(A.conj().transpose(), k, As[k].conj().transpose())
        assert agrees(t.alpha(A), k, t.alpha(As[k]))
        assert agrees(A.truncated(ga + 2), k, As[k].truncated(ga + 2))
    assert (A @ B).batch == (A + C).batch == (C @ A).batch == (size,)
    assert np.array_equal(A.nonzero_mask(), [not M.is_zero() for M in As])
    # Members that share the stack's valuation keep their own precision.
    if all(M.g == A.g for M in As) and all(M.g == B.g for M in Bs):
        for k in range(size):
            assert same_matf((A @ B).take(k), As[k] @ Bs[k])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUILTIN_CASE_NAMES), st.integers(0, 2**32 - 1),
       st.integers(1, 6), st.integers(-3, 4))
def test_layer_maps_on_stacks_match_each_row(name, seed, size, m):
    t, _ = builtin_tower(name)
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, t.p, size=(size, t.n * t.f))
    vecs[rng.random(size) < 0.2] = 0
    X = t.mat_from_layer(m, vecs)
    assert X.batch == (size,)
    for k in range(size):
        assert agrees(X, k, t.mat_from_layer(m, vecs[k]))
    assert np.array_equal(t.layer_coords(X, m), vecs)
    live = vecs.any(axis=1)
    if live.any():
        # Some members lose their degree-m part: valuations m and m + 1 mix.
        keep = rng.random(int(live.sum())) < 0.5
        upper = rng.integers(1, t.p, size=(int(live.sum()), t.n * t.f))
        Y = (t.mat_from_layer(m, vecs[live] * keep[:, None])
             + t.mat_from_layer(m + 1, upper))
        assert t.valuation(Y).tolist() == [t.valuation(Y.take(k))
                                           for k in range(Y.batch[0])]


def loop_valuation(t, X):
    """Test-local copy of valuation as it read the w_F-layer span of each
    grade, (m + a) // e over a < e, computed on the spot."""
    if not X.nonzero_mask().all():
        raise ZeroElement("valuation of a matrix that is zero mod precision")
    lo = X.g * t.e - (t.e - 1)
    hi = X.fprec * t.e
    found = np.full(X.batch, hi)
    for m in range(lo, hi):
        ts = [(m + a) // t.e for a in range(t.e)]
        if max(ts) >= X.fprec:
            break
        found[t.layer_coords(X, m).any(axis=-1) & (found == hi)] = m
        if (found < hi).all():
            return found if X.batch else int(found)
    raise ZeroElement("no nonzero layer inside the precision window")


def valuation_outcome(fn, X):
    """What a valuation function gives on X: its value and type, or the
    message of the ZeroElement it raises."""
    try:
        v = fn(X.tower, X)
    except ZeroElement as exc:
        return "raises", str(exc)
    return type(v).__name__, np.asarray(v).tolist()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BUILTIN_CASE_NAMES), st.integers(0, 2**32 - 1),
       st.integers(1, 5), st.integers(-3, 3), st.integers(0, 4), st.integers(0, 3))
def test_valuation_matches_layer_span_loop(name, seed, size, g, layers, extra):
    t, _ = builtin_tower(name)
    rng = np.random.default_rng(seed)
    A, As = random_stack(t, rng, size, g, layers, g + layers + extra)
    live = [M for M in As if not M.is_zero()]
    # A degree-m map cut below its top w_F-layer: part of the grade is unknown.
    m = g * t.e + 1
    cut = t.mat_from_layer(m, rng.integers(1, t.p, size=(size, t.n * t.f)),
                           fprec=(m + t.e - 1) // t.e)
    stacks = [A, cut] + [A.take(k) for k in range(size)] + (
        [MatF.stack(live)] if live else [])
    for X in stacks:
        assert (valuation_outcome(type(t).valuation, X)
                == valuation_outcome(loop_valuation, X))


@pytest.mark.parametrize("make", [tower_u1, tower_e3f1, tower_e1f2, tower_e3f2,
                                  tower_e5f1, tower_d1])
def test_one_degree_map_per_grade(make):
    # mat_from_layer, layer_coords and valuation all read one memoised,
    # read-only degree map per grade, and nothing else of the memo.
    t = make()
    rng = np.random.default_rng(7)
    before = set(t._memo)
    for m in range(-4, 5):
        vecs = rng.integers(0, t.p, size=(3, t.n * t.f))
        vecs[:, 0] = 1
        X = t.mat_from_layer(m, vecs)
        assert np.array_equal(t.layer_coords(X, m), vecs)
        assert t.valuation(X).tolist() == [m] * 3
    added = set(t._memo) - before
    assert {key[0] for key in added} == {"_degree_map"}
    assert {key[1] for key in added} >= set(range(-4, 5))
    for _, m in added:
        ts, tensor, slots, kmat = t._degree_map(m)
        assert ts == tuple((m + a) // t.e for a in range(t.e))
        assert not any(a.flags.writeable for a in (tensor, kmat, *slots))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1, 2), (3, 3, 1), (5, 3, 1), (3, 3, 2)]),
       st.integers(1, 6), st.integers(0, 1), st.integers(1, 6), st.integers(0, 6),
       st.integers(0, 2**32 - 1))
def test_det_unit_on_stacks_matches_each_member(tower, size, g, fprec, layers, seed):
    # Units, singular w_F^0 layers (pivots of positive valuation, swaps) and
    # dead columns, mixed in one stack.
    t = small_tower(*tower)
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, t.p, size=(size, layers, t.n, t.n))
    arr[rng.random((size, layers)) < 0.25] = 0
    if layers:
        units = rng.random(size) < 0.5
        arr[units, 0] = np.eye(t.n, dtype=np.int64)
        dead = rng.random(size) < 0.2
        arr[dead, :, :, rng.integers(t.n)] = 0
    X = MatF(t, g, arr, fprec)
    got = det_unit(X)
    assert got.shape == (size, fprec)
    for k in range(size):
        assert got[k].tolist() == det_unit(X.take(k)).tolist()
        assert got[k].tolist() == det_unit(MatF(t, g, arr[k], fprec)).tolist()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["e3f1", "e1f2", "e3f2", "e5f1"]), st.integers(1, 5),
       st.integers(1, 3), st.integers(0, 3), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_inverse_unit_on_stacks_matches_each_member(name, size, g, layers, fprec, seed):
    t, _ = builtin_tower(name)
    rng = np.random.default_rng(seed)
    A = MatF(t, g, rng.integers(0, t.p, size=(size, layers, t.n, t.n)), fprec)
    A = A + t.mat_from_layer(1, rng.integers(0, t.p, size=(size, t.n * t.f)), fprec)
    X = MatF.identity(t, fprec) + A
    Z = inverse_unit(X)
    for k in range(size):
        assert same_matf(Z.take(k), inverse_unit(X.take(k)))
        assert same_matf(Z.take(k), neumann_inverse(X.take(k)))


def rref_mat_inv(mat, p):
    """Test-local copy of the one-matrix inverse through rref."""
    n = mat.shape[0]
    aug = np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1)
    red, piv = _modp.rref(aug, p)
    if piv != list(range(n)):
        raise ZeroDivisionError("matrix is singular mod p")
    return red[:, n:]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 6), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_mat_inv_on_stacks_matches_rref(p, n, size, seed):
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, size=(size, n, n))
    mats[rng.random(size) < 0.3] = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    refs = []
    for M in mats:
        try:
            refs.append(rref_mat_inv(M, p))
        except ZeroDivisionError:
            refs.append(None)
    for k, M in enumerate(mats):
        if refs[k] is None:
            with pytest.raises(ZeroDivisionError):
                _modp.mat_inv(M, p)
        else:
            assert np.array_equal(_modp.mat_inv(M, p), refs[k])
    singular = [k for k, r in enumerate(refs) if r is None]
    if singular:
        with pytest.raises(ZeroDivisionError, match=f"stack index {singular[0]}"):
            _modp.mat_inv(mats, p)
    else:
        assert np.array_equal(_modp.mat_inv(mats, p), np.array(refs))


def test_stack_aligns_valuations_and_precisions():
    t, _ = builtin_tower("e3f1")
    eye = MatF.identity(t, 6)
    shifted = MatF(t, 2, np.eye(t.n, dtype=np.int64)[None], 4)
    zero = MatF.zero(t, 9)
    S = MatF.stack([eye, shifted, zero])
    assert (S.g, S.fprec, S.batch) == (0, 4, (3,))
    assert same_matf(S.take(0), eye.truncated(4))
    assert same_matf(S.take(1), shifted)
    assert S.take(2).is_zero() and S.take(2).fprec == 4
    both = MatF.stack([S, S.take([1])])
    assert both.batch == (4,) and same_matf(both.take(3), shifted)
