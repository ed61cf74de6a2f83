import functools
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strbc import _modp, gauss, stratum
from strbc._modp import CheckFailed
from strbc.cyclotomic import CycNum, cyc_root
from strbc.finite_field import (
    AddChar,
    FqElem,
    MultChar,
    pow_fq,
    quadratic_residue_char,
)
from strbc.gauss import EnumerationTooLarge
from strbc.local_model import (
    MatF,
    NotInSubfield,
    EvenExponent,
    PrecisionTooLow,
    TowerConfig,
    build_tower,
    build_Wz,
    det_unit,
    inverse_unit,
    level_gens,
)
from strbc.stratum import (
    BUILTIN_CASE_NAMES,
    DegenerateX,
    LinearizationInvalid,
    NonNegativeValuation,
    NonUnitQuotient,
    NotInDomain,
    NotMinimal,
    SimpleCharSpec,
    StratumSpec,
    _alpha_fixed_basis,
    build_Dj_forms,
    builtin_case,
    by_oracle,
    bz_oracle,
    default_chars,
    epsilon_z,
    epsilon_z_invariance,
    eval_simple_char,
    quotient_form,
    solve_Y_from_X,
)

from _support import (
    R1_CASE_NAMES,
    block_coords,
    bz_aux_independence,
    e_inverse,
    in_row_space,
    minimal_by_ad_kernel,
    minimality_check,
    ref_solve_Y_from_X,
)

CLOSED_MAGNITUDE = {"u1": 2, "e3f1": 6, "e1f2": 24, "e3f2": 1944, "e5f1": 18}


def std_psi(tower):
    return AddChar(tower.k, 1)


def logs_of(units):
    """The discrete logs of units, the unit form the oracle code takes."""
    return np.array([u.discrete_log() for u in units], dtype=np.int64)


# -- minimality --------------------------------------------------------------


def test_minimality_examples():
    t = build_tower(TowerConfig(q=3, e=3, f=1, N=8))
    assert minimality_check(t, t.e_monomial(-1, t.kE.generator))
    assert minimality_check(t, t.e_monomial(-1))
    # Elements of F are central: never minimal.
    assert not minimality_check(t, e_inverse(t.varpi_F()))
    # Valuation divisible by e with a residue coefficient that generates
    # nothing new.
    assert not minimality_check(t, t.e_monomial(-3, t.kE.generator))


def test_minimality_needs_negative_valuation():
    t = build_tower(TowerConfig(q=3, e=3, f=1, N=8))
    with pytest.raises(NonNegativeValuation):
        minimality_check(t, t.e_monomial(0))


def test_minimality_unramified_direction():
    t = build_tower(TowerConfig(q=3, e=1, f=2, N=6))
    assert minimality_check(t, t.e_monomial(-1, t.kE.generator))
    assert not minimality_check(t, t.e_monomial(-1))  # lies in F


def stratum_or_failed_level(t, c_elems):
    """None when the stratum builds, else the level whose minimality failed."""
    try:
        StratumSpec(t, c_elems)
    except NotMinimal as exc:
        return int(str(exc).split()[0][2:])
    return None


@pytest.mark.parametrize("q,e,f,N", [(3, 3, 1, 8), (3, 1, 2, 6), (3, 5, 1, 12),
                                     (3, 3, 2, 8), (3, 1, 3, None), (5, 1, 2, None),
                                     (5, 3, 1, None), (3, 3, 1, 3)])
def test_minimality_matches_ad_kernel_rank(q, e, f, N):
    # minimality_check and the stratum's level test read cent_layer; the
    # reference builds the kernel of ad_c by hand, with the whole of c.
    t = build_tower(TowerConfig(q=q, e=e, f=f, N=N))
    seen = set()
    for r in (1, 3, 5):
        for k in range(min(t.kE.q - 1, 4)):
            c = t.e_monomial(-r, pow_fq(t.kE.generator, k))
            want = minimal_by_ad_kernel(t, c)
            assert minimality_check(t, c) == want
            seen.add(want)
            if r + 2 <= t.N:
                level = None if minimal_by_ad_kernel(t, c, 0) else 0
                assert stratum_or_failed_level(t, [c]) == level
    # A non-monomial: only its leading monomial reaches degree v(c).
    z, one = t.kE.generator, t.kE.one()
    for lead, tail in ((z, one), (one, z)):
        c = t.e_monomial(-3, lead) + t.e_monomial(-1, tail)
        assert minimality_check(t, c) == minimal_by_ad_kernel(t, c)
    assert seen == {True, False}


def test_level_minimality_matches_ad_kernel_rank_on_d1():
    t = builtin_case("d1-tower").tower
    levels = set()
    for k in range(t.kE.q - 1):
        for a in range(1, t.p):
            c0 = t.e_monomial(-3, pow_fq(t.kE.generator, k))
            c1 = t.e_monomial(-1, a)
            want = next((j for j, c in enumerate((c0, c1))
                         if not minimal_by_ad_kernel(t, c, j)), None)
            assert stratum_or_failed_level(t, [c0, c1]) == want
            levels.add(want)
    assert levels == {None, 0}


# -- stratum validation ------------------------------------------------------


def test_builtin_cases_construct():
    for name in BUILTIN_CASE_NAMES:
        s = builtin_case(name)
        assert s.r_list[0] % 2 == 1


def test_stratum_rejects_even_exponent():
    t = build_tower(TowerConfig(q=3, e=3, f=1, N=8))
    with pytest.raises(EvenExponent):
        StratumSpec(t, [t.e_monomial(-2)])


def test_stratum_rejects_non_skew():
    t = build_tower(TowerConfig(q=3, e=3, f=2, N=8))
    c = t.e_monomial(-1, t.kE.generator) + t.e_monomial(0, t.kE.one())
    with pytest.raises(ValueError):
        StratumSpec(t, [c])  # not a monomial


def test_stratum_rejects_nonnegative_valuation():
    t = build_tower(TowerConfig(q=3, e=3, f=1, N=8))
    with pytest.raises(NonNegativeValuation):
        StratumSpec(t, [t.e_monomial(1)])


def test_stratum_rejects_increasing_exponents():
    t = build_tower(
        TowerConfig(q=3, e=3, f=2, N=8, levels=((3, 2), (3, 1), (1, 1)))
    )
    with pytest.raises(ValueError):
        StratumSpec(t, [t.e_monomial(-1), t.e_monomial(-3, t.kE.generator)])


def test_stratum_rejects_deep_element_off_its_level():
    t = build_tower(
        TowerConfig(q=3, e=3, f=2, N=8, levels=((3, 2), (3, 1), (1, 1)))
    )
    # c_1 with a residue outside the level-1 subfield (f_1 = 1).
    with pytest.raises(NotInSubfield):
        StratumSpec(t, [t.e_monomial(-3, t.kE.generator),
                        t.e_monomial(-1, t.kE.generator)])


def test_stratum_rejects_low_precision():
    t = build_tower(TowerConfig(q=3, e=5, f=1, N=4))
    with pytest.raises(Exception):
        StratumSpec(t, [t.e_monomial(-5, t.kE.generator)])


def test_stratum_rejects_non_minimal():
    t = build_tower(TowerConfig(q=3, e=3, f=1, N=8))
    with pytest.raises(NotMinimal):
        StratumSpec(t, [t.e_monomial(-3, t.kE.generator)])


# -- the quadratic forms -----------------------------------------------------


def test_Dj_forms_u1_empty():
    s = builtin_case("u1")
    assert build_Dj_forms(s) == []


def test_Dj_forms_e3f1_nondegenerate_two_dim():
    s = builtin_case("e3f1")
    forms = build_Dj_forms(s)
    assert len(forms) == 1
    assert forms[0].dim == 2
    assert forms[0].is_nondegenerate()


def _sweep_chains(e, f):
    """The chain of depth 0 and every chain of depth 1 from (e, f) to (1, 1)."""
    yield ((e, f), (1, 1))
    for e1, f1 in itertools.product(range(1, e + 1), range(1, f + 1)):
        if not (e % e1 or f % f1 or (e1, f1) in ((e, f), (1, 1))):
            yield ((e, f), (e1, f1), (1, 1))


def test_sign_forms_have_even_prime_field_dimension():
    # normalized_sign refuses an odd F_p-dimension, so no stratum may build
    # one: W_z and every D_j block are even over every minimal stratum of
    # q in {3, 5}, e in {1, 3, 5}, f in {1, 2, 3} and r_0 in {1, 3, 5}, with
    # unit coefficients 1 or zeta and, at depth 1, every odd r_1 < r_0.
    valid = {0: 0, 1: 0}
    for q, e, f in itertools.product((3, 5), (1, 3, 5), (1, 2, 3)):
        for levels in _sweep_chains(e, f):
            t = build_tower(TowerConfig(q=q, e=e, f=f, levels=levels))
            d = len(levels) - 2
            for r0, z0 in itertools.product((1, 3, 5), (0, 1)):
                tails = [[]] if d == 0 else [
                    [(z1, -r1)] for r1 in range(1, r0, 2) for z1 in (0, 1)]
                for tail in tails:
                    c = [(z0, -r0)] + tail
                    try:
                        s = StratumSpec(t, [t.e_monomial(x, t.kE.exp(z))
                                            for z, x in c])
                    except (NotMinimal, NotInSubfield):
                        continue
                    valid[d] += 1
                    dims = [build_Wz(t, s).dim_k]
                    dims += [fm.dim * fm.field.f for fm in build_Dj_forms(s)]
                    assert all(n % 2 == 0 for n in dims), (q, e, f, levels, c, dims)
    assert valid == {0: 56, 1: 28}


def test_quotient_form_degenerate_for_non_minimal():
    t = build_tower(TowerConfig(q=3, e=3, f=2, N=8))
    c = t.e_monomial(-3, t.kE.generator)  # not minimal, not central
    assert not minimality_check(t, c)
    form = quotient_form(t, c)
    assert not form.is_nondegenerate()


def test_minimality_nondegeneracy_grid():
    # Minimality and nondegeneracy of the complement form co-occur.
    tested = 0
    for q, e, f, N in [(3, 3, 1, 8), (3, 1, 2, 6), (3, 5, 1, 12), (3, 3, 2, 8)]:
        t = build_tower(TowerConfig(q=q, e=e, f=f, N=N))
        coeffs = [t.kE.one(), t.kE.generator] if f > 1 else [t.kE.one()]
        for r in (1, 3, 5):
            if r + 2 > t.N:
                continue
            for cval in coeffs:
                c = t.e_monomial(-r, cval)
                if c.is_zero() or not c.is_skew():
                    continue
                from strbc.local_model import _in_level

                if _in_level(t, c, -1):
                    # Central elements commute with everything; no form.
                    assert not minimality_check(t, c)
                    continue
                form = quotient_form(t, c)
                assert minimality_check(t, c) == form.is_nondegenerate()
                tested += 1
    assert tested >= 8


def test_minimality_routes_agree_on_the_sweep_grid():
    # Every stratum c = zeta^a w_E^-v of the grid is built or refused
    # NotMinimal, as the quotient form and the leading-term test both say.
    built = refused = 0
    for q, e, f, a, v in itertools.product((3, 5, 7), (1, 3, 5), (1, 2, 3),
                                           (0, 1), (1, 3, 5)):
        t = build_tower(TowerConfig(q=q, e=e, f=f))
        c = t.e_monomial(-v, t.kE.exp(a))
        minimal = quotient_form(t, c).is_nondegenerate()
        assert minimality_check(t, c) == minimal, (q, e, f, a, v)
        try:
            StratumSpec(t, [c])
        except NotMinimal:
            assert not minimal, (q, e, f, a, v)
            refused += 1
        else:
            assert minimal, (q, e, f, a, v)
            built += 1
    assert (built, refused) == (84, 78)


# -- the sign ----------------------------------------------------------------


def test_epsilon_u1_is_plus_one():
    s = builtin_case("u1")
    assert epsilon_z(s, std_psi(s.tower)) == 1


def test_epsilon_all_r1_cases():
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        res = epsilon_z(s, std_psi(s.tower))
        assert res == 1  # frozen by enumeration
        assert res**2 == 1


def test_epsilon_d1_not_a_unit_quotient():
    s = builtin_case("d1-tower")
    with pytest.raises(NonUnitQuotient):
        epsilon_z(s, std_psi(s.tower))


def test_epsilon_degenerate_form_honours_bound(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr(gauss, "phase_sum", no_enumeration)
    s = builtin_case("d1-tower")
    with pytest.raises(EnumerationTooLarge):
        epsilon_z(s, std_psi(s.tower), bound=3**10 - 1)


@pytest.mark.parametrize("sign", [1, -1, None])
def test_epsilon_degenerate_form_reads_a_rational_sign(sign, monkeypatch):
    # The d1-tower phase form is degenerate; its sum is replaced by +-sqrt(#W_z)
    # or by a non-rational multiple of it.
    s = builtin_case("d1-tower")
    t = s.tower
    size = build_Wz(t, s).size
    root = math.isqrt(size)
    total = CycNum(t.p, [sign * root]) if sign else root * cyc_root(t.p, 1)
    monkeypatch.setattr(stratum, "gauss_sum_brute", lambda *args, **kwargs: total)
    if sign is None:
        with pytest.raises(NonUnitQuotient):
            epsilon_z(s, std_psi(t))
        return
    res = epsilon_z(s, std_psi(t))
    assert type(res) is int and res == sign


def test_epsilon_invariance_suite():
    for name in ("u1", "e3f1", "e1f2", "e5f1"):
        s = builtin_case(name)
        report = epsilon_z_invariance(s, std_psi(s.tower))
        assert report["ok"]
        assert len(report["psi_twists"]) == s.tower.k.q - 1
        assert len(report["uniformizer"]) == s.tower.kE.q - 1


def test_epsilon_invariance_multiplier_flips_for_f2():
    s = builtin_case("e1f2")
    report = epsilon_z_invariance(s, std_psi(s.tower))
    chi = quadratic_residue_char(s.tower.kE)
    flips = [r for r in report["uniformizer"]
             if r["sign"] != report["base"]]
    # Non-square units flip the sign when f is even.
    assert len(flips) == (s.tower.kE.q - 1) // 2
    for r in flips:
        assert chi.sign(s.tower.kE.element(r["unit"])) == -1


# -- simple characters -------------------------------------------------------


def random_h1_element(s, rng, depth=3):
    t = s.tower
    A = MatF.zero(t)
    for m in range(1, depth + 1):
        vec = np.array([rng.randrange(t.p) for _ in range(t.n * t.f)])
        A = A + t.mat_from_layer(m, vec)
    return MatF.identity(t) + A


def random_unitary_element(s, rng, depth=3):
    # Cayley transform of a random alpha-fixed positive-depth element.
    t = s.tower
    A = MatF.zero(t)
    for m in range(1, depth + 1):
        fix = _alpha_fixed_basis(t, m)
        if fix.shape[0] == 0:
            continue
        combo = np.array([rng.randrange(t.p) for _ in range(fix.shape[0])])
        vec = combo @ fix % t.p
        if vec.any():
            A = A + t.mat_from_layer(m, vec)
    ident = MatF.identity(t, A.fprec)
    return (ident + A) @ inverse_unit(ident - A)


def test_eval_identity_is_one():
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        big, root = default_chars(s, std_psi(s.tower))
        p, one = s.tower.p, CycNum.one(s.tower.p)
        assert cyc_root(p, eval_simple_char(big, MatF.identity(s.tower))) == one
        assert cyc_root(p, eval_simple_char(root, MatF.identity(s.tower))) == one


def test_eval_multiplicative_on_random_pairs():
    rng = random.Random(5)
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        big, _ = default_chars(s, std_psi(s.tower))
        p = s.tower.p
        for _ in range(25):
            g = random_h1_element(s, rng)
            h = random_h1_element(s, rng)
            assert cyc_root(p, eval_simple_char(big, g @ h)) == cyc_root(
                p, eval_simple_char(big, g)
            ) * cyc_root(p, eval_simple_char(big, h))


def test_square_root_on_sigma_fixed():
    rng = random.Random(9)
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        big, root = default_chars(s, std_psi(s.tower))
        for _ in range(10):
            g = random_unitary_element(s, rng)
            v = cyc_root(s.tower.p, eval_simple_char(root, g))
            assert v * v == cyc_root(s.tower.p, eval_simple_char(big, g))


def test_eval_rejects_unit_level_offset():
    s = builtin_case("e3f1")
    big, _ = default_chars(s, std_psi(s.tower))
    t = s.tower
    g = MatF.identity(t) + t.mat_from_layer(0, np.eye(t.n * t.f)[0])
    with pytest.raises(NotInDomain):
        eval_simple_char(big, g)


def test_eval_u_side_rejects_non_unitary():
    rng = random.Random(13)
    s = builtin_case("e3f1")
    _, root = default_chars(s, std_psi(s.tower))
    g = random_h1_element(s, rng)
    with pytest.raises(NotInDomain):
        # A generic one-unit does not respect the Hermitian form.
        eval_simple_char(root, g)


def test_eval_off_window_raises():
    s = builtin_case("d1-tower")
    chi = SimpleCharSpec(s, std_psi(s.tower), side="gl")
    with pytest.raises(LinearizationInvalid):
        eval_simple_char(chi, MatF.identity(s.tower))


def test_char_spec_validation():
    s = builtin_case("e3f1")
    with pytest.raises(ValueError):
        SimpleCharSpec(s, std_psi(s.tower), side="nope")
    with pytest.raises(ValueError):
        SimpleCharSpec(s, AddChar(s.tower.k, 0), side="gl")


# -- the coset solver --------------------------------------------------------


def test_solve_zero_X_gives_zero():
    # The package solves the five window towers; the general reference also
    # solves the two blocks of d1-tower.
    for name in BUILTIN_CASE_NAMES:
        s = builtin_case(name)
        t = s.tower
        zero = np.zeros((1, t.n * t.f), dtype=np.int64)
        if name in R1_CASE_NAMES:
            yp, _, _ = solve_Y_from_X(s, zero, logs_of([t.kE.one()]))
        else:
            blocks = build_Wz(t, s).blocks
            yp, _, _ = ref_solve_Y_from_X(s, [zero] * len(blocks),
                                          logs_of([t.kE.one()]))
        assert yp.take(0).is_zero()


def test_solve_random_X_verifies_relation():
    # Both solvers assert X alpha(X) = Y - alpha(Y) internally; d1-tower has
    # two blocks and only the general reference solves it.
    rng = random.Random(3)
    for name in ("e3f1", "e1f2", "e5f1", "d1-tower"):
        s = builtin_case(name)
        t = s.tower
        wz = build_Wz(t, s)
        for y in t.kE.units():
            coords = []
            for b in wz.blocks:
                combo = np.array(
                    [rng.randrange(t.p) for _ in range(b.basis.shape[0])]
                )
                coords.append((combo @ b.basis % t.p)[None])
            if name == "d1-tower":
                ref_solve_Y_from_X(s, coords, logs_of([y]))
            else:
                solve_Y_from_X(s, coords[0], logs_of([y]))


def test_solve_rejects_wrong_shape():
    s = builtin_case("e3f1")
    t = s.tower
    nf = t.n * t.f
    for coords in ([], np.zeros((1, nf - 1)), np.zeros((2, nf)),
                   np.zeros((1, 1, nf))):
        with pytest.raises(DegenerateX, match="wrong coordinate shape"):
            solve_Y_from_X(s, coords, logs_of([t.kE.one()]))


@pytest.mark.parametrize("name", ["d1-tower", "r0-3"])
def test_solve_refuses_an_off_window_stratum_first(name):
    # LinearizationInvalid comes before the shape and block checks, so it is
    # what a wrong shape, a vector outside the blocks or a well-formed X get.
    s = builtin_case(name) if name == "d1-tower" else r0_3_stratum()
    t = s.tower
    nf = t.n * t.f
    blocks = build_Wz(t, s).blocks
    one = logs_of([t.kE.one()])
    for coords in ([], np.ones((1, nf), dtype=np.int64), blocks[0].basis[:1],
                   [b.basis[:1] for b in blocks]):
        with pytest.raises(LinearizationInvalid, match="solve_Y_from_X"):
            solve_Y_from_X(s, coords, one)


def test_solve_aux_component_supported():
    # The auxiliary component lives in the general reference only.
    s = builtin_case("e3f1")
    t = s.tower
    wz = build_Wz(t, s)
    coords = [b.basis[:1] for b in wz.blocks]
    yp0 = ref_solve_Y_from_X(s, coords, logs_of([t.kE.one()]))[0].take(0)
    yp1 = ref_solve_Y_from_X(
        s, coords, logs_of([t.kE.one()]), aux=t.e_monomial(0, t.kE.one())
    )[0].take(0)
    assert not (yp0 - yp1).is_zero()


def test_solve_refuses_a_non_integral_aux_component():
    s = builtin_case("e3f1")
    t = s.tower
    coords = [b.basis[:1] for b in build_Wz(t, s).blocks]
    with pytest.raises(DegenerateX, match="must be integral"):
        ref_solve_Y_from_X(s, coords, logs_of([t.kE.one()]),
                           aux=t.e_monomial(-1, t.kE.one()))


def test_zero_aux_component_is_never_solved(monkeypatch):
    # The package has no auxiliary component and solves only the block's
    # level-1 system, never an all-zero one; the general reference solves at
    # level 0 once an aux is given.
    seen = []
    solve = stratum._solve_one_minus_alpha

    def spy(tower, m, gens, rhs):
        seen.append((tuple(g.key() for g in gens), bool(rhs.any())))
        return solve(tower, m, gens, rhs)

    monkeypatch.setattr(stratum, "_solve_one_minus_alpha", spy)
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        kE = s.tower.kE
        level0 = tuple(g.key() for g in level_gens(s, 0))
        seen.clear()
        bz_oracle(s, default_chars(s, std_psi(s.tower)), (MultChar(kE, (kE.q - 1) // 2),),
                  sample=120 if name == "e3f2" else None)
        assert all(nonzero for _, nonzero in seen), name
        assert level0 not in {gens for gens, _ in seen}, name
    s = builtin_case("e3f1")
    t = s.tower
    level0 = tuple(g.key() for g in level_gens(s, 0))
    coords = [b.basis[:1] for b in build_Wz(t, s).blocks]
    seen.clear()
    ref_solve_Y_from_X(s, coords, logs_of([t.kE.one()]),
                       aux=t.e_monomial(0, t.kE.one()))
    assert (level0, True) in seen


def test_bz_term_independent_of_aux():
    for name in ("u1", "e3f1", "e1f2"):
        s = builtin_case(name)
        t = s.tower
        chars = default_chars(s, std_psi(s.tower))
        wz = build_Wz(t, s)
        dim = wz.dim_k
        xv = tuple([1] * dim)
        aux_list = [t.e_monomial(0, t.kE.one())]
        if t.f > 1:
            aux_list.append(t.e_monomial(0, t.kE.generator))
        assert bz_aux_independence(s, chars, t.kE.one(), xv, aux_list)


# -- the oracles -------------------------------------------------------------


def test_by_oracle_closed_form():
    # Exhaustive on every tower: e3f2 has 1,944 representatives.
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        chars = default_chars(s, std_psi(s.tower))
        val = by_oracle(s, chars)
        assert val.as_int() == CLOSED_MAGNITUDE[name]


def test_by_oracle_off_window():
    s = builtin_case("d1-tower")
    psi = std_psi(s.tower)
    chars = (
        SimpleCharSpec(s, psi, side="gl"),
        SimpleCharSpec(s, psi, side="u"),
    )
    with pytest.raises(LinearizationInvalid):
        by_oracle(s, chars)


@pytest.mark.parametrize("oracle", ["by", "bz"])
def test_oracles_refuse_a_pair_with_two_psi(oracle):
    # A pair that does not share psi is bad input, not a failed cross-check.
    s = builtin_case("e3f1")
    chars = (SimpleCharSpec(s, AddChar(s.tower.k, 1), side="gl"),
             SimpleCharSpec(s, AddChar(s.tower.k, 2), side="u"))
    with pytest.raises(ValueError, match="share psi"):
        if oracle == "by":
            by_oracle(s, chars)
        else:
            bz_oracle(s, chars, (MultChar(s.tower.kE, 0),))


def test_bz_oracle_vanishing_and_nonvanishing():
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        kE = s.tower.kE
        f = s.tower.f
        chars = default_chars(s, std_psi(s.tower))
        half = (kE.q - 1) // 2
        sample = 120 if name == "e3f2" else None
        v_f, v_f1 = bz_oracle(s, chars, (MultChar(kE, half * f),
                                         MultChar(kE, half * (f - 1))), sample=sample)
        assert v_f == CycNum.zero(s.tower.p)
        # rho(-2) = +1 for the built-in residue data, eps = +1.
        assert v_f1.as_int() == CLOSED_MAGNITUDE[name]


def test_bz_oracle_rejects_higher_order_restriction():
    s = builtin_case("e1f2")
    chars = default_chars(s, std_psi(s.tower))
    with pytest.raises(ValueError):
        bz_oracle(s, chars, (MultChar(s.tower.kE, 1),))


@pytest.mark.parametrize("name", R1_CASE_NAMES)
def test_unit_mats_rows_are_the_monomial_matrices(name):
    # Row k of the stack at grade i is m_of(g^k w_E^i), g the generator of
    # k_E; a negated log gives the inverse unit.
    t = builtin_case(name).tower
    logs = np.arange(t.kE.q - 1)
    for i in (-1, 0, 1):
        for sign in (1, -1):
            stack = stratum._unit_mats(t, i, sign * logs)
            assert stack.batch == (len(logs),)
            for k in logs:
                want = t.m_of(t.e_monomial(i, t.kE.exp(sign * int(k))))
                assert same_matf(stack.take(int(k)), want), (i, sign, k)


def test_oracles_do_no_residue_field_arithmetic_per_term(monkeypatch):
    # Units travel as discrete logs, so FqElem arithmetic runs per unit at
    # most: an exhaustive run makes as many calls as a one-term sample.
    counts = {}
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "inverse"):
        def spy(self, *args, _name=name, _fn=getattr(FqElem, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(self, *args)

        monkeypatch.setattr(FqElem, name, spy)
    seen = {}
    for sample in (1, None):
        s = builtin_case("e1f2")
        chars = default_chars(s, std_psi(s.tower))
        counts.clear()
        by_oracle(s, chars, sample=sample)
        bz_oracle(s, chars, mu_pair(s.tower), sample=sample)
        seen[sample] = dict(counts)
    assert seen[1] == seen[None]


# -- streamed term enumeration -----------------------------------------------


def ref_terms(units, p, dim):
    """The full term list the oracles used to build."""
    return [(u, v) for u in units for v in itertools.product(range(p), repeat=dim)]


def ref_draw(terms, sample, seed):
    """The seeded sample the oracles used to draw from the full list."""
    if sample is None or sample >= len(terms):
        return terms
    rng = random.Random(seed)
    return [terms[0]] + rng.sample(terms[1:], sample - 1)


def walked_terms(kE, p, dim, sample, seed):
    """The (unit, coordinate tuple) of every term the walk hands its step,
    in order, and whether they are a sample."""
    seen = []

    def step(logs, X):
        seen.extend((kE.exp(int(k)), tuple(int(c) for c in xv))
                    for k, xv in zip(logs, X))
        return np.zeros(len(logs)), np.zeros(len(logs))

    sampled = stratum._walk(kE, p, dim, sample, seed,
                            stratum.DEFAULT_ENUMERATION_BOUND, step, "")
    return seen, sampled


@pytest.mark.parametrize("name", ["e1f2", "e3f2", "e5f1"])
def test_streamed_draw_matches_list_draw(name):
    s = builtin_case(name)
    t = s.tower
    units = list(t.kE.units())
    for dim in sorted({build_Wz(t, s).dim_k, 0, 1}):
        terms = ref_terms(units, t.p, dim)
        samples = [1, 2, 40, 120]
        if len(terms) <= 5000:
            samples += [len(terms) - 1, len(terms), None]
        for sample in samples:
            for seed in (0, 1, 7, 12345, 2**31 - 1):
                got, sampled = walked_terms(t.kE, t.p, dim, sample, seed)
                assert got == ref_draw(terms, sample, seed)
                assert sampled == (sample is not None and sample < len(terms))


def record_bz_terms(monkeypatch):
    """Spy on the path-A chunks: the (unit, coordinates) of every term."""
    seen = []
    original = stratum._bz_chunk

    def spy(s, big, root, wz, logs, X):
        seen.extend((s.tower.kE.exp(int(k)), tuple(int(c) for c in xv))
                    for k, xv in zip(logs, X))
        return original(s, big, root, wz, logs, X)

    monkeypatch.setattr(stratum, "_bz_chunk", spy)
    return seen


def test_bz_oracle_sampled_terms_match_list_draw(monkeypatch):
    s = builtin_case("e3f2")
    t = s.tower
    chars = default_chars(s, std_psi(s.tower))
    mu = MultChar(t.kE, (t.kE.q - 1) // 2 * (t.f - 1))
    seen = record_bz_terms(monkeypatch)
    terms = ref_terms(list(t.kE.units()), t.p, build_Wz(t, s).dim_k)
    for seed in (0, 3):
        seen.clear()
        bz_oracle(s, chars, (mu,), sample=6, seed=seed)
        assert seen == ref_draw(terms, 6, seed)


def test_bz_oracle_exhaustive_e1f2_term_count(monkeypatch):
    s = builtin_case("e1f2")
    t = s.tower
    seen = record_bz_terms(monkeypatch)
    mu = MultChar(t.kE, (t.kE.q - 1) // 2 * (t.f - 1))
    bz_oracle(s, default_chars(s, std_psi(s.tower)), (mu,))
    dim = build_Wz(t, s).dim_k
    assert len(seen) == (t.kE.q - 1) * t.p**dim == 72
    assert len({(u.coeffs, x) for u, x in seen}) == len(seen)


def test_bz_oracle_builds_one_phase_form_per_unit(monkeypatch):
    # Each unit's phase form gives its prime Gram once, and paths A and B
    # both read it; a per-term rebuild would make 72.
    s = builtin_case("e1f2")
    t = s.tower
    spaces = []
    prime_gram = gauss.QuadSpace.prime_gram

    def spy(space, psi):
        spaces.append(space)
        return prime_gram(space, psi)

    monkeypatch.setattr(gauss.QuadSpace, "prime_gram", spy)
    bz_oracle(s, default_chars(s, std_psi(s.tower)), mu_pair(t))
    assert len(spaces) == t.kE.q - 1 == 8
    assert len({id(space) for space in spaces}) == t.kE.q - 1


# -- the phase Gram contraction against the per-pair products ----------------

def loop_block_gram_raw(tower, c, basis, grade, scalar, c_first):
    """The raw Gram one full MatF product per pair: the w_F^0 coefficient
    of Tr(scalar [c, X_a] alpha(X_b))."""
    p = tower.p
    cm = tower.m_of(c)
    wmat = tower.m_of(scalar)
    mats = [tower.mat_from_layer(grade, row) for row in basis]
    amats = [tower.alpha(M) for M in mats]
    raw = np.zeros((len(mats), len(mats)), dtype=np.int64)
    for a, M in enumerate(mats):
        br = (cm @ M) - (M @ cm) if c_first else (M @ cm) - (cm @ M)
        left = wmat @ br
        for b, A in enumerate(amats):
            prod = left @ A
            if prod.fprec <= 0:
                raise PrecisionTooLow(f"w_F^0 beyond precision {prod.fprec}")
            raw[a, b] = np.trace(prod.layer(0)) % p
    return raw


def block_gram_raw(tower, c, basis, grade, scalar, c_first):
    """The kernel, whose bracket is X c - c X; c X - X c is the same Gram at
    the negated scalar."""
    return stratum._block_gram_raw(tower, c, basis, grade,
                                   -scalar if c_first else scalar)


def gram_or_error(fn, *args):
    try:
        raw = fn(*args)
    except PrecisionTooLow as exc:
        return "PrecisionTooLow", str(exc)
    assert raw.dtype == np.int64
    return raw.shape, raw.tolist()


@pytest.mark.parametrize("name", R1_CASE_NAMES)
def test_block_gram_matches_pair_products_on_wz(name):
    s = builtin_case(name)
    t = s.tower
    wz = build_Wz(t, s)
    units = list(t.kE.units())
    bases = [(b.basis, b.grade) for b in wz.blocks]
    lower = t.cent_layer(stratum._declared_gens(t, 0), s.s_list[0])
    bases.append((_modp.complete_basis(
        lower, np.eye(t.n * t.f, dtype=np.int64), t.p), s.s_list[0]))
    nonzero = False
    for basis, grade in bases:
        for k, i in [(1, 0), (1, -1), (0, 1), (-1, 2)]:
            scalar = t.e_monomial(k, units[i % len(units)])
            for c_first in (True, False):
                args = (t, s.c_elems[0], basis, grade, scalar, c_first)
                fast = gram_or_error(block_gram_raw, *args)
                assert fast == gram_or_error(loop_block_gram_raw, *args)
                nonzero = nonzero or np.any(fast[1])
    # u1 has n = 1, where every commutator vanishes.
    assert nonzero == (name != "u1")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(R1_CASE_NAMES), st.integers(-3, 5),
       st.sampled_from([0, 0, 0, -1, 1, 3]),
       st.sampled_from([None, None, None, -1, 1, 2, 4, 8]), st.integers(0, 7),
       st.booleans(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_block_gram_matches_pair_products(name, grade, shift, prec, unit,
                                          c_first, rows, seed):
    s = builtin_case(name)
    t = s.tower
    y = list(t.kE.units())[unit % (t.kE.q - 1)]
    # The product is homogeneous of degree v(scalar) + v(c) + 2 grade =
    # shift; its trace has a w_F^0 coefficient only at shift 0.
    k = s.r_list[0] - 2 * grade + shift
    scalar = t.e_monomial(k, y, prec=prec)
    basis = np.random.default_rng(seed).integers(0, t.p, size=(rows, t.n * t.f))
    args = (t, s.c_elems[0], basis, grade, scalar, c_first)
    fast = gram_or_error(block_gram_raw, *args)
    assert fast == gram_or_error(loop_block_gram_raw, *args)


def test_block_gram_precision_error_matches():
    # Negative grades against a short scalar leave w_F^0 unknown.
    s = builtin_case("e3f1")
    t = s.tower
    basis = np.eye(t.n * t.f, dtype=np.int64)[:2]
    args = (t, s.c_elems[0], basis, -2, t.e_monomial(0, t.kE.one(), prec=1), True)
    fast = gram_or_error(block_gram_raw, *args)
    assert fast[0] == "PrecisionTooLow"
    assert fast == gram_or_error(loop_block_gram_raw, *args)


@pytest.mark.parametrize("name,grade,k,y,c_first,basis,first", [
    # The first unknown pair in row order is not the least precise one.
    ("e5f1", -1, 3, 0, True,
     [[0, 1, 2, 2, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 1, 2, 2, 0]], -2),
    ("e3f1", 0, 4, 0, True, [[2, 1, 2], [0, 0, 2], [0, 0, 0], [2, 1, 1]], -1),
])
def test_block_gram_precision_error_names_first_pair(name, grade, k, y, c_first,
                                                     basis, first):
    s = builtin_case(name)
    t = s.tower
    scalar = t.e_monomial(k, list(t.kE.units())[y], prec=-1)
    args = (t, s.c_elems[0], np.array(basis), grade, scalar, c_first)
    fast = gram_or_error(block_gram_raw, *args)
    assert fast == ("PrecisionTooLow", f"w_F^0 beyond precision {first}")
    assert fast == gram_or_error(loop_block_gram_raw, *args)


@pytest.mark.parametrize("name", [n for n in R1_CASE_NAMES if n != "u1"])
def test_block_gram_rows_decide_when_stack_is_short(name, monkeypatch):
    # A stack shorter than its rows must fall back to the rows' own sides,
    # which know every pair here, and still give the Gram of those rows.
    # (u1 has no W_z rows.)
    s = builtin_case(name)
    t = s.tower
    sides = stratum._gram_sides
    shortened = []

    def short_stack(tower, c, X, scalar):
        left, right = sides(tower, c, X, scalar)
        if X.batch:
            shortened.append(X.batch)
            left = left.truncated(-right.g)
        return left, right

    monkeypatch.setattr(stratum, "_gram_sides", short_stack)
    scalar = t.e_monomial(1, list(t.kE.units())[-1])
    for block in build_Wz(t, s).blocks:
        args = (t, s.c_elems[block.j], block.basis, block.grade, scalar, True)
        fast = gram_or_error(block_gram_raw, *args)
        assert fast == gram_or_error(loop_block_gram_raw, *args)
        assert fast[0] != "PrecisionTooLow"
    assert shortened


# -- one oracle pass for several characters ----------------------------------


def mu_pair(t):
    half = (t.kE.q - 1) // 2
    return MultChar(t.kE, half * (t.f - 1)), MultChar(t.kE, half * t.f)


@pytest.mark.parametrize("name,sample", [("e1f2", None), ("e5f1", None),
                                         ("e3f2", 12)])
def test_bz_oracle_tuple_matches_single_calls(name, sample):
    s = builtin_case(name)
    chars = default_chars(s, std_psi(s.tower))
    mu_lo, mu_hi = mu_pair(s.tower)
    both = bz_oracle(s, chars, (mu_lo, mu_hi), sample=sample, seed=3)
    assert isinstance(both, tuple)
    (lo,) = bz_oracle(s, chars, (mu_lo,), sample=sample, seed=3)
    (hi,) = bz_oracle(s, chars, (mu_hi,), sample=sample, seed=3)
    assert both == (lo, hi)


def test_bz_oracle_tuple_evaluates_each_term_once(monkeypatch):
    s = builtin_case("e1f2")
    t = s.tower
    seen = record_bz_terms(monkeypatch)
    bz_oracle(s, default_chars(s, std_psi(s.tower)), mu_pair(t))
    assert len(seen) == len({(u.coeffs, x) for u, x in seen}) == (t.kE.q - 1) * t.p**2 == 72


def test_bz_oracle_tuple_checks_every_character():
    s = builtin_case("e1f2")
    with pytest.raises(ValueError):
        bz_oracle(s, default_chars(s, std_psi(s.tower)),
                  (mu_pair(s.tower)[0], MultChar(s.tower.kE, 1)))


def test_oracles_refuse_past_bound(monkeypatch):
    s = builtin_case("e1f2")
    t = s.tower
    chars = default_chars(s, std_psi(s.tower))
    seen = record_bz_terms(monkeypatch)
    # One phase sum is p^dim = 9 points; path A has 72 terms, or the sample.
    with pytest.raises(EnumerationTooLarge):
        bz_oracle(s, chars, mu_pair(t), bound=8)
    with pytest.raises(EnumerationTooLarge):
        bz_oracle(s, chars, mu_pair(t), bound=71)
    with pytest.raises(EnumerationTooLarge):
        bz_oracle(s, chars, mu_pair(t), sample=10, bound=9)
    with pytest.raises(EnumerationTooLarge):
        bz_oracle(s, chars, mu_pair(t), sample=5, bound=8)
    assert seen == []
    bz_oracle(s, chars, mu_pair(t), sample=9, bound=9)
    assert len(seen) == 9
    # by_oracle: (q_E - 1) p^zdim = 24 representatives, or the sample.
    with pytest.raises(EnumerationTooLarge):
        by_oracle(s, chars, bound=23)
    assert by_oracle(s, chars, bound=24).as_int() == 24
    assert by_oracle(s, chars, sample=5, bound=5).as_int() == 24


def test_bz_oracle_refuses_before_any_phase_form(monkeypatch):
    # 72 path-A terms past a bound of 71 are refused before the per-unit
    # phase forms are built.
    s = builtin_case("e1f2")
    built = []
    gram = stratum._gauss_gram
    monkeypatch.setattr(stratum, "_gauss_gram",
                        lambda *args: built.append(None) or gram(*args))
    with pytest.raises(EnumerationTooLarge, match="72 terms exceeds bound 71"):
        bz_oracle(s, default_chars(s, std_psi(s.tower)), mu_pair(s.tower), bound=71)
    assert built == []
    bz_oracle(s, default_chars(s, std_psi(s.tower)), mu_pair(s.tower), bound=72)
    assert len(built) == s.tower.kE.q - 1


# -- chunked path A against the per-term code it replaced --------------------


def ref_bz_term(s, big, root, wz, y, xv, sizes):
    """Test-local copy of the one-term path-A evaluation the chunks replaced,
    on the general solver of tests/_support.py.

    Returns the term value with the quantities its checks compare: Y', the
    two matrices the characters are evaluated at, and the two sides of the
    exchange identity on their common length (None at X = 0)."""
    tower = s.tower
    p = tower.p
    ident = MatF.identity(tower)
    x_coords = []
    at = 0
    for k in sizes:
        coeffs = np.array(xv[at : at + k], dtype=np.int64)
        at += k
        block = wz.blocks[len(x_coords)]
        x_coords.append(coeffs @ block.basis % p if k else
                        np.zeros(tower.n * tower.f, dtype=np.int64))
    yp = ref_solve_Y_from_X(s, [v[None] for v in x_coords], logs_of([y]))[0].take(0)
    xtot = MatF.zero(tower)
    for block, vec in zip(wz.blocks, x_coords):
        if vec.any():
            xtot = xtot + tower.mat_from_layer(block.grade, vec)
    one_plus = ident + yp
    exchange = None
    if xtot.is_zero():
        g = ident
    else:
        yinv = inverse_unit(one_plus) @ tower.m_of(
            tower.e_monomial(1, y.inverse())
        )
        w = tower.alpha(xtot) @ yinv
        g = ident - (w @ xtot)
        lhs, rhs = det_unit(g), det_unit(ident - (xtot @ w))
        n = min(len(lhs), len(rhs))
        assert np.array_equal(lhs[:n], rhs[:n])
        exchange = (lhs[:n], rhs[:n])
    value = cyc_root(p, eval_simple_char(big, one_plus)) * cyc_root(
        p, eval_simple_char(root, g))
    return {"value": value, "yp": yp, "gl": one_plus, "u": g, "exchange": exchange}


def ref_by_term(s, big, root, zbases, t, zv):
    """Test-local copy of the one-representative by_oracle loop body, with the
    two matrices the characters are evaluated at."""
    tower = s.tower
    p, kE = tower.p, tower.kE
    ident = MatF.identity(tower)
    zmat = MatF.zero(tower)
    at = 0
    for m, basis in zbases:
        k = basis.shape[0]
        coeffs = np.array(zv[at : at + k], dtype=np.int64)
        at += k
        if coeffs.any():
            zmat = zmat + tower.mat_from_layer(m, coeffs @ basis % p)
    y0 = -(t * t) * kE.from_int(2).inverse()
    Y = tower.m_of(tower.e_monomial(0, y0)) + zmat
    yp = tower.m_of(tower.e_monomial(0, y0.inverse())) @ zmat
    xm = tower.m_of(tower.e_monomial(0, t))
    g = ident - (tower.alpha(xm) @ inverse_unit(Y) @ xm)
    value = cyc_root(p, eval_simple_char(big, ident + yp)) * cyc_root(
        p, eval_simple_char(root, -g))
    return {"value": value, "gl": ident + yp, "u": -g}


def same_member(stack, k, single, exact=True):
    """Member k of a stacked quantity against the one-term quantity: the same
    layers and precision.  The one-term code keeps 0 and 1 (Y' and g at
    X = 0) at the tower's cap, and its valuation can sit above the stack's
    shared one; a stack member can then only carry the stack's precision,
    which is never more.  With ``exact`` the second case must not occur."""
    member = stack.take(k)
    t = single.tower
    constant = single.fprec == t.fcap and (single.is_zero() or
                                           (single - MatF.identity(t)).is_zero())
    if member.fprec == single.fprec:
        return same_matf(member, single)
    return (constant or not exact) and member.fprec < single.fprec and \
        same_matf(member, single.truncated(member.fprec))


def same_matf(X, Y):
    return X.g == Y.g and X.fprec == Y.fprec and np.array_equal(X.arr, Y.arr)


def spy_chunks(monkeypatch):
    """Record, per path-A chunk, its terms and values and the stacked
    quantities its checks compare."""
    chunks = []
    solve, evaluate = stratum.solve_Y_from_X, stratum.eval_simple_char
    det, bz_chunk = stratum.det_unit, stratum._bz_chunk
    inside = []

    def spy_solve(s, x_coords, logs):
        out = solve(s, x_coords, logs)
        if inside == ["chunk"]:
            chunks[-1]["yp"] = out[0]
        return out

    def spy_eval(chi, g):
        inside.append("eval")
        try:
            values = evaluate(chi, g)
        finally:
            inside.pop()
        if inside == ["chunk"]:
            chunks[-1].setdefault("values", {})[chi.side] = values
            chunks[-1][chi.side] = g
        return values

    def spy_det(X):
        out = det(X)
        if inside == ["chunk"]:
            chunks[-1]["exchange"] = out
        return out

    def spy_chunk(s, big, root, wz, ys, X):
        chunks.append({"ys": list(ys), "X": X.copy()})
        inside.append("chunk")
        try:
            chunks[-1]["result"] = bz_chunk(s, big, root, wz, ys, X)
        finally:
            inside.pop()
        return chunks[-1]["result"]

    for name, fn in [("solve_Y_from_X", spy_solve), ("eval_simple_char", spy_eval),
                     ("det_unit", spy_det), ("_bz_chunk", spy_chunk)]:
        monkeypatch.setattr(stratum, name, fn)
    return chunks


# Sampled e3f2 runs 150 terms: two full chunks and a partial one.
PIN_SAMPLE = {"e3f2": 150}


@pytest.mark.parametrize("name", R1_CASE_NAMES)
def test_chunked_bz_oracle_matches_one_term_code(name, monkeypatch):
    s = builtin_case(name)
    t = s.tower
    chars = default_chars(s, std_psi(s.tower))
    wz = build_Wz(t, s)
    sizes = [b.basis.shape[0] for b in wz.blocks]
    chunks = spy_chunks(monkeypatch)
    sample = PIN_SAMPLE.get(name)
    bz_oracle(s, chars, mu_pair(t), sample=sample, seed=5)
    terms = ref_draw(ref_terms(list(t.kE.units()), t.p, wz.dim_k), sample, 5)
    assert [len(c["ys"]) for c in chunks] == [
        min(64, len(terms) - i) for i in range(0, len(terms), 64)]
    at = 0
    for chunk in chunks:
        live = []
        for k, log in enumerate(chunk["ys"]):
            y = t.kE.exp(int(log))
            xv = tuple(int(c) for c in chunk["X"][k])
            assert (y, xv) == terms[at + k]
            ref = ref_bz_term(s, *chars, wz, y, xv, sizes)
            assert cyc_root(t.p, chunk["result"][k]) == ref["value"]
            for side, chi in zip(("gl", "u"), chars):
                assert chunk["values"][side][k] == eval_simple_char(chi, ref[side])
                assert same_member(chunk[side], k, ref[side])
            assert same_member(chunk["yp"], k, ref["yp"])
            if ref["exchange"] is not None:
                live.append(ref["exchange"])
        at += len(chunk["ys"])
        if live:
            dets = chunk["exchange"]
            assert dets.shape == (2 * len(live), len(live[0][0]))
            for j, (lhs, rhs) in enumerate(live):
                assert dets[j].tolist() == lhs.tolist()
                assert dets[len(live) + j].tolist() == rhs.tolist()
        else:
            assert "exchange" not in chunk
    assert at == len(terms)


@pytest.mark.parametrize("name", R1_CASE_NAMES)
def test_chunked_by_oracle_matches_one_term_code(name, monkeypatch):
    s = builtin_case(name)
    t = s.tower
    big, root = chars = default_chars(s, std_psi(s.tower))
    zbases = stratum._y_side_zbases(s)
    zdim = sum(b.shape[0] for _, b in zbases)
    evaluated = []
    evaluate = stratum.eval_simple_char

    def spy_eval(chi, g):
        values = evaluate(chi, g)
        evaluated.append((chi.side, g, values))
        return values

    monkeypatch.setattr(stratum, "eval_simple_char", spy_eval)
    sample = PIN_SAMPLE.get(name)
    total = by_oracle(s, chars, sample=sample, seed=5)
    assert total.as_int() == CLOSED_MAGNITUDE[name]
    reps = ref_draw(ref_terms(list(t.kE.units()), t.p, zdim), sample, 5)
    assert [side for side, _, _ in evaluated] == ["gl", "u"] * len(evaluated[::2])
    at = 0
    for (_, gl, big_vals), (_, u, root_vals) in zip(evaluated[::2], evaluated[1::2]):
        for k in range(len(big_vals)):
            ref = ref_by_term(s, big, root, zbases, *reps[at + k])
            assert cyc_root(t.p, big_vals[k]) * cyc_root(t.p, root_vals[k]) == ref["value"]
            # Y' of a representative whose lowest layer vanishes has a higher
            # valuation alone than in its stack (e3f2: 6 layers against 5).
            assert same_member(gl, k, ref["gl"], exact=False)
            assert same_member(u, k, ref["u"], exact=False)
            assert min(gl.fprec, u.fprec) >= 2
        at += len(big_vals)
    assert at == len(reps)


@st.composite
def path_a_terms(draw):
    """A tower and a list of (unit, X) terms, about a fifth with X = 0."""
    name = draw(st.sampled_from(R1_CASE_NAMES))
    s = builtin_case(name)
    t = s.tower
    units = list(t.kE.units())
    dim = build_Wz(t, s).dim_k
    count = draw(st.integers(1, 70 if name == "e3f2" else 140))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    terms = [(rng.choice(units),
              (0,) * dim if rng.random() < 0.2
              else tuple(rng.randrange(t.p) for _ in range(dim)))
             for _ in range(count)]
    return s, terms


@settings(max_examples=20, deadline=None)
@given(path_a_terms())
def test_bz_chunks_match_one_term_code_on_random_terms(case):
    s, terms = case
    chars = default_chars(s, std_psi(s.tower))
    kE, p = s.tower.kE, s.tower.p
    wz = build_Wz(s.tower, s)
    dim = wz.dim_k
    sizes = [b.basis.shape[0] for b in wz.blocks]
    units = list(kE.units())
    # A term's index: its unit's position times p^dim plus its coordinates
    # read as base-p digits, most significant first.
    index = [units.index(y) * p**dim
             + sum(c * p**(dim - 1 - k) for k, c in enumerate(xv)) for y, xv in terms]
    starts, at = [], [0]

    def step(logs, X):
        # The walk hands over the terms in order: a chunk starts where the
        # chunks before it end.
        start = at[0]
        starts.append(start)
        at[0] += len(logs)
        chunk = terms[start : start + len(logs)]
        assert [(kE.exp(int(k)), tuple(int(c) for c in xv))
                for k, xv in zip(logs, X)] == chunk
        got = stratum._bz_chunk(s, *chars, wz, logs, X)
        for k, (y, xv) in enumerate(chunk):
            assert cyc_root(p, got[k]) == ref_bz_term(
                s, *chars, wz, y, xv, sizes)["value"]
        return got, got

    # Walk these terms instead of the ones _terms would draw.
    with mock.patch.object(stratum, "_terms", lambda *args: index):
        stratum._walk(kE, p, dim, None, 0, stratum.DEFAULT_ENUMERATION_BOUND,
                      step, "")
    assert starts == list(range(0, len(terms), 64))


@pytest.mark.parametrize("term", [0, 63, 64, 100, 149])
def test_bz_oracle_names_a_term_whose_phase_disagrees(term, monkeypatch):
    # e3f2's sample of 150 makes chunks from terms 0, 64 and 128; term 100
    # sits in the middle of the second.
    s = builtin_case("e3f2")
    p = s.tower.p
    original = stratum._bz_chunk
    start = [0]

    def corrupt(s, big, root, wz, ys, X):
        values = original(s, big, root, wz, ys, X)
        if start[0] <= term < start[0] + len(ys):
            values[term - start[0]] = (values[term - start[0]] + 1) % p
        start[0] += len(ys)
        return values

    monkeypatch.setattr(stratum, "_bz_chunk", corrupt)
    with pytest.raises(CheckFailed, match=rf"\(term {term}\)"):
        bz_oracle(s, default_chars(s, std_psi(s.tower)), mu_pair(s.tower), sample=150, seed=5)


def test_exchange_identity_failure_names_its_term(monkeypatch):
    # Term 0 has X = 0 and no exchange identity; the two others do, in one
    # det_unit stack of four rows (both left sides, then both right sides).
    s = builtin_case("e1f2")
    t = s.tower
    wz = build_Wz(t, s)
    det = stratum.det_unit

    def corrupt(X):
        out = det(X)
        if X.batch == (4,):
            out = out.copy()
            out[1, 0] = (out[1, 0] + 1) % t.p
        return out

    monkeypatch.setattr(stratum, "det_unit", corrupt)
    X = np.array([[0, 0], [1, 0], [0, 2]])
    with pytest.raises(CheckFailed,
                       match=r"exchange identity fails \(stack index 2\)"):
        stratum._bz_chunk(s, *default_chars(s, std_psi(s.tower)), wz, logs_of([t.kE.one()] * 3), X)


def test_by_oracle_names_a_term_that_breaks_constancy(monkeypatch):
    s = builtin_case("e1f2")
    p = s.tower.p
    evaluate = stratum.eval_simple_char

    def corrupt(chi, g):
        values = evaluate(chi, g)
        if chi.side == "u":
            values[13] = (values[13] + 1) % p
        return values

    monkeypatch.setattr(stratum, "eval_simple_char", corrupt)
    with pytest.raises(CheckFailed, match=r"\(term 13\)"):
        by_oracle(s, default_chars(s, std_psi(s.tower)))


def test_by_oracle_names_a_chunk_that_is_constant_on_its_own(monkeypatch):
    # e3f2's sample of 150 makes chunks from terms 0, 64 and 128.  The second
    # chunk agrees with itself but not with term 0.
    s = builtin_case("e3f2")
    p = s.tower.p
    evaluate = stratum.eval_simple_char
    calls = []

    def corrupt(chi, g):
        values = evaluate(chi, g)
        if chi.side == "u":
            calls.append(len(values))
            if len(calls) == 2:
                values = (values + 1) % p
        return values

    monkeypatch.setattr(stratum, "eval_simple_char", corrupt)
    with pytest.raises(CheckFailed, match=r"\(term 64\)"):
        by_oracle(s, default_chars(s, std_psi(s.tower)), sample=150, seed=5)


def test_bz_oracle_compares_the_exhaustive_totals(monkeypatch):
    # Path B off by one at a single unit: every term still matches its own
    # phase, so only the comparison of the two totals can see it.
    s = builtin_case("e1f2")
    phase_sum = stratum.phase_sum
    calls = []

    def off_by_one(*args, **kwargs):
        calls.append(None)
        total = phase_sum(*args, **kwargs)
        return total + CycNum.one(s.tower.p) if len(calls) == 1 else total

    monkeypatch.setattr(stratum, "phase_sum", off_by_one)
    with pytest.raises(CheckFailed, match="two evaluation routes disagree"):
        bz_oracle(s, default_chars(s, std_psi(s.tower)), mu_pair(s.tower))
    # A sampled run returns path B and compares no totals.
    calls.clear()
    bz_oracle(s, default_chars(s, std_psi(s.tower)), mu_pair(s.tower), sample=5)


def test_chunk_failure_names_the_term(monkeypatch):
    # A check inside a chunk names its stack index and the chunk's start.
    s = builtin_case("e1f2")
    chars = default_chars(s, std_psi(s.tower))
    evaluate = stratum.eval_simple_char

    def refuse(chi, g):
        # The 72 e1f2 terms make a chunk of 64 and one of 8: refuse term 71.
        if chi.side == "u" and g.batch == (8,):
            stratum._fail_first(np.arange(8) == 7, stratum.NotInDomain, "refused")
        return evaluate(chi, g)

    monkeypatch.setattr(stratum, "eval_simple_char", refuse)
    with pytest.raises(CheckFailed,
                       match=r"refused \(stack index 7\), in the chunk from term 64"):
        bz_oracle(s, chars, mu_pair(s.tower))


# -- the precomputed (1 - alpha) solver against the elimination it replaced --


def ref_solve(mat, rhs, p):
    """Test-local copy of the one-right-side solver: the particular solution
    with every free variable zero, or None."""
    rows, cols = mat.shape
    aug = np.concatenate([mat % p, rhs.reshape(rows, 1) % p], axis=1)
    red, piv = _modp.rref(aug, p)
    if cols in piv:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(piv):
        x[pc] = red[r, cols]
    return x


@pytest.mark.parametrize("name", BUILTIN_CASE_NAMES)
def test_one_minus_alpha_solver_matches_elimination(name):
    s = builtin_case(name)
    t = s.tower
    p, nf = t.p, t.n * t.f
    rng = np.random.default_rng(sum(map(ord, name)))
    checked = {True: 0, False: 0}
    for level in range(s.d + 2):
        gens = stratum.level_gens(s, level)
        for m in range(-2, 2 * max(s.s_list) + 2):
            sub = t.cent_layer(gens, m)
            amat = stratum._alpha_matrix(t, m)
            A = np.array([(row - amat @ row) % p for row in sub],
                         dtype=np.int64).reshape(-1, nf).T
            reach = (rng.integers(0, p, size=(6, sub.shape[0])) @ A.T % p
                     if sub.shape[0] else np.zeros((0, nf), dtype=np.int64))
            rhs = np.vstack([reach, rng.integers(0, p, size=(6, nf)),
                             np.zeros((1, nf), dtype=np.int64)])
            for v in rhs:
                x = ref_solve(A, v, p) if sub.shape[0] else (
                    None if v.any() else np.zeros(0, dtype=np.int64))
                if x is None:
                    with pytest.raises(stratum.NoSolution):
                        stratum._solve_one_minus_alpha(t, m, gens, v)
                else:
                    want = x @ sub % p if sub.shape[0] else np.zeros(nf, dtype=np.int64)
                    got = stratum._solve_one_minus_alpha(t, m, gens, v)
                    assert got.tolist() == want.tolist()
                checked[x is None] += 1
            # One call on all right sides names the first inconsistent one.
            bad = [k for k, v in enumerate(rhs)
                   if (ref_solve(A, v, p) if sub.shape[0] else
                       (None if v.any() else 0)) is None]
            if bad:
                with pytest.raises(stratum.NoSolution,
                                   match=rf"stack index {bad[0]}\)"):
                    stratum._solve_one_minus_alpha(t, m, gens, rhs)
    assert checked[True] and checked[False]


# -- per-member checks on stacks ---------------------------------------------


def test_domain_checks_name_the_failing_member():
    s = builtin_case("e3f1")
    t = s.tower
    big, root = default_chars(s, std_psi(s.tower))
    ident = MatF.identity(t)
    inside = ident + t.mat_from_layer(1, np.array([1, 0, 2]))
    outside = ident + t.mat_from_layer(0, np.array([0, 1, 0]))
    # Member 0 is 1 itself (g - 1 = 0); member 2 has a degree-0 part.
    stack = MatF.stack([ident, inside, outside, inside])
    with pytest.raises(NotInDomain,
                       match=r"positive valuation \(stack index 2\)"):
        eval_simple_char(big, stack)
    values = eval_simple_char(big, MatF.stack([ident, inside]))
    assert values.tolist() == [eval_simple_char(big, ident),
                               eval_simple_char(big, inside)]
    # A generic one-unit is not unitary; 1 is.
    with pytest.raises(NotInDomain, match=r"Hermitian form \(stack index 1\)"):
        eval_simple_char(root, MatF.stack([ident, inside]))


def r0_3_stratum():
    """A minimal r_0 = 3 stratum (s_0 = 1) on the e5f1 tower: off the window."""
    t = build_tower(TowerConfig(q=3, e=5, f=1, N=12))
    return StratumSpec(t, [t.e_monomial(-3)])


def test_r0_3_stratum_is_refused_before_any_domain_check(monkeypatch):
    s = r0_3_stratum()
    t = s.tower
    big, root = default_chars(s, std_psi(t))
    nf = t.n * t.f
    # r_0 = 3 gives s_0 = 1: the degree-1 part of g - 1 can leave the
    # H-tilde-1 lattice layer, which only an off-window stratum has.
    layer = stratum.h1_lattice(t, s).layer(1)
    assert 0 < layer.shape[0] < nf
    escape = next(v for v in np.eye(nf, dtype=np.int64)
                  if not in_row_space(v, layer, t.p))

    def domain_check(chi, g):
        raise AssertionError("the domain check ran")

    monkeypatch.setattr(stratum, "_domain_check", domain_check)
    ident = MatF.identity(t)
    outside = ident + t.mat_from_layer(0, np.eye(nf, dtype=np.int64)[0])
    inside = ident + t.mat_from_layer(1, layer[0])
    escaping = ident + t.mat_from_layer(1, escape)
    # Each g would fail a domain check: an escaping degree-1 part, g - 1 of
    # valuation 0, g - 1 known to one layer only, a non-unitary g on the
    # square-root side.
    for chi, g in ((big, escaping), (big, MatF.stack([inside, escaping])),
                   (big, outside), (big, ident.truncated(1)), (root, inside)):
        with pytest.raises(LinearizationInvalid, match="eval_simple_char"):
            eval_simple_char(chi, g)


@pytest.mark.parametrize("name", ["e3f1", "e3f2"])
def test_solve_names_a_member_outside_its_block(name):
    s = builtin_case(name)
    t = s.tower
    (block,) = build_Wz(t, s).blocks
    eye = np.eye(t.n * t.f, dtype=np.int64)
    escapes = [v for v in eye if not in_row_space(v, block.basis, t.p)]
    assert escapes
    for escape in escapes:
        coords = np.stack([block.basis[0], (block.basis[0] + escape) % t.p])
        with pytest.raises(DegenerateX, match=r"escapes its block \(stack index 1\)"):
            solve_Y_from_X(s, coords, logs_of([t.kE.one()] * 2))
    yp, _, _ = solve_Y_from_X(s, block.basis[:2], logs_of([t.kE.one()] * 2))
    for k in range(2):
        one = solve_Y_from_X(s, block.basis[k : k + 1], logs_of([t.kE.one()]))[0]
        assert same_member(yp, k, one.take(0))


@pytest.mark.parametrize("name", R1_CASE_NAMES)
def test_solve_returns_the_assembled_X_and_its_alpha(name):
    # The package assembles X from its one block; the general reference adds
    # the auxiliary component when one is given.
    s = builtin_case(name)
    t = s.tower
    wz = build_Wz(t, s)
    rng = random.Random(11)
    units = list(t.kE.units())
    ys = [rng.choice(units) for _ in range(9)]
    X = np.array([[rng.randrange(t.p) for _ in range(wz.dim_k)] for _ in ys],
                 dtype=np.int64)
    X[0] = 0
    x_coords = block_coords(wz, X)
    for aux in (None, t.e_monomial(0, t.kE.one())):
        if aux is None:
            _, xtot, alpha_x = solve_Y_from_X(s, x_coords[0], logs_of(ys))
        else:
            _, xtot, alpha_x = ref_solve_Y_from_X(s, x_coords, logs_of(ys), aux=aux)
        want = MatF.zero(t) if aux is None else t.m_of(aux)
        for block, vec in zip(wz.blocks, x_coords):
            want = want + t.mat_from_layer(block.grade, vec)
        assert same_matf(xtot, want)
        assert same_matf(alpha_x, t.alpha(want))


@functools.lru_cache(maxsize=None)
def null_product_X(name):
    """The nonzero W_z coordinates X of a window case with X alpha(X) zero
    mod precision (e3f1, e3f2 and e5f1 have some): the solver's right side
    is then zero for a live X."""
    s = builtin_case(name)
    t = s.tower
    (block,) = build_Wz(t, s).blocks
    dim = block.basis.shape[0]
    X = np.array(list(itertools.product(range(t.p), repeat=dim)),
                 dtype=np.int64).reshape(t.p**dim, dim)
    M = t.mat_from_layer(block.grade, X @ block.basis % t.p)
    return X[M.nonzero_mask() & ~(M @ t.alpha(M)).nonzero_mask()]


@st.composite
def solver_stacks(draw):
    """A window tower, its W_z and a stack of units and X coordinates: an
    all-zero stack, nonzero X whose X alpha(X) is zero mod precision, or random
    rows of which about a fifth are zero."""
    name = draw(st.sampled_from(R1_CASE_NAMES))
    s = builtin_case(name)
    t = s.tower
    wz = build_Wz(t, s)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["zero", "null product", "random"]))
    X = np.array([[0 if rng.random() < 0.2 else rng.randrange(t.p)
                   for _ in range(wz.dim_k)] for _ in range(count)],
                 dtype=np.int64).reshape(count, wz.dim_k)
    if kind == "zero":
        X[:] = 0
    elif kind == "null product" and len(nulls := null_product_X(name)):
        X = nulls[[rng.randrange(len(nulls)) for _ in range(count)]]
    units = list(t.kE.units())
    return s, wz, [rng.choice(units) for _ in range(count)], X


@settings(max_examples=30, deadline=None)
@given(solver_stacks())
def test_package_solver_matches_the_general_reference(case):
    s, wz, ys, X = case
    got = solve_Y_from_X(s, X @ wz.blocks[0].basis % s.tower.p, logs_of(ys))
    want = ref_solve_Y_from_X(s, block_coords(wz, X), logs_of(ys))
    for a, b in zip(got, want):
        assert same_matf(a, b)
        for k in range(len(ys)):
            assert same_matf(a.take(k), b.take(k))


@pytest.mark.parametrize("name", ["e3f1", "e1f2", "e3f2", "e5f1"])
def test_bz_chunk_takes_alpha_only_inside_the_solver(name, monkeypatch):
    s = builtin_case(name)
    t = s.tower
    wz = build_Wz(t, s)
    rng = random.Random(5)
    ys = [rng.choice(list(t.kE.units())) for _ in range(6)]
    X = np.array([[rng.randrange(t.p) for _ in range(wz.dim_k)] for _ in ys],
                 dtype=np.int64)
    X[0] = 0
    X[1, 0] = 1
    calls = {"inside": 0, "outside": 0}
    inside = []
    alpha, solve = type(t).alpha, stratum.solve_Y_from_X

    def spy_alpha(tower, M):
        calls["inside" if inside else "outside"] += 1
        return alpha(tower, M)

    def spy_solve(*args, **kwargs):
        inside.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(type(t), "alpha", spy_alpha)
    monkeypatch.setattr(stratum, "solve_Y_from_X", spy_solve)
    stratum._bz_chunk(s, *default_chars(s, std_psi(s.tower)), wz, logs_of(ys), X)
    assert calls["inside"] > 0
    assert calls["outside"] == 0
