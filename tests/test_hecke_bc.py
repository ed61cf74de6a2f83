import itertools
from math import isqrt

import pytest
from fractions import Fraction

from strbc.cyclotomic import CycNum, cyc_root
from strbc.finite_field import MultChar, get_field, quadratic_residue_char
from strbc.hecke_bc import (
    IMAG_TOKEN,
    HeckeParams,
    InconsistentParams,
    LevelZeroChar,
    NoConsistentValue,
    NotSelfDual,
    QPower,
    base_change,
    hecke_eigenvalues,
    normalized_spectrum,
    p_primary_extension,
    rechoice_covariance,
    solve_reducibility,
    to_turns,
    turns_sign,
)
from strbc.local_model import TowerConfig, build_tower
from strbc.stratum import (
    builtin_case,
    epsilon_z,
    epsilon_z_invariance,
)

from _support import (
    R1_CASE_NAMES,
    ParityClass,
    is_trivial,
    parity_classifier,
    rank_values,
    ref_root,
    s_values,
)

HALF = Fraction(1, 2)
# The reference values: i^k as an element of Z[zeta_4], for k = 0..3.
ZETA4_POWERS = [ref_root(4, k) for k in range(4)]


def gl_char(exp=0, turns=0):
    k = get_field(3, 1)
    return LevelZeroChar(k, MultChar(k, exp), varpi_turns=turns)


def u_minus_one(exp=0):
    """rho(-1) of the U-side character rho = mu^exp over F_3."""
    k = get_field(3, 1)
    return MultChar(k, exp).sign(-k.one())


# ---------------------------------------------------------------------------
# QPower and HeckeParams validation.


def test_qpower_as_int():
    a = QPower(1, 3)
    assert QPower(-1, 4).as_int(3) == -9
    assert QPower.zero().as_int(3) == 0
    assert a.as_int(9) == 27
    with pytest.raises(ValueError):
        a.as_int(3)


def test_qpower_refuses_a_sign_off_minus_one_zero_one():
    with pytest.raises(ValueError, match=r"^sign must be -1, 0 or \+1$"):
        QPower(2, 0)


def test_params_reject_bad_index():
    with pytest.raises(InconsistentParams):
        HeckeParams(3, 1, 5, 3)
    with pytest.raises(InconsistentParams):
        HeckeParams(3, 1, 0, 3)
    with pytest.raises(InconsistentParams, match="r_z must be 0 or 1"):
        HeckeParams(3, 2, 3, 3)


def test_params_reject_wrong_b():
    with pytest.raises(InconsistentParams):
        HeckeParams(3, 1, 3, 3, b_y=4)
    with pytest.raises(InconsistentParams):
        HeckeParams(3, 0, 3, 9, b_z=2)
    HeckeParams(3, 0, 3, 9, b_z=0)


def test_params_read_eps_from_a_passed_b():
    hp = HeckeParams(3, 1, 3, 3, b_y=-2, b_z=CycNum(3, [2]))
    assert (hp.b["y"].sign, hp.b["z"].sign) == (-1, 1)
    with pytest.raises(InconsistentParams, match="b_y must be rational"):
        HeckeParams(3, 1, 3, 3, b_y=cyc_root(3, 1))


def test_params_reject_odd_half_exponent_with_rank_one():
    # r_w = 1 forces (c_w/q)^{1/2} integral, so c_w = q^even is rejected
    with pytest.raises(InconsistentParams):
        HeckeParams(3, 1, 3, 9)


# ---------------------------------------------------------------------------
# Eigenvalues and spectra.


def test_eigenvalues_documented_example():
    hp = HeckeParams(3, 1, 3, 3, b_y=2, b_z=2)
    ey = hecke_eigenvalues(hp)["y"]
    assert {v.as_int(3) for v in ey} == {-1, 3}


def test_eigenvalues_sign_flip():
    hp = HeckeParams(3, 1, 3, 3, b_y=-2, b_z=2)
    ey = hecke_eigenvalues(hp)["y"]
    assert {v.as_int(3) for v in ey} == {1, -3}


def test_eigenvalues_b_zero():
    hp = HeckeParams(3, 0, 3, 9)
    ez = hecke_eigenvalues(hp)["z"]
    assert {v.as_int(3) for v in ez} == {-3, 3}


def test_eigenvalues_large_index():
    # c = q^5 with r = 1: eps * {-q^2, q^3}
    hp = HeckeParams(3, 1, 243, 243, b_y=18, b_z=-18)
    eig = hecke_eigenvalues(hp)
    assert {v.as_int(3) for v in eig["y"]} == {-9, 27}
    assert {v.as_int(3) for v in eig["z"]} == {9, -27}


def test_normalized_spectrum_is_rank_determined():
    def b(r, c, eps):  # the b_w that the sign eps implies
        return eps * 2 * isqrt(c // 3) if r else 0

    for (rz, cy, cz) in [(1, 3, 3), (0, 3, 9), (1, 27, 243)]:
        for ey, ez in itertools.product((-1, 1), repeat=2):
            hp = HeckeParams(3, rz, cy, cz, b_y=b(1, cy, ey),
                             b_z=b(rz, cz, ez))
            spec = normalized_spectrum(hp)
            assert spec["y"] == (-1, 3)
            assert spec["z"] == (-1, 3**rz)


# ---------------------------------------------------------------------------
# Level-zero characters and ranks.


def test_gl_char_needs_self_dual_data():
    k = get_field(3, 1)
    with pytest.raises(NotSelfDual):
        # quadratic restriction but uniformizer value squaring to +1
        LevelZeroChar(k, MultChar(k, 1), varpi_turns=to_turns(1))
    # the consistent choice is +-i
    LevelZeroChar(k, MultChar(k, 1), varpi_turns=1)


def test_gl_char_rejects_higher_order_restriction():
    k = get_field(3, 2)
    with pytest.raises(NotSelfDual):
        LevelZeroChar(k, MultChar(k, 1), varpi_turns=to_turns(1))


def test_rank_values():
    assert rank_values(gl_char(exp=0, turns=to_turns(1))) == (1, 1)
    assert rank_values(gl_char(exp=1, turns=1)) == (1, 0)


# ---------------------------------------------------------------------------
# Reducibility points.


def test_reducibility_matched_branch():
    hp = HeckeParams(3, 1, 3, 3)
    rho = u_minus_one(exp=1)  # rho(-1) = -1
    rt = gl_char(exp=0, turns=to_turns(-1))  # rho-tilde(pi_E) = rho(-1) * eps_z, eps=+1
    rep = solve_reducibility(hp, rt, rho)
    assert rep.real_points == frozenset({Fraction(1), Fraction(-1)})
    assert rep.shifted_points == frozenset({Fraction(0)})
    assert IMAG_TOKEN == "pi*i/log qE"


def test_reducibility_flipped_branch_swaps_real_parts():
    hp = HeckeParams(3, 1, 3, 3)
    rho = u_minus_one(exp=1)
    matched = solve_reducibility(hp, gl_char(exp=0, turns=to_turns(-1)), rho)
    flipped = solve_reducibility(hp, gl_char(exp=0, turns=to_turns(1)), rho)
    assert matched.real_points == flipped.shifted_points
    assert matched.shifted_points == flipped.real_points
    # the invariant unordered pair of nonnegative real parts is unchanged
    assert s_values(matched) == s_values(flipped) == {Fraction(0), Fraction(1)}


def test_reducibility_reads_eps_z_from_b_z():
    # A negative b_z puts eps_z = -1 in the datum, so the matched uniformizer
    # value changes sign with it.
    rho = u_minus_one(exp=1)
    for b_z, eps in ((2, 1), (-2, -1)):
        hp = HeckeParams(3, 1, 3, 3, b_z=b_z)
        for turns, matched in ((to_turns(rho * eps), True),
                               (to_turns(-rho * eps), False)):
            rep = solve_reducibility(hp, gl_char(exp=0, turns=turns), rho)
            assert (rep.branch == "rho-tilde(pi_E) = rho(-1) eps_z") == matched
            assert (Fraction(1) in rep.real_points) == matched


def test_reducibility_half_integral_branch():
    hp = HeckeParams(3, 0, 3, 9)
    rho = u_minus_one(exp=1)
    rt = gl_char(exp=1, turns=1)
    rep = solve_reducibility(hp, rt, rho)
    assert rep.real_points == frozenset({HALF, -HALF})
    assert rep.shifted_points == frozenset({HALF, -HALF})
    assert s_values(rep) == {HALF}


def test_reducibility_s_pair_invariant():
    for rz, cz in [(1, 3), (0, 9)]:
        hp = HeckeParams(3, rz, 3, cz)
        want = {Fraction(1 + rz, 2), Fraction(1 - rz, 2)}
        if rz == 1:
            rt = gl_char(exp=0, turns=to_turns(1))
        else:
            rt = gl_char(exp=1, turns=1)
        rep = solve_reducibility(hp, rt, u_minus_one(0))
        assert s_values(rep) == want


# ---------------------------------------------------------------------------
# p-primary extension values.


def test_p_primary_examples():
    one = ref_root(4, 0)
    plus, minus = to_turns(1), to_turns(-1)
    assert ref_root(4, p_primary_extension(1, plus, plus)) == one
    assert (ref_root(4, p_primary_extension(3, minus, plus))
            == ref_root(4, 2))
    with pytest.raises(NoConsistentValue):
        p_primary_extension(3, 1, plus)


def test_p_primary_uniqueness_exhaustive():
    for e in (1, 3, 5, 7):
        for z in ZETA4_POWERS:
            ze = ref_root(4, 0)
            for _ in range(e):
                ze = ze * z
            got = p_primary_extension(e, ZETA4_POWERS.index(ze),
                                      ZETA4_POWERS.index(z * z))
            assert ref_root(4, got) == z


def test_p_primary_rejects_even_e():
    with pytest.raises(ValueError):
        p_primary_extension(2, to_turns(1), to_turns(1))


# ---------------------------------------------------------------------------
# Quarter turns against Z[zeta_4].


def test_turns_match_fourth_root_products():
    for k, j in itertools.product(range(4), repeat=2):
        assert turns_sign(k) == ref_root(4, k).as_int()
        assert ref_root(4, (k + j) % 4) == ref_root(4, k) * ref_root(4, j)
    for sign in (1, -1):
        assert ref_root(4, to_turns(sign)) == sign
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            to_turns(bad)


# The built-in towers all have u = 1; these two make mu(u^{-1}) = -1.
NONSQUARE_U = {"q3e1-u2": TowerConfig(q=3, e=1, f=1, u=2),
               "q5e3-u2": TowerConfig(q=5, e=3, f=1, u=2)}


@pytest.mark.parametrize("name", R1_CASE_NAMES + tuple(NONSQUARE_U))
def test_varpi_F_turns_match_the_fourth_root_product(name):
    # rho-tilde(pi_F) = mu(u^{-1}) rho-tilde(pi_E)^e, the product in Z[zeta_4]
    tower = (build_tower(NONSQUARE_U[name]) if name in NONSQUARE_U
             else builtin_case(name).tower)
    kE = tower.kE
    seen = set()
    for exp in (0, (kE.q - 1) // 2):
        mu = MultChar(kE, exp)
        for turns in range(4):
            if ref_root(4, 2 * turns) != mu.sign(-kE.one()):
                continue
            rt = LevelZeroChar(kE, mu, varpi_turns=turns)
            want = mu.sign(tower.u.inverse()) * ref_root(4, turns) ** tower.e
            assert ref_root(4, rt.varpi_F_turns(tower)) == want
            seen.add(ref_root(4, turns).as_int())
    assert {1, -1} <= seen


# ---------------------------------------------------------------------------
# Base change.


def test_base_change_u1_both_signs():
    from strbc.finite_field import AddChar

    case = builtin_case("u1")
    tower = case.tower
    eps = epsilon_z(case, AddChar(tower.k, 1))
    assert eps == 1
    for exp, expect in [(0, 1), (1, -1)]:
        rho = MultChar(tower.kE, exp).sign(-tower.kE.one())
        rt = base_change(rho, eps, tower)
        assert is_trivial(rt.mu_part)
        assert ref_root(4, rt.varpi_turns).as_int() == expect
        assert ref_root(4, rt.varpi_F_turns(tower)).as_int() == expect


@pytest.mark.parametrize("name", ["u1", "e3f1", "e1f2"])
def test_base_change_rechoice_covariance(name):
    from strbc.finite_field import AddChar

    case = builtin_case(name)
    tower = case.tower
    report = epsilon_z_invariance(case, AddChar(tower.k, 1))
    assert report["ok"]
    rho = MultChar(tower.kE, 1).sign(-tower.kE.one())
    rt = base_change(rho, report["base"], tower)
    chi = quadratic_residue_char(tower.kE)
    assert rt.mu_part.exponent == chi.exponent * (tower.f - 1) % (
        tower.kE.q - 1)
    assert rechoice_covariance(rt, rho, report, tower)


def test_rechoice_covariance_fails_on_one_flipped_uniformizer_row():
    # A report whose sign at one unit u disagrees with chi^{f-1}(u) times
    # the base sign breaks the relation at that row, whichever row it is.
    from strbc.finite_field import AddChar

    case = builtin_case("e1f2")
    tower = case.tower
    report = epsilon_z_invariance(case, AddChar(tower.k, 1))
    rho = MultChar(tower.kE, 1).sign(-tower.kE.one())
    rt = base_change(rho, report["base"], tower)
    assert rechoice_covariance(rt, rho, report, tower)
    rows = report["uniformizer"]
    assert len(rows) == tower.kE.q - 1
    for i in range(len(rows)):
        flipped = [dict(r, sign=-r["sign"]) if j == i else r
                   for j, r in enumerate(rows)]
        assert not rechoice_covariance(rt, rho, dict(report, uniformizer=flipped),
                                       tower)


def test_rechoice_covariance_rejects_a_quarter_turn_uniformizer():
    # rho-tilde(pi_E) = +-i is self-dual when rho-tilde(-1) = -1, but the
    # rechoice relation compares signs, so it is refused like the r_z = 1
    # branch of solve_reducibility refuses it.
    from strbc.finite_field import AddChar

    case = builtin_case("u1")
    tower = case.tower
    k = tower.kE
    report = epsilon_z_invariance(case, AddChar(tower.k, 1))
    rho = MultChar(k, 1).sign(-k.one())
    for turns in (1, 3):
        rt = LevelZeroChar(k, MultChar(k, 1), varpi_turns=turns)
        with pytest.raises(NotSelfDual):
            rechoice_covariance(rt, rho, report, tower)


def test_base_change_feeds_reducibility_point_one():
    # the matched character must put a reducibility point at s = 1
    from strbc.finite_field import AddChar

    for name in ("u1", "e3f1", "e1f2"):
        case = builtin_case(name)
        tower = case.tower
        eps = epsilon_z(case, AddChar(tower.k, 1))
        from strbc.local_model import iwahori_indices

        c_y, c_z = iwahori_indices(tower, case)
        qE = tower.kE.q
        # b_z carries the sign to solve_reducibility.
        hp = HeckeParams(qE, 1, c_y, c_z,
                         b_z=eps * (qE - 1) * isqrt(c_z // qE))
        for exp in (0, (tower.kE.q - 1) // 2):
            rho = MultChar(tower.kE, exp).sign(-tower.kE.one())
            rt = base_change(rho, eps, tower)
            rep = solve_reducibility(hp, rt, rho)
            assert Fraction(1) in rep.real_points


# ---------------------------------------------------------------------------
# Parity.


def test_parity_unramified_quadratic_is_orthogonal():
    case = builtin_case("u1")
    k = case.tower.k
    chi = (MultChar(k, 0), to_turns(-1))
    assert parity_classifier(chi, case.tower) == (
        ParityClass.CONJUGATE_ORTHOGONAL)


def test_parity_trivial_is_orthogonal():
    case = builtin_case("u1")
    k = case.tower.k
    assert parity_classifier((MultChar(k, 0), to_turns(1)), case.tower) == (
        ParityClass.CONJUGATE_ORTHOGONAL)


def test_parity_exhaustive_q3():
    case = builtin_case("u1")
    tower = case.tower
    k = tower.k
    seen = set()
    for exp in range(k.q - 1):
        for vk in range(4):
            chi = (MultChar(k, exp), vk)
            cls = parity_classifier(chi, tower)
            seen.add(cls)
            csd = cls != ParityClass.NOT_CONJUGATE_SELF_DUAL
            # conjugate-self-duality by direct generator check:
            # the square must kill units and chi(-1) chi(pi_F)^2 = 1
            mu2_trivial = (2 * exp) % (k.q - 1) == 0
            sq = ref_root(4, (2 * vk) % 4).as_int()
            balanced = mu2_trivial and sq is not None and (
                sq * MultChar(k, exp).sign(-k.one()) == 1)
            assert csd == balanced
            if csd:
                want = (ParityClass.CONJUGATE_ORTHOGONAL
                        if exp % (k.q - 1) == 0
                        else ParityClass.CONJUGATE_SYMPLECTIC)
                assert cls == want
    assert seen == set(ParityClass)
