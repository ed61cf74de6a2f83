"""End-to-end acceptance suite: ten numbered criteria, each printed as a
single pass/fail line with its runtime.  All comparisons are exact (integer
or cyclotomic equality); the only pinned tolerances are the runtime budgets
stated per criterion."""

import random
import time
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from strbc.cyclotomic import cyc_root
from strbc.finite_field import (
    AddChar,
    MultChar,
    get_field,
    quadratic_residue_char,
)
from strbc.gauss import (
    QuadSpace,
    gauss_sum_brute,
    gauss_sum_closed,
    one_dim_gauss_value,
)
from strbc.hecke_bc import (
    HeckeParams,
    LevelZeroChar,
    base_change,
    normalized_spectrum,
    p_primary_extension,
    rechoice_covariance,
    solve_reducibility,
    to_turns,
)
from strbc.local_model import (
    MatF,
    TowerConfig,
    _in_level,
    build_Wz,
    build_tower,
    inverse_unit,
    iwahori_indices,
)
from strbc.stratum import (
    BUILTIN_CASE_NAMES,
    NonUnitQuotient,
    _alpha_fixed_basis,
    builtin_case,
    by_oracle,
    bz_oracle,
    default_chars,
    epsilon_z,
    epsilon_z_invariance,
    eval_simple_char,
    quotient_form,
)

from _support import (
    R1_CASE_NAMES,
    ParityClass,
    minimality_check,
    parity_classifier,
    ref_root,
    s_values,
)

HALF = Fraction(1, 2)


def _report(num: int, label: str, t0: float):
    print(f"criterion {num}: PASS ({label}) [{time.monotonic() - t0:.2f}s]")


def _std_psi(tower):
    return AddChar(tower.k, 1)


def _random_h1(s, rng, depth=3):
    t = s.tower
    A = MatF.zero(t)
    for m in range(1, depth + 1):
        vec = np.array([rng.randrange(t.p) for _ in range(t.n * t.f)])
        A = A + t.mat_from_layer(m, vec)
    return MatF.identity(t) + A


def _random_unitary(s, rng, depth=3):
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


def test_criterion_1_gauss_cross_validation():
    t0 = time.monotonic()
    rng = random.Random(0)
    checked = 0
    for p, f in [(3, 1), (5, 1), (3, 2), (5, 2)]:
        field = get_field(p, f)
        q = field.q
        psi = AddChar(field, 1)
        # closed 1-dim law g^2 = chi(-1) q, exactly
        g = one_dim_gauss_value(field, psi)
        chi = quadratic_residue_char(field)
        assert (g * g).as_int() == chi.sign(-field.one()) * q
        done = 0
        n = 0
        while done < 50:
            n = n % 6 + 1
            if q**n > 2 * 10**6:  # capped enumeration for q = 25
                continue
            raw = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            gram = [[(raw[i][j] + raw[j][i]) % p for j in range(n)]
                    for i in range(n)]
            space = QuadSpace.from_ints(field, gram)
            done += 1
            if not space.is_nondegenerate():
                continue
            assert gauss_sum_brute(space, psi) == gauss_sum_closed(
                space, psi)
            checked += 1
    assert checked >= 100
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(1, f"brute = closed on {checked} nondegenerate forms", t0)


def test_criterion_2_sign_facts():
    t0 = time.monotonic()
    assert epsilon_z(builtin_case("u1"),
                     _std_psi(builtin_case("u1").tower)) == 1
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        report = epsilon_z_invariance(s, _std_psi(s.tower))
        assert report["base"] == 1
        assert report["base"] ** 2 == 1
        assert report["ok"]  # exhaustive psi twists + uniformizer units
        assert len(report["psi_twists"]) == s.tower.k.q - 1
        assert len(report["uniformizer"]) == s.tower.kE.q - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(2, "epsilon = +1, square 1, invariance exhaustive", t0)


def test_criterion_3_dimension_law():
    t0 = time.monotonic()
    for name in BUILTIN_CASE_NAMES:
        s = builtin_case(name)
        tower = s.tower
        wz = build_Wz(tower, s)
        assert wz.dim_kE == tower.f * tower.e - 1
        _, c_z = iwahori_indices(tower, s)
        assert wz.size == c_z // tower.kE.q
    _report(3, "dim Wz = fe-1 and #Wz = c_z/q_E in all cases", t0)


def test_criterion_4_nondegeneracy_cooccurrence():
    t0 = time.monotonic()
    tested = 0
    for q, e, f, N in [(3, 3, 1, 8), (3, 1, 2, 6), (3, 5, 1, 12),
                       (3, 3, 2, 8)]:
        t = build_tower(TowerConfig(q=q, e=e, f=f, N=N))
        coeffs = [t.kE.one(), t.kE.generator] if f > 1 else [t.kE.one()]
        for r in (1, 3, 5):
            if r + 2 > t.N:
                continue
            for cval in coeffs:
                c = t.e_monomial(-r, cval)
                if c.is_zero() or not c.is_skew() or _in_level(t, c, -1):
                    continue
                form = quotient_form(t, c)
                assert minimality_check(t, c) == form.is_nondegenerate()
                tested += 1
    assert tested >= 8
    _report(4, f"minimality <=> nondegeneracy on {tested} strata", t0)


def test_criterion_5_oracle_agreement():
    t0 = time.monotonic()
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        tower = s.tower
        qE = tower.kE.q
        half = (qE - 1) // 2
        chars = default_chars(s, _std_psi(s.tower))
        sample = 120 if name == "e3f2" else None
        c_y, c_z = iwahori_indices(tower, s)
        closed = (qE - 1) * isqrt(c_y // qE)
        # constancy is asserted inside the oracle, at every representative;
        # value matches the closed form with the torsion normalization
        # divided out
        assert by_oracle(s, chars).as_int() == closed
        mu_hi = MultChar(tower.kE, half * tower.f)
        mu_lo = MultChar(tower.kE, half * (tower.f - 1))
        hi, lo = bz_oracle(s, chars, (mu_hi, mu_lo), sample=sample)
        assert hi.as_int() == 0
        assert lo.as_int() == (qE - 1) * isqrt(c_z // qE)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(5, "oracle values match closed forms, paths agree", t0)


def test_criterion_6_simple_character_laws():
    t0 = time.monotonic()
    rng = random.Random(11)
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        big, root = default_chars(s, _std_psi(s.tower))
        p = s.tower.p
        for _ in range(200):
            g = _random_h1(s, rng)
            h = _random_h1(s, rng)
            assert cyc_root(p, eval_simple_char(big, g @ h)) == cyc_root(
                p, eval_simple_char(big, g)) * cyc_root(p, eval_simple_char(big, h))
        for _ in range(10):
            g = _random_unitary(s, rng)
            v = cyc_root(p, eval_simple_char(root, g))
            assert v * v == cyc_root(p, eval_simple_char(big, g))
    # the determinant identity det(I-WX) = det(I-XW) is asserted on every
    # enumerated summand inside the path-A oracle; run it in full on the
    # small cases so every summand is exercised
    for name in ("u1", "e3f1", "e1f2"):
        s = builtin_case(name)
        chars = default_chars(s, _std_psi(s.tower))
        half = (s.tower.kE.q - 1) // 2
        bz_oracle(s, chars, (MultChar(s.tower.kE, half * (s.tower.f - 1)),))
    _report(6, "multiplicativity, square root, det identity", t0)


def test_criterion_7_hecke_reducibility():
    t0 = time.monotonic()
    for qE, cy, cz in [(3, 3, 3), (3, 27, 27), (9, 81, 81)]:
        hp = HeckeParams(qE, 1, cy, cz)
        assert normalized_spectrum(hp) == {"y": (-1, qE), "z": (-1, qE)}
        hp0 = HeckeParams(qE, 0, cy, cz * qE)
        assert normalized_spectrum(hp0) == {"y": (-1, qE), "z": (-1, 1)}
        for hpx in (hp, hp0):
            r_y, r_z = hpx.rank["y"], hpx.rank["z"]
            want = {Fraction(r_y + r_z, 2), Fraction(abs(r_y - r_z), 2)}
            k = get_field(3, 1)
            rho = MultChar(k, 1).sign(-k.one())
            if r_z == 1:
                rt = LevelZeroChar(k, MultChar(k, 0),
                                   varpi_turns=to_turns(-1))
                rep = solve_reducibility(hpx, rt, rho)
                assert rep.real_points == frozenset({Fraction(1),
                                                     Fraction(-1)})
                assert rep.shifted_points == frozenset({Fraction(0)})
                flip = LevelZeroChar(k, MultChar(k, 0),
                                     varpi_turns=to_turns(1))
                rep2 = solve_reducibility(hpx, flip, rho)
                assert rep2.real_points == rep.shifted_points
                assert rep2.shifted_points == rep.real_points
            else:
                rt = LevelZeroChar(k, MultChar(k, 1), varpi_turns=1)
                rep = solve_reducibility(hpx, rt, rho)
                assert rep.real_points == frozenset({HALF, -HALF})
                assert rep.shifted_points == frozenset({HALF, -HALF})
            assert s_values(rep) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    _report(7, "spectra, s-pair, matched/chi^f points, candidate swap", t0)


def test_criterion_8_base_change():
    t0 = time.monotonic()
    # U(1) table, both signs
    case = builtin_case("u1")
    eps = epsilon_z(case, _std_psi(case.tower))
    for exp, want in [(0, 1), (1, -1)]:
        rho = MultChar(case.tower.kE, exp).sign(-case.tower.kE.one())
        rt = base_change(rho, eps, case.tower)
        assert ref_root(4, rt.varpi_F_turns(case.tower)).as_int() == want
    # rechoice invariance and composed reducibility point 1, per case
    for name in R1_CASE_NAMES:
        s = builtin_case(name)
        tower = s.tower
        report = epsilon_z_invariance(s, _std_psi(tower))
        assert report["ok"]
        half = (tower.kE.q - 1) // 2
        c_y, c_z = iwahori_indices(tower, s)
        qE, eps = tower.kE.q, report["base"]
        # b_z carries the sign to solve_reducibility.
        hp = HeckeParams(qE, 1, c_y, c_z,
                         b_z=eps * (qE - 1) * isqrt(c_z // qE))
        for exp in (0, half):
            rho = MultChar(tower.kE, exp).sign(-tower.kE.one())
            rt = base_change(rho, eps, tower)
            assert rechoice_covariance(rt, rho, report, tower)
            rep = solve_reducibility(hp, rt, rho)
            assert Fraction(1) in rep.real_points
    # the d = 1 instance has no unit normalized quotient; its sign (and
    # hence its base-change row) is deliberately out of reach
    with pytest.raises(NonUnitQuotient):
        epsilon_z(builtin_case("d1-tower"),
                  _std_psi(builtin_case("d1-tower").tower))
    _report(8, "U(1) table, rechoice covariance, composed point 1", t0)


def test_criterion_9_parity():
    t0 = time.monotonic()
    case = builtin_case("u1")
    tower = case.tower
    k = tower.k
    assert parity_classifier((MultChar(k, 0), to_turns(-1)), tower) == (
        ParityClass.CONJUGATE_ORTHOGONAL)
    for exp in range(k.q - 1):
        for vk in range(4):
            chi = (MultChar(k, exp), vk)
            cls = parity_classifier(chi, tower)
            sq = ref_root(4, (2 * vk) % 4).as_int()
            csd = ((2 * exp) % (k.q - 1) == 0 and sq is not None
                   and sq * MultChar(k, exp).sign(-k.one()) == 1)
            if not csd:
                assert cls == ParityClass.NOT_CONJUGATE_SELF_DUAL
            elif exp % (k.q - 1) == 0:
                assert cls == ParityClass.CONJUGATE_ORTHOGONAL
            else:
                assert cls == ParityClass.CONJUGATE_SYMPLECTIC
    _report(9, "unramified quadratic orthogonal; exhaustive at q=3", t0)


def test_criterion_10_uniqueness():
    t0 = time.monotonic()
    fourth_roots = [ref_root(4, k) for k in range(4)]
    for e in (1, 3, 5, 7):
        for z in fourth_roots:
            ze = ref_root(4, 0)
            for _ in range(e):
                ze = ze * z
            got = p_primary_extension(e, fourth_roots.index(ze),
                                      fourth_roots.index(z * z))
            assert ref_root(4, got) == z
    _report(10, "p-primary extension unique for e in {1,3,5,7}", t0)
