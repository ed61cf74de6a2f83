import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strbc import finite_field
from strbc.finite_field import (
    AddChar,
    DivisionByZero,
    EvalAtZero,
    FqField,
    MixedFields,
    MultChar,
    get_field,
    poly_rem,
    pow_fq,
    quadratic_residue_char,
)
from strbc.local_model import TowerConfig, build_tower

from _support import RefCycNum, add_value, is_trivial, mult_value, zero

SUPPORTED = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)]


def test_f9_modulus_is_x2_plus_1():
    f9 = get_field(3, 2)
    assert f9.modulus == (1, 0, 1)


def test_basic_ops():
    f3 = get_field(3)
    assert f3.from_int(2) * f3.from_int(2) == f3.one()
    f9 = get_field(3, 2)
    x = f9.element((0, 1))
    assert x * x == f9.from_int(2)
    f5 = get_field(5)
    assert f5.from_int(3).inverse() == f5.from_int(2)


def test_field_axioms_random():
    for p, f in SUPPORTED[:5]:
        fld = get_field(p, f)
        xs = list(fld.elements())[: min(fld.q, 12)]
        for a in xs:
            for b in xs:
                assert a + b == b + a
                assert a * b == b * a
                if a:
                    assert a * a.inverse() == fld.one()


def test_generator_order_and_discrete_log():
    for p, f in SUPPORTED:
        fld = get_field(p, f)
        seen = set()
        x = fld.one()
        for a in range(fld.q - 1):
            assert x.discrete_log() == a
            assert fld.exp(a) == x
            seen.add(x.coeffs)
            x = x * fld.generator
        assert len(seen) == fld.q - 1


def test_mixed_field_error():
    with pytest.raises(MixedFields):
        get_field(3).one() + get_field(5).one()


def test_divide_by_zero_errors():
    f3 = get_field(3)
    with pytest.raises(DivisionByZero):
        zero(f3).inverse()
    with pytest.raises(DivisionByZero):
        zero(f3).discrete_log()


def test_quadratic_character_values():
    f3 = get_field(3)
    chi = quadratic_residue_char(f3)
    assert mult_value(chi, f3.one()).as_int() == 1
    assert mult_value(chi, f3.from_int(2)).as_int() == -1
    with pytest.raises(EvalAtZero):
        chi.sign(zero(f3))
    f9 = get_field(3, 2)
    chi9 = quadratic_residue_char(f9)
    assert mult_value(chi9, -f9.one()).as_int() == 1  # -1 = x^2 for modulus x^2+1
    f5 = get_field(5)
    assert mult_value(quadratic_residue_char(f5), f5.from_int(4)).as_int() == 1


def test_quadratic_character_at_minus_one():
    for p, f in SUPPORTED:
        fld = get_field(p, f)
        chi = quadratic_residue_char(fld)
        expect = 1 if (fld.q - 1) // 2 % 2 == 0 else -1
        assert mult_value(chi, -fld.one()).as_int() == expect


def test_additive_character_values():
    f3 = get_field(3)
    psi = AddChar(f3, 1)
    assert add_value(psi, f3.one()) == RefCycNum(3, (0, 1))
    f9 = get_field(3, 2)
    psi9 = AddChar(f9, 1)
    for x in f9.elements():
        if f9.trace(x) == 0:
            assert add_value(psi9, x) == 1


def frobenius_trace(x):
    """x + x^p + ... + x^(p^(f-1)), which lies in the prime field."""
    fld = x.field
    acc, y = zero(fld), x
    for _ in range(fld.f):
        acc = acc + y
        y = pow_fq(y, fld.p)
    assert not any(acc.coeffs[1:])
    return acc.coeffs[0]


@pytest.mark.parametrize("pf", SUPPORTED + [(3, 4)])
def test_mul_tensor_and_trace_match_field_arithmetic(pf):
    fld = get_field(*pf)
    f = fld.f
    monos = [fld.element((0,) * j + (1,)) for j in range(f)]
    tensor = fld.mul_tensor
    assert tensor.dtype == np.int64 and tensor.shape == (f, f, f)
    assert not tensor.flags.writeable and not fld.trace_vector.flags.writeable
    for j, a in enumerate(monos):
        for k, b in enumerate(monos):
            assert tuple(tensor[j, k].tolist()) == (a * b).coeffs
    for x in fld.elements():
        assert fld.trace(x) == frobenius_trace(x)
    with pytest.raises(MixedFields):
        fld.trace(get_field(7 if fld.p != 7 else 5).one())


def test_character_sums_vanish():
    for p, f in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        fld = get_field(p, f)
        psi = AddChar(fld, 1)
        assert sum((add_value(psi, x) for x in fld.elements()), RefCycNum.zero()) == 0
        for k in (1, 2, (fld.q - 1) // 2):
            chi = MultChar(fld, k)
            if is_trivial(chi):
                continue
            assert sum((mult_value(chi, x) for x in fld.units()),
                       RefCycNum.zero()) == 0


def test_multiplicativity_and_additivity():
    fld = get_field(5, 2)
    chi = MultChar(fld, 3)
    psi = AddChar(fld, fld.element((1, 2)))
    us = [u for u in fld.units()][:10]
    for a in us:
        for b in us:
            assert mult_value(chi, a * b) == mult_value(chi, a) * mult_value(chi, b)
            assert add_value(psi, a + b) == add_value(psi, a) * add_value(psi, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUPPORTED), st.integers(0, 10**6))
def test_pow_matches_log(pf, k):
    fld = get_field(*pf)
    g = fld.generator
    assert pow_fq(g, k) == fld.exp(k)


def test_even_characteristic_rejected():
    with pytest.raises(ValueError):
        FqField(2, 1)


@pytest.mark.parametrize("p, f, order", [(2**61 - 1, 1, str(2**61 - 1)),
                                         (3, 11, "3^11"), (257, 2, "257^2"),
                                         (3, 10**9, "3^1000000000")])
def test_field_order_is_capped_before_any_work(p, f, order, monkeypatch):
    # 2^61 - 1 is prime; the order alone refuses it.
    def refuse(*args):
        raise AssertionError("a capped field was searched or tabulated")

    monkeypatch.setattr(FqField, "_least_irreducible", refuse)
    monkeypatch.setattr(FqField, "_build_log_tables", refuse)
    with pytest.raises(ValueError, match=rf"field order {re.escape(order)} exceeds 65536"):
        FqField(p, f)


# -- poly_rem against the remainder loops it replaced ------------------------


def test_poly_rem_remainder():
    # x^4 + 2x + 3 = (x^2 + 1)(x^2 + 2) + (2x + 1) over F_3.
    assert poly_rem([3, 2, 0, 0, 1], [1, 0, 1], 3) == [1, 2]
    assert poly_rem([5], [0, 1], 3) == [2]


def product_loop(fld, a, b):
    # The former product: schoolbook, then the modulus reduction loop.
    p, f = fld.p, fld.f
    raw = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    mod = fld.modulus
    for i in range(2 * f - 2, f - 1, -1):
        c = raw[i] % p
        if c:
            for j in range(f + 1):
                raw[i - f + j] -= c * mod[j]
        raw[i] = 0
    return tuple(c % p for c in raw[:f])


def irreducible_loop(p, f, low):
    # The former trial division by every monic polynomial of degree <= f/2.
    poly = list(low) + [1]
    for deg in range(1, f // 2 + 1):
        for k in range(p**deg):
            div = [(k // p**i) % p for i in range(deg)] + [1]
            rem = list(poly)
            for i in range(len(rem) - 1, deg - 1, -1):
                c = rem[i]
                if c:
                    for j, dj in enumerate(div):
                        rem[i - deg + j] = (rem[i - deg + j] - c * dj) % p
            if not any(rem[:deg]):
                return False
    return True


def _coeffs(p, f):
    return st.tuples(*[st.integers(0, p - 1)] * f)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 2), (5, 2), (3, 3), (7, 2)]).flatmap(
    lambda pf: st.tuples(st.just(pf), _coeffs(*pf), _coeffs(*pf))))
def test_product_matches_the_reduction_loop(args):
    (p, f), a, b = args
    fld = get_field(p, f)
    assert (fld.element(a) * fld.element(b)).coeffs == product_loop(fld, a, b)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4),
                        (7, 2), (7, 3), (7, 4)]).flatmap(
    lambda pf: st.tuples(st.just(pf), _coeffs(*pf))))
def test_modulus_choice_matches_the_trial_division_loop(args):
    (p, f), low = args
    fld = get_field(p, f)
    assert fld._irreducible(low) == irreducible_loop(p, f, low)
    least = next(k for k in range(p**f) if irreducible_loop(
        p, f, [(k // p**i) % p for i in range(f)]))
    assert fld.modulus == tuple((least // p**i) % p for i in range(f)) + (1,)


@pytest.mark.parametrize("pf", SUPPORTED)
def test_character_sign_matches_its_value(pf):
    # sign reads k log(x) mod (q - 1); the value is zeta_{q-1}^(k log x).
    fld = get_field(*pf)
    for k in range(fld.q - 1):
        chi = MultChar(fld, k)
        for x in fld.units():
            value = mult_value(chi, x).as_int()
            if value in (1, -1):
                assert chi.sign(x) == value
            else:
                with pytest.raises(ValueError, match="is not a sign"):
                    chi.sign(x)
    with pytest.raises(EvalAtZero):
        quadratic_residue_char(fld).sign(zero(fld))


def test_one_field_object_per_order(monkeypatch):
    # get_field(q) and get_field(q, 1) share one memo key, so a tower with
    # f = 1 builds its residue field once.
    built = []
    build = FqField._build_log_tables
    monkeypatch.setattr(FqField, "_build_log_tables",
                        lambda self: built.append(self) or build(self))
    finite_field._field.cache_clear()
    tower = build_tower(TowerConfig(q=101, e=1, f=1))
    assert built == [tower.k] and tower.k is tower.kE
    assert get_field(101) is get_field(101, 1) is tower.k
    assert built == [tower.k]
