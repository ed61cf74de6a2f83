import pytest
from hypothesis import given, settings, strategies as st

from strbc.cyclotomic import CycNum, cyc_root

from _support import (
    NonDivisibleModulus,
    RefCycNum,
    ZeroReference,
    as_ref,
    cyclotomic_polynomial,
    euler_phi,
    poly_divmod,
    ref_embed,
    ref_is_rational_sign_times,
    ref_root,
)

# -- the package's Z[zeta_p] -------------------------------------------------


def test_root_identity():
    assert ref_root(1, 0) == 1
    assert cyc_root(5, 0) == 1


def test_vanishing_sum_of_cube_roots():
    assert cyc_root(3, 1) + cyc_root(3, 2) == -1


def test_root_exponent_addition():
    for p in (3, 5, 7):
        for k in range(p):
            for j in range(p):
                assert cyc_root(p, k) * cyc_root(p, j) == cyc_root(p, k + j)
    for m in (3, 4, 8, 12):
        for k in range(m):
            for j in range(m):
                assert ref_root(m, k) * ref_root(m, j) == ref_root(m, k + j)


def test_prime_root_sums_vanish():
    for p in (2, 3, 5, 7, 11, 13):
        total = CycNum.zero(p)
        for k in range(p):
            total = total + cyc_root(p, k)
        assert total == 0


def _counts(p):
    return st.lists(st.integers(-50, 50), max_size=p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: st.tuples(
    st.just(p), _counts(p), _counts(p), st.integers(-9, 9), st.integers(0, 6),
    st.integers(-9, 9))))
def test_package_form_matches_the_reference(args):
    # The reference reduces p counts by Phi_p; the package takes them modulo
    # the all-ones vector.  Both must give the same element.
    p, ca, cb, n, k, shift = args
    a, b = CycNum(p, ca), CycNum(p, cb)
    ra, rb = RefCycNum(p, ca), RefCycNum(p, cb)
    assert as_ref(a) == ra and as_ref(b) == rb
    assert as_ref(a + b) == ra + rb
    assert as_ref(a * b) == ra * rb
    assert as_ref(a**k) == ra**k
    assert as_ref(a + n) == ra + n and as_ref(n + a) == n + ra
    assert as_ref(a * n) == ra * n and as_ref(n * a) == n * ra
    assert (a == b) == (ra == rb)
    assert (a == n) == (ra == n)
    assert a.as_int() == ra.as_int()
    padded = list(ca) + [0] * (p - len(ca))
    assert CycNum(p, [c + shift for c in padded]) == a


def test_primes_do_not_mix_and_counts_stop_at_p():
    a, b = cyc_root(3, 1), cyc_root(5, 1)
    for op in (lambda: a + b, lambda: a * b, lambda: a == b):
        with pytest.raises(ValueError, match="do not mix"):
            op()
    with pytest.raises(ValueError, match="4 counts"):
        CycNum(3, [0, 0, 0, 1])
    assert CycNum(3, [0, 0, 1]) == cyc_root(3, 2)


# -- the reference ring Z[zeta_M] --------------------------------------------


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_i_squared():
    assert ref_root(4, 1) * ref_root(4, 1) == -1


def test_embed_examples():
    assert ref_embed(ref_root(3, 1), 6) == ref_root(6, 2)
    assert ref_embed(RefCycNum.one(), 12) == 1
    assert ref_embed(ref_root(4, 1), 12) == ref_root(12, 3)


def test_embed_rejects_non_divisor():
    with pytest.raises(NonDivisibleModulus):
        ref_embed(ref_root(4, 1), 6)


def test_sign_extraction():
    assert ref_is_rational_sign_times(RefCycNum.integer(-3),
                                      RefCycNum.integer(3)) == -1
    v = 1 + 2 * ref_root(3, 1)
    assert ref_is_rational_sign_times(v, v) == 1
    assert ref_is_rational_sign_times(ref_root(3, 1), RefCycNum.one()) is None
    with pytest.raises(ZeroReference):
        ref_is_rational_sign_times(v, RefCycNum.zero())


def _cyc(modulus):
    deg = euler_phi(modulus)
    return st.builds(
        lambda cs: RefCycNum(modulus, cs),
        st.lists(st.integers(-50, 50), min_size=deg, max_size=deg),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 9, 12, 24]).flatmap(
    lambda m: st.tuples(_cyc(m), _cyc(m), _cyc(m))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 12), (4, 8), (6, 24), (5, 20)]).flatmap(
    lambda pair: st.tuples(st.just(pair[1]), _cyc(pair[0]), _cyc(pair[0]))))
def test_embed_is_ring_hom_and_injective(args):
    m2, a, b = args
    ea, eb = ref_embed(a, m2), ref_embed(b, m2)
    assert ref_embed(a * b, m2) == ea * eb
    assert ref_embed(a + b, m2) == ea + eb
    if a != b:
        assert ea != eb


def test_cross_modulus_arithmetic_coerces_to_lcm():
    v = ref_root(3, 1) * ref_root(4, 1)
    assert v == ref_root(12, 7)
    assert ref_root(3, 1) + 0 == ref_root(3, 1)


def test_power_operator():
    z = ref_root(24, 5)
    acc = RefCycNum.one(24)
    for k in range(10):
        assert z**k == acc
        acc = acc * z


# -- poly_divmod against the division loops it replaced ----------------------


def exact_division_loop(num, den):
    # The former exact division of integer polynomials by a monic den.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    assert not any(num)
    return out


def row_table_reduce(m, raw):
    # The former reduction: row k holds zeta_M^(deg + k) on the power basis,
    # and each overflow coefficient adds its multiple of that row.
    deg = euler_phi(m)
    phi = cyclotomic_polynomial(m)
    cur = [-c for c in phi[:deg]]
    rows = [tuple(cur)]
    while len(rows) < len(raw) - deg:
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            for i in range(deg):
                cur[i] -= top * phi[i]
        rows.append(tuple(cur))
    out = list(raw[:deg]) + [0] * max(0, deg - len(raw))
    for k in range(deg, len(raw)):
        for i in range(deg):
            out[i] += raw[k] * rows[k - deg][i]
    return tuple(out)


def test_cyclotomic_polynomials_match_exact_division():
    for m in range(2, 80):
        num = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                num = exact_division_loop(num, cyclotomic_polynomial(d))
        assert cyclotomic_polynomial(m) == tuple(num)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 24, 48, 336]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(
        st.integers(-50, 50), max_size=max(m, 2 * euler_phi(m) - 1)))))
def test_reduction_matches_the_row_table(args):
    m, raw = args
    assert RefCycNum(m, raw).coeffs == row_table_reduce(m, raw)


def test_poly_divmod_quotient_and_remainder():
    # x^4 + 2x + 3 = (x^2 + 1)(x^2 - 1) + (2x + 4) over Z.
    assert poly_divmod([3, 2, 0, 0, 1], [1, 0, 1]) == ([-1, 0, 1], [4, 2])
    assert poly_divmod([4], [1, 0, 1]) == ([], [4])
