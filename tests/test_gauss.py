import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strbc import stratum
from strbc._modp import CheckFailed
from strbc.cyclotomic import cyc_root
from strbc.finite_field import (
    AddChar,
    FqField,
    MixedFields,
    get_field,
    quadratic_residue_char,
)
from strbc.gauss import (
    DegenerateForm,
    EnumerationTooLarge,
    QuadSpace,
    TrivialAdditiveCharacter,
    _phase_histogram,
    gauss_sum_brute,
    gauss_sum_closed,
    normalized_sign,
    one_dim_gauss_value,
)

from _support import (
    RefCycNum,
    as_ref,
    evaluate,
    gauss_sum_brute_slow,
    mult_value,
    ref_is_rational_sign_times,
    zero,
)


def std_psi(field):
    return AddChar(field, 1)


def random_symmetric(field, n, rng):
    elems = list(field.elements())
    m = [[zero(field)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice(elems)
    return m


def coeff_array(field, rows):
    """The int64 (n, n, f) coefficient array of a Gram given as FqElem rows."""
    return np.array([[x.coeffs for x in row] for row in rows],
                    dtype=np.int64).reshape(len(rows), len(rows), field.f)


def test_empty_space():
    f3 = get_field(3)
    sp = QuadSpace(f3, [])
    assert gauss_sum_brute(sp, std_psi(f3)) == 1
    assert gauss_sum_closed(sp, std_psi(f3)) == 1
    assert normalized_sign(sp, std_psi(f3)) == 1


def test_f3_one_dim():
    f3 = get_field(3)
    sp = QuadSpace.from_ints(f3, [[1]])
    expect = 1 + 2 * cyc_root(3, 1)
    assert gauss_sum_brute(sp, std_psi(f3)) == expect
    assert gauss_sum_closed(sp, std_psi(f3)) == expect


def test_f3_identity_two_dim():
    f3 = get_field(3)
    sp = QuadSpace.from_ints(f3, [[1, 0], [0, 1]])
    v = 1 + 2 * cyc_root(3, 1)
    assert gauss_sum_brute(sp, std_psi(f3)) == v * v
    assert gauss_sum_brute(sp, std_psi(f3)) == -3
    assert normalized_sign(sp, std_psi(f3)) == -1


def test_f3_diag_1_2():
    f3 = get_field(3)
    sp = QuadSpace.from_ints(f3, [[1, 0], [0, 2]])
    assert gauss_sum_closed(sp, std_psi(f3)) == 3
    assert gauss_sum_brute(sp, std_psi(f3)) == 3
    assert normalized_sign(sp, std_psi(f3)) == 1


def test_f5_one_dim():
    f5 = get_field(5)
    sp = QuadSpace.from_ints(f5, [[1]])
    expect = 1 + 2 * cyc_root(5, 1) + 2 * cyc_root(5, 4)
    assert gauss_sum_brute(sp, std_psi(f5)) == expect
    assert gauss_sum_closed(sp, std_psi(f5)) == expect


def test_g_squared_identity():
    for p, f in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)]:
        fld = get_field(p, f)
        chi = quadratic_residue_char(fld)
        g = one_dim_gauss_value(fld, std_psi(fld))
        assert g * g == mult_value(chi, -fld.one()).as_int() * fld.q


def test_brute_matches_closed_random_grid():
    rng = random.Random(7)
    for p, f in [(3, 1), (5, 1), (3, 2)]:
        fld = get_field(p, f)
        for n in range(1, 5):
            for _ in range(8):
                sp = QuadSpace(fld, coeff_array(fld, random_symmetric(fld, n, rng)))
                if not sp.is_nondegenerate():
                    continue
                assert gauss_sum_brute(sp, std_psi(fld)) == gauss_sum_closed(
                    sp, std_psi(fld)
                )


def test_vectorized_matches_slow_enumeration():
    rng = random.Random(11)
    for p, f in [(3, 1), (5, 1), (3, 2)]:
        fld = get_field(p, f)
        for n in (1, 2, 3):
            sp = QuadSpace(fld, coeff_array(fld, random_symmetric(fld, n, rng)))
            psi = AddChar(fld, rng.choice([u for u in fld.units()]))
            slow = gauss_sum_brute_slow(sp, psi)
            assert as_ref(gauss_sum_brute(sp, psi)) == slow
            if n * f % 2 == 0 and sp.is_nondegenerate():
                root = RefCycNum.integer(p ** (n * f // 2))
                assert (normalized_sign(sp, psi)
                        == ref_is_rational_sign_times(slow, root))


def test_orthogonal_sum_multiplicativity():
    rng = random.Random(3)
    f5 = get_field(5)
    for _ in range(6):
        a = random_symmetric(f5, 2, rng)
        b = random_symmetric(f5, 1, rng)
        joint = [
            [a[0][0], a[0][1], zero(f5)],
            [a[1][0], a[1][1], zero(f5)],
            [zero(f5), zero(f5), b[0][0]],
        ]
        psi = std_psi(f5)
        assert gauss_sum_brute(QuadSpace(f5, coeff_array(f5, joint)), psi) == (
            gauss_sum_brute(QuadSpace(f5, coeff_array(f5, a)), psi)
            * gauss_sum_brute(QuadSpace(f5, coeff_array(f5, b)), psi))


def test_degenerate_radical_scaling():
    f3 = get_field(3)
    psi = std_psi(f3)
    # diag(1, 2, 0): radical of dimension 1.
    sp = QuadSpace.from_ints(f3, [[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    quot = QuadSpace.from_ints(f3, [[1, 0], [0, 2]])
    assert gauss_sum_brute(sp, psi) == 3 * gauss_sum_brute(quot, psi)
    with pytest.raises(DegenerateForm):
        gauss_sum_closed(sp, psi)


def test_threaded_sum_matches_serial():
    f3 = get_field(3)
    sp = QuadSpace.from_ints(
        f3, [[1, 1, 0, 0], [1, 2, 0, 1], [0, 0, 1, 0], [0, 1, 0, 2]]
    )
    psi = std_psi(f3)
    assert gauss_sum_brute(sp, psi, threads=4) == gauss_sum_brute(sp, psi)


def test_errors():
    f3 = get_field(3)
    sp = QuadSpace.from_ints(f3, [[1]])
    with pytest.raises(TrivialAdditiveCharacter):
        gauss_sum_brute(sp, AddChar(f3, 0))
    with pytest.raises(EnumerationTooLarge):
        gauss_sum_brute(sp, std_psi(f3), bound=2)


def test_normalized_sign_refuses_odd_dimension():
    # Over F_3 the sum on F_3^n is (i sqrt 3)^n, not real for odd n.  A line
    # over F_9 has F_p-dimension 2 and its sum is -g_3^2 = 3 (Davenport-Hasse).
    f3, f9 = get_field(3), get_field(3, 2)
    for n in (1, 3):
        sp = QuadSpace.from_ints(f3, np.eye(n, dtype=np.int64))
        with pytest.raises(CheckFailed, match=f"odd F_p-dimension {n}:"):
            normalized_sign(sp, std_psi(f3))
    assert normalized_sign(QuadSpace.from_ints(f9, [[1]]), std_psi(f9)) == 1


def test_psi_twist_scales_by_quadratic_character():
    f5 = get_field(5)
    chi = quadratic_residue_char(f5)
    sp = QuadSpace.from_ints(f5, [[1]])
    base = gauss_sum_brute(sp, std_psi(f5))
    for a in f5.units():
        assert gauss_sum_brute(sp, AddChar(f5, a)) == mult_value(chi, a).as_int() * base


# -- the kernels against their point-by-point definitions ---------------------


def einsum_histogram(gram, p):
    """The direct kernel: decode every point index, evaluate x^T G x."""
    d = gram.shape[0]
    total = p**d
    counts = np.zeros(p, dtype=np.int64)
    powers = p ** np.arange(d)
    for s in range(0, total, 1 << 16):
        ks = np.arange(s, min(s + (1 << 16), total), dtype=np.int64)
        pts = (ks[:, None] // powers[None, :]) % p
        vals = np.einsum("ki,ij,kj->k", pts, gram, pts) % p
        counts += np.bincount(vals, minlength=p)
    return counts


def polarized_prime_gram(space, psi):
    """Prime Gram by polarization: evaluate Q on basis vectors and sums."""
    fld, n, f, p = space.field, space.dim, space.field.f, space.field.p
    basis = []
    for i in range(n):
        for b in range(f):
            vec = [zero(fld)] * n
            vec[i] = fld.element(tuple(1 if k == b else 0 for k in range(f)))
            basis.append(vec)
    d = n * f
    gram = np.zeros((d, d), dtype=np.int64)
    half = (p + 1) // 2
    diag = [psi.residue_phase(evaluate(space, v)) for v in basis]
    for i in range(d):
        gram[i, i] = diag[i]
    for i in range(d):
        for j in range(i + 1, d):
            w = [a + b for a, b in zip(basis[i], basis[j])]
            mixed = (psi.residue_phase(evaluate(space, w)) - diag[i] - diag[j]) % p
            gram[i, j] = gram[j, i] = mixed * half % p
    return gram


def unreduced_gram(p, d, seed, symmetric):
    """Integer Gram with entries in [-3p, 3p), symmetric or not."""
    g = np.random.default_rng(seed).integers(-3 * p, 3 * p, size=(d, d))
    return g + g.T if symmetric else g


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11]), st.integers(0, 7),
       st.integers(0, 2**32 - 1), st.booleans())
def test_phase_histogram_matches_einsum(p, d, seed, symmetric):
    d = min(d, max(k for k in range(8) if p**k <= 20_000))
    gram = unreduced_gram(p, d, seed, symmetric)
    assert _phase_histogram(gram, p).tolist() == einsum_histogram(gram, p).tolist()


@pytest.mark.parametrize("p,d", [(3, 12), (5, 8), (7, 7), (11, 5)])
def test_phase_histogram_matches_einsum_many_blocks(p, d):
    gram = unreduced_gram(p, d, seed=p * 100 + d, symmetric=False)
    assert _phase_histogram(gram, p).tolist() == einsum_histogram(gram, p).tolist()


def spy_bincount(monkeypatch):
    """Record the length and dtype of every np.bincount input."""
    seen, real = [], np.bincount

    def spy(x, *args, **kwargs):
        seen.append((np.size(x), np.asarray(x).dtype))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    return seen


# The unreduced values reach (m+2)(p-1), m = ceil(d/2): each pair sits on
# either side of a dtype boundary.
@pytest.mark.parametrize("p,d,dtype", [
    (61, 3, np.uint8), (83, 2, np.uint8),
    (67, 3, np.uint16), (89, 2, np.uint16),
    (65521, 1, np.uint32),
])
def test_phase_histogram_at_dtype_boundaries(monkeypatch, p, d, dtype):
    gram = unreduced_gram(p, d, seed=p * 100 + d, symmetric=False)
    expected = einsum_histogram(gram, p).tolist()
    seen = spy_bincount(monkeypatch)
    for threads in (1, 2):
        counts = _phase_histogram(gram, p, threads=threads)
        assert counts.dtype == np.int64
        assert counts.tolist() == expected
    assert {dt for _, dt in seen} == {np.dtype(dtype)}


@pytest.mark.parametrize("p,d", [(3, 13), (257, 3)])
def test_phase_histogram_blocks_stay_bounded(monkeypatch, p, d):
    # A block holds at most 2^16 points, or one x_lo grid of p^ceil(d/2)
    # points when that is larger; peak memory rests on this bound.
    gram = unreduced_gram(p, d, seed=p * 100 + d, symmetric=True)
    seen = spy_bincount(monkeypatch)
    counts = _phase_histogram(gram, p)
    assert int(counts.sum()) == p**d
    assert sum(n for n, _ in seen) == p**d
    assert max(n for n, _ in seen) <= max(1 << 16, p ** ((d + 1) // 2))


def test_phase_histogram_raises_a_worker_error_in_the_caller(monkeypatch):
    # The exception object a worker raises is raised again in the calling
    # thread, after every worker is done; none reaches threading.excepthook.
    caller, real, boom, hooked = threading.get_ident(), np.bincount, KeyError(7), []

    def bincount(x, *args, **kwargs):
        if threading.get_ident() != caller:
            raise boom
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    with pytest.raises(KeyError) as info:
        _phase_histogram(unreduced_gram(3, 11, seed=1, symmetric=True), 3, threads=2)
    assert info.value is boom
    assert hooked == [] and threading.active_count() == 1


def test_phase_histogram_starts_fewer_threads_than_blocks(monkeypatch):
    # However many threads are asked for, the caller counts one share and one
    # thread each counts the others: a counting Thread sees blocks - 1.
    gram = unreduced_gram(3, 11, seed=2, symmetric=True)
    seen = spy_bincount(monkeypatch)
    serial = _phase_histogram(gram, 3).tolist()
    blocks, made, real = len(seen), [], threading.Thread

    class Counting(real):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Counting)
    assert _phase_histogram(gram, 3, threads=64).tolist() == serial
    assert 1 < blocks < 64 and len(made) == blocks - 1


def test_phase_histogram_shares_survive_fast_thread_switching():
    # More threads than cores, switching as often as the interpreter allows:
    # a share lost or counted twice changes the total.
    gram = unreduced_gram(3, 13, seed=3, symmetric=True)
    serial = _phase_histogram(gram, 3).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _phase_histogram(gram, 3, threads=5).tolist() == serial
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == 1


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(3, 11), (3, 12), (3, 13), (5, 8), (5, 9), (11, 6)]),
       st.integers(0, 2**32 - 1))
def test_phase_histogram_thread_count_invariant(pd, seed):
    p, d = pd
    gram = unreduced_gram(p, d, seed, symmetric=True)
    serial = _phase_histogram(gram, p).tolist()
    assert sum(serial) == p**d
    for threads in (2, 3):
        assert _phase_histogram(gram, p, threads=threads).tolist() == serial


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_prime_gram_matches_polarization(pf, n, rng):
    fld = get_field(*pf)
    elems = list(fld.elements())
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice(elems)
    space = QuadSpace(fld, coeff_array(fld, m))
    psi = AddChar(fld, rng.choice(elems[1:]))
    fast, slow = space.prime_gram(psi), polarized_prime_gram(space, psi)
    assert fast.shape == slow.shape == (n * fld.f, n * fld.f)
    assert fast.dtype == slow.dtype and (fast == slow).all()


# -- the congruence diagonalization against the FqElem eliminations ----------


def elementwise_det(gram):
    """Determinant by row elimination on FqElem entries."""
    m = [list(row) for row in gram]
    n = len(m)
    fld = m[0][0].field if n else None
    det = fld.one() if n else None
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return zero(fld)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det = det * m[i][i]
        inv = m[i][i].inverse()
        for r in range(i + 1, n):
            f = m[r][i] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def elementwise_diagonalize(gram):
    """Congruence diagonalization on FqElem entries, one row and column
    operation at a time, with the same pivot choices."""
    m = [list(row) for row in gram]
    n = len(m)
    for i in range(n):
        if not m[i][i]:
            piv = next((r for r in range(i + 1, n) if m[r][r]), None)
            if piv is not None:
                m[i], m[piv] = m[piv], m[i]
                for row in m:
                    row[i], row[piv] = row[piv], row[i]
            else:
                piv = next((r for r in range(i + 1, n) if m[i][r]), None)
                if piv is None:
                    continue
                for c in range(n):
                    m[i][c] = m[i][c] + m[piv][c]
                for r in range(n):
                    m[r][i] = m[r][i] + m[r][piv]
        if not m[i][i]:
            continue
        inv = m[i][i].inverse()
        for r in range(i + 1, n):
            f = m[r][i] * inv
            if f:
                for c in range(n):
                    m[r][c] = m[r][c] - f * m[i][c]
                for r2 in range(n):
                    m[r2][r] = m[r2][r] - f * m[r2][i]
    return [m[i][i] for i in range(n)]


def assert_diagonalization_matches(fld, gram):
    space = QuadSpace(fld, coeff_array(fld, gram))
    assert list(space._diagonal) == elementwise_diagonalize(gram)
    if gram:
        det = elementwise_det(gram)
        assert space.det() == det
        assert space.is_nondegenerate() == bool(fld.from_int(2) * det)
    else:
        assert space.det() == fld.one() and space.is_nondegenerate()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]),
       st.integers(0, 6), st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       st.booleans(), st.randoms(use_true_random=False))
def test_diagonalization_matches_elementwise(pf, n, zero_rate, zero_diag, rng):
    # Sparse Grams and zero diagonals drive the row swap, the e_i += e_j
    # repair and the radical skip; the zero rate 1.0 is the zero form.
    fld = get_field(*pf)
    elems = list(fld.elements())
    m = [[zero(fld)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() >= zero_rate and not (zero_diag and i == j):
                m[i][j] = m[j][i] = rng.choice(elems)
    assert_diagonalization_matches(fld, m)


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],                     # hyperbolic plane: pivot repair
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],    # repair, then a radical row
    [[0, 0], [0, 2]],                     # row and column swap
    [[1, 2], [2, 4]],                     # rank one: degenerate
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
])
def test_diagonalization_pivot_cases(rows):
    for q in (3, 5, 7):
        fld = get_field(q)
        gram = [[fld.from_int(c) for c in row] for row in rows]
        assert_diagonalization_matches(fld, gram)


def test_diagonalization_is_computed_once_and_lazily(monkeypatch):
    fld = get_field(3, 2)
    space = QuadSpace.from_ints(fld, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert "_diagonal" not in vars(space)
    calls = []
    inverse = type(fld.one()).inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(type(fld.one()), "inverse", counted)
    space.is_nondegenerate()
    first = len(calls)
    assert first == 3
    space.det(), space._diagonal, gauss_sum_closed(space, std_psi(fld))
    assert len(calls) == first


# -- the Gram array ------------------------------------------------------------


@pytest.mark.parametrize("pf", [(3, 1), (5, 2), (3, 3)])
def test_gram_is_a_read_only_int64_array(pf):
    fld = get_field(*pf)
    rows = random_symmetric(fld, 3, random.Random(sum(pf)))
    ints = [[1, 2, 0], [2, -1, 7], [0, 7, 4]]
    for space, entries in ((QuadSpace(fld, coeff_array(fld, rows)), rows),
                           (QuadSpace.from_ints(fld, ints),
                            [[fld.from_int(c) for c in row] for row in ints])):
        gram = space.gram
        assert gram.dtype == np.int64 and gram.shape == (3, 3, fld.f)
        assert not gram.flags.writeable
        with pytest.raises(ValueError):
            gram[0, 0, 0] = 1
        assert [[fld.element(c.tolist()) for c in row] for row in gram] == entries


@pytest.mark.parametrize("rows", [
    [[1, 2]],                 # not square
    [[1, 2], [2]],            # ragged
    [[1, 2], [0, 1]],         # not symmetric
    [[0, 1], [8, 0]],         # not symmetric mod 5
])
def test_gram_must_be_square_and_symmetric(rows):
    fld = get_field(5)
    with pytest.raises(ValueError):
        QuadSpace.from_ints(fld, rows)
    with pytest.raises(ValueError):
        QuadSpace(fld, [[fld.from_int(c).coeffs for c in row] for row in rows])
    if len({len(row) for row in rows}) == 1:
        with pytest.raises(ValueError):
            QuadSpace.from_ints(fld, np.array(rows))


def test_prime_gram_rejects_a_character_over_another_field():
    space = QuadSpace.from_ints(get_field(5), [[1, 2], [2, 3]])
    for other in (get_field(3), get_field(5, 2)):
        with pytest.raises(MixedFields):
            space.prime_gram(AddChar(other, 1))
        with pytest.raises(MixedFields):
            gauss_sum_brute(space, AddChar(other, 1))


def test_symmetrized_form_path_makes_no_field_elements(monkeypatch):
    tower = stratum.builtin_case("e3f2").tower
    raw = np.random.default_rng(3).integers(0, tower.p, size=(5, 5))
    calls = []
    element = FqField.element
    monkeypatch.setattr(FqField, "element",
                        lambda self, c: calls.append(c) or element(self, c))
    space = stratum._symmetrized_space(tower, raw)
    assert calls == []
    monkeypatch.undo()
    assert space.field == tower.k and space.dim == 5
    gram = space.gram
    assert gram.dtype == np.int64 and gram.shape == (5, 5, 1)
    assert not gram.flags.writeable
    half = (tower.p + 1) // 2
    assert (gram[..., 0] == (raw + raw.T) * half % tower.p).all()


def test_one_dim_gauss_value_memoised_per_character(monkeypatch):
    fld = get_field(5, 2)
    space = QuadSpace.from_ints(fld, [[1, 0], [0, 2]])
    calls = []
    phase = AddChar.residue_phase
    monkeypatch.setattr(AddChar, "residue_phase",
                        lambda self, x: calls.append(x) or phase(self, x))
    one_dim_gauss_value.cache_clear()
    first = gauss_sum_closed(space, AddChar(fld, 2))
    assert len(calls) == fld.q
    # An equal character built afresh hits the memo: g(psi) is not summed again.
    assert gauss_sum_closed(space, AddChar(fld, 2)) == first
    assert len(calls) == fld.q
    assert AddChar(fld, 2) == AddChar(fld, 2) and AddChar(fld, 2) != AddChar(fld, 3)
    gauss_sum_closed(space, AddChar(fld, 3))
    assert len(calls) == 2 * fld.q
