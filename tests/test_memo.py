"""Every TowerSpec.memo family gives the same value whatever ran before it.

A memo key must name everything its value reads.  For each family, the
value built on a fresh tower is compared with the value built on another
fresh tower after the builders of every other family have run there.  The
builders vary the precision of their generators, so a key that leaves out
precision hands a value built for one precision to a call at another.
"""

import numpy as np
import pytest

from strbc import stratum
from strbc.local_model import (
    MatF,
    PrecisionTooLow,
    TowerConfig,
    WzBlock,
    WzSpace,
    _alpha_fixed_basis,
    _alpha_matrix,
    build_tower,
    build_Wz,
    h1_lattice,
    j0_lattice,
    level_gens,
)
from strbc.stratum import R1_CASE_NAMES, builtin_case


def outcome(build):
    """The value of build(), or the PrecisionTooLow it raises, by message."""
    try:
        return build()
    except PrecisionTooLow as exc:
        return f"PrecisionTooLow: {exc}"


def window(t, s):
    """The grades iwahori_indices reads, edge checks included."""
    s0 = s.s_list[0]
    return range(-(s0 + 2 * t.e + 2) - 1, s0 + 2 * t.e + 3)


def generators(t, s):
    """c_0 at two short precisions (shortest first) and at full precision."""
    c = s.c_elems[0]
    v = c.val()
    return [t.e_monomial(v, c.coeff(v), prec=prec) for prec in (2, 4)] + [c]


FAMILIES = {
    "m_of": lambda t, s: [t.m_of(c) for c in generators(t, s)],
    "degree-map": lambda t, s: [t._degree_map(m) for m in window(t, s)],
    "cent": lambda t, s: [outcome(lambda: t.cent_layer((c,), m))
                          for c in generators(t, s) for m in (0, 1, 6)],
    "Wz": lambda t, s: build_Wz(t, s),
    "lattice-layer": lambda t, s: [(h1_lattice(t, s).layer(m), j0_lattice(t, s).layer(m))
                                   for m in window(t, s)],
    "alpha": lambda t, s: [outcome(lambda: _alpha_matrix(t, m)) for m in range(-2, 4)],
    "alpha-fixed": lambda t, s: [outcome(lambda: _alpha_fixed_basis(t, m))
                                 for m in range(-2, 4)],
    "annihilator": lambda t, s: [stratum._annihilator(t, b.basis)
                                 for b in build_Wz(t, s).blocks],
    "unit-mats": lambda t, s: stratum._unit_mats(t, 1, list(t.kE.units()), -1),
    "one-minus-alpha": lambda t, s: [
        stratum._one_minus_alpha_solver(t, level_gens(s, 0), m)
        for m in range(2 * s.s_list[0] + 1)],
}


def same(a, b) -> bool:
    """Equality of memo values built on two towers of the same data."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, MatF):
        return (a.g, a.fprec) == (b.g, b.fprec) and same(a.arr, b.arr)
    if isinstance(a, WzSpace):
        return same(a.blocks, b.blocks)
    if isinstance(a, WzBlock):
        return (a.j, a.grade) == (b.j, b.grade) and same(a.basis, b.basis)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("case", R1_CASE_NAMES)
def test_memo_values_do_not_depend_on_what_ran_before(case):
    s = builtin_case(case)
    for build in FAMILIES.values():
        build(s.tower, s)
    # A family added to the package without a builder here fails this.
    assert {key[0] for key in s.tower._memo} == set(FAMILIES)
    for name, build in FAMILIES.items():
        fresh = builtin_case(case)
        first = build(fresh.tower, fresh)
        warm = builtin_case(case)
        for other, warm_up in FAMILIES.items():
            if other != name:
                warm_up(warm.tower, warm)
        assert same(first, build(warm.tower, warm)), (case, name)


def test_short_generator_raises_after_full_precision_call():
    t = build_tower(TowerConfig(q=3, e=3, f=1, N=8))
    short = (t.e_monomial(-1, prec=2),)
    with pytest.raises(PrecisionTooLow, match="precision is 2"):
        t.cent_layer(short, 6)
    assert t.cent_layer((t.e_monomial(-1),), 6).shape == (1, 3)
    with pytest.raises(PrecisionTooLow, match="precision is 2"):
        t.cent_layer(short, 6)
