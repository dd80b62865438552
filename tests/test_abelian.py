"""Finite abelian group arithmetic, scalar inverses and preimages."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from linremoval import (
    AbelianGroup,
    PreconditionError,
    scalar_inverse,
    scaling_preimage,
)

moduli_strategy = st.lists(st.integers(1, 8), min_size=1, max_size=3)


def test_group_construction():
    g = AbelianGroup([2, 4])
    assert g.rank == 2
    assert g.order == 8
    assert g.exponent == 4
    assert g.zero == (0, 0)
    with pytest.raises(PreconditionError):
        AbelianGroup([])
    with pytest.raises(PreconditionError):
        AbelianGroup([0, 3])


def test_group_arithmetic():
    g = AbelianGroup([2, 4])
    assert g.combine([1, -1], [(0, 1), (1, 3)]) == (1, 2)
    assert g.scale(5, (1, 3)) == (1, 3)
    assert g.scale(-1, (1, 3)) == (1, 1)
    assert g.reduce((3, -1)) == (1, 3)
    assert g.combine([5, -1, 0], [(1, 3), (0, 1), (1, 1)]) == (1, 2)
    assert g.combine([], []) == g.zero


def test_elements_enumeration():
    g = AbelianGroup([2, 4])
    els = g.elements()
    assert len(els) == 8
    assert els[:5] == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0))
    assert len(set(els)) == 8
    trivial = AbelianGroup([1])
    assert trivial.elements() == ((0,),)
    assert trivial.order == 1


@given(moduli_strategy, st.data())
@settings(max_examples=60, deadline=None)
def test_group_axioms(moduli, data):
    g = AbelianGroup(moduli)
    pick = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    x, y, z = (data.draw(pick) for _ in range(3))
    assert g.combine([1, 1], [x, y]) == g.combine([1, 1], [y, x])

    def sub(a, b):
        return g.combine([1, -1], [a, b])

    assert sub(sub(x, y), z) == sub(x, g.combine([1, 1], [y, z]))
    assert sub(x, g.zero) == x
    assert sub(x, x) == g.zero
    assert g.scale(g.exponent, x) == g.zero


def fold_combine(group, coeffs, elems):
    # the scale-and-add loop that combine replaced, kept as the reference
    acc = group.zero
    for c, x in zip(coeffs, elems):
        if c:
            acc = tuple((a + b) % m for a, b, m in zip(acc, group.scale(c, x), group.moduli))
    return acc


@given(moduli_strategy, st.data())
@settings(max_examples=150, deadline=None)
def test_combine_matches_scale_add_fold(moduli, data):
    g = AbelianGroup(moduli)
    pick = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    top = 3 * max(moduli)
    coeff = st.one_of(st.just(0), st.integers(-top, top))
    length = data.draw(st.integers(0, 5))
    coeffs = data.draw(st.lists(coeff, min_size=length, max_size=length))
    elems = data.draw(st.lists(pick, min_size=length, max_size=length))
    out = g.combine(coeffs, elems)
    assert out == fold_combine(g, coeffs, elems)
    assert all(0 <= v < q for v, q in zip(out, moduli)) and len(out) == len(moduli)
    if length == 0:
        assert out == g.zero


# ------------------------------------------------------------------ scalars


def test_scalar_inverse_frozen_values():
    assert scalar_inverse(7, AbelianGroup([10])) == 3
    assert scalar_inverse(5, AbelianGroup([12])) == 5
    assert scalar_inverse(1, AbelianGroup([1])) == 1
    with pytest.raises(PreconditionError):
        scalar_inverse(8, AbelianGroup([10]))
    with pytest.raises(PreconditionError):
        scalar_inverse(0, AbelianGroup([7]))


@given(moduli_strategy, st.integers(-30, 30))
@settings(max_examples=80, deadline=None)
def test_scalar_inverse_round_trip(moduli, d):
    g = AbelianGroup(moduli)
    if math.gcd(d, g.exponent) != 1:
        with pytest.raises(PreconditionError):
            scalar_inverse(d, g)
        return
    dinv = scalar_inverse(d, g)
    assert 1 <= dinv <= g.exponent
    for x in g.elements():
        assert g.scale(dinv, g.scale(d, x)) == x
        assert g.scale(d, g.scale(dinv, x)) == x


# ------------------------------------------------------------------ scaling


def test_scaling_preimage_frozen_values():
    z10 = AbelianGroup([10])
    assert scaling_preimage(2, (4,), z10) == ((2,), (7,))
    assert scaling_preimage(2, (3,), z10) == ()


@given(moduli_strategy, st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_scaling_image_and_preimage_agree(moduli, s):
    g = AbelianGroup(moduli)
    image = {g.scale(s, x) for x in g.elements()}
    for y in g.elements():
        pre = scaling_preimage(s, y, g)
        assert set(pre) == {x for x in g.elements() if g.scale(s, x) == y}
        assert (len(pre) > 0) == (y in image)
        assert list(pre) == sorted(pre)
