"""Property tests: packed monomials against exponent tuples.

A `Packing` packs each exponent into `bits` value bits under a guard bit (E)
and the order key into one int (K). For exponents up to the top value a field
holds, 2^bits - 1, K must sort exactly as `order.key`, E must answer
divisibility through the guard mask, and unpacking must invert packing. K is
linear, and its digits have room for the product of two such monomials, whose
exponents reach 2^(bits + 1) - 2: there K must still sort as `order.key`,
and the guard bits of E(a) + E(b) must flag exactly the exponents that
overflowed.
"""

from itertools import product
from operator import add, le

import pytest
from hypothesis import given, settings, strategies as st

from genpos.groebner import BITS
from genpos.poly import (DEGREVLEX, LAZARD, LEX, BlockOrder, Packing,
                         Polynomial)
from genpos.scalars import QQ, PrimeField

ORDERS = [DEGREVLEX, LEX, BlockOrder(1), BlockOrder(2), LAZARD]
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def sign(x):
    return (x > 0) - (x < 0)


@st.composite
def packed_case(draw):
    """(order, packing, bits, a, b, c, d): monomials in 1..6 variables whose
    exponents fit `bits` bits, drawn towards 0 and the top value."""
    order = draw(st.sampled_from(ORDERS))
    nvars = draw(st.integers(1, 6))
    bits = draw(st.sampled_from([1, 2, 3, 5, 8, BITS]))
    top = (1 << bits) - 1
    exponent = st.one_of(st.integers(0, top), st.sampled_from([0, top]))
    monos = [tuple(draw(exponent) for _ in range(nvars)) for _ in range(4)]
    return (order, Packing(order, nvars, bits), bits, *monos)


def agree(order, packing, a, b):
    """Whether K and `order.key` compare a and b alike."""
    ka, kb = packing.pack(a)[1], packing.pack(b)[1]
    return sign(ka - kb) == sign((order.key(a) > order.key(b))
                                 - (order.key(a) < order.key(b)))


@PROPERTY
@given(packed_case())
def test_packed_keys_sort_as_order_keys(case):
    order, packing, _, a, b, c, _ = case
    assert agree(order, packing, a, b)
    assert agree(order, packing, a, c)


@PROPERTY
@given(packed_case())
def test_packed_keys_add_and_still_sort_past_the_top(case):
    order, packing, _, a, b, c, d = case
    ab, cd = tuple(map(add, a, b)), tuple(map(add, c, d))
    assert packing.pack(ab)[1] == packing.pack(a)[1] + packing.pack(b)[1]
    assert agree(order, packing, ab, cd)
    assert agree(order, packing, ab, c)


@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_packed_keys_sort_every_small_product(order, bits):
    # every monomial in up to 4 variables with exponents up to
    # 2^(bits + 1) - 2, the largest a product of two fitting ones reaches
    for nvars in range(1, 5):
        packing = Packing(order, nvars, bits)
        monos = list(product(range((2 << bits) - 1), repeat=nvars))
        by_key = sorted(monos, key=order.key)
        assert sorted(monos, key=lambda m: packing.pack(m)[1]) == by_key


@PROPERTY
@given(packed_case())
def test_guard_mask_is_divisibility(case):
    _, packing, bits, a, b, _, _ = case
    (ea, _), (eb, _) = packing.pack(a), packing.pack(b)
    assert (not (eb - ea) & packing.guard) == all(map(le, a, b))
    assert (not (ea - eb) & packing.guard) == all(map(le, b, a))
    # the sum sets a guard bit exactly where an exponent reached 2^bits
    assert (not (ea + eb) & packing.guard) == \
        all(x + y < 1 << bits for x, y in zip(a, b))


@PROPERTY
@given(packed_case())
def test_unpack_inverts_pack_and_fits_reads_the_top(case):
    _, packing, bits, a, b, _, _ = case
    assert packing.unpack(packing.pack(a)[0]) == a
    assert packing.fits([a, b])
    assert not packing.fits([a, (1 << bits,) + a[1:]])


@st.composite
def sorted_case(draw):
    order = draw(st.sampled_from(ORDERS))
    nvars = draw(st.integers(1, 6))
    field = draw(st.sampled_from([QQ, PrimeField(11)]))
    top = draw(st.sampled_from([1, 3, 40, 1 << 20]))
    exponent = st.one_of(st.integers(0, top),
                         st.sampled_from([0, 1, 2, 4, 8, 16, 32]))
    monos = draw(st.lists(st.tuples(*[exponent] * nvars),
                          min_size=1, max_size=8, unique=True))
    return order, Polynomial(nvars, field, {m: 1 for m in monos})


@PROPERTY
@given(sorted_case())
def test_terms_sorted_follows_order_keys(case):
    order, f = case
    want = sorted(f.terms.items(), key=lambda t: order.key(t[0]),
                  reverse=True)
    assert list(f.terms_sorted(order)) == want


def key_digits(order, nvars, width):
    """W_i = the order key of x_i read as base-2^width digits."""
    out = []
    for i in range(nvars):
        k = 0
        for c in order.key(tuple(int(i == j) for j in range(nvars))):
            k = (k << width) + c
        out.append(k)
    return tuple(out)


@pytest.mark.parametrize("order", ORDERS + [BlockOrder(0), BlockOrder(7)],
                         ids=repr)
def test_weights_read_order_keys_of_the_variables(order):
    for nvars in range(1, 7):
        for width in (1, 4, 18):
            assert order.weights(nvars, width) == \
                key_digits(order, nvars, width)
    # degrevlex on 3 variables: key(x_i) = (1, -[i == 2], -[i == 1],
    # -[i == 0])
    assert DEGREVLEX.weights(3, 4) == (
        (1 << 12) - 1, (1 << 12) - (1 << 4), (1 << 12) - (1 << 8))
