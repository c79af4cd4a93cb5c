"""CountVector arithmetic against naive index-loop references, including
the exact `.counts` tuple each operation returns, and Kronecker packing:
round trips and packed sums and products."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smc.counts import CountVector, pack, unpack

coeffs = st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=12)


def naive_add(a, b, sign=1):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + sign * y)
    return tuple(out)


def naive_convolve(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(coeffs, coeffs)
def test_add(a, b):
    got = CountVector(a) + CountVector(b)
    assert got.counts == naive_add(a, b)
    assert len(got.counts) == max(len(a), len(b))


@settings(max_examples=300, deadline=None)
@given(coeffs, coeffs)
def test_sub(a, b):
    got = CountVector(a) - CountVector(b)
    assert got.counts == naive_add(a, b, sign=-1)
    assert len(got.counts) == max(len(a), len(b))


@settings(max_examples=200, deadline=None)
@given(coeffs, st.integers(min_value=0, max_value=5))
def test_shift(a, k):
    got = CountVector(a).shift(k)
    assert got.counts == tuple([0] * k + a)


@settings(max_examples=200, deadline=None)
@given(coeffs, coeffs)
def test_convolve(a, b):
    got = CountVector(a).convolve(CountVector(b))
    assert got.counts == naive_convolve(a, b)


def test_empty_vector():
    z = CountVector.zero()
    v = CountVector((3, -1, 2))
    assert (z + z).counts == ()
    assert (z - z).counts == ()
    assert (z + v).counts == v.counts == (v + z).counts
    assert (z - v).counts == (-3, 1, -2)
    assert (v - z).counts == v.counts
    assert z.shift(2).counts == (0, 0)
    assert z.convolve(v).counts == () == v.convolve(z).counts
    assert z == CountVector((0, 0))


def test_sub_is_inverse_of_add():
    a, b = CountVector((1, 2)), CountVector((5, 0, 0, 7))
    assert (a + b) - b == a
    assert ((a + b) - b).counts == (1, 2, 0, 0)


# -- packing -----------------------------------------------------------------------

naturals = st.lists(st.integers(min_value=0, max_value=2**40), max_size=12)


def stripped(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return tuple(a)


@settings(max_examples=300, deadline=None)
@given(naturals, st.integers(0, 3))
def test_pack_round_trip(a, spare):
    width = max((c.bit_length() for c in a), default=0) + spare or 1
    assert unpack(pack(CountVector(a), width), width).counts == stripped(a)


@settings(max_examples=200, deadline=None)
@given(naturals, naturals)
def test_packed_sum_and_product(a, b):
    """Sums and products of packed ints are packed sums and convolutions
    once the slot holds every coefficient of the result."""
    va, vb = CountVector(a), CountVector(b)
    width = max((c.bit_length() for c in (va + vb).counts + va.convolve(vb).counts),
                default=0) + 1
    pa, pb = pack(va, width), pack(vb, width)
    assert unpack(pa + pb, width).counts == stripped((va + vb).counts)
    assert unpack(pa * pb, width).counts == stripped(va.convolve(vb).counts)


@pytest.mark.parametrize("counts,width,packed", [
    ((3, 0, 0, 5), 3, 3 | 5 << 9),  # interior zero slots
    ((0, 1), 4, 1 << 4),  # a zero low slot
    ((2, 0, 0), 2, 2),  # trailing zero slots vanish
    ((), 5, 0),  # the zero polynomial
    ((0, 0), 5, 0),
    ((7,), 3, 7),  # a coefficient at the slot's bound
])
def test_pack_layout(counts, width, packed):
    assert pack(CountVector(counts), width) == packed
    assert unpack(packed, width).counts == stripped(counts)


@pytest.mark.parametrize("counts,width", [((8,), 3), ((1, 4), 2), ((0, -1), 8)])
def test_pack_refuses_a_coefficient_outside_the_slot(counts, width):
    with pytest.raises(ValueError):
        pack(CountVector(counts), width)
