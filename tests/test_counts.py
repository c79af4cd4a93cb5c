"""CountVector arithmetic against naive index-loop references, including
the exact `.counts` tuple each operation returns."""

from hypothesis import given, settings
from hypothesis import strategies as st

from smc.counts import CountVector

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
