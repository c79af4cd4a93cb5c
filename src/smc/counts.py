"""Cardinality-indexed count vectors (exact big integers).

``CountVector`` behaves like a polynomial in x with nonnegative integer
coefficients: entry k counts objects of cardinality k.  Vectors are
value-like and compared mathematically (trailing zeros ignored).

``CountVector`` is the type at the engines' boundaries: folds, factors,
branch recombination and results.  A sweep may pack the vectors it
carries into Python ints (``pack``/``unpack``), one slot of fixed width
per coefficient, so that a sum is one add and a convolution one multiply.
"""

from __future__ import annotations

from operator import add, neg, sub
from typing import Iterable


class CountVector:
    __slots__ = ("counts",)

    def __init__(self, counts: Iterable[int] = (1,)) -> None:
        self.counts: tuple[int, ...] = tuple(counts)

    @staticmethod
    def zero() -> "CountVector":
        return CountVector(())

    @staticmethod
    def one() -> "CountVector":
        """Multiplicative identity: one object of cardinality 0."""
        return CountVector((1,))

    @staticmethod
    def unit(k: int) -> "CountVector":
        return CountVector((0,) * k + (1,))

    def __add__(self, other: "CountVector") -> "CountVector":
        a, b = self.counts, other.counts
        if len(a) < len(b):
            a, b = b, a
        return CountVector(tuple(map(add, a, b)) + a[len(b):])

    def __sub__(self, other: "CountVector") -> "CountVector":
        a, b = self.counts, other.counts
        diff = tuple(map(sub, a, b))
        if len(a) >= len(b):
            return CountVector(diff + a[len(b):])
        return CountVector(diff + tuple(map(neg, b[len(a):])))

    def shift(self, k: int = 1) -> "CountVector":
        """Add k to every cardinality (multiply by x^k)."""
        return CountVector((0,) * k + self.counts)

    def convolve(self, other: "CountVector") -> "CountVector":
        """Counts over disjoint unions: discrete convolution."""
        a, b = self.counts, other.counts
        if not a or not b:
            return CountVector.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return CountVector(out)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def to_list(self, n_top: int) -> list[int]:
        """Entries 0..n_top inclusive (pad/truncate; truncated tail must be 0)."""
        out = list(self.counts[: n_top + 1])
        if any(self.counts[n_top + 1 :]):
            raise ValueError("nonzero counts above n_top")
        return out + [0] * (n_top + 1 - len(out))

    def __getitem__(self, k: int) -> int:
        return self.counts[k] if 0 <= k < len(self.counts) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountVector):
            return NotImplemented
        n = max(len(self.counts), len(other.counts))
        return all(self[i] == other[i] for i in range(n))

    def __repr__(self) -> str:
        return f"CountVector({list(self.counts)!r})"


def pack(vec: CountVector, width: int) -> int:
    """vec as one int with entry k in bits [k·width, (k+1)·width)
    (Kronecker packing).  Sums and products of packed ints are the packed
    sums and convolutions while no coefficient reaches 2^width."""
    packed = 0
    for c in reversed(vec.counts):
        if c < 0 or c >> width:
            raise ValueError(f"coefficient {c} does not fit a {width}-bit slot")
        packed = packed << width | c
    return packed


def unpack(packed: int, width: int) -> CountVector:
    """The vector that ``pack`` packed into `packed` with `width`-bit slots,
    read off its binary digits in one pass."""
    if not packed:
        return CountVector.zero()
    digits = format(packed, "b")
    return CountVector(int(digits[max(i - width, 0):i], 2)
                       for i in range(len(digits), 0, -width))

