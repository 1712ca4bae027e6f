"""Brute-force ground truth for operator powers on a finite basis block.

Nothing here uses a closed form: the operator is applied step by step to
basis vectors and squared norms are read off, which is what the rest of the
package is checked against.

The action never merges two sources into one index: the circuit feeds e_0
and e_1 from e_0 alone, and the shift feeds e_{n+1} from e_n alone.  So
each entry of an image is one entry of the source times one weight, and
its squared modulus is the source's squared modulus times one squared
weight.  A vector is therefore stored as the tuple of the squared moduli of
its entries, each an exact rational held as a reduced (numerator,
denominator) pair of integers; no square root and no sign convention is
ever needed.  Each product cancels crosswise, as ``Fraction`` does: with
a = an/ad and b = bn/bd reduced, a b = (an/g)(bn/h) / ((ad/h)(bd/g)) with
g = gcd(an, bd) and h = gcd(bn, ad) is reduced again, so the entries never
grow past their values.  Every squared norm is an exact sum of these
entries, read as one sum of integer numerators over the lcm of the
entries' denominators and reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record
from .moments import MomentSeq
from .operators import SquaredWeights
from .rational import balanced_lcm


def _mul(a: tuple, b: tuple) -> tuple:
    """Product of two reduced (numerator, denominator) pairs, reduced."""
    an, ad = a
    bn, bd = b
    g, h = gcd(an, bd), gcd(bn, ad)
    return (an // g) * (bn // h), (ad // h) * (bd // g)


class BandedOp(Record):
    """Truncated action on span{e_0..e_{size-1}}, on squared moduli."""

    weights: SquaredWeights
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("need at least span{e_0, e_1}")
        object.__setattr__(self, "_sq", tuple(self.weights.pairs(self.size)))

    def apply(self, v: tuple) -> tuple:
        """One application of the operator to a tuple of reduced
        (numerator, denominator) pairs; support may grow by one index."""
        if len(v) != self.size:
            raise ValueError("vector size does not match the operator block")
        if v[-1][0] != 0:
            raise ValueError(
                f"support reaches index {self.size - 1}; the image would "
                f"overflow the block of size {self.size}"
            )
        sq = self._sq
        # a list, not a generator: a generator-built tuple of 11-19 items
        # never reuses CPython's free list of its size, yet joins it when
        # freed, until a full collection (tests/test_no_tuple_generators.py)
        return (_mul(v[0], sq[0]), _mul(v[0], sq[1])) + tuple([
            _mul(a, b) if a[0] else a for a, b in zip(v[1:-1], sq[2:])
        ])


def _powers(w: SquaredWeights, k: int, n: int, size: int) -> list:
    """|C^j e_k|^2 for j = 0..n on a block of the given size."""
    if not 0 <= k < size:
        raise ValueError(f"basis index {k} outside 0..{size - 1}")
    op = BandedOp(w, size)
    v = tuple([(int(i == k), 1) for i in range(size)])
    values = [Fraction(1)]
    for _ in range(n):
        v = op.apply(v)
        lcm = balanced_lcm([d for _, d in v])
        values.append(Fraction(sum([a * (lcm // d) for a, d in v]), lcm))
    return values


def gram_diagonal(
    w: SquaredWeights, k: int, n: int, size: int | None = None
) -> Fraction:
    """|C^n e_k|^2 by direct application; exact, no truncation error.

    Any block spanning e_0..e_{k+n} suffices, since one application grows
    the support by at most one index.
    """
    if k < 0 or n < 0:
        raise ValueError("fiber and power must be nonnegative")
    needed = k + n + 1
    if size is None:
        size = max(needed, 2)
    elif size < needed:
        raise ValueError(f"block of size {size} cannot hold C^{n} e_{k}")
    return _powers(w, k, n, size)[-1]


def hsequence(w: SquaredWeights, k: int, n_max: int = 12) -> MomentSeq:
    """Moment prefix {|C^n e_k|^2} for n = 0..n_max, ready for testing."""
    if n_max < 0:
        raise ValueError("horizon must be nonnegative")
    return MomentSeq.exact(_powers(w, k, n_max, max(k + n_max + 1, 2)))
