"""The forward oracle route the package no longer runs.

The package reads |C^n e_k|^2 from the adjoint side, as the first entry of
(A^T)^n 1 on a shrinking window.  The route it replaced applies the
operator to the basis vector e_k itself and sums the squared moduli of
each image over the lcm of their denominators.  It is kept here, as it
was, as the adjoint route's oracle: ``BandedOp.apply`` is the forward
action, and ``_powers`` the lcm-summed powers on a block of a given size.

``dual_moment_fiberk`` is the closed form of the dual's moments on a fiber
k >= 1, a reciprocal product of weights that no command runs; it is the
fiber-k oracle of ``hsequence``.
"""

from __future__ import annotations

from fractions import Fraction

from circuitdual._record import Record
from circuitdual.operators import SquaredWeights
from circuitdual.rational import _mul, balanced_lcm


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


def dual_moment_fiberk(w: SquaredWeights, k: int, n: int) -> Fraction:
    """|C'^n e_k|^2 for k >= 1: the reciprocal product of sq(k+1)..sq(k+n)."""
    if k < 1:
        raise ValueError("fiber index must be at least 1")
    if n < 0:
        raise ValueError("power must be nonnegative")
    total = Fraction(1)
    for j in range(1, n + 1):
        v = w.sq(k + j)
        if v == 0:
            raise ValueError(f"zero weight sq({k + j}) in the product range")
        total /= v
    return total
