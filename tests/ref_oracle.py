"""The forward oracle route the package no longer runs.

The package reads |C^n e_k|^2 from the adjoint side, as the first entry of
(A^T)^n 1 on a shrinking window.  The route it replaced applies the
operator to the basis vector e_k itself and sums the squared moduli of
each image over the lcm of their denominators.  It is kept here, as it
was, as the adjoint route's oracle: ``BandedOp.apply`` is the forward
action, and ``_powers`` the lcm-summed powers on a block of a given size.

``reduced_adjoint_powers`` is the adjoint window as it ran before its
entries were left unreduced: every product and the index-0 sum kept
reduced by ``rational._mul`` and ``rational._add``.  ``two_isometric_fiber0``
is the fiber-0 closed form the package ran before the general fiber-0
recurrence, valid only for 2-isometries and guarded by their residuals.
Both are oracles of the package's routes on a small range.

``dual_moment_fiberk`` is the closed form of the dual's moments on a fiber
k >= 1, a reciprocal product of weights that no command runs; it is the
fiber-k oracle of ``hsequence``.

The operator layer reads the head and the tail rule as integer pairs and
compares them crosswise; its ``Fraction`` routes stay here, as they ran,
as its oracles: ``prefix`` and ``tail_bounds`` (once methods of
``SquaredWeights``), ``ref_two_isometry_check`` (the residuals 1 - 2h + h_2,
the circuit one included, by ``Fraction`` operations on the prefix),
``ref_construct_2isometry``, ``ref_dual_weights`` and
``ref_operator_report``.
"""

from __future__ import annotations

from fractions import Fraction

from circuitdual._record import Record
from circuitdual.operators import (
    ConstantTail,
    OperatorReport,
    ReciprocalXiTail,
    SquaredWeights,
    Tail,
    XiTail,
)
from circuitdual.rational import _add, _as_fraction, _mul, balanced_lcm, format_rat


def prefix(w: SquaredWeights, count: int) -> tuple:
    """sq(0..count-1) as Fractions."""
    return tuple([w.sq(n) for n in range(count)])


def tail_bounds(w: SquaredWeights) -> tuple:
    """(inf, sup) of sq(n) over n >= 2; either may be a limit, not attained.

    The rule is monotone in n, so from L on its values lie between sq(L)
    and its limit u1/v1 (sq(L) again when v1 = 0, a constant rule).
    """
    _, u1, _, v1 = w._rule
    first = w.sq(w.rule_start)
    values = [*w.head[2:], first, Fraction(u1, v1) if v1 else first]
    return min(values), max(values)


def ref_two_isometry_check(w: SquaredWeights, depth: int) -> tuple:
    """Residuals 1 - 2h + h_2 at the points 0..depth, in Fractions."""
    sq = prefix(w, depth + 3)
    out = [1 - 2 * (sq[0] + sq[1]) + (sq[0] ** 2 + sq[0] * sq[1] + sq[1] * sq[2])]
    out.extend(1 - 2 * sq[n + 1] + sq[n + 1] * sq[n + 2] for n in range(1, depth + 1))
    return tuple(out)


def ref_construct_2isometry(sq0, sq1) -> SquaredWeights:
    """``construct_2isometry`` with the forced sq(2) in Fractions."""
    sq0, sq1 = _as_fraction(sq0), _as_fraction(sq1)
    if sq0 < 0 or sq1 < 0:
        raise ValueError("squared weights are nonnegative")
    if sq1 == 0:
        if sq0 != 1:
            raise ValueError(
                "with sq(1) = 0 a 2-isometry requires sq(0) = 1; "
                f"got sq(0) = {format_rat(sq0)}"
            )
        return SquaredWeights((Fraction(1), Fraction(0)), ConstantTail(1))
    w2sq = ((sq0 + sq1) * (2 - sq0) - 1) / sq1
    if w2sq < 1:
        raise ValueError(
            "head admits no 2-isometric completion: the forced "
            f"sq(2) = {format_rat(w2sq)} is below 1"
        )
    return SquaredWeights((sq0, sq1, w2sq), XiTail(w2sq))


def ref_dual_weights(w: SquaredWeights) -> SquaredWeights:
    """``dual_weights`` with alpha, the bounds and the head in Fractions."""
    alpha = w.alpha
    if min(alpha, tail_bounds(w)[0]) <= 0:
        raise ValueError("Cauchy dual requires an operator bounded from below")
    head = [w.sq(0) / alpha ** 2, w.sq(1) / alpha ** 2]
    head.extend(1 / v for v in w.head[2:])
    tail = w.tail
    if isinstance(tail, ConstantTail):
        new_tail: Tail = ConstantTail(1 / tail.value)
    elif isinstance(tail, XiTail):
        new_tail = ReciprocalXiTail(tail.w2sq)
    else:
        new_tail = XiTail(tail.w2sq)
    return SquaredWeights(tuple(head), new_tail)


def ref_operator_report(w: SquaredWeights) -> OperatorReport:
    """``operator_report`` with alpha and the bounds compared as Fractions,
    and the residuals at 0..L+1 by ``ref_two_isometry_check``."""
    alpha = w.alpha
    inf, sup = tail_bounds(w)
    return OperatorReport(
        norm_sq=max(alpha, sup),
        lower_bound_sq=min(alpha, inf),
        bounded=True,
        cyclic_sufficient=inf > 0 and all(v > 0 for v in w.head[1:]),
        two_isometry_residuals=ref_two_isometry_check(w, w.rule_start + 1),
    )


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


def reduced_adjoint_powers(w: SquaredWeights, k: int, n: int) -> list:
    """|C^j e_k|^2 for j = 0..n as reduced pairs: u -> A^T u on the window
    k..k+n-j, each entry one reduced product, index 0 a reduced sum."""
    sq = w.pairs(max(k + n + 1, 2))
    u = [(1, 1)] * (n + 1)
    values = [(1, 1)]
    for _ in range(n):
        out = [_mul(a, sq[i]) for i, a in enumerate(u[1:], k + 1)]
        if k == 0:
            out[0] = _add(_mul(u[0], sq[0]), out[0])
        u = out
        values.append(u[0])
    return values


def two_isometric_fiber0(w: SquaredWeights, horizon: int) -> tuple:
    """|C'^n e_0|^2 for n = 0..horizon as reduced pairs, for a 2-isometry:
    T_0 = 1 and T_n = (sq(0)/alpha^2) T_{n-1}
    + sq(1) / (alpha^2 (1 + (n-1)(sq(2) - 1))), since the tail's partial
    products telescope to 1 + j (sq(2) - 1); hence the residual check on
    the points 0..horizon, 1 - 2 h(n) + h_2(n) in Fractions, with h_2(n) the
    sum of sq(m) h(m) over the preimages m of n under phi: {0, 1} at n = 0,
    n + 1 elsewhere."""
    if horizon < 0:
        raise ValueError("power must be nonnegative")
    if horizon == 0:
        return ((1, 1),)
    sq = prefix(w, horizon + 3)
    h = [sq[0] + sq[1], *sq[2:]]
    h2 = [sq[0] * h[0] + sq[1] * h[1], *[sq[n + 1] * h[n + 1] for n in range(1, horizon + 1)]]
    if any(1 - 2 * h[n] + h2[n] for n in range(horizon + 1)):
        raise ValueError(
            "the fiber-0 closed form requires 2-isometry residuals to "
            f"vanish to depth {horizon}"
        )
    alpha_sq, (a, b) = w.alpha ** 2, (w.sq(2) - 1).as_integer_ratio()
    ratio = (w.sq(0) / alpha_sq).as_integer_ratio()
    lead = (w.sq(1) / alpha_sq * b).as_integer_ratio()
    out = [(1, 1)]
    for j in range(horizon):
        out.append(_add(_mul(ratio, out[-1]), _mul(lead, (1, b + j * a))))
    return tuple(out)


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
