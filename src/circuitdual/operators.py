"""Weighted composition operators on the one-circuit graph over Z+.

The symbol is phi(0) = 0, phi(n) = n - 1.  The operator C acts on the
standard basis of l2 by

    C e_0 = w(0) e_0 + w(1) e_1,      C e_n = w(n+1) e_{n+1}  (n >= 1),

and every quantity this package cares about (the Radon-Nikodym weight h,
norms, 2-isometry residuals, Cauchy dual moments) depends on the weights
only through their squared moduli.  Weights are therefore stored as the
sequence sq(n) = |w(n)|^2 of rationals, which keeps the whole analysis in
exact arithmetic.

The fiber of 0 under phi is {0, 1}; all other fibers are singletons.  So

    h(0) = sq(0) + sq(1) =: alpha,    h(n) = sq(n+1)  (n >= 1),

the squared norm is max(alpha, sup_{n>=2} sq(n)), and the operator is
bounded below exactly when min(alpha, inf_{n>=2} sq(n)) > 0.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .rational import format_rat


def xi_sq(n: int, w2sq: Fraction) -> Fraction:
    """Squared tail weight (1 + (n+1)(s-1)) / (1 + n(s-1)) with s = sq(2).

    This is the unique squared-weight tail making the shift part of the
    operator 2-isometric once sq(2) = s >= 1 is fixed; the partial products
    telescope to 1 + n(s-1).  With s - 1 = a/b in lowest terms it is the
    integer ratio (b + (n+1)a) / (b + na), built as one Fraction.
    """
    if n < 0:
        raise ValueError("tail index must be nonnegative")
    w2sq = Fraction(w2sq)
    b = w2sq.denominator
    a = w2sq.numerator - b
    if a < 0:
        raise ValueError("xi tails require sq(2) >= 1")
    return Fraction(b + (n + 1) * a, b + n * a)


class ConstantTail(Record):
    """sq(n) = value for every index past the explicit head."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise ValueError("squared weights are nonnegative")


class XiTail(Record):
    """sq(n+2) = xi_sq(n, w2sq) for all n >= 0; nonincreasing, limit 1."""

    w2sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w2sq", Fraction(self.w2sq))
        if self.w2sq < 1:
            raise ValueError("xi tails require w2sq >= 1")


class ReciprocalXiTail(Record):
    """sq(n+2) = 1 / xi_sq(n, w2sq); nondecreasing from 1/w2sq, limit 1.

    Not expressible as a constant or xi tail (its entries sit below 1), but
    it is exactly the tail of the Cauchy dual of an xi-tail operator, so it
    is needed for duals to stay closed under this representation.
    """

    w2sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w2sq", Fraction(self.w2sq))
        if self.w2sq < 1:
            raise ValueError("reciprocal xi tails require w2sq >= 1")


Tail = ConstantTail | XiTail | ReciprocalXiTail


class SquaredWeights(Record):
    """Squared weight moduli: an explicit head plus a total tail rule.

    For xi-style tails the rule covers every index >= 2 and head entries
    there must agree with it; for a constant tail the rule applies after
    the head ends.  ``sq(n)`` is total either way.
    """

    head: tuple
    tail: Tail

    def __post_init__(self):
        head = tuple([Fraction(v) for v in self.head])
        object.__setattr__(self, "head", head)
        if any(v < 0 for v in head):
            raise ValueError("squared weights are nonnegative")
        if isinstance(self.tail, (XiTail, ReciprocalXiTail)):
            if len(head) < 2:
                raise ValueError("xi-style tails need head entries sq(0), sq(1)")
            for i in range(2, len(head)):
                if head[i] != self._tail_value(i):
                    raise ValueError(
                        f"head entry sq({i}) = {format_rat(head[i])} "
                        "conflicts with the tail rule"
                    )

    def _tail_value(self, n: int) -> Fraction:
        tail = self.tail
        if isinstance(tail, ConstantTail):
            return tail.value
        if isinstance(tail, XiTail):
            return xi_sq(n - 2, tail.w2sq)
        return 1 / xi_sq(n - 2, tail.w2sq)

    def sq(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("weight index must be nonnegative")
        if n < len(self.head):
            return self.head[n]
        return self._tail_value(n)

    __getitem__ = sq

    @property
    def alpha(self) -> Fraction:
        """h(0) = sq(0) + sq(1), the squared norm of the image of e_0."""
        return self.sq(0) + self.sq(1)

    def prefix(self, count: int) -> tuple:
        return tuple([self.sq(n) for n in range(count)])

    def pairs(self, count: int) -> list:
        """sq(0..count-1) as reduced (numerator, denominator) integer pairs.

        With sq(2) - 1 = a/b in lowest terms, an xi tail entry sq(n) is
        (b + (n-1)a) / (b + (n-2)a), in lowest terms since the gcd of the
        two is gcd(a, b) = 1, and a reciprocal xi entry is the same pair
        swapped; so no Fraction is built past the head.
        """
        out = [(v.numerator, v.denominator) for v in self.head[:count]]
        tail = self.tail
        if isinstance(tail, ConstantTail):
            value = tail.value
            return out + [(value.numerator, value.denominator)] * (count - len(out))
        b = tail.w2sq.denominator
        a = tail.w2sq.numerator - b
        ends = [(b + (n - 1) * a, b + (n - 2) * a) for n in range(len(out), count)]
        if isinstance(tail, ReciprocalXiTail):
            ends = [(den, num) for num, den in ends]
        return out + ends

    def tail_sup(self) -> Fraction:
        """Supremum of sq(n) over n >= 2 (may be a limit, not attained)."""
        tail = self.tail
        if isinstance(tail, XiTail):
            return tail.w2sq
        if isinstance(tail, ReciprocalXiTail):
            return Fraction(1)
        candidates = [tail.value]
        candidates.extend(self.head[2:])
        return max(candidates)

    def tail_inf(self) -> Fraction:
        """Infimum of sq(n) over n >= 2 (may be a limit, not attained)."""
        tail = self.tail
        if isinstance(tail, XiTail):
            return Fraction(1)
        if isinstance(tail, ReciprocalXiTail):
            return 1 / tail.w2sq
        candidates = [tail.value]
        candidates.extend(self.head[2:])
        return min(candidates)


def ones_weights() -> SquaredWeights:
    return SquaredWeights((Fraction(1), Fraction(1)), ConstantTail(Fraction(1)))


def h_of(w: SquaredWeights, n: int) -> Fraction:
    """Radon-Nikodym weight: alpha at the circuit point, sq(n+1) elsewhere."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return w.alpha
    return w.sq(n + 1)


def two_isometry_check(w: SquaredWeights, depth: int) -> tuple:
    """Residuals of 1 - 2 h + h_2 at the points 0..depth; zero means 2-isometric.

    h_2 is the Radon-Nikodym weight of the squared operator: at the circuit
    point it is sq(0)^2 + sq(0) sq(1) + sq(1) sq(2), elsewhere
    sq(n+1) sq(n+2).  For an xi tail the residuals past the head vanish
    identically, so a finite check plus the tail rule certifies all depths.

    With sq(n+1) = p/q and sq(n+2) = r/s the residual at n >= 1 is
    ((q - 2p) s + pr) / (qs), built in integers as one Fraction.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    sq = w.prefix(3)
    out = [1 - 2 * (sq[0] + sq[1]) + (sq[0] ** 2 + sq[0] * sq[1] + sq[1] * sq[2])]
    pairs = w.pairs(depth + 3)[2:]
    out.extend([
        Fraction((q - 2 * p) * s + p * r, q * s)
        for (p, q), (r, s) in zip(pairs, pairs[1:])
    ])
    return tuple(out)


def is_two_isometric(w: SquaredWeights) -> bool:
    """Exact head check plus a symbolic certificate for the tail rule."""
    if any(r != 0 for r in two_isometry_check(w, max(len(w.head) + 1, 2))):
        return False
    tail = w.tail
    if isinstance(tail, XiTail):
        return True
    if isinstance(tail, ConstantTail):
        return tail.value == 1
    return tail.w2sq == 1


class OperatorReport(Record):
    norm_sq: Fraction
    lower_bound_sq: Fraction
    bounded: bool
    cyclic_sufficient: bool
    two_isometry_residuals: tuple


def operator_report(w: SquaredWeights, probe_depth: int = 10) -> OperatorReport:
    """Boundedness data, the cyclicity sufficient condition, and residuals.

    The tail sup and inf are closed-form (xi tails are monotone with limit
    1), so the norm and lower bound do not depend on the probe depth; the
    probe depth only sizes the residual list.  Cyclicity is reported via
    the sufficient condition only: sq(n) > 0 for all n >= 1 makes e_0 a
    cyclic vector.
    """
    if probe_depth < 2:
        raise ValueError("probe depth must be at least 2")
    alpha = w.alpha
    norm_sq = max(alpha, w.tail_sup())
    lower_sq = min(alpha, w.tail_inf())

    positive_tail = (
        w.tail.value > 0 if isinstance(w.tail, ConstantTail) else True
    )
    cyclic = positive_tail and all(v > 0 for v in w.head[1:])

    return OperatorReport(
        norm_sq=norm_sq,
        lower_bound_sq=lower_sq,
        bounded=True,
        cyclic_sufficient=cyclic,
        two_isometry_residuals=two_isometry_check(w, probe_depth),
    )


def construct_2isometry(sq0, sq1) -> SquaredWeights:
    """Complete head moduli (sq0, sq1) to a 2-isometric weight sequence.

    With sq1 = 0 the only completion has sq0 = 1 (an isometry with a flat
    tail).  With sq1 > 0 the circuit residual forces
    sq(2) = ((sq0 + sq1)(2 - sq0) - 1) / sq1, which must be >= 1, and the
    xi tail finishes the construction.
    """
    sq0, sq1 = Fraction(sq0), Fraction(sq1)
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


def dual_weights(w: SquaredWeights) -> SquaredWeights:
    """Squared weights of the Cauchy dual C' = C (C*C)^{-1}.

    The dual divides the two circuit weights by alpha and inverts the rest:
    sq'(0) = sq(0)/alpha^2, sq'(1) = sq(1)/alpha^2, sq'(n) = 1/sq(n) for
    n >= 2.  Its Radon-Nikodym weight is the reciprocal of the original,
    and applying the construction twice returns the original entrywise.
    """
    report_inf = min(w.alpha, w.tail_inf())
    if report_inf <= 0:
        raise ValueError("Cauchy dual requires an operator bounded from below")
    alpha = w.alpha
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


def dual_moments_fiber0(w: SquaredWeights, horizon: int) -> tuple:
    """Closed form for |C'^n e_0|^2, n = 0..horizon, when the operator is
    2-isometric.

    The value at n is

        sq(0)^n / alpha^(2n)
        + sum_{j=0}^{n-1} sq(0)^(n-j-1) sq(1)
            / (alpha^(2(n-j)) (1 + j (sq(2) - 1))),

    so T_0 = 1 and T_n = (sq(0)/alpha^2) T_{n-1}
    + sq(1) / (alpha^2 (1 + (n-1)(sq(2) - 1))): one pass over the horizon.
    The derivation uses 2-isometricity (partial tail products telescope to
    1 + j (sq(2) - 1)), hence the residual precondition on the points
    0..horizon.
    """
    if horizon < 0:
        raise ValueError("power must be nonnegative")
    if horizon == 0:
        return (Fraction(1),)
    if any(r != 0 for r in two_isometry_check(w, horizon)):
        raise ValueError(
            "the fiber-0 closed form requires 2-isometry residuals to "
            f"vanish to depth {horizon}"
        )
    alpha_sq = w.alpha ** 2
    ratio, sq1, step = w.sq(0) / alpha_sq, w.sq(1) / alpha_sq, w.sq(2) - 1
    out = [Fraction(1)]
    for j in range(horizon):
        out.append(ratio * out[-1] + sq1 / (1 + j * step))
    return tuple(out)


def dual_moment_fiber0(w: SquaredWeights, n: int) -> Fraction:
    """|C'^n e_0|^2 by the closed form of ``dual_moments_fiber0``."""
    return dual_moments_fiber0(w, n)[n]


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
