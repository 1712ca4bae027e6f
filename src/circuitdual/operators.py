"""Weighted composition operators on the one-circuit graph over Z+.

The symbol is phi(0) = 0, phi(n) = n - 1.  The operator C acts on the
standard basis of l2 by

    C e_0 = w(0) e_0 + w(1) e_1,      C e_n = w(n+1) e_{n+1}  (n >= 1),

and every quantity this package cares about (the Radon-Nikodym weight h,
norms, 2-isometry residuals, Cauchy dual moments) depends on the weights
only through their squared moduli.  Weights are therefore stored as the
sequence sq(n) = |w(n)|^2 of rationals, which keeps the whole analysis in
exact arithmetic: every number a caller supplies converts through
``rational._as_fraction``, which takes ints and Fractions and refuses floats.

The fiber of 0 under phi is {0, 1}; all other fibers are singletons.  So

    h(0) = sq(0) + sq(1) =: alpha,    h(n) = sq(n+1)  (n >= 1),

the squared norm is max(alpha, sup_{n>=2} sq(n)), and the operator is
bounded below exactly when min(alpha, inf_{n>=2} sq(n)) > 0.

Past an explicit head every tail is one rule, monotone in n and read
without asking which tail it came from: sq(n) = (u0 + u1 n) / (v0 + v1 n)
in reduced integers.

- The constant tail p/q is (p, 0, q, 0).
- The xi tail with sq(2) - 1 = a/b is (b - a, a, b - 2a, a), reduced
  because gcd(b - a + an, b - 2a + an) = gcd(a, b) = 1.
- The reciprocal xi tail is the same rule swapped, (b - 2a, a, b - a, a).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .rational import _as_fraction, format_rat


class ConstantTail(Record):
    """sq(n) = value for every index past the explicit head."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _as_fraction(self.value))
        if self.value < 0:
            raise ValueError("squared weights are nonnegative")


class XiTail(Record):
    """sq(n+2) = (1 + (n+1)(s-1)) / (1 + n(s-1)), s = w2sq, for all n >= 0.

    The only 2-isometric tail once sq(2) = s >= 1 is fixed: the residual at
    n >= 1 forces sq(n+2) = 2 - 1/sq(n+1).  Nonincreasing, limit 1; the
    partial products sq(2) ... sq(n+1) telescope to 1 + n(s-1).
    """

    w2sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w2sq", _as_fraction(self.w2sq))
        if self.w2sq < 1:
            raise ValueError("xi tails require w2sq >= 1")


class ReciprocalXiTail(Record):
    """The xi tail inverted, sq(n+2) = (1 + n(s-1)) / (1 + (n+1)(s-1)):
    nondecreasing from 1/s, limit 1, partial products 1 / (1 + n(s-1)).

    Not expressible as a constant or xi tail (its entries sit below 1), but
    it is exactly the tail of the Cauchy dual of an xi-tail operator, so it
    is needed for duals to stay closed under this representation.
    """

    w2sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w2sq", _as_fraction(self.w2sq))
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
        head = tuple([_as_fraction(v) for v in self.head])
        object.__setattr__(self, "head", head)
        if any(v < 0 for v in head):
            raise ValueError("squared weights are nonnegative")
        tail = self.tail
        if isinstance(tail, ConstantTail):
            value = tail.value
            rule, start = (value.numerator, 0, value.denominator, 0), len(head)
        else:
            if len(head) < 2:
                raise ValueError("xi-style tails need head entries sq(0), sq(1)")
            b = tail.w2sq.denominator
            a = tail.w2sq.numerator - b
            rule, start = (b - a, a, b - 2 * a, a), 2
            if isinstance(tail, ReciprocalXiTail):
                rule = rule[2:] + rule[:2]
        object.__setattr__(self, "_rule", rule)
        for i in range(start, len(head)):
            if head[i] != self._tail_value(i):
                raise ValueError(
                    f"head entry sq({i}) = {format_rat(head[i])} "
                    "conflicts with the tail rule"
                )

    def _tail_value(self, n: int) -> Fraction:
        u0, u1, v0, v1 = self._rule
        return Fraction(u0 + u1 * n, v0 + v1 * n)

    def sq(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("weight index must be nonnegative")
        if n < len(self.head):
            return self.head[n]
        return self._tail_value(n)

    @property
    def alpha(self) -> Fraction:
        """h(0) = sq(0) + sq(1), the squared norm of the image of e_0."""
        return self.sq(0) + self.sq(1)

    def prefix(self, count: int) -> tuple:
        return tuple([self.sq(n) for n in range(count)])

    def pairs(self, count: int) -> list:
        """sq(0..count-1) as reduced (numerator, denominator) integer pairs;
        the tail rule is reduced, so no Fraction is built past the head."""
        out = [(v.numerator, v.denominator) for v in self.head[:count]]
        u0, u1, v0, v1 = self._rule
        return out + [(u0 + u1 * n, v0 + v1 * n) for n in range(len(out), count)]

    def tail_bounds(self) -> tuple:
        """(inf, sup) of sq(n) over n >= 2; either may be a limit, not attained.

        The rule is monotone in n, so past the head its values lie between
        its first value and its limit u1/v1 (the first value again when
        v1 = 0, a constant rule).
        """
        _, u1, _, v1 = self._rule
        first = self._tail_value(max(len(self.head), 2))
        values = [*self.head[2:], first, Fraction(u1, v1) if v1 else first]
        return min(values), max(values)


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
    sq(n+1) sq(n+2).  ``is_two_isometric`` turns a finite check into a
    certificate for every depth.

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
    """Whether the residuals of ``two_isometry_check`` vanish at every depth.

    Let L = max(len(head), 2), so sq(n) = N(n) / D(n) for n >= L with N and
    D the tail rule's linear numerator and denominator, D > 0.  For
    n >= L - 1 the residual times D(n+1) D(n+2) is
    D(n+1) D(n+2) - 2 N(n+1) D(n+2) + N(n+1) N(n+2), a quadratic in n.
    The points 0..L+1 hold every residual before the rule and three of the
    rule's, n = L-1, L, L+1; a quadratic with three zeros is zero, so the
    residuals then vanish at every depth.
    """
    return all(r == 0 for r in two_isometry_check(w, max(len(w.head), 2) + 1))


class OperatorReport(Record):
    norm_sq: Fraction
    lower_bound_sq: Fraction
    bounded: bool
    cyclic_sufficient: bool
    two_isometry_residuals: tuple


def operator_report(w: SquaredWeights, probe_depth: int = 10) -> OperatorReport:
    """Boundedness data, the cyclicity sufficient condition, and residuals.

    The tail bounds are closed-form (the tail rule is monotone), so the
    norm and lower bound do not depend on the probe depth; the probe depth
    only sizes the residual list.  Cyclicity is reported via the
    sufficient condition only: sq(n) > 0 for all n >= 1 makes e_0 a
    cyclic vector.
    """
    if probe_depth < 2:
        raise ValueError("probe depth must be at least 2")
    alpha = w.alpha
    inf, sup = w.tail_bounds()
    return OperatorReport(
        norm_sq=max(alpha, sup),
        lower_bound_sq=min(alpha, inf),
        bounded=True,
        cyclic_sufficient=inf > 0 and all(v > 0 for v in w.head[1:]),
        two_isometry_residuals=two_isometry_check(w, probe_depth),
    )


def construct_2isometry(sq0, sq1) -> SquaredWeights:
    """Complete head moduli (sq0, sq1) to a 2-isometric weight sequence.

    With sq1 = 0 the only completion has sq0 = 1 (an isometry with a flat
    tail).  With sq1 > 0 the circuit residual forces
    sq(2) = ((sq0 + sq1)(2 - sq0) - 1) / sq1, which must be >= 1, and the
    xi tail finishes the construction.
    """
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


def dual_weights(w: SquaredWeights) -> SquaredWeights:
    """Squared weights of the Cauchy dual C' = C (C*C)^{-1}.

    The dual divides the two circuit weights by alpha and inverts the rest:
    sq'(0) = sq(0)/alpha^2, sq'(1) = sq(1)/alpha^2, sq'(n) = 1/sq(n) for
    n >= 2.  Its Radon-Nikodym weight is the reciprocal of the original,
    and applying the construction twice returns the original entrywise.
    """
    alpha = w.alpha
    if min(alpha, w.tail_bounds()[0]) <= 0:
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
    0..horizon.  With sq(1)/alpha^2 = s/t and sq(2) - 1 = a/b the second
    term is s b / (t (b + (n-1) a)), built as one Fraction.
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
    s, t, a, b = sq1.numerator, sq1.denominator, step.numerator, step.denominator
    out = [Fraction(1)]
    for j in range(horizon):
        out.append(ratio * out[-1] + Fraction(s * b, t * (b + j * a)))
    return tuple(out)


def dual_moment_fiber0(w: SquaredWeights, n: int) -> Fraction:
    """|C'^n e_0|^2 by the closed form of ``dual_moments_fiber0``."""
    return dual_moments_fiber0(w, n)[n]
