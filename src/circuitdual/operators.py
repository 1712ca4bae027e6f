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
in reduced integers, for n >= L = ``rule_start``.  The head is read into
reduced integer pairs once, next to the rule, and ``pairs`` serves both:
alpha, the tail bounds, the forced sq(2), the dual's head and the
residuals are computed on pairs and compared crosswise, and a Fraction is
built only where a returned record or a head holds one.  Residuals 0..L+1
decide 2-isometry, so ``two_isometry_check`` computes exactly those, and
``fiber0_moments`` reads any operator's pairs, a dual's too.

- The constant tail p/q is (p, 0, q, 0).
- The xi tail with sq(2) - 1 = a/b is (b - a, a, b - 2a, a), reduced
  because gcd(b - a + an, b - 2a + an) = gcd(a, b) = 1.
- The reciprocal xi tail is the same rule swapped, (b - 2a, a, b - a, a).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .rational import _as_fraction, format_pair, format_rat

_ZERO = Fraction(0)


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
        pairs = tuple([(v.numerator, v.denominator) for v in head])
        if any(n < 0 for n, _ in pairs):
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
        object.__setattr__(self, "_head", pairs)
        object.__setattr__(self, "_rule", rule)
        object.__setattr__(self, "rule_start", max(len(head), 2))  # L: sq(n >= L) is the rule's
        u0, u1, v0, v1 = rule  # crosswise: the rule at i is (u0 + u1 i)/(v0 + v1 i), v0 + v1 i > 0
        for i in range(start, len(head)):
            n, d = pairs[i]
            if n * (v0 + v1 * i) != d * (u0 + u1 * i):
                raise ValueError(
                    f"head entry sq({i}) = {format_rat(head[i])} "
                    "conflicts with the tail rule"
                )

    def sq(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("weight index must be nonnegative")
        if n < len(self.head):
            return self.head[n]
        u0, u1, v0, v1 = self._rule
        return Fraction(u0 + u1 * n, v0 + v1 * n)

    @property
    def alpha(self) -> Fraction:
        """h(0) = sq(0) + sq(1), the squared norm of the image of e_0."""
        return self.sq(0) + self.sq(1)

    def pairs(self, count: int) -> list:
        """sq(0..count-1) as reduced (numerator, denominator) integer pairs,
        the head's read once at construction; the tail rule is reduced, so
        no Fraction is built."""
        u0, u1, v0, v1 = self._rule
        out = self._head[:count]
        return [*out, *[(u0 + u1 * n, v0 + v1 * n) for n in range(len(out), count)]]

    def _alpha_and_bounds(self) -> tuple:
        """(alpha, pairs that hold the inf and the sup of sq(n) over n >= 2),
        either bound perhaps a limit, not attained: the rule is monotone in
        n, so from L on its values lie between sq(L) and its limit u1/v1
        (sq(L) again when v1 = 0, a constant rule)."""
        (p0, q0), (p1, q1) = self.pairs(2)
        u0, u1, v0, v1 = self._rule
        first = (u0 + u1 * self.rule_start, v0 + v1 * self.rule_start)
        return (p0 * q1 + p1 * q0, q0 * q1), [*self._head[2:], first, (u1, v1) if v1 else first]


def h_of(w: SquaredWeights, n: int) -> Fraction:
    """Radon-Nikodym weight: alpha at the circuit point, sq(n+1) elsewhere."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return w.alpha
    return w.sq(n + 1)


def two_isometry_check(w: SquaredWeights) -> tuple:
    """Residuals of 1 - 2 h + h_2 at the points 0..L+1, L = ``w.rule_start``:
    they decide 2-isometry at every depth.

    h_2 is the Radon-Nikodym weight of the squared operator: at the circuit
    point it is sq(0)^2 + sq(0) sq(1) + sq(1) sq(2), elsewhere
    sq(n+1) sq(n+2).  With sq(n) = N(n) / D(n) for n >= L, N and D the tail
    rule's linear numerator and denominator, D > 0, the residual at
    n >= L - 1 times D(n+1) D(n+2) is
    D(n+1) D(n+2) - 2 N(n+1) D(n+2) + N(n+1) N(n+2), a quadratic in n.
    The points 0..L+1 hold every residual before the rule and three of the
    rule's, n = L-1, L, L+1; a quadratic with three zeros is zero, so if
    these vanish every residual does, and a first nonzero one has n <= L+1.

    With sq(n+1) = p/q and sq(n+2) = r/s the residual at n >= 1 is
    ((q - 2p) s + pr) / (qs), and with sq(j) = p_j/q_j the circuit residual
    1 + (sq(0) - 2) alpha + sq(1) sq(2) is over q_0^2 q_1 q_2; both are
    built in integers, and every zero is one shared 0.
    """
    pairs = w.pairs(w.rule_start + 4)
    (p0, q0), (p1, q1), (p2, q2) = pairs[:3]
    circuit = (q0 * q0 * q1 + (p0 - 2 * q0) * (p0 * q1 + p1 * q0)) * q2 + p1 * p2 * q0 * q0
    out = [Fraction(circuit, q0 * q0 * q1 * q2) if circuit else _ZERO]
    pairs = pairs[2:]
    out.extend([
        Fraction(num, q * s) if (num := (q - 2 * p) * s + p * r) else _ZERO
        for (p, q), (r, s) in zip(pairs, pairs[1:])
    ])
    return tuple(out)


def is_two_isometric(w: SquaredWeights) -> bool:
    """Whether every residual of 1 - 2 h + h_2 vanishes: by the lemma of
    ``two_isometry_check``, whether its residuals at 0..L+1 do."""
    return not any(two_isometry_check(w))


class OperatorReport(Record):
    norm_sq: Fraction
    lower_bound_sq: Fraction
    bounded: bool
    cyclic_sufficient: bool
    two_isometry_residuals: tuple


def operator_report(w: SquaredWeights) -> OperatorReport:
    """Boundedness data, the cyclicity sufficient condition, and residuals.

    The tail bounds are closed-form (the tail rule is monotone) and are
    compared with alpha as integer pairs, crosswise.  The residuals are
    ``two_isometry_check``'s, at 0..L + 1, L = ``w.rule_start``: they
    decide every depth and hold the first nonzero one.
    Cyclicity is reported via the sufficient condition only: sq(n) > 0 for
    n >= 1 makes e_0 cyclic.
    """
    alpha, bounds = w._alpha_and_bounds()
    low = high = alpha
    for v in bounds:
        if v[0] * low[1] < low[0] * v[1]:
            low = v
        if v[0] * high[1] > high[0] * v[1]:
            high = v
    return OperatorReport(
        norm_sq=Fraction(*high),
        lower_bound_sq=Fraction(*low),
        bounded=True,
        cyclic_sufficient=all([n > 0 for n, _ in [*w._head[1:], *bounds]]),
        two_isometry_residuals=two_isometry_check(w),
    )


def construct_2isometry(sq0, sq1) -> SquaredWeights:
    """Complete head moduli (sq0, sq1) to a 2-isometric weight sequence.

    With sq1 = 0 the only completion has sq0 = 1 (an isometry with a flat
    tail).  With sq1 > 0 the circuit residual forces
    sq(2) = ((sq0 + sq1)(2 - sq0) - 1) / sq1, which must be >= 1, and the
    xi tail finishes the construction.
    """
    sq0, sq1 = _as_fraction(sq0), _as_fraction(sq1)
    p0, q0, p1, q1 = sq0.numerator, sq0.denominator, sq1.numerator, sq1.denominator
    if p0 < 0 or p1 < 0:
        raise ValueError("squared weights are nonnegative")
    if not p1:
        if sq0 != 1:
            raise ValueError(
                "with sq(1) = 0 a 2-isometry requires sq(0) = 1; "
                f"got sq(0) = {format_rat(sq0)}"
            )
        return SquaredWeights((Fraction(1), Fraction(0)), ConstantTail(1))
    # with sq0 = p0/q0, sq1 = p1/q1, p1 > 0: over q0^2 p1
    num, den = (p0 * q1 + p1 * q0) * (2 * q0 - p0) - q0 * q0 * q1, q0 * q0 * p1
    if num < den:
        raise ValueError(
            "head admits no 2-isometric completion: the forced "
            f"sq(2) = {format_pair(num, den)} is below 1"
        )
    w2sq = Fraction(num, den)
    return SquaredWeights((sq0, sq1, w2sq), XiTail(w2sq))


def dual_weights(w: SquaredWeights) -> SquaredWeights:
    """Squared weights of the Cauchy dual C' = C (C*C)^{-1}.

    The dual divides the two circuit weights by alpha and inverts the rest:
    sq'(0) = sq(0)/alpha^2, sq'(1) = sq(1)/alpha^2, sq'(n) = 1/sq(n) for
    n >= 2.  Its Radon-Nikodym weight is the reciprocal of the original,
    and applying the construction twice returns the original entrywise.
    """
    (a, b), bounds = w._alpha_and_bounds()
    if not a or not all([n for n, _ in bounds]):  # entries are nonnegative
        raise ValueError("Cauchy dual requires an operator bounded from below")
    (p0, q0), (p1, q1) = w.pairs(2)
    head = [Fraction(p0 * b * b, q0 * a * a), Fraction(p1 * b * b, q1 * a * a)]
    head.extend([Fraction(q, p) for p, q in w._head[2:]])
    tail = w.tail
    if isinstance(tail, ConstantTail):
        new_tail: Tail = ConstantTail(1 / tail.value)
    elif isinstance(tail, XiTail):
        new_tail = ReciprocalXiTail(tail.w2sq)
    else:
        new_tail = XiTail(tail.w2sq)
    return SquaredWeights(tuple(head), new_tail)


def fiber0_moments(t: SquaredWeights, horizon: int) -> tuple:
    """|T^n e_0|^2 for n = 0..horizon, T the operator of any weights t (a
    Cauchy dual's too), as pairs over a known positive denominator.

    With s0 = sq(0), s1 = sq(1) and gamma_1(j) = sq(2) ... sq(j+1), the
    fiber-0 identity is

        gamma_0(n) = s0 gamma_0(n-1) + s1 gamma_1(n-1),   gamma_0(0) = 1:

    T^n e_0 is a_n e_0 plus terms on distinct e_i, i >= 1, so no cross
    term enters and no 2-isometry is used.  With s0 = r0/e0, s1 = r1/e1
    and sq(j) = q_j/p_j its denominator is E_n = e0^n e1 p_2 ... p_n, so
    E_n = e0 Q_n E_{n-1} and N_n = r0 Q_n N_{n-1} + r1 e0^n q_2 ... q_n,
    with Q_1 = e1, Q_n = p_n: a few products with small integers per n, no gcd.
    """
    if horizon < 0:
        raise ValueError("power must be nonnegative")
    pairs = t.pairs(max(horizon + 1, 2))
    (r0, e0), (r1, e1) = pairs[:2]
    num = den = run = 1  # run = e0^n q_2 ... q_n
    out = [(1, 1)]
    for q, p in [(1, e1), *pairs[2:]][:horizon]:
        run *= e0 * q
        num = r0 * p * num + r1 * run
        den *= e0 * p
        out.append((num, den))
    return tuple(out)


def dual_moment_fiber0(w: SquaredWeights, n: int) -> Fraction:
    """|C'^n e_0|^2 by ``fiber0_moments`` on ``dual_weights(w)``: bounded below only."""
    return Fraction(*fiber0_moments(dual_weights(w), n)[n])
