"""Reference algebra and derivation routes the package no longer runs.

The package builds D_m in lowest terms, from a recurrence for its reduced
numerator over the closed form of its reduced denominator, then only
evaluates it; its derivatives at 0 come from the same recurrence,
truncated.  The tests keep the routes those builders replaced, as oracles
on a small range:

- ``Poly`` and ``RatFn`` are the package's classes with a degree, a zero
  test, evaluation, division with remainder, scaling, sums, products,
  quotients, powers and exact derivatives on top.  ``RatFn`` is built
  from two ``Poly``s or scalars by the canonicalising route the package's
  integer-pair constructor replaced: it divides out the ``poly_gcd`` of
  numerator and denominator and hands the quotient to that constructor
  as an integer pair.  Every rational-function result goes through it.
- ``grid_horner`` homogenises an integer polynomial once per grid
  k*x_max/steps and runs one Horner pass per sample in the small integer
  k, the route the figure's recurrence at each grid point replaced.
  ``eval_grid`` reduces its values of a ``RatFn``'s pair to ``Fraction``s:
  the figure's reference, itself checked against ``RatFn.eval`` at each
  point.
- ``ref_s``, ``ref_omega`` and ``ref_d`` build S_n, omega_n and D_m as
  sums of such rational functions, each reduced by ``poly_gcd``.
- ``_canonical`` reduces an integer numerator over a known factored
  denominator by trial division: it divides by each linear factor for as
  long as the numerator vanishes at its root.  ``ref_d_trial`` applies it
  to the unreduced numerator N_m = D_m L_m from its own recurrence, the
  build the package used before the cancellation was proved.
- ``s_ratfn``, ``omega_ratfn`` and ``ref_d_table`` build S_n, omega_n
  and D_m in integers over their known denominators, from a table of the
  polynomials S_n P_m, reduced by ``_canonical``.  The package built
  D_m this way before it took D_m from a recurrence; ``ref_d_table`` is
  that recurrence's oracle.  Expanded by ``RatFn.taylor_at_zero``, these
  whole rational functions are also the oracle of the truncated power
  series the commands take Taylor coefficients from.
- ``ref_d_taylor`` takes D_m's derivatives at 0 from the series of
  S_0..S_m by Horner in (1+x)^(-2), the series route the recurrence
  replaced.
- ``omega_deriv_leibniz`` assembles omega_n^{(l)}(0) by the product rule
  from the tabulated S_n derivatives, independently of series division.

The verdict pipeline runs on integers; its ``Fraction`` routes stay here:

- ``ref_two_isometry_check`` takes the residuals 1 - 2h + h_2 by
  ``Fraction`` operations on the weight prefix, five per point, the route
  the one integer quotient per point replaced.
- ``ref_omega_prefix`` runs S_n and 2^n (1+x)^(2n) as running ``Fraction``
  sums and products, the route the integer numerators over their known
  denominators replaced.
- ``domain_min`` is the left end -1/(n+1) of the domain of omega_n and
  D_n.  The package no longer checks it: ``FamilyParam`` refuses x < 0.
- ``ref_counterexample_verdict`` is the verdict on ``Fraction``s: omega
  by ``ref_omega_prefix``, the difference table over the lcm of their
  reduced denominators, and the three routes compared as reduced pairs,
  the route the table over omega's known common denominator replaced.

The operators read one linear-fractional tail rule; the per-kind answers
it replaced stay here: ``ref_tail_sup``, ``ref_tail_inf``,
``ref_cyclic_sufficient`` and ``ref_is_two_isometric`` each ask which tail
class the weights carry.

``ref_parse_rat`` is ``parse_rat`` without its plain-literal branch: every
text goes through ``Fraction``'s string parser behind the exponent guard,
the route that branch must agree with in value and in error text.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from circuitdual import rational
from circuitdual.family import (
    CounterexampleVerdict,
    _add,
    _mul,
    _s_series,
    _series_div,
    family_weights,
    s_derivatives_at_zero,
)
from circuitdual.moments import MomentSeq, hausdorff_test
from circuitdual.operators import (
    ConstantTail,
    ReciprocalXiTail,
    XiTail,
    dual_moments_fiber0,
    dual_weights,
    operator_report,
)
from circuitdual.oracle import _powers


def _lift(p: rational.Poly) -> "Poly":
    return p if isinstance(p, Poly) else Poly(p.coeffs)


class Poly(rational.Poly):
    """The package's polynomial with evaluation, division, scaling, ring
    operations and a derivative."""

    __slots__ = ()

    @classmethod
    def const(cls, value) -> "Poly":
        return cls((value,))

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, point) -> Fraction:
        point = rational._as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def divmod(self, divisor: rational.Poly) -> tuple["Poly", "Poly"]:
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dlead = divisor.leading()
        dd = divisor.degree
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / dlead
            quot[k - dd] = q
            for i, dc in enumerate(divisor.coeffs):
                rem[k - dd + i] -= q * dc
        return Poly(quot), Poly(rem)

    def __add__(self, other: rational.Poly) -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: rational.Poly) -> "Poly":
        return self + (-_lift(other))

    def scale(self, scalar) -> "Poly":
        s = rational._as_fraction(scalar)
        return Poly(tuple([s * c for c in self.coeffs]))

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, rational.Poly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))


class RatFn(rational.RatFn):
    """The package's rational function built from two polynomials, with
    field operations and derivatives; its ``num`` and ``den`` views are
    reference ``Poly``s."""

    __slots__ = ()

    def __init__(self, num, den=1):
        """num/den for ``Poly``s or scalars, reduced by their ``poly_gcd``."""
        num, den = (_lift(p) if isinstance(p, rational.Poly) else Poly.const(p)
                    for p in (num, den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        g = _lift(rational.poly_gcd(num, den))
        if g.degree >= 1:
            num, den = num.divmod(g)[0], den.divmod(g)[0]
        scaled, _ = rational.over_common_denominator(num.coeffs + den.coeffs)
        split = len(num.coeffs)
        super().__init__(scaled[:split], scaled[split:])

    @property
    def num(self) -> Poly:
        return _lift(super().num)

    @property
    def den(self) -> Poly:
        return _lift(super().den)

    @classmethod
    def const(cls, value) -> "RatFn":
        return cls(Poly.const(value))

    def is_zero(self) -> bool:
        return not self.int_numerator

    def __add__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFn":
        return RatFn(-self.num, self.den)

    def __sub__(self, other: "RatFn") -> "RatFn":
        return self + (-other)

    def __mul__(self, other) -> "RatFn":
        if not isinstance(other, rational.RatFn):
            return RatFn(self.num.scale(other), self.den)
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def derivative(self, order: int = 1) -> "RatFn":
        """Exact derivative of the given order (order 0 is the identity)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        f = self
        for _ in range(order):
            f = RatFn(
                f.num.derivative() * f.den - f.num * f.den.derivative(),
                f.den * f.den,
            )
        return f


def lift(f: rational.RatFn) -> RatFn:
    """A package rational function as a reference one, with its algebra."""
    return RatFn(f.num, f.den)


def grid_horner(coeffs, d: int, x_max: Fraction, steps: int) -> list:
    """Q^d c(k x_max/steps) for k = 1..steps, c an integer polynomial of
    degree at most d.  Each grid point is k p/Q with p/q = x_max and
    Q = q steps, so c_i is homogenised once to c_i p^i Q^(d-i) and a sample
    is one Horner pass in the small integer k."""
    p, big_q = x_max.numerator, x_max.denominator * steps
    hom = [c * p**i * big_q ** (d - i) for i, c in enumerate(coeffs)][::-1]
    values = []
    for k in range(1, steps + 1):
        acc = 0
        for c in hom:
            acc = acc * k + c
        values.append(acc)
    return values


def eval_grid(f: rational.RatFn, x_max, steps: int) -> tuple:
    """The values f(k x_max/steps) for k = 1..steps, as ``f.eval`` returns
    them, reduced from two ``grid_horner`` passes over f's integer pair.

    Both passes run over the common degree d, so each is Q^d times a value
    at the point and Q cancels.
    """
    x_max = rational._as_fraction(x_max)
    a, b = f._ints
    d = max(len(a), len(b)) - 1
    b_k = grid_horner(b, d, x_max, steps)
    if 0 in b_k:
        point = x_max * (b_k.index(0) + 1) / steps
        raise rational.PoleError(f"pole at x = {rational.format_rat(point)}")
    return tuple(map(Fraction, grid_horner(a, d, x_max, steps), b_k))


# Canonical form by trial division over a known factored denominator


def _div_linear(a, j):
    """a / (1 + jx) by synthetic division, or None when it is not exact."""
    q = _series_div(a, j)
    return q[:-1] if q[-1] == 0 else None


def _l_factors(m: int) -> list:
    """(j, e) with L_m = 2^m prod (1 + jx)^e."""
    return [(1, 2 * m)] + [(j, 1) for j in range(2, m + 2)]


def _canonical(num, scale: int, factors) -> rational.RatFn:
    """num / (scale prod (1 + jx)^e) as a reduced RatFn.

    The denominator's factors are known, so the gcd is divided out one
    linear factor at a time, for as long as num vanishes at -1/j.
    """
    den = [scale]
    for j, e in factors:
        while e and (q := _div_linear(num, j)) is not None:
            num, e = q, e - 1
        for _ in range(e):
            den = _mul(den, (1, j))
    return rational.RatFn(num, den)


def ref_d_trial(m: int) -> rational.RatFn:
    """D_m from the recurrence of the unreduced numerator N_m = D_m L_m,
    reduced by trial division: the build the reduced recurrence and the
    closed-form denominator replaced."""
    num, term = [1], [-1, -4, -4]  # term = -k! (1+2x)^2 (2x(1+x)^2)^k
    for k in range(m):
        j = k + 2
        num = _add(_mul(num, (1, j + 4, 4 * j + 2, 2 * j)), term)
        term = _mul(term, (0, 2 * j - 2, 4 * j - 4, 2 * j - 2))
    return _canonical(num, 2**m, _l_factors(m))


# S_n, omega_n and D_m over their known denominators, from a table of S_n P_m


def _s_times_p(m: int):
    """P_m and the integer polynomials S_n P_m for n = 0..m."""
    p = [1]
    for j in range(2, m + 2):
        p = _mul(p, (1, j))
    s, power = [], [1]  # power = 2^n (1+x)^(2n)
    out = [s]
    for n in range(m):
        s = _add(s, _mul(power, _div_linear(p, n + 2)))
        power = _mul(power, (2, 4, 2))
        out.append(s)
    return p, out


@lru_cache(maxsize=None)
def s_ratfn(n: int) -> rational.RatFn:
    """S_n as a reduced rational function (S_0 is the zero function)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return rational.RatFn((), (1,))
    _, s = _s_times_p(n)
    return _canonical(s[n], 1, _l_factors(n)[1:])  # over P_n


@lru_cache(maxsize=None)
def omega_ratfn(n: int) -> rational.RatFn:
    if n < 0:
        raise ValueError("index must be nonnegative")
    p, s = _s_times_p(n)  # omega_n L_n = P_n + (1+2x)^2 S_n P_n
    return _canonical(_add(p, _mul((1, 4, 4), s[n])), 2**n, _l_factors(n))


@lru_cache(maxsize=None)
def ref_d_table(m: int) -> rational.RatFn:
    """D_m from the table of S_n P_m, the build the recurrence replaced."""
    # D_m L_m = sum_n (-1)^n C(m, n) A^(m-n) (P_m + (1+2x)^2 S_n P_m) with
    # A = 2 (1+x)^2, summed by Horner in A
    p, s = _s_times_p(m)
    total = []
    for n in range(m + 1):
        coeff = (-1) ** n * math.comb(m, n)
        term = [coeff * c for c in _add(p, _mul((1, 4, 4), s[n]))]
        total = _add(_mul(total, (2, 4, 2)), term)
    return _canonical(total, 2**m, _l_factors(m))


def ref_d_taylor(m: int, order: int) -> tuple:
    """D_m^{(l)}(0) for l = 0..order, from the series of S_0..S_m.

    With E = (1+x)^(-2) and u_n = 1 + (1+2x)^2 S_n,
    2^m D_m = sum_n (-1)^n C(m, n) 2^(m-n) u_n E^n, summed by Horner in E
    on integer power series; the route the recurrence replaced.
    """
    terms = order + 1
    total = [0] * terms
    for n, s in reversed(list(enumerate(_s_series(m, terms)))):
        total = _series_div(_series_div(total, 1), 1)
        u = _mul((1, 4, 4), s)[:terms]
        u[0] += 1
        coeff = (-1) ** n * math.comb(m, n) * 2 ** (m - n)
        total = [t + coeff * c for t, c in zip(total, u)]
    return tuple([Fraction(c * math.factorial(l), 2**m) for l, c in enumerate(total)])


# The gcd-based route the family builders replaced: sums of generic RatFns,
# each reduced by poly_gcd.


@lru_cache(maxsize=None)
def ref_s(n):
    if n == 0:
        return RatFn.const(0)
    j = n - 1
    term = RatFn((Poly((1, 1)) ** (2 * j)).scale(Fraction(2) ** j), Poly((1, j + 2)))
    return ref_s(n - 1) + term


@lru_cache(maxsize=None)
def ref_omega(n):
    num = RatFn.const(1) + RatFn(Poly((1, 2)) ** 2) * ref_s(n)
    return num / RatFn((Poly((1, 1)) ** (2 * n)).scale(Fraction(2) ** n))


@lru_cache(maxsize=None)
def ref_d(m):
    total = RatFn.const(0)
    for n in range(m + 1):
        total = total + ref_omega(n) * Fraction((-1) ** n * math.comb(m, n))
    return total


# Derivatives at 0 by the product rule, from the tabulated S_n derivatives.


def _rising(a: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= a + i
    return out


def inverse_power_deriv_at_zero(p: int, j: int) -> Fraction:
    """j-th derivative of (1+x)^(-p) at 0: (-1)^j p (p+1) ... (p+j-1)."""
    return Fraction((-1) ** j * _rising(p, j))


def omega_bracket_at_zero(i: int, n: int) -> Fraction:
    """i-th derivative at 0 of (1 + (1+2x)^2 S_n(x)) / 2^n.

    Expanding ((1+2x)^2 S_n)^{(i)} by the product rule leaves three terms;
    at 0 they combine the tabulated S_n derivatives with small binomials.
    For i <= 3 these brackets are polynomials in n of degree i, which is
    what makes the first four derivatives of every D_m (m >= 4) vanish.
    """
    value = Fraction(1) if i == 0 else Fraction(0)
    if i >= 2:
        value += 8 * math.comb(i, 2) * s_derivatives_at_zero(n, i - 2)
    if i >= 1:
        value += 4 * i * s_derivatives_at_zero(n, i - 1)
    value += s_derivatives_at_zero(n, i)
    return value / Fraction(2) ** n


def omega_deriv_leibniz(n: int, l: int) -> Fraction:
    """omega_n^{(l)}(0) assembled by the product rule, independent of the
    symbolic differentiation path."""
    return sum(
        (
            math.comb(l, i)
            * inverse_power_deriv_at_zero(2 * n, l - i)
            * omega_bracket_at_zero(i, n)
            for i in range(l + 1)
        ),
        Fraction(0),
    )


def ref_two_isometry_check(w, depth: int) -> tuple:
    """Residuals 1 - 2h + h_2 at the points 0..depth, in Fractions."""
    sq = w.prefix(depth + 3)
    out = [1 - 2 * (sq[0] + sq[1]) + (sq[0] ** 2 + sq[0] * sq[1] + sq[1] * sq[2])]
    out.extend(1 - 2 * sq[n + 1] + sq[n + 1] * sq[n + 2] for n in range(1, depth + 1))
    return tuple(out)


def domain_min(n: int) -> Fraction:
    """Left endpoint of the domain of omega_n (and of D_n): -1/(n+1)."""
    return Fraction(-1, n + 1)


def ref_omega_prefix(horizon: int, x) -> tuple:
    """omega_0..omega_horizon with S_n and 2^n (1+x)^(2n) running in Fractions."""
    x = Fraction(x)
    base, lift = 2 * (1 + x) ** 2, (1 + 2 * x) ** 2
    out, s, power = [Fraction(1)], Fraction(0), Fraction(1)  # power = base^j
    for j in range(horizon):
        s += power / (1 + (j + 2) * x)
        power *= base
        out.append((1 + lift * s) / power)
    return tuple(out)


def ref_counterexample_verdict(p, depth: int, horizon: int, residual_depth: int = 50):
    """``counterexample_verdict`` with omega as ``Fraction``s: the routes
    compared as reduced pairs, the table over the lcm of omega's reduced
    denominators."""
    w = family_weights(p)
    report = operator_report(w, probe_depth=residual_depth)
    moments = ref_omega_prefix(horizon, p.x)
    closed = dual_moments_fiber0(w, horizon)
    brute = tuple(_powers(dual_weights(w), 0, horizon))
    agrees = tuple([m.as_integer_ratio() for m in moments]) == closed == brute
    return CounterexampleVerdict(
        x=p.x,
        report=report,
        residual_depth=residual_depth,
        moments=moments,
        closed_form_agrees=agrees,
        hausdorff=hausdorff_test(MomentSeq.exact(moments), depth),
    )


def ref_tail_sup(w) -> Fraction:
    """Supremum of sq(n) over n >= 2: w2sq for xi, 1 for reciprocal xi."""
    if isinstance(w.tail, XiTail):
        return w.tail.w2sq
    if isinstance(w.tail, ReciprocalXiTail):
        return Fraction(1)
    return max([w.tail.value, *w.head[2:]])


def ref_tail_inf(w) -> Fraction:
    """Infimum of sq(n) over n >= 2: 1 for xi, 1/w2sq for reciprocal xi."""
    if isinstance(w.tail, XiTail):
        return Fraction(1)
    if isinstance(w.tail, ReciprocalXiTail):
        return 1 / w.tail.w2sq
    return min([w.tail.value, *w.head[2:]])


def ref_cyclic_sufficient(w) -> bool:
    """sq(n) > 0 for n >= 1: only a constant tail can be zero."""
    positive_tail = w.tail.value > 0 if isinstance(w.tail, ConstantTail) else True
    return positive_tail and all(v > 0 for v in w.head[1:])


def ref_is_two_isometric(w) -> bool:
    """Residuals through one point past the head, then the tail class: an
    xi tail is 2-isometric, a constant or reciprocal xi one only when flat."""
    residuals = ref_two_isometry_check(w, max(len(w.head) + 1, 2))
    if any(r != 0 for r in residuals):
        return False
    if isinstance(w.tail, XiTail):
        return True
    if isinstance(w.tail, ConstantTail):
        return w.tail.value == 1
    return w.tail.w2sq == 1


def ref_parse_rat(text: str) -> Fraction:
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*$", text)
    digits = exponent and exponent.group(1).replace("_", "").lstrip("0")
    if digits and (len(digits) > 4 or int(digits) > rational.MAX_EXPONENT):
        problem = f"exponent beyond {rational.MAX_EXPONENT} in"
    else:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            problem = "not a rational literal:"
    shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    raise ValueError(f"{problem} {shown}")
