"""Reference algebra and derivation routes the package no longer runs.

The package builds S_n, omega_n and D_m in integer arithmetic over their
known common denominator, then only evaluates them and expands them at 0.
The tests keep the general routes those builders replaced, as oracles on
a small range:

- ``Poly`` and ``RatFn`` are the package's classes with sums, products,
  quotients, powers and exact derivatives on top.  Every rational-function
  result goes through the package's canonicalising constructor, which
  divides out the ``poly_gcd`` of numerator and denominator.
- ``ref_s``, ``ref_omega`` and ``ref_d`` build S_n, omega_n and D_m as
  sums of such rational functions, each reduced by ``poly_gcd``.
- ``s_ratfn`` and ``omega_ratfn`` build S_n and omega_n with the
  package's integer builders, as ``d_ratfn`` builds D_m.  The commands
  take Taylor coefficients from truncated power series instead; these
  whole rational functions, expanded by ``RatFn.taylor_at_zero``, are
  that route's oracle.
- ``omega_deriv_leibniz`` assembles omega_n^{(l)}(0) by the product rule
  from the tabulated S_n derivatives, independently of series division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from circuitdual import rational
from circuitdual.family import (
    _add,
    _canonical,
    _l_factors,
    _mul,
    _s_times_p,
    s_derivatives_at_zero,
)


def _lift(p: rational.Poly) -> "Poly":
    return p if isinstance(p, Poly) else Poly(p.coeffs)


class Poly(rational.Poly):
    """The package's polynomial with ring operations and a derivative."""

    __slots__ = ()

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

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, rational.Poly):
            return _lift(self.scale(other))
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
    """The package's rational function with field operations and
    derivatives; its numerator and denominator are reference ``Poly``s."""

    __slots__ = ()

    def _store(self, num: rational.Poly, den: rational.Poly):
        super()._store(_lift(num), _lift(den))

    @classmethod
    def const(cls, value) -> "RatFn":
        return cls(Poly.const(value))

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


# S_n and omega_n over their known denominators, by the builders of d_ratfn


@lru_cache(maxsize=None)
def s_ratfn(n: int) -> rational.RatFn:
    """S_n as a reduced rational function (S_0 is the zero function)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    _, s = _s_times_p(n)
    return _canonical(s[n], 1, _l_factors(n)[1:])  # over P_n


@lru_cache(maxsize=None)
def omega_ratfn(n: int) -> rational.RatFn:
    if n < 0:
        raise ValueError("index must be nonnegative")
    p, s = _s_times_p(n)  # omega_n L_n = P_n + (1+2x)^2 S_n P_n
    return _canonical(_add(p, _mul((1, 4, 4), s[n])), 2**n, _l_factors(n))


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
