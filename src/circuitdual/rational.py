"""Exact scalars, dense univariate polynomials, and rational functions over Q.

Everything on the exact path lives in the rationals: scalars are
``fractions.Fraction``, polynomials are dense coefficient tuples, and a
rational function is a reduced quotient of two polynomials with a monic
denominator.  Equality of values and of functions is therefore decidable,
which is what the rest of the package relies on: every identity it checks
is checked exactly, never to a tolerance.

A rational function also keeps an integer form of itself, computed once
when it is built: its numerator and denominator coefficients scaled by the
lcm of all their denominators.  Evaluation at p/q runs homogenised Horner
passes over these plain integers and normalises the quotient with a single
gcd, where a Fraction Horner pass would reduce a growing fraction at every
coefficient.  The values returned are the same Fractions either way.

Values are immutable after construction and all operations are pure, so
everything here can be shared freely across threads.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")
MAX_EXPONENT = 4300  # the default limit of int() on a digit string


def parse_rat(text: str) -> Fraction:
    """Parse a rational from 'p/q', an integer, or a decimal literal.

    Unreduced inputs such as '-288/32' are accepted and canonicalized.  A
    decimal exponent beyond MAX_EXPONENT is refused before its power of ten
    is built: '1e999999999' would otherwise allocate a billion digits.
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_EXPONENT} in {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # beyond the interpreter's int-to-str digit limit
        return str(Decimal(n))  # an exact conversion the limit does not cover


def format_rat(value: Fraction) -> str:
    """Render as 'p/q', omitting the denominator when it is 1.

    A computed value may have more digits than the interpreter allows an
    int-to-str conversion; such a value still prints, and parsing keeps
    the limit.
    """
    value = Fraction(value)
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def decimal_str(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering with the given number of significant digits.

    Rounding is half-even, so repeated runs produce identical bytes.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed on the exact path")
    return Fraction(value)


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[k]`` is the coefficient of x^k; trailing zeros are stripped so
    the representation is canonical.  The zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, value) -> "Poly":
        return cls((value,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[format_rat(c) for c in self.coeffs]})"

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, scalar) -> "Poly":
        s = _as_fraction(scalar)
        return Poly(tuple(s * c for c in self.coeffs))

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

    def __call__(self, point) -> Fraction:
        point = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly(tuple(c / lead for c in self.coeffs))

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
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


def _int_content(coeffs: Sequence[int]) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    return g or 1


def _int_primitive(coeffs: Sequence[int]) -> list[int]:
    g = _int_content(coeffs)
    return [c // g for c in coeffs]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # lc(b)^(deg a - deg b + 1) * a  mod  b, computed entirely in Z[x]
    rem = list(a)
    lead = b[-1]
    db = len(b) - 1
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        c = rem[-1]
        shift = len(rem) - 1 - db
        rem = [lead * r for r in rem]
        for i, bc in enumerate(b):
            rem[shift + i] -= c * bc
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q via a primitive pseudo-remainder sequence.

    Denominators are cleared so the remainder sequence stays in Z[x];
    dividing each remainder by its content keeps coefficients small.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()

    def clear(p: Poly) -> list[int]:
        lcm = 1
        for c in p.coeffs:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        return _int_primitive([int(c * lcm) for c in p.coeffs])

    f, g = clear(a), clear(b)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _int_pseudo_rem(f, g)
        f, g = g, _int_primitive(r) if r else []
    return Poly(f).monic()


def _integer_form(num: Poly, den: Poly) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """num and den coefficients times the lcm of all their denominators."""
    lcm = 1
    for c in num.coeffs + den.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return (
        tuple(c.numerator * (lcm // c.denominator) for c in num.coeffs),
        tuple(c.numerator * (lcm // c.denominator) for c in den.coeffs),
    )


def _homogeneous(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^d c(p/q) for the degree-d integer polynomial c, by Horner in Z."""
    acc = 0
    qpow = 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


class RatFn:
    """Reduced quotient of two polynomials with a monic denominator.

    The canonical form (gcd divided out, denominator monic) makes equality
    structural: two RatFn compare equal exactly when they agree as functions
    wherever both are defined.

    Construction also stores the integer form of the quotient (see the
    module docstring), which ``eval`` uses so that a value costs one gcd
    instead of one per coefficient.  Equality and hashing ignore it, and
    like ``num`` and ``den`` it never changes after construction.
    """

    __slots__ = ("num", "den", "_ints")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if num.is_zero():
            den = Poly.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        self._store(num, den)

    def _store(self, num: Poly, den: Poly):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_ints", _integer_form(num, den))

    def __setattr__(self, name, value):
        raise AttributeError("RatFn is immutable")

    @classmethod
    def _from_reduced(cls, num: Poly, den: Poly) -> "RatFn":
        """Wrap a quotient the caller has already put in canonical form."""
        f = object.__new__(cls)
        f._store(num, den)
        return f

    @classmethod
    def const(cls, value) -> "RatFn":
        return cls(Poly.const(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFn({self.num!r}, {self.den!r})"

    def __add__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFn":
        return RatFn(-self.num, self.den)

    def __sub__(self, other: "RatFn") -> "RatFn":
        return self + (-other)

    def __mul__(self, other) -> "RatFn":
        if not isinstance(other, RatFn):
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

    def eval(self, point) -> Fraction:
        point = _as_fraction(point)
        p, q = point.numerator, point.denominator
        a, b = self._ints
        b_h = _homogeneous(b, p, q)
        if b_h == 0:
            raise PoleError(f"pole at x = {format_rat(point)}")
        # num/den at p/q is (A_h / q^deg A) / (B_h / q^deg B)
        shift = len(b) - len(a)
        a_h = _homogeneous(a, p, q)
        return Fraction(a_h * q ** max(shift, 0), b_h * q ** max(-shift, 0))

    __call__ = eval

    def taylor_at_zero(self, order: int) -> tuple[Fraction, ...]:
        """Coefficients f^(l)(0)/l! for l = 0..order, by series division."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        b0 = self.den(0)
        if b0 == 0:
            raise PoleError("pole at x = 0")
        a = list(self.num.coeffs) + [Fraction(0)] * (order + 1)
        b = list(self.den.coeffs) + [Fraction(0)] * (order + 1)
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = a[k]
            for i in range(1, k + 1):
                acc -= b[i] * out[k - i]
            out.append(acc / b0)
        return tuple(out)
