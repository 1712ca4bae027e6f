"""Exact scalars, dense univariate polynomials, and rational functions over Q.

Everything on the exact path lives in the rationals: scalars are
``fractions.Fraction``, or in the oracle and the exact Hankel elimination
reduced integer pairs (``_mul``, ``_add``), polynomials are dense
coefficient tuples, and a rational function is one pair of integer
coefficient tuples in lowest terms, with content 1 and a positive leading
denominator coefficient.
That form is canonical, so equality of values and of functions is
decidable, which is what the rest of the package relies on: every
identity it checks is checked exactly, never to a tolerance.

A ``RatFn`` is built only from such a pair: the family builders know
D_m's denominator in closed form and hand the constructor a coprime
integer numerator and denominator, so no command runs a polynomial gcd.
Evaluation at p/q runs homogenised Horner passes over the integers and
normalises the quotient with a single gcd, where a Fraction Horner pass
would reduce a growing fraction at every coefficient.  The figure builds
no ``RatFn``: it takes unreduced integer pairs from D_m's recurrence at
each grid point and renders them by ``format_pair`` or ``decimal_pair``,
without building a Fraction.

``num`` and ``den``, the quotient as ``Poly``s of Fractions over a monic
denominator, are views built on request for the tests and a benchmark
tracer; no command builds a ``Poly``.  ``poly_gcd`` stays because that
tracer wraps it.  The canonicalising constructor from two ``Poly``s,
polynomial division, sums, products, quotients and derivatives, the
general route the family builders replaced, are a test reference in
tests/ref_rational.py.

Values are immutable after construction and all operations are pure, so
everything here can be shared freely across threads.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import gcd


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


_PLAIN = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")
MAX_EXPONENT = 4300  # the default limit of int() on a digit string
MAX_LITERAL = 21  # characters of an input x, xmax or weight, written as p/q


def parse_rat(text: str) -> Fraction:
    """Parse a rational from 'p/q', an integer, or a decimal literal.

    Unreduced inputs such as '-288/32' are accepted and canonicalized.  A
    plain 'p/q' or integer in ASCII digits, signed and padded or not, is
    read by int(); any other form, a zero denominator or a numeral past
    int()'s digit limit goes to Fraction's parser, with the same result.  A
    decimal exponent beyond MAX_EXPONENT is refused before its power of ten
    is built: '1e999999999' would otherwise allocate a billion digits.  An
    error shows a refused literal whole up to 40 characters, else its first
    20 characters and its length, so that a line of any size stays short.
    """
    plain = _PLAIN.fullmatch(text)
    if plain:
        try:
            return Fraction(int(plain[1]), int(plain[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass  # refused by the general route, with its message
    exponent = _EXPONENT.search(text)
    digits = exponent and exponent.group(1).replace("_", "").lstrip("0")
    if digits and (len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT):
        problem = f"exponent beyond {MAX_EXPONENT} in"
    else:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            problem = "not a rational literal:"
    shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    raise ValueError(f"{problem} {shown}")


def parse_literal(name: str, text: str) -> Fraction:
    """An input rational named ``name`` (a flag or a spec key).  The cost of
    the exact work grows with its size, so its p/q form is capped: '1e99'
    is short but has 100 digits."""
    value = parse_rat(text)
    written = len(format_rat(value))
    if written > MAX_LITERAL:
        raise ValueError(
            f"{name} must be at most {MAX_LITERAL} characters, got {written}"
        )
    return value


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
    return format_pair(value.numerator, value.denominator)


def format_pair(n: int, d: int) -> str:
    """``format_rat`` of n/d for d > 0, reduced or not: one gcd, no Fraction."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return _digits(n) if d == 1 else f"{_digits(n)}/{_digits(d)}"


# shared by every call and thread: divide reads prec and rounding, and the
# flags it sets are never read
_DECIMAL = Context(prec=12, rounding=ROUND_HALF_EVEN)


def decimal_pair(n: int, d: int) -> str:
    """n/d, d > 0, reduced or not, in decimal to 12 significant digits,
    rounded half-even, so repeated runs produce identical bytes: rounding
    reads the value."""
    return str(_DECIMAL.divide(Decimal(n), Decimal(d)))


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed on the exact path")
    return Fraction(value)


class Poly:
    """Dense univariate polynomial with Fraction coefficients, the type of
    the ``RatFn.num`` and ``RatFn.den`` views and of ``poly_gcd``.

    ``coeffs[k]`` is the coefficient of x^k; trailing zeros are stripped so
    the representation is canonical.  The zero polynomial has an empty
    coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly(tuple([c / lead for c in self.coeffs]))


def _int_content(coeffs: Sequence[int]) -> int:
    return math.gcd(*coeffs) or 1


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

    f, g = (_int_primitive(over_common_denominator(p.coeffs)[0]) for p in (a, b))
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _int_pseudo_rem(f, g)
        f, g = g, _int_primitive(r) if r else []
    return Poly(f).monic()


def balanced_lcm(dens: Sequence[int]) -> int:
    """lcm of positive integers, of balanced pairs round by round."""
    dens = [d for d in dens if d != 1]
    while len(dens) > 2:
        dens = list(map(math.lcm, dens[::2], dens[1::2] + [1]))  # odd one: lcm with 1
    return math.lcm(*dens)


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values over the lcm of their denominators, and
    that lcm (``balanced_lcm``): value i is numerators[i]/lcm."""
    lcm = balanced_lcm([v.denominator for v in values])
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


def _mul(a: tuple, b: tuple) -> tuple:
    """Product of two reduced (numerator, denominator) pairs, reduced: with
    g = gcd(an, bd) and h = gcd(bn, ad) it is (an/g)(bn/h) / ((ad/h)(bd/g))."""
    an, ad = a
    bn, bd = b
    g, h = gcd(an, bd), gcd(bn, ad)
    return (an // g) * (bn // h), (ad // h) * (bd // g)


def _add(a: tuple, b: tuple) -> tuple:
    """Sum of two reduced pairs of signed numerator and positive denominator,
    reduced: over g = gcd(ad, bd) it is (an (bd/g) + bn (ad/g)) / ((ad/g) bd),
    and its only common factor divides g."""
    an, ad = a
    bn, bd = b
    g = gcd(ad, bd)
    s = ad // g
    n = an * (bd // g) + bn * s
    g = gcd(n, g)
    return n // g, s * (bd // g)


def _primitive_pair(a: Sequence[int], b: Sequence[int]) -> tuple:
    """a and b divided by their joint content, signed so that b leads positive."""
    g = _int_content([*a, *b])
    if b[-1] < 0:
        g = -g
    return tuple([c // g for c in a]), tuple([c // g for c in b])


def _int_coeffs(coeffs: Iterable[int]) -> list[int]:
    cs = list(coeffs)
    if not all(isinstance(c, int) for c in cs):
        raise TypeError("RatFn coefficients must be ints")
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _homogeneous(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^d c(p/q) for the degree-d integer polynomial c, by Horner in Z."""
    acc = 0
    qpow = 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


class RatFn:
    """Reduced quotient of two integer polynomials, held only as the pair
    ``_ints`` in the canonical form of the module docstring: two RatFn
    compare equal exactly when they agree as functions wherever both are
    defined.  ``num`` and ``den`` are Fraction views over a monic denominator.
    """

    __slots__ = ("_ints",)

    def __init__(self, a: Sequence[int], b: Sequence[int]):
        """a/b for integer coefficient sequences, lowest degree first, that
        share no factor of positive degree; the pair is stored divided by
        its content, and the zero function as ((), (1,))."""
        a, b = _int_coeffs(a), _int_coeffs(b)
        if not b:
            raise ZeroDivisionError("zero denominator polynomial")
        object.__setattr__(self, "_ints", _primitive_pair(a, b) if a else ((), (1,)))

    def __setattr__(self, name, value):
        raise AttributeError("RatFn is immutable")

    @property
    def num(self) -> Poly:
        a, b = self._ints
        return Poly([Fraction(c, b[-1]) for c in a])

    @property
    def den(self) -> Poly:
        b = self._ints[1]
        return Poly([Fraction(c, b[-1]) for c in b])

    @property
    def int_numerator(self) -> tuple:
        """The integer numerator of the stored pair, lowest degree first."""
        return self._ints[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self) -> int:
        return hash(self._ints)

    def __repr__(self) -> str:
        return f"RatFn({self._ints[0]!r}, {self._ints[1]!r})"

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
        a, b = self._ints
        if b[0] == 0:
            raise PoleError("pole at x = 0")
        pad = [0] * (order + 1)
        a, b = [*a, *pad], [*b, *pad]
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = Fraction(a[k])
            for i in range(1, k + 1):
                acc -= b[i] * out[k - i]
            out.append(acc / b[0])
        return tuple(out)
