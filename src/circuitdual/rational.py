"""Exact scalars, dense univariate polynomials, and rational functions over Q.

Everything on the exact path lives in the rationals: scalars are
``fractions.Fraction``, polynomials are dense coefficient tuples, and a
rational function is a reduced quotient of two polynomials with a monic
denominator.  Equality of values and of functions is therefore decidable,
which is what the rest of the package relies on: every identity it checks
is checked exactly, never to a tolerance.

Polynomials and rational functions are values here: the package builds
them from integer coefficient lists, then evaluates them and expands them
at 0.  Their sums, products, quotients and derivatives, the general route
the family builders replaced, are a test reference in tests/ref_rational.py.

A rational function also keeps an integer form of itself, computed once
when it is built: its numerator and denominator coefficients scaled by the
lcm of all their denominators.  Evaluation at p/q runs homogenised Horner
passes over these plain integers and normalises the quotient with a single
gcd, where a Fraction Horner pass would reduce a growing fraction at every
coefficient.  The values returned are the same Fractions either way.  A
grid k*x_max/steps, k = 1..steps, shares one denominator, so ``eval_grid``
homogenises the coefficients once per grid and runs the Horner passes in
the small integer k.

Values are immutable after construction and all operations are pure, so
everything here can be shared freely across threads.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")
MAX_EXPONENT = 4300  # the default limit of int() on a digit string
MAX_LITERAL = 21  # characters of an input x, xmax or weight, written as p/q


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

    def scale(self, scalar) -> "Poly":
        s = _as_fraction(scalar)
        return Poly(tuple([s * c for c in self.coeffs]))

    def __call__(self, point) -> Fraction:
        point = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly(tuple([c / lead for c in self.coeffs]))

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


def _integer_form(num: Poly, den: Poly) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """num and den coefficients times the lcm of all their denominators."""
    scaled, _ = over_common_denominator(num.coeffs + den.coeffs)
    return tuple(scaled[:len(num.coeffs)]), tuple(scaled[len(num.coeffs):])


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

    def eval_grid(self, x_max, steps: int) -> tuple:
        """The values f(k x_max/steps) for k = 1..steps, as ``eval`` returns them.

        Each grid point is k p/Q with p/q = x_max and Q = q steps, so every
        coefficient c_i is homogenised once to c_i p^i Q^(d-i) over the
        common degree d, and a sample is two Horner passes in k.  Both
        passes are Q^d times a value at the point, so Q cancels.
        """
        x_max = _as_fraction(x_max)
        p, big_q = x_max.numerator, x_max.denominator * steps
        a, b = self._ints
        d = max(len(a), len(b)) - 1
        weights = [1] * (d + 1)  # p^i Q^(d-i), from running powers
        p_pow = q_pow = 1
        for i in range(d + 1):
            weights[i] *= p_pow
            weights[d - i] *= q_pow
            p_pow *= p
            q_pow *= big_q
        a_h = [c * w for c, w in zip(a, weights)][::-1]
        b_h = [c * w for c, w in zip(b, weights)][::-1]
        values = []
        for k in range(1, steps + 1):
            b_k = 0
            for c in b_h:
                b_k = b_k * k + c
            if b_k == 0:
                raise PoleError(f"pole at x = {format_rat(Fraction(k * p, big_q))}")
            a_k = 0
            for c in a_h:
                a_k = a_k * k + c
            values.append(Fraction(a_k, b_k))
        return tuple(values)

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
