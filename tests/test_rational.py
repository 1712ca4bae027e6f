import math
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitdual.family import d_ratfn
from circuitdual.rational import (
    PoleError,
    Poly,
    RatFn,
    decimal_pair,
    format_pair,
    format_rat,
    over_common_denominator,
    parse_rat,
    poly_gcd,
)
import ref_rational as ref

rats = st.fractions(min_value=-3, max_value=3, max_denominator=8)
polys = st.lists(rats, max_size=7).map(ref.Poly)
points = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def test_parse_accepts_unreduced_and_decimal():
    assert parse_rat("-288/32") == F(-9)
    assert parse_rat("7") == F(7)
    assert parse_rat("1.25") == F(5, 4)
    with pytest.raises(ValueError):
        parse_rat("3/0")
    with pytest.raises(ValueError):
        parse_rat("x+1")


def test_parse_bounds_the_exponent():
    assert parse_rat("1e4300") == 10 ** 4300
    assert parse_rat(" 25E-0_0_2 ") == F(1, 4)
    for text in ("1e4301", "1.5E-4301", "1e99999999999", "1e1_0000_0000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent beyond 4300"):
            parse_rat(text)


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as error:
        return type(error), str(error)
    return type(value), value


# parse_rat's plain-literal branch and the inputs next to it, each with the
# general route's value or ValueError text
PARSE_NAMED = [
    ("+7", F(7)),
    ("007/010", F(7, 10)),
    ("-0", F(0)),
    ("0/5", F(0)),
    ("3/0", "not a rational literal: '3/0'"),
    ("1/-2", "not a rational literal: '1/-2'"),
    ("1 /2", "not a rational literal: '1 /2'"),
    ("1_000/3", F(1000, 3)),
    ("\u0663/\u0664", F(3, 4)),  # Arabic-Indic digits
    ("\t7\n", F(7)),
    ("1" * 4301, f"not a rational literal: {'1' * 20!r}... (4301 characters)"),
    ("1e4301", "exponent beyond 4300 in '1e4301'"),
    ("1" * 41, F(int("1" * 41))),
    # the echo boundary, on a plain literal with a zero denominator
    ("3/" + "0" * 38, f"not a rational literal: '3/{'0' * 38}'"),
    ("3/" + "0" * 39, "not a rational literal: '3/000000000000000000'... (41 characters)"),
]


@pytest.mark.parametrize("text, want", PARSE_NAMED, ids=[repr(t)[:24] for t, _ in PARSE_NAMED])
def test_parse_rat_named_literals(text, want):
    got = _outcome(parse_rat, text)
    assert got == ((ValueError, want) if isinstance(want, str) else (F, want))
    assert _outcome(ref.ref_parse_rat, text) == got
    if not isinstance(want, str):
        assert want == F(text.strip())


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_PADS = st.text(" \t\n\x0c\u2003", max_size=2)
_PLAIN_TEXTS = st.builds(
    lambda a, sign, n, d, b: f"{a}{sign}{n}{'' if d is None else '/' + d}{b}",
    _PADS, st.sampled_from(["", "+", "-"]), _DIGITS, st.none() | _DIGITS, _PADS,
)
# one character away from a plain literal: decimals, exponents, underscores,
# inner spaces, doubled signs and slashes, non-ASCII digits
_NEAR_TEXTS = st.text("0123456789+-/ _.eE\t\u0663x", max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_PLAIN_TEXTS, _NEAR_TEXTS))
def test_parse_rat_agrees_with_the_general_route(text):
    # the general route is Fraction(text.strip()) behind the exponent guard
    assert _outcome(parse_rat, text) == _outcome(ref.ref_parse_rat, text)


def test_format_beyond_the_int_digit_limit():
    # 3^10000 has 4,772 digits and 2^16000 has 4,817, beyond the default 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        got = format_rat(F(-(3 ** 10000))), format_rat(F(7, 2 ** 16000))
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        want = str(-(3 ** 10000)), f"7/{2 ** 16000}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_format_omits_unit_denominator():
    assert format_rat(F(-9)) == "-9"
    assert format_rat(F(5, 4)) == "5/4"
    assert format_rat(F(0)) == "0"


def test_decimal_pair_half_even_deterministic():
    assert decimal_pair(1, 3) == decimal_pair(1, 3) == "0." + "3" * 12
    # ties at the 13th significant digit go to the even neighbour
    assert decimal_pair(1000000000005, 10 ** 13) == "0.100000000000"
    assert decimal_pair(1000000000015, 10 ** 13) == "0.100000000002"
    assert decimal_pair(0, 1) == "0"


@given(st.integers(-10**30, 10**30), st.integers(1, 10**30), st.integers(1, 10**20))
@example(0, 7, 3)
@example(1000000000005, 10**13, 6)  # a tie at the 13th significant digit
@example(2 * 10**15, 10**15, 10**20)  # an exact quotient: no trailing zeros
def test_pair_renderers_match_the_fraction_ones(n, d, g):
    # the figure renders unreduced pairs; the bytes are those of the reduced value
    value = F(n, d)
    assert format_pair(n * g, d * g) == format_rat(value)
    assert decimal_pair(n * g, d * g) == decimal_pair(value.numerator, value.denominator)


def test_poly_canonical_and_degree():
    assert Poly((1, 0, 0)).coeffs == (F(1),)
    assert ref.Poly(()).degree == -1
    assert Poly((0, 0)).is_zero()
    assert ref.Poly((1, 2, 1)).degree == 2


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_poly_divmod_roundtrip():
    a = ref.Poly((1, 0, 2, 3))
    b = ref.Poly((1, 1))
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_gcd_shared_factor():
    p = ref.Poly((1, 1))  # 1 + x
    a = p * ref.Poly((2, 0, 1))
    b = p * ref.Poly((-1, 1))
    assert poly_gcd(a, b) == p.monic()
    assert poly_gcd(Poly(()), b) == b.monic()


def test_ratfn_add_common_denominator():
    one_plus_x = ref.Poly((1, 1))
    f = ref.RatFn(Poly((1,)), one_plus_x) + ref.RatFn(Poly((0, 1)), one_plus_x)
    assert f == ref.RatFn.const(1)


def test_poly_mul_binomial():
    assert ref.Poly((1, 2)) * ref.Poly((1, 2)) == Poly((1, 4, 4))


def test_ratfn_division_reduces():
    # 2(1+x)^2 / (1+3x) is already in lowest terms
    f = RatFn((2, 4, 2), (1, 3))
    g = ref.RatFn(Poly((2, 4, 2))) / ref.RatFn(Poly((1, 3)))
    assert f == g
    assert f.eval(F(1, 2)) == F(2 * 9, 4) / F(5, 2)
    with pytest.raises(ZeroDivisionError):
        g / ref.RatFn.const(0)


def test_ratfn_cancels_common_factor():
    # (1+2x)^2 / (1+2x) collapses to 1+2x
    f = ref.RatFn(ref.Poly((1, 2)) ** 2, Poly((1, 2)))
    assert f == RatFn((1, 2), (1,))
    assert f.taylor_at_zero(1) == (F(1), F(2))


def test_derivative_quotient_rule():
    f = ref.RatFn(Poly((1,)), Poly((1, 2)))
    df = f.derivative()
    assert df == RatFn((-2,), (1, 4, 4))
    assert df.eval(0) == F(-2)
    assert f.derivative(0) == f


def test_derivative_past_degree_is_zero():
    f = ref.RatFn(ref.Poly((1, 1)) ** 4)
    assert f.derivative(5).is_zero()


def test_eval_examples_and_pole():
    assert RatFn((1,), (1, 1)).eval(1) == F(1, 2)
    assert RatFn((1, 3), (1, 2)).eval(F(1, 2)) == F(5, 4)
    assert RatFn((1,), (1,)).eval(F(7, 3)) == 1
    with pytest.raises(PoleError):
        RatFn((1,), (1, 1)).eval(-1)
    with pytest.raises(TypeError):
        RatFn((1,), (1,)).eval(0.5)


def test_eval_edge_cases_of_the_integer_form():
    f = ref.RatFn(Poly((F(1, 3), 2)), ref.Poly((1, 2)) * ref.Poly((1, F(-1, 5))))
    with pytest.raises(PoleError, match=r"pole at x = -1/2"):
        f.eval(F(-1, 2))
    with pytest.raises(PoleError, match=r"pole at x = 5"):
        f(5)
    with pytest.raises(TypeError):
        f.eval(0.25)
    assert f.eval(F(7, 3)) == f.num(F(7, 3)) / f.den(F(7, 3))
    # evaluation leaves the function as built: equal, same hash, immutable
    fresh = ref.RatFn(Poly((F(1, 3), 2)), ref.Poly((1, 2)) * ref.Poly((1, F(-1, 5))))
    assert f == fresh and hash(f) == hash(fresh)
    with pytest.raises(AttributeError):
        f._ints = ((1,), (1,))


@given(polys, polys, points)
@example(ref.Poly(()), ref.Poly((2, 1)), F(1, 3))  # zero numerator
@example(ref.Poly((F(-5, 7),)), ref.Poly((F(3, 4),)), F(-2, 5))  # constants
@example(ref.Poly((1, 1)), ref.Poly((F(1, 6),)), F(10 ** 30 + 1, 10 ** 31))
@settings(max_examples=200)
def test_eval_matches_fraction_horner(pn, pd, x0):
    if pd.is_zero():
        return
    f = ref.RatFn(pn, pd)
    if f.den(x0) == 0:
        with pytest.raises(PoleError):
            f.eval(x0)
    else:
        assert f.eval(x0) == f.num(x0) / f.den(x0)


nonzero_rats = rats.filter(bool)


@given(polys, polys, nonzero_rats, rats, nonzero_rats, points)
@settings(max_examples=50)
def test_canonical_integer_pair(pn, pd, k, h0, h1, x0):
    if pd.is_zero():
        return
    f = ref.RatFn(pn, pd)
    a, b = f._ints
    assert math.gcd(*a, *b) == 1 and b[-1] > 0
    for h in (ref.Poly.const(k), ref.Poly((h0, h1))):
        scaled = ref.RatFn(pn * h, pd * h)
        assert scaled == f and hash(scaled) == hash(f)
    # the gcd route ends in the package's integer-pair constructor
    again = RatFn(*f._ints)
    assert again == f and hash(again) == hash(f)
    assert f.den.leading() == 1
    if f.den(x0) == 0:
        with pytest.raises(PoleError):
            f.eval(x0)
    else:
        assert f.eval(x0) == f.num(x0) / f.den(x0)


def test_integer_pair_constructor():
    for m in range(41):
        d = d_ratfn(m)
        again = RatFn(*d._ints)
        assert again == d and hash(again) == hash(d)
    zero = RatFn((0, 0), (6, -4, 2))
    assert zero == RatFn((), (1,)) and zero._ints == ((), (1,))
    assert ref.lift(zero).is_zero() and hash(zero) == hash(RatFn((), (1,)))
    # trailing zeros go, the pair is divided by its content, den leads positive
    assert RatFn([2, 4, 0, 0], [-6, 0]) == RatFn((-1, -2), (3,))
    assert RatFn((2, 4, 0), (0, -6, 0))._ints == ((-1, -2), (0, 3))
    for den in ((), (0,), [0, 0]):
        with pytest.raises(ZeroDivisionError, match="^zero denominator polynomial$"):
            RatFn((1,), den)
    for a, b in (((F(1, 2),), (1,)), ((1,), (1.0,)), ((F(2),), (1,)), ((1, 0.0), (1,))):
        with pytest.raises(TypeError):
            RatFn(a, b)


small_ints = st.integers(-4, 4)
nonzero_ints = st.integers(1, 4).flatmap(lambda c: st.sampled_from([c, -c]))


@st.composite
def grid_functions(draw):
    """RatFns with small integer coefficients whose numerator degree is above,
    equal to or below the denominator's, or the zero function."""
    def int_poly(degree):
        if degree < 0:
            return ref.Poly()
        return ref.Poly(draw(st.lists(small_ints, min_size=degree, max_size=degree))
                    + [draw(nonzero_ints)])

    den_degree = draw(st.integers(0, 4))
    shift = draw(st.sampled_from([2, 1, 0, -1, -2, None]))  # None: zero function
    num_degree = -1 if shift is None else den_degree + shift
    return ref.RatFn(int_poly(num_degree), int_poly(den_degree))


@given(grid_functions(), st.fractions(-3, 3, max_denominator=12), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_eval_grid_matches_pointwise_eval(f, x_max, steps):
    # per-point evaluation is the oracle of the grid route
    try:
        expected = [f.eval(x_max * k / steps) for k in range(1, steps + 1)]
    except PoleError as exc:
        with pytest.raises(PoleError, match=f"^{re.escape(str(exc))}$"):
            ref.eval_grid(f, x_max, steps)
        return
    assert list(ref.eval_grid(f, x_max, steps)) == expected


def test_eval_grid_pole_and_floats():
    f = RatFn((1,), (-1, 3))  # 1/(3x - 1), a pole at the grid point 1/3
    with pytest.raises(PoleError, match=r"pole at x = 1/3"):
        ref.eval_grid(f, 1, 3)
    assert ref.eval_grid(f, 1, 2) == (F(2), F(1, 2))
    with pytest.raises(TypeError):
        ref.eval_grid(f, 0.5, 3)


def test_taylor_geometric_series():
    assert RatFn((1,), (1, -1)).taylor_at_zero(3) == (F(1),) * 4
    assert RatFn((1,), (1, 2)).taylor_at_zero(2) == (F(1), F(-2), F(4))
    with pytest.raises(PoleError):
        RatFn((1,), (0, 1)).taylor_at_zero(2)


@given(polys, polys, points)
def test_eval_homomorphism_add_mul(p, q, x0):
    assert (p + q)(x0) == p(x0) + q(x0)
    assert (p * q)(x0) == p(x0) * q(x0)


@given(polys, polys, polys, polys, points)
@settings(max_examples=60)
def test_ratfn_eval_homomorphism(pn, pd, qn, qd, x0):
    if pd.is_zero() or qd.is_zero() or pd(x0) == 0 or qd(x0) == 0:
        return
    f, g = ref.RatFn(pn, pd), ref.RatFn(qn, qd)
    assert (f + g).eval(x0) == f.eval(x0) + g.eval(x0)
    assert (f - g).eval(x0) == f.eval(x0) - g.eval(x0)
    assert (f * g).eval(x0) == f.eval(x0) * g.eval(x0)
    if not g.is_zero() and g.num(x0) != 0:
        assert (f / g).eval(x0) == f.eval(x0) / g.eval(x0)


@given(polys, polys, polys, polys)
@settings(max_examples=60)
def test_leibniz_product_rule(pn, pd, qn, qd):
    if pd.is_zero() or qd.is_zero():
        return
    f, g = ref.RatFn(pn, pd), ref.RatFn(qn, qd)
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(polys, polys, st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_taylor_matches_repeated_derivative(pn, pd, order):
    if pd.is_zero() or pd(0) == 0:
        return
    f = ref.RatFn(pn, pd)
    coeffs = f.taylor_at_zero(order)
    fact = 1
    for l in range(order + 1):
        if l:
            fact *= l
        assert coeffs[l] * fact == f.derivative(l).eval(0)


@given(polys, polys, polys, polys)
@settings(max_examples=60)
def test_canonical_equality_matches_pointwise(pn, pd, qn, qd):
    if pd.is_zero() or qd.is_zero():
        return
    f, g = ref.RatFn(pn, pd), ref.RatFn(qn, qd)
    span = f.num.degree + f.den.degree + g.num.degree + g.den.degree + 2
    samples = []
    k = 0
    while len(samples) < span:
        x0 = F(k)
        k += 1
        if f.den(x0) == 0 or g.den(x0) == 0:
            continue
        samples.append(f.eval(x0) == g.eval(x0))
    assert (f == g) == all(samples)


@given(st.lists(st.fractions(max_denominator=10**6), max_size=40))
@settings(max_examples=100)
def test_over_common_denominator_is_the_plain_lcm(values):
    numerators, lcm = over_common_denominator(values)
    assert lcm == math.lcm(*(v.denominator for v in values))
    assert [F(n, lcm) for n in numerators] == values
