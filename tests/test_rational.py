import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitdual.rational import (
    PoleError,
    Poly,
    RatFn,
    decimal_str,
    format_rat,
    parse_rat,
    poly_gcd,
)

rats = st.fractions(min_value=-3, max_value=3, max_denominator=8)
polys = st.lists(rats, max_size=7).map(Poly)
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


def test_decimal_str_half_even_deterministic():
    assert decimal_str(F(1, 3)) == decimal_str(F(1, 3))
    assert decimal_str(F(1, 2), digits=3) == "0.5"
    assert decimal_str(F(0)) == "0"


def test_poly_canonical_and_degree():
    assert Poly((1, 0, 0)).coeffs == (F(1),)
    assert Poly(()).degree == -1
    assert Poly((0, 0)).is_zero()
    assert Poly((1, 2, 1)).degree == 2


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_poly_divmod_roundtrip():
    a = Poly((1, 0, 2, 3))
    b = Poly((1, 1))
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_gcd_shared_factor():
    p = Poly((1, 1))  # 1 + x
    a = p * Poly((2, 0, 1))
    b = p * Poly((-1, 1))
    assert poly_gcd(a, b) == p.monic()
    assert poly_gcd(Poly(()), b) == b.monic()


def test_ratfn_add_common_denominator():
    one_plus_x = Poly((1, 1))
    f = RatFn(Poly((1,)), one_plus_x) + RatFn(Poly((0, 1)), one_plus_x)
    assert f == RatFn.const(1)


def test_poly_mul_binomial():
    assert Poly((1, 2)) * Poly((1, 2)) == Poly((1, 4, 4))


def test_ratfn_division_reduces():
    # 2(1+x)^2 / (1+3x) is already in lowest terms
    f = RatFn(Poly((2, 4, 2)), Poly((1, 3)))
    g = RatFn(Poly((2, 4, 2))) / RatFn(Poly((1, 3)))
    assert f == g
    assert f.eval(F(1, 2)) == F(2 * 9, 4) / F(5, 2)
    with pytest.raises(ZeroDivisionError):
        f / RatFn.const(0)


def test_ratfn_cancels_common_factor():
    # (1+2x)^2 / (1+2x) collapses to 1+2x
    f = RatFn(Poly((1, 2)) ** 2, Poly((1, 2)))
    assert f == RatFn(Poly((1, 2)))
    assert f.taylor_at_zero(1) == (F(1), F(2))


def test_derivative_quotient_rule():
    f = RatFn(Poly((1,)), Poly((1, 2)))
    df = f.derivative()
    assert df == RatFn(Poly((-2,)), Poly((1, 2)) ** 2)
    assert df.eval(0) == F(-2)
    assert f.derivative(0) == f


def test_derivative_past_degree_is_zero():
    f = RatFn(Poly((1, 1)) ** 4)
    assert f.derivative(5).is_zero()


def test_eval_examples_and_pole():
    assert RatFn(Poly((1,)), Poly((1, 1))).eval(1) == F(1, 2)
    assert RatFn(Poly((1, 3)), Poly((1, 2))).eval(F(1, 2)) == F(5, 4)
    assert RatFn.const(1).eval(F(7, 3)) == 1
    with pytest.raises(PoleError):
        RatFn(Poly((1,)), Poly((1, 1))).eval(-1)
    with pytest.raises(TypeError):
        RatFn.const(1).eval(0.5)


def test_eval_edge_cases_of_the_integer_form():
    f = RatFn(Poly((F(1, 3), 2)), Poly((1, 2)) * Poly((1, F(-1, 5))))
    with pytest.raises(PoleError, match=r"pole at x = -1/2"):
        f.eval(F(-1, 2))
    with pytest.raises(PoleError, match=r"pole at x = 5"):
        f(5)
    with pytest.raises(TypeError):
        f.eval(0.25)
    assert f.eval(F(7, 3)) == f.num(F(7, 3)) / f.den(F(7, 3))
    # evaluation leaves the function as built: equal, same hash, immutable
    fresh = RatFn(Poly((F(1, 3), 2)), Poly((1, 2)) * Poly((1, F(-1, 5))))
    assert f == fresh and hash(f) == hash(fresh)
    with pytest.raises(AttributeError):
        f._ints = ((1,), (1,))


@given(polys, polys, points)
@example(Poly(()), Poly((2, 1)), F(1, 3))  # zero numerator
@example(Poly((F(-5, 7),)), Poly((F(3, 4),)), F(-2, 5))  # constants
@example(Poly((1, 1)), Poly((F(1, 6),)), F(10 ** 30 + 1, 10 ** 31))
@settings(max_examples=200)
def test_eval_matches_fraction_horner(pn, pd, x0):
    if pd.is_zero():
        return
    f = RatFn(pn, pd)
    if f.den(x0) == 0:
        with pytest.raises(PoleError):
            f.eval(x0)
    else:
        assert f.eval(x0) == f.num(x0) / f.den(x0)


def test_taylor_geometric_series():
    assert RatFn(Poly((1,)), Poly((1, -1))).taylor_at_zero(3) == (F(1),) * 4
    assert RatFn(Poly((1,)), Poly((1, 2))).taylor_at_zero(2) == (F(1), F(-2), F(4))
    with pytest.raises(PoleError):
        RatFn(Poly((1,)), Poly((0, 1))).taylor_at_zero(2)


@given(polys, polys, points)
def test_eval_homomorphism_add_mul(p, q, x0):
    assert (p + q)(x0) == p(x0) + q(x0)
    assert (p * q)(x0) == p(x0) * q(x0)


@given(polys, polys, polys, polys, points)
@settings(max_examples=60)
def test_ratfn_eval_homomorphism(pn, pd, qn, qd, x0):
    if pd.is_zero() or qd.is_zero() or pd(x0) == 0 or qd(x0) == 0:
        return
    f, g = RatFn(pn, pd), RatFn(qn, qd)
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
    f, g = RatFn(pn, pd), RatFn(qn, qd)
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(polys, polys, st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_taylor_matches_repeated_derivative(pn, pd, order):
    if pd.is_zero() or pd(0) == 0:
        return
    f = RatFn(pn, pd)
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
    f, g = RatFn(pn, pd), RatFn(qn, qd)
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
