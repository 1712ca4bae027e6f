import contextlib
import io
import math
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual import family
from circuitdual.cli import MAX_M, main
from circuitdual.family import (
    FIGURE_MS,
    FamilyParam,
    _d_at,
    _omega_terms,
    counterexample_verdict,
    d_ratfn,
    d_taylor,
    family_weights,
    figure_pairs,
    figure_rows,
    omega_eval,
    s_closed_form,
    s_derivatives_at_zero,
    sign_scan,
)
from circuitdual.operators import (
    ConstantTail,
    SquaredWeights,
    dual_moment_fiber0,
    dual_weights,
    h_of,
    two_isometry_check,
)
from circuitdual.oracle import gram_diagonal
from circuitdual.rational import MAX_LITERAL, PoleError, RatFn, _homogeneous, format_rat
from ref_rational import (
    domain_min,
    eval_grid,
    lift,
    omega_bracket_at_zero,
    omega_deriv_leibniz,
    omega_ratfn,
    ref_counterexample_verdict,
    ref_d,
    ref_d_table,
    ref_d_taylor,
    ref_d_trial,
    ref_omega,
    ref_omega_prefix,
    ref_s,
    s_ratfn,
)


def test_family_weights_boundary_is_isometry():
    w = family_weights(FamilyParam(F(0)))
    assert w.prefix(6) == (F(1, 2), F(1, 2), F(1), F(1), F(1), F(1))
    assert all(h_of(w, n) == 1 for n in range(20))


def test_family_weights_tail_closed_form():
    w = family_weights(FamilyParam(F(1, 2)))
    assert w.sq(2) == F(5, 4)
    assert w.sq(3) == F(6, 5)
    assert w.sq(4) == F(7, 6)
    x = F(3, 11)
    w = family_weights(FamilyParam(x))
    for n in range(2, 12):
        assert w.sq(n) == (1 + (n + 1) * x) / (1 + n * x)


def test_family_weights_always_two_isometric():
    for x in (F(0), F(1, 100), F(1, 10), F(1, 2), F(2)):
        w = family_weights(FamilyParam(x))
        assert all(r == 0 for r in two_isometry_check(w, 12))


def test_family_param_rejects_negative():
    with pytest.raises(ValueError):
        FamilyParam(F(-1, 10))


def test_omega_eval_small_indices():
    p = FamilyParam(F(2, 7))
    assert omega_eval(0, p) == 1
    assert omega_eval(1, p) == 1 / (1 + p.x)
    assert all(omega_eval(n, FamilyParam(F(0))) == 1 for n in range(10))


def _omega_per_n_sum(n, x):
    # omega_n with S_n summed afresh, the route the running sums replaced;
    # kept as their oracle
    total = F(0)
    for j in range(n):
        total += F(2) ** j * (1 + x) ** (2 * j) / (1 + (j + 2) * x)
    return (1 + (1 + 2 * x) ** 2 * total) / (F(2) ** n * (1 + x) ** (2 * n))


@pytest.mark.parametrize("x", [F(0), F(1, 500), F(37, 101), F(1), F(10 ** 6)])
def test_omega_prefix_matches_per_n_sum(x):
    p = FamilyParam(x)
    prefix = tuple(F(*t) for t in _omega_terms(40, p))
    assert prefix == tuple(_omega_per_n_sum(n, x) for n in range(41))
    assert all(omega_eval(n, p) == prefix[n] for n in (0, 1, 17, 40))
    assert _omega_terms(0, p) == ((1, 1),)
    with pytest.raises(ValueError, match="nonnegative"):
        _omega_terms(-1, p)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 6),
    st.integers(0, 40),
)
def test_omega_prefix_matches_the_fraction_route(x, horizon):
    terms = _omega_terms(horizon, FamilyParam(x))
    assert tuple(F(*t) for t in terms) == ref_omega_prefix(horizon, x)
    # the known common denominator: every B^n P_n is positive and divides B^H P_H
    assert all(d > 0 and terms[-1][1] % d == 0 for _, d in terms)


def test_symbolics_conventions_and_table():
    assert s_ratfn(0) == RatFn((), (1,))
    assert omega_ratfn(0).eval(F(1, 3)) == 1
    assert [s_ratfn(n).eval(0) for n in range(7)] == [0, 1, 3, 7, 15, 31, 63]
    assert d_ratfn(0).eval(F(2, 5)) == 1
    for m in range(1, 7):
        assert d_ratfn(m).eval(0) == 0


def test_symbolic_d_matches_direct_evaluation():
    rng = random.Random(808)
    for m in (2, 4, 5):
        f = d_ratfn(m)
        for _ in range(20):
            x = F(rng.randint(0, 600), 300)
            p = FamilyParam(x)
            direct = sum(
                F((-1) ** n * math.comb(m, n)) * omega_eval(n, p)
                for n in range(m + 1)
            )
            assert f.eval(x) == direct


def test_omega_symbolic_matches_direct():
    rng = random.Random(505)
    for n in (0, 1, 3, 6):
        f = omega_ratfn(n)
        for _ in range(10):
            x = F(rng.randint(0, 400), 200)
            assert f.eval(x) == omega_eval(n, FamilyParam(x))


def test_d_taylor_values():
    assert d_taylor(5, 4) == (F(0), F(0), F(0), F(0), F(-9))
    assert d_taylor(6, 4)[4] == F(-9, 2)
    # at m = 4 the fourth derivative is positive (558), so no sign witness
    m4 = d_taylor(4, 4)
    assert m4[:4] == (F(0),) * 4
    assert m4[4] == F(558)


def test_d_derivatives_vanish_to_order_three():
    for m in range(4, 31):
        assert d_taylor(m, 3) == (F(0),) * 4


def test_d_fourth_derivative_law():
    for m in range(5, 31):
        assert d_taylor(m, 4)[4] == F(-288) / 2 ** m


def test_d_taylor_matches_rational_series_division():
    # the whole D_m, built from the S_n P_m table and expanded by
    # RatFn.taylor_at_zero, the route the truncated integer series replaced,
    # kept as its oracle independently of the recurrence both package
    # routes share
    for m in range(31):
        for k in (0, 1, 4, 8, 12):
            coeffs = ref_d_table(m).taylor_at_zero(k)
            assert d_taylor(m, k) == tuple(
                c * math.factorial(l) for l, c in enumerate(coeffs)
            )


def test_d_ratfn_matches_table_build():
    for m in range(41):
        assert d_ratfn(m) == ref_d_table(m)


def test_d_taylor_matches_s_series_route():
    for m in range(41):
        for k in (0, 1, 4, 8, 12):
            assert d_taylor(m, k) == ref_d_taylor(m, k)


def _d_one_positive_term(m, x):
    # D_m = q^m - (c/r) sum_{k<m} q^(m-1-k) beta_k with r = 2(1+x)^2,
    # q = 1 - 1/r, c = (1+2x)^2/x and beta_k = k! x^(k+1) / P_{k+1}(x)
    r = 2 * (1 + x) ** 2
    q, c = 1 - 1 / r, (1 + 2 * x) ** 2 / x
    total, beta = F(0), x / (1 + 2 * x)  # beta_0
    for k in range(m):
        total = q * total + beta
        beta *= (k + 1) * x / (1 + (k + 3) * x)
    return q**m - c / r * total


@settings(max_examples=40, deadline=None)
@given(
    x=st.fractions(min_value=F(1, 1000), max_value=10, max_denominator=1000),
    m=st.integers(0, 40),
)
def test_d_one_positive_term_identity(x, m):
    # the identity the numerator recurrence comes from, against the package's
    # D_m and against the m-th differences of the dual moments
    expected = _d_one_positive_term(m, x)
    assert d_ratfn(m)(x) == expected
    row = [F(*t) for t in _omega_terms(m, FamilyParam(x))]
    for _ in range(m):
        row = [a - b for a, b in zip(row, row[1:])]
    assert row == [expected]


def test_s_derivatives_match_rational_series_division():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # orders beyond the table warn
        for n in range(13):
            coeffs = s_ratfn(n).taylor_at_zero(8)
            for l in range(9):
                assert s_derivatives_at_zero(n, l) == coeffs[l] * math.factorial(l)


def test_taylor_rejects_negative_index_and_order():
    with pytest.raises(ValueError, match="^index must be nonnegative$"):
        d_taylor(-1, 4)
    with pytest.raises(ValueError, match="^index must be nonnegative$"):
        d_taylor(-1, -1)
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        d_taylor(5, -1)
    with pytest.raises(ValueError, match="^index and order must be nonnegative$"):
        s_derivatives_at_zero(-1, 2)
    with pytest.raises(ValueError, match="^index and order must be nonnegative$"):
        s_derivatives_at_zero(2, -1)


def test_builders_match_gcd_route():
    for n in range(13):
        assert s_ratfn(n) == ref_s(n)
        assert omega_ratfn(n) == ref_omega(n)
        assert d_ratfn(n) == ref_d(n)


def test_d_denominator_degree():
    # exactly (1+x)(1+2x) cancels from L_m, up to the --m cap; the trial
    # divisions of the unreduced numerator find the same lowest terms
    for m in [*range(2, 31), 60, 100]:
        assert len(d_ratfn(m).den.coeffs) - 1 == 3 * m - 2
        assert d_ratfn(m) == ref_d_trial(m)


def test_s_derivatives_against_closed_forms():
    for n in range(9):
        for l in range(5):
            assert s_derivatives_at_zero(n, l) == s_closed_form(n, l)
    assert s_derivatives_at_zero(1, 1) == F(-2)
    assert s_derivatives_at_zero(0, 3) == 0
    assert s_derivatives_at_zero(3, 0) == 7


def test_s_derivatives_beyond_table_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = s_derivatives_at_zero(2, 5)
    assert any("beyond" in str(w.message) for w in caught)
    assert value == lift(s_ratfn(2)).derivative(5).eval(0)
    with pytest.raises(ValueError):
        s_closed_form(2, 5)


def test_omega_derivatives_leibniz_assembly():
    for n in range(7):
        for l in range(5):
            symbolic = omega_ratfn(n).taylor_at_zero(l)[l] * math.factorial(l)
            assert symbolic == omega_deriv_leibniz(n, l)


def _difference_degree(values):
    row = list(values)
    degree = -1
    level = 0
    while row and any(v != 0 for v in row):
        degree = level
        row = [b - a for a, b in zip(row, row[1:])]
        level += 1
    return degree


def test_bracket_degree_structure():
    samples = range(9)
    for i, expected in ((0, 0), (1, 1), (2, 2), (3, 3)):
        values = [omega_bracket_at_zero(i, n) for n in samples]
        assert _difference_degree(values) == expected
    # at i = 4 the bracket is a degree-4 polynomial plus -288/2^n
    shifted = [omega_bracket_at_zero(4, n) + F(288) / 2 ** n for n in samples]
    assert _difference_degree(shifted) == 4


def test_sign_scan_m5_short_window():
    # D_5 is negative only up to its first positive zero near 0.0034, so on
    # the grid k/1000 only the first three samples are negative.
    report = sign_scan(5, F(1, 10), 100)
    assert report.negative_prefix == 3
    assert report.negative_prefix != report.steps
    assert report.first_nonnegative == F(4, 1000)
    lo, hi = report.bracket
    assert F(3, 1000) <= lo < hi <= F(4, 1000)
    assert hi - lo <= F(1, 10) / 1024
    f = d_ratfn(5)
    assert f.eval(lo) < 0 <= f.eval(hi)


def test_sign_scan_m5_inside_window_all_negative():
    report = sign_scan(5, F(3, 1000), 30)
    assert report.negative_prefix == report.steps
    assert report.bracket is None
    assert report.first_nonnegative is None


def test_sign_scan_m4_nonnegative():
    report = sign_scan(4, F(1, 10), 100)
    assert report.negative_prefix == 0
    assert all(s >= 0 for s in report.signs)
    assert report.bracket is None


def test_sign_scan_m0_constant_one():
    report = sign_scan(0, F(1, 2), 10)
    assert all(s == 1 for s in report.signs)
    assert all(v == 1 for v in eval_grid(d_ratfn(0), F(1, 2), 10))


@pytest.mark.parametrize("m", range(101))
def test_d_denominator_coefficients_are_positive(m):
    # so D_m's denominator is positive for x > 0, and sign_scan reads the
    # sign of D_m from its numerator alone
    den = d_ratfn(m)._ints[1]
    assert len(den) == (3 * m - 1 if m else 1)
    assert all(c > 0 for c in den)


def _variations(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


@pytest.mark.parametrize("m", range(MAX_M + 1))
def test_d_numerator_has_at_most_one_sign_variation(m):
    # the certificate sign_scan rests on, for every m the CLI accepts
    assert _variations(d_ratfn(m).int_numerator) <= 1


def _scan_by_values(f, x_max, steps):
    """Signs and bracket from the values of f, the route sign_scan replaced."""
    values = eval_grid(f, x_max, steps)
    signs = tuple([-1 if v < 0 else (0 if v == 0 else 1) for v in values])
    prefix = next((k for k, s in enumerate(signs) if s >= 0), steps)
    if not 1 <= prefix < steps:
        return signs, None
    lo, hi = x_max * prefix / steps, x_max * (prefix + 1) / steps
    while hi - lo > x_max / 1024:
        mid = (lo + hi) / 2
        if f.eval(mid) < 0:
            lo = mid
        else:
            hi = mid
    return signs, (lo, hi)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(1, 30),
    st.integers(1, 60),
    st.one_of(st.integers(1, 200), st.sampled_from([512, 513, 1023, 1024, 1025, 2000])),
)
def test_sign_scan_matches_the_values_route(m, p, q, steps):
    report = sign_scan(m, F(p, q), steps)
    assert (report.signs, report.bracket) == _scan_by_values(d_ratfn(m), F(p, q), steps)


@pytest.mark.parametrize("num, signs", [
    ((-1, 2), "-0++"),   # one variation, the zero 1/2 on the grid
    ((1, -3), "+---"),   # positive up to 1/3, then negative
    ((-1, 0, 5), "-+++"),  # an irrational zero between grid points
    ((-10, 1), "----"),  # one variation, the zero past the grid
    ((-3, 8), "-+++"),   # the zero 3/8 on the bracket's first midpoint
    ((3, 1), "++++"),    # no variation: no positive zero
    ((), "0000"),        # the zero function
])
def test_scan_of_a_patched_d_follows_the_values_route(monkeypatch, capsys, num, signs):
    f = RatFn(num, (1, 1))
    monkeypatch.setattr(family, "d_ratfn", lambda m: f)
    report = sign_scan(5, F(1), 4)
    assert (report.signs, report.bracket) == _scan_by_values(f, F(1), 4)
    assert main(["family", "scan", "--m", "5", "--xmax", "1", "--steps", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "signs: " + signs


def test_sign_scan_refuses_two_variations(monkeypatch):
    # (x - 1)(x - 2): the grid's signs are +, -, + and no binary search holds
    monkeypatch.setattr(family, "d_ratfn", lambda m: RatFn((2, -3, 1), (1,)))
    with pytest.raises(ValueError, match="2 sign variations"):
        sign_scan(5, F(3), 6)


@pytest.mark.parametrize("m, x_max, steps", [
    (12, F(3, 5), 60), (6, F(1, 10), 1), (5, F(1, 100), 7), (100, F(3, 5), 10000),
    (9, F(1, 2), 1024), (9, F(1, 2), 1025), (4, F(1, 10), 100),
])
def test_sign_scan_probes_a_logarithmic_number_of_points(monkeypatch, m, x_max, steps):
    probes = []
    original = family._homogeneous

    def counting(coeffs, p, q):
        probes.append(q)
        return original(coeffs, p, q)

    monkeypatch.setattr(family, "_homogeneous", counting)
    report = sign_scan(m, x_max, steps)
    big_q = x_max.denominator * steps
    grid = sum(1 for q in probes if q == big_q)
    assert grid <= math.ceil(math.log2(steps + 1)) + 1
    midpoints = len(probes) - grid
    shrink = max(0, math.ceil(math.log2(family.BRACKET_SHRINK / steps)))
    assert midpoints == (shrink if report.bracket is not None else 0)


def test_family_entry_points_refuse_floats():
    for call in (
        lambda: sign_scan(5, 0.1, 4),
        lambda: figure_rows(0.5, 4),
        lambda: figure_pairs(0.5, 4),
        lambda: d_ratfn(5)(0.1),
        lambda: FamilyParam(0.1),
    ):
        with pytest.raises(TypeError, match="floats are not allowed on the exact path"):
            call()
    assert sign_scan(5, 1, 4) == sign_scan(5, F(1), 4)
    assert d_ratfn(5)(1) == d_ratfn(5)(F(1))
    assert FamilyParam(1) == FamilyParam(F(1))


def test_d_on_its_domain():
    assert d_ratfn(3)(F(-1, 8)) == sum(
        F((-1) ** n * math.comb(3, n)) * omega_ratfn(n).eval(F(-1, 8))
        for n in range(4)
    )
    assert domain_min(3) == F(-1, 4)
    with pytest.raises(PoleError):  # the end of the domain is a pole of D_3
        d_ratfn(3)(F(-1, 4))


def test_identity_chain():
    for x in (F(0), F(1, 100), F(1, 10), F(1, 2), F(1)):
        p = FamilyParam(x)
        w = family_weights(p)
        dual = dual_weights(w)
        for n in range(11):
            direct = omega_eval(n, p)
            assert direct == dual_moment_fiber0(w, n)
            assert direct == gram_diagonal(dual, 0, n)


def test_counterexample_confirmed_inside_window():
    verdict = counterexample_verdict(FamilyParam(F(1, 500)))
    assert verdict.confirmed
    assert verdict.hausdorff.witness == (5, 0)
    assert verdict.residuals_all_zero
    assert verdict.closed_form_agrees
    assert "counterexample confirmed" in verdict.render()


ROUTES = ["_powers", "fiber0_moments", "_omega_terms"]


def _change_one_pair(monkeypatch, route, index, change):
    # the route's pair at n = index replaced by change(n, d), in the
    # route's own container type
    original = getattr(family, route)

    def changed(*args):
        values = original(*args)
        return type(values)([*values[:index], change(*values[index]), *values[index + 1:]])

    monkeypatch.setattr(family, route, changed)


@pytest.mark.parametrize("route", ROUTES)
def test_verdict_catches_a_route_off_by_one_over_its_denominator(monkeypatch, capsys, route):
    # the routes are compared crosswise as the pairs come: one value moved
    # by 1/den at any n must disagree
    for index in range(13):
        with monkeypatch.context() as patch:
            _change_one_pair(patch, route, index, lambda n, d: (n + 1, d))
            assert main(["family", "verdict", "--x", "1/500"]) == 1
        out = capsys.readouterr().out
        assert "\nmoment_routes_agree = false (n <= 12)\n" in out
        assert out.endswith("\nverdict = not confirmed\n")


@pytest.mark.parametrize("route", ROUTES)
def test_verdict_routes_agree_on_pairs_scaled_by_a_common_factor(monkeypatch, route):
    # the comparison reads values, not pairs: any pair of any route times a
    # common factor still agrees
    for index in range(13):
        for factor in (2, 3 ** 40):
            with monkeypatch.context() as patch:
                _change_one_pair(patch, route, index, lambda n, d: (n * factor, d * factor))
                assert counterexample_verdict(FamilyParam(F(1, 500))).closed_form_agrees


_WIDE = st.integers(10 ** 19, 10 ** 25)


@settings(max_examples=40, deadline=None)
@given(
    x=st.one_of(
        st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6, max_denominator=10 ** 6),
        st.builds(F, st.integers(10 ** 19, 10 ** 21 - 1)),  # at the literal cap
        st.builds(F, st.just(1), st.integers(10 ** 18, 10 ** 19 - 1)),
        st.builds(F, _WIDE, _WIDE),  # past the cap: the library call only
    ),
    horizon=st.integers(0, 40),
    data=st.data(),
)
def test_verdict_matches_the_fraction_route(x, horizon, data):
    # the verdict on omega's known common denominator against the route it
    # replaced: omega as Fractions, its table over their lcm, reduced pairs
    depth = data.draw(st.integers(1, max(horizon, 1)))
    p = FamilyParam(x)
    want = ref_counterexample_verdict(p, depth, horizon)
    got = counterexample_verdict(p, depth, horizon)
    assert (got.render(), got.confirmed) == (want.render(), want.confirmed)
    if len(format_rat(x)) <= MAX_LITERAL:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["family", "verdict", "--x", format_rat(x),
                         "--horizon", str(horizon), "--depth", str(depth)])
        assert (out.getvalue(), code) == (want.render() + "\n", 0 if want.confirmed else 1)


def test_counterexample_outside_window_needs_deeper_test():
    shallow = counterexample_verdict(FamilyParam(F(1, 10)))
    assert not shallow.confirmed
    assert shallow.hausdorff.passed  # no violation up to depth 5 at x = 1/10
    deep = counterexample_verdict(FamilyParam(F(1, 10)), depth=9)
    assert deep.confirmed
    assert deep.hausdorff.witness == (9, 0)


def test_verdict_decides_2_isometry_below_the_first_nonzero_residual(monkeypatch):
    # a ones tail after four xi entries: residuals 0..2 vanish, the first
    # nonzero one is -1/6 at n = 3, so no --residual-depth may confirm it
    late = SquaredWeights((F(1, 2), F(1), F(5, 4), F(6, 5), F(7, 6)), ConstantTail(1))
    monkeypatch.setattr(family, "family_weights", lambda p: late)
    verdict = counterexample_verdict(FamilyParam(F(1, 7)), residual_depth=2)
    assert verdict.report.two_isometry_residuals[3] == F(-1, 6)
    assert verdict.residuals_all_zero is False
    assert verdict.confirmed is False
    assert "two_isometry_residuals = NONZERO (depth 2)" in verdict.render()


def test_counterexample_rejects_boundary():
    with pytest.raises(ValueError, match="isometry"):
        counterexample_verdict(FamilyParam(F(0)))


@pytest.mark.parametrize("m", range(15))
def test_eval_grid_of_d_matches_pointwise(m):
    # the scan-warm grid shapes: x_max = p/19 in [1/10, 3/5], steps 60..145
    f = d_ratfn(m)
    for i, steps in enumerate(range(60, 150, 5)):
        x_max = F(2 + i % 10, 19)
        expected = [f.eval(x_max * k / steps) for k in range(1, steps + 1)]
        assert list(eval_grid(f, x_max, steps)) == expected


@pytest.mark.parametrize("x_max, steps", [(F(3, 5), 120), (F(2, 19), 7), (F(7), 1)])
def test_figure_pairs_reduce_to_the_grid_values(x_max, steps):
    pairs = figure_pairs(x_max, steps)
    columns = [eval_grid(d_ratfn(m), x_max, steps) for m in FIGURE_MS]
    expected = [(x_max * k / steps, row) for k, row in enumerate(zip(*columns), 1)]
    assert figure_rows(x_max, steps) == expected
    assert all(d > 0 for x, row in pairs for _, d in (x, *row))


_DIGITS_21 = st.one_of(st.integers(1, 1000), st.integers(10 ** 20, 10 ** 21 - 1))


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.just(0), _DIGITS_21), _DIGITS_21)
def test_d_at_matches_the_homogeneous_pair(a, b):
    # the pair _d_at carries at x = a/b is b^(3m-2) (M_m, den_m) exactly;
    # d_ratfn stores it divided by its content 2^m / den_m(0)
    pairs = _d_at(a, b, 30)
    assert pairs[0] == (1, 1)
    for m in range(1, 31):
        num, den = d_ratfn(m)._ints
        n = _homogeneous(num, a, b) * b ** (len(den) - len(num))
        d = _homogeneous(den, a, b)
        assert F(*pairs[m]) == F(n, d)
        assert pairs[m][1] > 0
        assert (pairs[m][0] * den[0], pairs[m][1] * den[0]) == (2 ** m * n, 2 ** m * d)


@settings(max_examples=30, deadline=None)
@given(_DIGITS_21, _DIGITS_21, st.integers(1, 300))
def test_figure_pairs_match_the_grid_horner_route(p, q, steps):
    x_max = F(p, q)
    pairs = figure_pairs(x_max, steps)
    columns = [eval_grid(d_ratfn(m), x_max, steps) for m in FIGURE_MS]
    assert [tuple([F(*v) for v in row]) for _, row in pairs] == list(zip(*columns))
    assert all(d > 0 for _, row in pairs for _, d in row)


def test_figure_builds_no_rational_function(monkeypatch):
    # so the check against eval_grid compares two independent routes
    want = figure_pairs(F(10, 19), 130)

    def refuse(*args):
        raise AssertionError("figure_pairs built or evaluated a RatFn")

    monkeypatch.setattr(family, "d_ratfn", refuse)
    monkeypatch.setattr(RatFn, "__init__", refuse)
    monkeypatch.setattr(RatFn, "eval", refuse)
    assert figure_pairs(F(10, 19), 130) == want


def test_scan_reads_signs_without_evaluating_d(monkeypatch):
    calls = []
    original = RatFn.eval

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(RatFn, "eval", counting)
    assert len(figure_rows(F(3, 5), 120)) == 120
    assert calls == []

    def refuse(*args):
        raise AssertionError("sign_scan evaluated D_m")

    monkeypatch.setattr(RatFn, "eval", refuse)
    monkeypatch.setattr(family, "_d_at", refuse)
    report = sign_scan(12, F(3, 5), 60)
    assert report.bracket == (F(647, 3200), F(81, 400))
    assert sign_scan(4, F(1, 10), 100).bracket is None


def test_figure_rows_shape_and_determinism():
    rows = figure_rows(F(1, 5), 10)
    assert len(rows) == 10
    assert rows[-1][0] == F(1, 5)
    assert all(len(values) == 3 for _, values in rows)
    assert rows == figure_rows(F(1, 5), 10)


@pytest.mark.parametrize("m", range(13))
def test_eval_matches_fraction_horner(m):
    # a Fraction Horner pass over the num/den views is the reference for
    # RatFn.eval; the gcd route rebuilds the same integer pair
    lo = domain_min(m)
    xs = [lo / 2, lo / 7, F(-1, 10 ** 9), F(0), F(1, 10 ** 9), F(1, 500), F(3, 5),
          F(7, 2), F(10 ** 30 + 1, 10 ** 31), lo * F(10 ** 30 - 1, 10 ** 30)]
    for f in (d_ratfn(m), omega_ratfn(m), s_ratfn(m)):
        fresh = lift(f)
        assert f == fresh and hash(f) == hash(fresh)
        for x in xs:
            assert f.eval(x) == fresh.num(x) / fresh.den(x)
