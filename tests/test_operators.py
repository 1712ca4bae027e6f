import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitdual import operators, oracle
from circuitdual.family import FamilyParam, family_weights
from circuitdual.operators import (
    ConstantTail,
    ReciprocalXiTail,
    SquaredWeights,
    XiTail,
    construct_2isometry,
    dual_moment_fiber0,
    dual_weights,
    fiber0_moments,
    h_of,
    is_two_isometric,
    operator_report,
    two_isometry_check,
)
from ref_oracle import _powers as forward_powers
from ref_oracle import (
    dual_moment_fiberk,
    prefix,
    reduced_adjoint_powers,
    ref_construct_2isometry,
    ref_dual_weights,
    ref_operator_report,
    ref_two_isometry_check,
    tail_bounds,
    two_isometric_fiber0,
)
from ref_rational import (
    ref_cyclic_sufficient,
    ref_is_two_isometric,
    ref_tail_inf,
    ref_tail_sup,
)
from test_oracle import ONES, tailed_weights

small_rats = st.fractions(min_value=0, max_value=3, max_denominator=10)


def isometry_weights():
    return SquaredWeights((F(1), F(0)), ConstantTail(1))


def test_xi_sq_examples():
    def xi(n, s):
        return SquaredWeights((F(1), F(1)), XiTail(s)).sq(n + 2)

    assert xi(0, F(7, 3)) == F(7, 3)
    assert xi(12, F(1)) == 1
    assert xi(1, F(2)) == F(3, 2)
    with pytest.raises(ValueError):
        XiTail(F(1, 2))


EXACT_ENTRY_POINTS = {
    # name: (build from one number, an accepted int, an accepted Fraction,
    #        an out-of-range int or None, its ValueError message)
    "ConstantTail": (ConstantTail, 2, F(1, 2), -1, "squared weights are nonnegative"),
    "XiTail": (XiTail, 1, F(5, 4), 0, "xi tails require w2sq >= 1"),
    "ReciprocalXiTail": (
        ReciprocalXiTail, 1, F(5, 4), 0, "reciprocal xi tails require w2sq >= 1"),
    "SquaredWeights head": (
        lambda v: SquaredWeights((v, F(1)), ConstantTail(1)),
        0, F(1, 2), -1, "squared weights are nonnegative"),
    "construct_2isometry sq0": (
        lambda v: construct_2isometry(v, F(1, 2)),
        1, F(1, 2), -1, "squared weights are nonnegative"),
    "construct_2isometry sq1": (
        lambda v: construct_2isometry(1, v),
        1, F(1, 2), -1, "squared weights are nonnegative"),
}


@pytest.mark.parametrize("name", EXACT_ENTRY_POINTS)
def test_exact_entry_points_refuse_floats(name):
    build, as_int, as_fraction, bad_int, message = EXACT_ENTRY_POINTS[name]
    with pytest.raises(TypeError, match="floats are not allowed on the exact path"):
        build(float(as_fraction))
    assert build(as_int) == build(F(as_int))
    build(as_fraction)
    if bad_int is not None:
        with pytest.raises(ValueError, match=message):
            build(bad_int)


def test_weights_materialization():
    w = SquaredWeights((F(1, 2), F(1)), XiTail(F(5, 4)))
    assert w.sq(2) == F(5, 4)
    assert w.sq(3) == F(6, 5)
    assert prefix(w, 3) == (F(1, 2), F(1), F(5, 4))
    assert w.alpha == F(3, 2)


def test_weights_validation():
    with pytest.raises(ValueError):
        SquaredWeights((F(-1), F(1)), ConstantTail(1))
    with pytest.raises(ValueError):
        SquaredWeights((F(1),), XiTail(F(2)))  # xi tails need two head entries
    with pytest.raises(ValueError):
        # head entry at index 2 must match the xi rule
        SquaredWeights((F(1), F(1), F(3)), XiTail(F(2)))


def test_h_of_examples():
    assert h_of(ONES, 0) == 2
    assert h_of(ONES, 5) == 1
    x = F(3, 7)
    assert h_of(family_weights(FamilyParam(x)), 0) == 1 + x


def test_operator_report_all_ones():
    report = operator_report(ONES)
    assert report.norm_sq == 2
    assert report.lower_bound_sq == 1
    assert report.bounded
    assert report.cyclic_sufficient


def test_operator_report_zero_weight_not_cyclic():
    w = SquaredWeights((F(1), F(0)), ConstantTail(1))
    assert not operator_report(w).cyclic_sufficient


def test_operator_report_family():
    report = operator_report(family_weights(FamilyParam(F(1, 2))))
    assert report.norm_sq == F(3, 2)  # alpha dominates sq(2) = 5/4
    assert report.lower_bound_sq == 1  # xi tail decreases to 1


def test_two_isometry_check_examples():
    fam = family_weights(FamilyParam(F(1, 2)))
    for w in (ONES, isometry_weights(), fam):
        assert two_isometry_check(w) == (0,) * (w.rule_start + 2)
    assert is_two_isometric(fam)
    assert not is_two_isometric(SquaredWeights((F(2), F(0)), ConstantTail(1)))


def test_construct_isometry_branch():
    w = construct_2isometry(1, 0)
    assert w.sq(0) == 1 and w.sq(1) == 0
    assert all(w.sq(n) == 1 for n in range(2, 8))
    with pytest.raises(ValueError, match="sq\\(0\\) = 1"):
        construct_2isometry(F(1, 2), 0)


def test_construct_family_head():
    w = construct_2isometry(F(1, 2), 1)
    assert w.sq(2) == F(5, 4)
    assert is_two_isometric(w)


def test_construct_flat_tail_when_sq0_is_one():
    w = construct_2isometry(1, F(9, 4))
    assert isinstance(w.tail, XiTail) and w.tail.w2sq == 1
    assert all(w.sq(n) == 1 for n in range(2, 10))


def test_construct_rejects_impossible_head():
    with pytest.raises(ValueError, match="below 1"):
        construct_2isometry(2, F(1, 8))


def test_dual_weights_examples():
    d = dual_weights(ONES)
    assert prefix(d, 4) == (F(1, 4), F(1, 4), F(1), F(1))

    iso = isometry_weights()
    d_iso = dual_weights(iso)
    assert prefix(d_iso, 6) == prefix(iso, 6)

    fam = dual_weights(family_weights(FamilyParam(F(1, 2))))
    assert fam.sq(0) == F(2, 9)
    assert fam.sq(1) == F(4, 9)
    assert fam.sq(2) == F(4, 5)
    assert isinstance(fam.tail, ReciprocalXiTail)


def test_dual_requires_bounded_below():
    with pytest.raises(ValueError):
        dual_weights(SquaredWeights((F(1), F(1)), ConstantTail(0)))
    with pytest.raises(ValueError):
        dual_weights(SquaredWeights((F(0), F(0)), ConstantTail(1)))


def test_dual_moment_fiber0_small_powers():
    w = construct_2isometry(F(1, 2), 1)
    assert dual_moment_fiber0(w, 0) == 1
    assert dual_moment_fiber0(w, 1) == 1 / w.alpha


@pytest.mark.parametrize("t_sq", [F(1, 4), F(1), F(4)])
def test_dual_moment_fiber0_flat_tail_closed_form(t_sq):
    w = construct_2isometry(1, t_sq)
    alpha = 1 + t_sq
    for n in range(13):
        expected = 1 / (2 + t_sq) + (1 + t_sq) / (2 + t_sq) * alpha ** (-2 * n)
        assert dual_moment_fiber0(w, n) == expected


def test_dual_moment_fiber0_needs_no_two_isometry():
    # the fiber-0 recurrence holds for every operator bounded below: a spec
    # that is not 2-isometric gets the moments the oracle reads
    crooked = SquaredWeights((F(2), F(2)), ConstantTail(1))
    assert not is_two_isometric(crooked)
    expected = forward_powers(dual_weights(crooked), 0, 3, 4)
    assert [dual_moment_fiber0(crooked, n) for n in range(4)] == expected
    with pytest.raises(ValueError, match="vanish to depth 3$"):
        two_isometric_fiber0(crooked, 3)


@pytest.mark.parametrize("w", [
    SquaredWeights((F(0), F(0)), ConstantTail(1)),
    SquaredWeights((F(1), F(1)), ConstantTail(0)),
    SquaredWeights((F(1), F(1), F(2), F(0)), ConstantTail(1)),
], ids=["alpha-0", "tail-0", "head-0"])
def test_dual_moments_fiber0_refuses_a_spec_not_bounded_below(w):
    # no Cauchy dual, so no dual moments at fiber 0, at any n; the refusal
    # is dual_weights', which dual_moment_fiber0 reaches first
    with pytest.raises(ValueError, match="bounded from below"):
        dual_weights(w)
    for n in (0, 1, 6):
        with pytest.raises(ValueError, match="bounded from below"):
            dual_moment_fiber0(w, n)


def _fiber0_per_j_sum(w, n):
    # the closed form summed term by term, the route the prefix recurrence
    # replaced; kept as its oracle
    if n == 0:
        return F(1)
    alpha = w.alpha
    sq0, sq1, sq2 = w.sq(0), w.sq(1), w.sq(2)
    total = sq0 ** n / alpha ** (2 * n)
    for j in range(n):
        total += sq0 ** (n - j - 1) * sq1 / (alpha ** (2 * (n - j)) * (1 + j * (sq2 - 1)))
    return total


@pytest.mark.parametrize("w", [
    family_weights(FamilyParam(F(1, 500))),
    family_weights(FamilyParam(F(37, 101))),
    family_weights(FamilyParam(F(3))),
    construct_2isometry(1, F(1, 4)),
    construct_2isometry(1, F(4)),
    construct_2isometry(F(1, 2), 1),
    isometry_weights(),
], ids=["family-1/500", "family-37/101", "family-3", "flat-1/4", "flat-4",
        "xi-1/2-1", "isometry"])
def test_closed_form_prefix_matches_per_j_sum(w):
    prefix = fiber0_moments(dual_weights(w), 40)
    expected = [_fiber0_per_j_sum(w, n) for n in range(41)]
    assert all(d > 0 for _, d in prefix)
    assert [F(*v) for v in prefix] == expected
    assert [F(*v) for v in two_isometric_fiber0(w, 40)] == expected
    assert all(dual_moment_fiber0(w, n) == expected[n] for n in (0, 1, 17, 40))


def test_closed_form_prefix_guard_and_messages():
    crooked = SquaredWeights((F(2), F(2)), ConstantTail(1))
    assert fiber0_moments(dual_weights(crooked), 0) == ((1, 1),)
    with pytest.raises(ValueError, match="bounded from below"):
        dual_moment_fiber0(SquaredWeights((F(0), F(0)), ConstantTail(1)), 0)
    # residuals vanish to depth 2 only: the recurrence reads on past them,
    # where the 2-isometric closed form stopped
    late = SquaredWeights((F(1), F(0), F(1), F(1), F(1), F(2)), ConstantTail(1))
    expected = forward_powers(dual_weights(late), 0, 6, 7)
    assert [F(*v) for v in fiber0_moments(dual_weights(late), 6)] == expected
    assert two_isometric_fiber0(late, 2) == ((1, 1), (1, 1), (1, 1))
    with pytest.raises(ValueError, match="vanish to depth 3$"):
        two_isometric_fiber0(late, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        dual_moment_fiber0(crooked, -1)


def test_two_isometry_check_reads_the_residual_formula():
    w = SquaredWeights((F(1, 3), F(2), F(5, 4), F(7)), ConstantTail(F(1, 2)))
    sq = w.sq
    expected = [1 - 2 * w.alpha + sq(0) ** 2 + sq(0) * sq(1) + sq(1) * sq(2)]
    expected += [1 - 2 * sq(n + 1) + sq(n + 1) * sq(n + 2) for n in range(1, w.rule_start + 2)]
    assert two_isometry_check(w) == tuple(expected)


@settings(max_examples=40, deadline=None)
@given(tailed_weights(), st.integers(1, 40))
def test_two_isometry_check_matches_the_fraction_route(w, depth):
    # random heads: the residuals are nonzero at the circuit point, and past
    # it too for constant and reciprocal-xi tails
    assert two_isometry_check(w) == ref_two_isometry_check(w, w.rule_start + 1)
    # both read the tail rule; test_the_tail_rule_matches_each_kinds_formula
    # checks the rule itself
    assert w.pairs(depth) == [(v.numerator, v.denominator) for v in prefix(w, depth)]


def _xi_sq_fraction_route(n, s):
    """sq(n+2) of the xi tail with sq(2) = s, in Fractions: the test's oracle
    for the integer tail rule."""
    delta = s - 1
    return (1 + (n + 1) * delta) / (1 + n * delta)


@st.composite
def rule_cases(draw):
    """Weights of each tail kind, zero entries, w2sq = 1 and longer xi heads
    included, with the kind's own formula for sq(n), n >= 2."""
    entries = small_rats | st.just(F(0))
    kind = draw(st.sampled_from([ConstantTail, XiTail, ReciprocalXiTail]))
    if kind is ConstantTail:
        value = draw(entries)
        head = draw(st.lists(entries, max_size=6))
        return SquaredWeights(tuple(head), ConstantTail(value)), lambda n: value
    s = draw(st.just(F(1)) | st.fractions(min_value=1, max_value=5, max_denominator=10 ** 6))

    def formula(n):
        value = _xi_sq_fraction_route(n - 2, s)
        return value if kind is XiTail else 1 / value

    head = draw(st.lists(entries, min_size=2, max_size=2))
    head += [formula(n) for n in range(2, draw(st.integers(2, 6)))]
    return SquaredWeights(tuple(head), kind(s)), formula


@settings(max_examples=40, deadline=None)
@given(rule_cases())
def test_the_tail_rule_matches_each_kinds_formula(case):
    w, formula = case
    expected = [w.head[n] if n < len(w.head) else formula(n) for n in range(2, 41)]
    assert [w.sq(n) for n in range(2, 41)] == expected
    assert w.pairs(41)[2:] == [(v.numerator, v.denominator) for v in expected]


@st.composite
def near_two_isometries(draw):
    """A 2-isometric circuit (sq0, sq1, s) finished by each tail kind with
    the same s; only the xi tail, or a flat s = 1, stays 2-isometric."""
    sq0, sq1 = draw(small_rats), draw(small_rats)
    try:
        w = construct_2isometry(sq0, sq1)
    except ValueError:
        w = construct_2isometry(1, sq1)  # sq(0) = 1 always completes
    s, extra = w.sq(2), draw(st.integers(0, 3))
    kind = draw(st.sampled_from([ConstantTail, XiTail, ReciprocalXiTail]))
    if kind is ConstantTail:
        return SquaredWeights(w.head[:2] + (s,) * extra, ConstantTail(s))
    head = prefix(SquaredWeights(w.head[:2], kind(s)), 2 + extra)
    return SquaredWeights(head, kind(s))


@settings(max_examples=80, deadline=None)
@given(tailed_weights() | rule_cases().map(lambda case: case[0]) | near_two_isometries())
def test_the_rule_answers_as_the_per_kind_routes(w):
    report = operator_report(w)
    assert report.norm_sq == max(w.alpha, ref_tail_sup(w))
    assert report.lower_bound_sq == min(w.alpha, ref_tail_inf(w))
    assert report.cyclic_sufficient == ref_cyclic_sufficient(w)
    assert is_two_isometric(w) == ref_is_two_isometric(w)
    if min(w.alpha, ref_tail_inf(w)) > 0:
        dual_weights(w)
    else:
        with pytest.raises(ValueError, match="bounded from below"):
            dual_weights(w)


def _first_nonzero(residuals):
    return next(((n, r) for n, r in enumerate(residuals) if r), None)


@settings(max_examples=80, deadline=None)
@given(tailed_weights() | rule_cases().map(lambda case: case[0]) | near_two_isometries(),
       st.integers(1, 4))
def test_the_report_stops_where_the_residuals_are_decided(w, extra):
    # residuals 0..L + 1 only, and they hold the first nonzero residual to
    # depth 60, past every L drawn here; a head extended along the tail rule
    # is the same operator with a larger L, and reports the same one
    residuals = operator_report(w).two_isometry_residuals
    assert len(residuals) == w.rule_start + 2
    first = _first_nonzero(residuals)
    assert first == _first_nonzero(ref_two_isometry_check(w, 60))
    longer = SquaredWeights(prefix(w, w.rule_start + extra), w.tail)
    assert longer.rule_start == w.rule_start + extra
    assert _first_nonzero(operator_report(longer).two_isometry_residuals) == first


def _answer(route, *args):
    """What a route returns, or the message of its refusal."""
    try:
        return route(*args)
    except ValueError as err:
        return str(err)


head_entries = (st.fractions(min_value=-1, max_value=3, max_denominator=12)
                | st.sampled_from([F(0), F(1)]))


@settings(max_examples=100, deadline=None)
@given(head_entries, head_entries,
       rule_cases().map(lambda case: case[0]) | near_two_isometries() | tailed_weights())
@example(F(1), F(0), SquaredWeights((F(1), F(0)), XiTail(1)))  # sq1 = 0, w2sq = 1
@example(F(1, 2), F(0), SquaredWeights((F(2), F(1), F(0)), ConstantTail(1)))  # zero head entry
@example(F(2), F(1, 8), SquaredWeights((F(1), F(1)), ConstantTail(0)))  # not bounded below
@example(F(-1), F(1), SquaredWeights((F(0), F(0)), ReciprocalXiTail(F(3, 2))))  # alpha = 0
def test_the_pair_routes_answer_as_the_fraction_routes(sq0, sq1, w):
    # records equal to the Fraction routes', refusals with the same message
    assert _answer(construct_2isometry, sq0, sq1) == _answer(ref_construct_2isometry, sq0, sq1)
    assert _answer(dual_weights, w) == _answer(ref_dual_weights, w)
    report = operator_report(w)
    assert report == ref_operator_report(w)
    values = (report.norm_sq, report.lower_bound_sq, *report.two_isometry_residuals)
    assert all(type(v) is F for v in values)


def test_the_certificate_reads_three_residuals_past_the_head(monkeypatch):
    # the points 0..max(len(head), 2) + 1: three zeros of the quadratic
    # residual numerator past the head, as is_two_isometric's argument needs
    counts = []
    check = operators.two_isometry_check

    def counted(w):
        residuals = check(w)
        counts.append(len(residuals))
        return residuals

    monkeypatch.setattr(operators, "two_isometry_check", counted)
    heads = [(F(1),), (F(1), F(0)), (F(1), F(0), F(1)), (F(1), F(0), F(1), F(1), F(1))]
    assert all(is_two_isometric(SquaredWeights(h, ConstantTail(1))) for h in heads)
    fam = family_weights(FamilyParam(F(1, 2)))
    assert is_two_isometric(fam)
    assert counts == [4, 4, 5, 7, max(len(fam.head), 2) + 2]


def test_dual_moment_fiberk_examples():
    assert dual_moment_fiberk(ONES, 2, 7) == 1
    fam = family_weights(FamilyParam(F(1, 2)))
    assert dual_moment_fiberk(fam, 1, 2) == F(2, 3)  # 1 / (5/4 * 6/5)
    assert dual_moment_fiberk(isometry_weights(), 1, 3) == 1
    with pytest.raises(ValueError):
        dual_moment_fiberk(isometry_weights(), 0, 1)
    zero = SquaredWeights((F(1), F(1), F(0)), ConstantTail(0))
    with pytest.raises(ValueError):
        dual_moment_fiberk(zero, 1, 2)


def _random_bounded_below(rng: random.Random) -> SquaredWeights:
    kind = rng.choice(["ones", "const", "xi"])
    head = [
        F(rng.randint(0, 8), rng.randint(1, 8)),
        F(rng.randint(0, 8), rng.randint(1, 8)),
    ]
    if head[0] + head[1] == 0:
        head[0] = F(1)
    if kind == "xi":
        w2sq = 1 + F(rng.randint(0, 9), rng.randint(1, 9))
        return SquaredWeights(tuple(head), XiTail(w2sq))
    if kind == "const":
        value = F(rng.randint(1, 9), rng.randint(1, 9))
    else:
        value = F(1)
    extra = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 2))]
    return SquaredWeights(tuple(head + extra), ConstantTail(value))


def test_dual_involution_and_reciprocity_random():
    rng = random.Random(1105)
    for _ in range(60):
        w = _random_bounded_below(rng)
        d = dual_weights(w)
        dd = dual_weights(d)
        assert all(dd.sq(n) == w.sq(n) for n in range(25))
        assert all(h_of(d, n) * h_of(w, n) == 1 for n in range(25))


def _random_2isometry(rng: random.Random) -> SquaredWeights:
    while True:
        sq0 = F(rng.randint(0, 12), 8)
        sq1 = F(rng.randint(1, 16), 8)
        if (sq0 + sq1) * (2 - sq0) - 1 >= sq1:
            return construct_2isometry(sq0, sq1)


def test_constructed_2isometries_are_expansive():
    rng = random.Random(2211)
    for _ in range(40):
        w = _random_2isometry(rng)
        assert all(h_of(w, n) >= 1 for n in range(20))
        assert (w.alpha - 1) * (1 - w.sq(0)) >= 0


w2sqs = st.one_of(
    st.just(F(1)),
    st.integers(1, 10 ** 6).map(F),
    # 1 + p/q with p and q up to 60 digits
    st.builds(lambda p, q: 1 + F(p, q), st.integers(0, 10 ** 60), st.integers(1, 10 ** 60)),
)


@given(w2sqs, st.integers(0, 1000))
@settings(max_examples=60)
def test_xi_sq_matches_the_fraction_route(s, n):
    expected = _xi_sq_fraction_route(n, s)
    value = SquaredWeights((F(1), F(1)), XiTail(s)).sq(n + 2)
    assert (type(value), value) == (F, expected)
    assert SquaredWeights((F(1), F(1)), ReciprocalXiTail(s)).sq(n + 2) == 1 / expected


@given(st.fractions(min_value=1, max_value=9, max_denominator=12),
       st.integers(1, 50))
@settings(max_examples=60)
def test_xi_tail_telescoping(s, n):
    w = SquaredWeights((F(1), F(1)), XiTail(s))
    product = F(1)
    for j in range(n):
        product *= w.sq(j + 2)
    assert product == 1 + n * (s - 1)


@st.composite
def two_isometric_heads(draw):
    """The 2-isometric completion of a random head: sq(0) in [0, 1] and
    sq(1) >= 1 - sq(0), which is when the forced sq(2) is at least 1."""
    sq0 = draw(st.fractions(min_value=0, max_value=1, max_denominator=10 ** 4))
    extra = draw(st.fractions(min_value=0, max_value=3, max_denominator=10 ** 4))
    return construct_2isometry(sq0, 1 - sq0 + extra)


@settings(max_examples=30, deadline=None)
@given(two_isometric_heads() | tailed_weights() | near_two_isometries(), st.integers(0, 12))
def test_moment_routes_return_pairs_over_positive_denominators(w, n):
    # the verdict compares the routes crosswise, unreduced: each pair must
    # carry its value with a positive denominator
    bounded_below = _bounded_below(w)
    for v in [w, dual_weights(w)] if bounded_below else [w]:
        for k in range(4):
            pairs = oracle._powers(v, k, n)
            assert all(d > 0 for _, d in pairs)
            expected = forward_powers(v, k, n, max(k + n + 1, 2))
            assert [F(*p) for p in pairs] == expected
            assert reduced_adjoint_powers(v, k, n) == [x.as_integer_ratio() for x in expected]
    if bounded_below:
        closed = fiber0_moments(dual_weights(w), n)
        assert all(d > 0 for _, d in closed)
        if is_two_isometric(w):
            assert [F(*v) for v in closed] == [F(*v) for v in two_isometric_fiber0(w, n)]


def _bounded_below(w):
    return min(w.alpha, tail_bounds(w)[0]) > 0


@settings(max_examples=60, deadline=None)
@given(tailed_weights() | rule_cases().map(lambda case: case[0]) | near_two_isometries()
       | two_isometric_heads(), st.integers(0, 20))
def test_fiber0_recurrence_matches_the_forward_oracle(w, n):
    # one recurrence for every spec, under every tail kind, 2-isometric or
    # not, zero weights and specs not bounded below included, and for the
    # dual of each spec that has one: the oracle's pairs at fiber 0, and the
    # forward oracle's values
    for t in [w, dual_weights(w)] if _bounded_below(w) else [w]:
        closed = fiber0_moments(t, n)
        assert all(d > 0 for _, d in closed)
        brute = oracle._powers(t, 0, n)
        assert [F(*v) for v in closed] == [F(*v) for v in brute]
        assert [F(*v) for v in closed] == forward_powers(t, 0, n, max(n + 1, 2))
