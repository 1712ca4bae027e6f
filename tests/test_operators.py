import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual.family import FamilyParam, family_weights
from circuitdual.operators import (
    ConstantTail,
    ReciprocalXiTail,
    SquaredWeights,
    XiTail,
    construct_2isometry,
    dual_moment_fiber0,
    dual_moments_fiber0,
    dual_moment_fiberk,
    dual_weights,
    h_of,
    is_two_isometric,
    ones_weights,
    operator_report,
    two_isometry_check,
    xi_sq,
)
from ref_rational import ref_two_isometry_check
from test_oracle import tailed_weights

small_rats = st.fractions(min_value=0, max_value=3, max_denominator=10)


def isometry_weights():
    return SquaredWeights((F(1), F(0)), ConstantTail(1))


def test_xi_sq_examples():
    assert xi_sq(0, F(7, 3)) == F(7, 3)
    assert xi_sq(12, F(1)) == 1
    assert xi_sq(1, F(2)) == F(3, 2)
    with pytest.raises(ValueError):
        xi_sq(0, F(1, 2))


def test_weights_materialization():
    w = SquaredWeights((F(1, 2), F(1)), XiTail(F(5, 4)))
    assert w.sq(2) == F(5, 4)
    assert w.sq(3) == xi_sq(1, F(5, 4))
    assert w.prefix(3) == (F(1, 2), F(1), F(5, 4))
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
    assert h_of(ones_weights(), 0) == 2
    assert h_of(ones_weights(), 5) == 1
    x = F(3, 7)
    assert h_of(family_weights(FamilyParam(x)), 0) == 1 + x


def test_operator_report_all_ones():
    report = operator_report(ones_weights())
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
    assert all(r == 0 for r in two_isometry_check(ones_weights(), 5))
    assert all(r == 0 for r in two_isometry_check(isometry_weights(), 5))
    fam = family_weights(FamilyParam(F(1, 2)))
    assert all(r == 0 for r in two_isometry_check(fam, 10))
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
    d = dual_weights(ones_weights())
    assert d.prefix(4) == (F(1, 4), F(1, 4), F(1), F(1))

    iso = isometry_weights()
    d_iso = dual_weights(iso)
    assert d_iso.prefix(6) == iso.prefix(6)

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


def test_dual_moment_fiber0_requires_two_isometry():
    crooked = SquaredWeights((F(2), F(2)), ConstantTail(1))
    with pytest.raises(ValueError):
        dual_moment_fiber0(crooked, 3)


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
    prefix = dual_moments_fiber0(w, 40)
    assert prefix == tuple(_fiber0_per_j_sum(w, n) for n in range(41))
    assert all(dual_moment_fiber0(w, n) == prefix[n] for n in (0, 1, 17, 40))


def test_closed_form_prefix_guard_and_messages():
    crooked = SquaredWeights((F(2), F(2)), ConstantTail(1))
    assert dual_moments_fiber0(crooked, 0) == (1,)
    assert dual_moment_fiber0(SquaredWeights((F(0), F(0)), ConstantTail(1)), 0) == 1
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"vanish to depth {n}$"):
            dual_moment_fiber0(crooked, n)
    # residuals vanish to depth 2 only: the guard looks at exactly 0..H
    late = SquaredWeights((F(1), F(0), F(1), F(1), F(1), F(2)), ConstantTail(1))
    assert dual_moments_fiber0(late, 2) == (1, 1, 1)
    with pytest.raises(ValueError, match="vanish to depth 3$"):
        dual_moments_fiber0(late, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        dual_moment_fiber0(crooked, -1)


def test_two_isometry_check_reads_the_residual_formula():
    w = SquaredWeights((F(1, 3), F(2), F(5, 4), F(7)), ConstantTail(F(1, 2)))
    sq = w.sq
    expected = [1 - 2 * w.alpha + sq(0) ** 2 + sq(0) * sq(1) + sq(1) * sq(2)]
    expected += [1 - 2 * sq(n + 1) + sq(n + 1) * sq(n + 2) for n in range(1, 9)]
    assert two_isometry_check(w, 8) == tuple(expected)


@settings(max_examples=40, deadline=None)
@given(tailed_weights(), st.integers(1, 40))
def test_two_isometry_check_matches_the_fraction_route(w, depth):
    # random heads: the residuals are nonzero at the circuit point, and past
    # it too for constant and reciprocal-xi tails
    assert two_isometry_check(w, depth) == ref_two_isometry_check(w, depth)
    assert w.pairs(depth) == [(v.numerator, v.denominator) for v in w.prefix(depth)]


def test_dual_moment_fiberk_examples():
    assert dual_moment_fiberk(ones_weights(), 2, 7) == 1
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


def _xi_sq_fraction_route(n, s):
    """The Fraction expression that xi_sq's integer ratio replaced."""
    delta = s - 1
    return (1 + (n + 1) * delta) / (1 + n * delta)


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
    value = xi_sq(n, s)
    assert (type(value), value) == (F, expected)
    assert SquaredWeights((F(1), F(1)), XiTail(s)).sq(n + 2) == expected
    assert SquaredWeights((F(1), F(1)), ReciprocalXiTail(s)).sq(n + 2) == 1 / expected


@given(st.fractions(min_value=1, max_value=9, max_denominator=12),
       st.integers(1, 50))
@settings(max_examples=60)
def test_xi_tail_telescoping(s, n):
    product = F(1)
    for j in range(n):
        product *= xi_sq(j, s)
    assert product == 1 + n * (s - 1)
