import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual.family import FamilyParam, family_weights
from circuitdual.moments import hausdorff_test
from circuitdual.operators import (
    ConstantTail,
    SquaredWeights,
    construct_2isometry,
    dual_moment_fiber0,
    dual_moment_fiberk,
    dual_weights,
    h_of,
    ones_weights,
)
from circuitdual.oracle import BandedOp, gram_diagonal, hsequence


def basis(size, k):
    return tuple(F(int(i == k)) for i in range(size))


def test_apply_basis_rules():
    op = BandedOp(ones_weights(), 4)
    image = op.apply(basis(4, 0))
    assert image[0] == 1
    assert image[1] == 1
    assert image[2] == 0

    w = SquaredWeights((F(1), F(1), F(1), F(1), F(9, 4)), ConstantTail(1))
    shifted = BandedOp(w, 6).apply(basis(6, 3))
    assert [i for i, value in enumerate(shifted) if value] == [4]
    assert shifted[4] == F(9, 4)


def test_apply_support_overflow():
    op = BandedOp(ones_weights(), 3)
    with pytest.raises(ValueError, match="overflow"):
        op.apply(basis(3, 2))
    with pytest.raises(ValueError, match="does not match"):
        op.apply(basis(4, 0))


def test_gram_diagonal_small_powers():
    w = construct_2isometry(F(1, 2), 1)
    assert gram_diagonal(w, 0, 1) == w.alpha
    sq = w.sq
    assert gram_diagonal(w, 0, 2) == sq(0) ** 2 + sq(0) * sq(1) + sq(1) * sq(2)


def test_gram_diagonal_matches_closed_form_on_dual():
    w = family_weights(FamilyParam(F(1, 2)))
    assert gram_diagonal(dual_weights(w), 0, 3) == dual_moment_fiber0(w, 3)


def test_gram_diagonal_band_exactness():
    w = family_weights(FamilyParam(F(1, 3)))
    base = gram_diagonal(w, 1, 4)
    assert gram_diagonal(w, 1, 4, size=12) == base
    assert gram_diagonal(w, 1, 4, size=30) == base
    with pytest.raises(ValueError):
        gram_diagonal(w, 1, 4, size=5)


def test_multiplicativity_off_the_circuit():
    rng = random.Random(404)
    for _ in range(20):
        w = SquaredWeights(
            tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)),
            ConstantTail(F(rng.randint(1, 9), rng.randint(1, 9))),
        )
        for k in (1, 2, 3):
            for n in range(6):
                expected = F(1)
                for j in range(1, n + 1):
                    expected *= w.sq(k + j)
                assert gram_diagonal(w, k, n) == expected


def test_two_isometry_identity_via_oracle():
    rng = random.Random(911)
    for _ in range(15):
        while True:
            sq0 = F(rng.randint(0, 12), 8)
            sq1 = F(rng.randint(1, 16), 8)
            if (sq0 + sq1) * (2 - sq0) - 1 >= sq1:
                break
        w = construct_2isometry(sq0, sq1)
        for k in range(6):
            assert 1 - 2 * gram_diagonal(w, k, 1) + gram_diagonal(w, k, 2) == 0


def test_gram_agrees_with_h_for_single_powers():
    w = family_weights(FamilyParam(F(1, 7)))
    for k in range(5):
        assert gram_diagonal(w, k, 1) == h_of(w, k)


def test_hsequence_isometry_is_constant_one():
    w = SquaredWeights((F(1), F(0)), ConstantTail(1))
    assert hsequence(w, 0, 10).values == (F(1),) * 11
    assert hsequence(w, 3, 6).values == (F(1),) * 7


def test_hsequence_dual_at_zero_parameter():
    w = family_weights(FamilyParam(F(0)))
    assert hsequence(dual_weights(w), 0, 12).values == (F(1),) * 13


def test_hsequence_dual_fails_hausdorff_inside_window():
    w = family_weights(FamilyParam(F(1, 500)))
    prefix = hsequence(dual_weights(w), 0, 8)
    assert prefix.values[0] == 1
    verdict = hausdorff_test(prefix, 5)
    assert not verdict.passed
    assert verdict.witness == (5, 0)


def test_hsequence_matches_fiberk_products():
    w = family_weights(FamilyParam(F(1, 2)))
    dual = dual_weights(w)
    values = hsequence(dual, 2, 8).values
    for n, value in enumerate(values):
        assert value == dual_moment_fiberk(w, 2, n)


def test_oracle_closed_form_equality_random():
    rng = random.Random(7007)
    for _ in range(20):
        while True:
            sq0 = F(rng.randint(0, 12), 8)
            sq1 = F(rng.randint(1, 16), 8)
            if (sq0 + sq1) * (2 - sq0) - 1 >= sq1:
                break
        w = construct_2isometry(sq0, sq1)
        dual = dual_weights(w)
        for n in range(11):
            assert gram_diagonal(dual, 0, n) == dual_moment_fiber0(w, n)


def path_sum(w, n):
    """|C^n e_0|^2 summed over paths: stay on e_0 for n - 1 - j steps, move
    to e_1, then walk j more steps down the shift."""
    sq = w.sq
    total = sq(0) ** n
    for j in range(n):
        walk = sq(1)
        for i in range(2, j + 2):
            walk *= sq(i)
        total += sq(0) ** (n - 1 - j) * walk
    return total


nonnegative = st.fractions(min_value=0, max_value=3, max_denominator=7)
weights = st.builds(
    SquaredWeights,
    st.lists(nonnegative | st.just(F(0)), min_size=2, max_size=6).map(tuple),
    nonnegative.map(ConstantTail),
)


@settings(max_examples=50, deadline=None)
@given(weights)
def test_fiber_zero_matches_path_sum(w):
    values = hsequence(w, 0, 10).values
    for n in range(11):
        expected = path_sum(w, n)
        assert values[n] == expected
        if n <= 7:
            assert gram_diagonal(w, 0, n) == expected
