import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual.family import FamilyParam, family_weights
from circuitdual.files import parse_weight_spec
from circuitdual.moments import hausdorff_test
from circuitdual.operators import (
    ConstantTail,
    ReciprocalXiTail,
    SquaredWeights,
    XiTail,
    construct_2isometry,
    dual_moment_fiber0,
    dual_weights,
    h_of,
)
from circuitdual.oracle import BandedOp, gram_diagonal, hsequence
from circuitdual.rational import format_rat
from ref_moments import fractions
from ref_oracle import BandedOp as ForwardOp
from ref_oracle import _powers as forward_powers
from ref_oracle import dual_moment_fiberk, prefix


# unit weights everywhere: the plain circuit and shift
ONES = SquaredWeights((F(1), F(1)), ConstantTail(1))


def basis(size, k):
    return tuple((int(i == k), 1) for i in range(size))


def pairs(values):
    return [(F(x).numerator, F(x).denominator) for x in values]


# the forward action of the reference route, on basis vectors


def test_apply_basis_rules():
    op = ForwardOp(ONES, 4)
    image = op.apply(basis(4, 0))
    assert image[0] == (1, 1)
    assert image[1] == (1, 1)
    assert image[2] == (0, 1)

    w = SquaredWeights((F(1), F(1), F(1), F(1), F(9, 4)), ConstantTail(1))
    shifted = ForwardOp(w, 6).apply(basis(6, 3))
    assert [i for i, (num, _) in enumerate(shifted) if num] == [4]
    assert shifted[4] == (9, 4)


def test_apply_keeps_entries_reduced():
    w = SquaredWeights((F(2, 3), F(3, 4)), ConstantTail(F(4, 9)))
    v = (F(9, 8), F(0), F(3, 2), F(0))
    image = ForwardOp(w, 4).apply(tuple((x.numerator, x.denominator) for x in v))
    expected = (v[0] * w.sq(0), v[0] * w.sq(1), v[1] * w.sq(2), v[2] * w.sq(3))
    assert image == tuple((x.numerator, x.denominator) for x in expected)


def test_apply_support_overflow():
    op = ForwardOp(ONES, 3)
    with pytest.raises(ValueError, match="overflow"):
        op.apply(basis(3, 2))
    with pytest.raises(ValueError, match="does not match"):
        op.apply(basis(4, 0))


# the package's adjoint step u -> A^T u on a window


def values(pairs):
    return [F(*p) for p in pairs]


def test_adjoint_index_zero_rule_has_two_terms():
    w = SquaredWeights((F(2, 3), F(5, 7), F(3)), ConstantTail(F(1, 2)))
    u = (F(4, 5), F(9, 11), F(13, 2), F(1, 3))
    image = BandedOp(w, 4).apply(pairs(u))
    assert len(image) == 3
    assert F(*image[0]) == w.sq(0) * u[0] + w.sq(1) * u[1]


def test_adjoint_shift_rule():
    w = SquaredWeights((F(2, 3), F(5, 7), F(3), F(7, 5)), ConstantTail(F(1, 2)))
    u = (F(4, 5), F(9, 11), F(13, 2), F(1, 3), F(6))
    image = BandedOp(w, 5).apply(pairs(u))
    assert values(image[1:]) == [w.sq(i + 1) * u[i + 1] for i in range(1, 4)]


def test_adjoint_step_multiplies_unreduced_pairs():
    # sq(0) = 1/2 and sq(1) = 1/3 sit over 6 as 3/6 and 2/6; index 0 reduces
    # the pair it adds, 2/2, and sums 3/6 * 1/3 + 2/6 * 1/1 over 18; the
    # shift multiplies 3/2 by 4/9 as they come
    w = SquaredWeights((F(1, 2), F(1, 3)), ConstantTail(F(4, 9)))
    image = BandedOp(w, 3).apply([(1, 3), (2, 2), (3, 2)])
    assert image == [(9, 18), (12, 18)]
    rng = random.Random(2121)
    for _ in range(50):
        w = SquaredWeights(
            tuple(F(rng.randint(0, 30), rng.randint(1, 30)) for _ in range(5)),
            ConstantTail(F(rng.randint(1, 30), rng.randint(1, 30))),
        )
        u = [F(rng.randint(0, 30), rng.randint(1, 30)) for _ in range(5)]
        scaled = [(n * c, d * c) for (n, d), c in zip(pairs(u), rng.choices(range(1, 9), k=5))]
        expected = [w.sq(0) * u[0] + w.sq(1) * u[1]]
        expected += [w.sq(i + 1) * u[i + 1] for i in range(1, 4)]
        image = BandedOp(w, 5).apply(scaled)
        assert all(d > 0 for _, d in image)
        assert values(image) == expected


def test_adjoint_window_offset():
    w = SquaredWeights((F(2, 3), F(5, 7), F(3), F(7, 5)), ConstantTail(F(1, 2)))
    u = pairs([F(4, 5), F(9, 11), F(13, 2), F(1, 3), F(6)])
    op = BandedOp(w, 7)
    full = op.apply(u)
    # a window from index 2 reads the shift rule only, at sq(3), sq(4), ...
    assert op.apply(u[2:], 2) == full[2:]
    window = op.apply(u[1:], 2)
    assert values(window) == [w.sq(3) * F(13, 2), w.sq(4) * F(1, 3), w.sq(5) * 6]


def test_adjoint_window_precondition():
    op = BandedOp(ONES, 4)
    ones = [(1, 1)] * 4
    for window, start in ((ones[:1], 0), (ones + [(1, 1)], 0), (ones[:3], 2),
                          (ones[:2], -1)):
        with pytest.raises(ValueError, match="inside the block"):
            op.apply(window, start)
    assert op.apply(ones[:2], 2) == [(1, 1)]


def test_gram_diagonal_small_powers():
    w = construct_2isometry(F(1, 2), 1)
    assert gram_diagonal(w, 0, 1) == w.alpha
    sq = w.sq
    assert gram_diagonal(w, 0, 2) == sq(0) ** 2 + sq(0) * sq(1) + sq(1) * sq(2)


def test_gram_diagonal_matches_closed_form_on_dual():
    w = family_weights(FamilyParam(F(1, 2)))
    assert gram_diagonal(dual_weights(w), 0, 3) == dual_moment_fiber0(w, 3)


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
    assert fractions(hsequence(w, 0, 10)) == (F(1),) * 11
    assert fractions(hsequence(w, 3, 6)) == (F(1),) * 7


def test_hsequence_dual_at_zero_parameter():
    w = family_weights(FamilyParam(F(0)))
    assert fractions(hsequence(dual_weights(w), 0, 12)) == (F(1),) * 13


def test_hsequence_dual_fails_hausdorff_inside_window():
    w = family_weights(FamilyParam(F(1, 500)))
    prefix = hsequence(dual_weights(w), 0, 8)
    assert fractions(prefix)[0] == 1
    verdict = hausdorff_test(prefix, 5)
    assert not verdict.passed
    assert verdict.witness == (5, 0)


def test_hsequence_matches_fiberk_products():
    w = family_weights(FamilyParam(F(1, 2)))
    dual = dual_weights(w)
    values = fractions(hsequence(dual, 2, 8))
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
    values = fractions(hsequence(w, 0, 10))
    for n in range(11):
        expected = path_sum(w, n)
        assert values[n] == expected
        if n <= 7:
            assert gram_diagonal(w, 0, n) == expected


def _fraction_sum_route(w, k, n, size):
    """|C^j e_k|^2 for j = 0..n by the operator's forward action on
    Fractions, each power summed one Fraction addition at a time."""
    sq = prefix(w, size)
    v = [F(int(i == k)) for i in range(size)]
    values = [F(1)]
    for _ in range(n):
        assert v[-1] == 0
        v = [v[0] * sq[0], v[0] * sq[1]] + [a * b for a, b in zip(v[1:-1], sq[2:])]
        values.append(sum(v))
    return values


@st.composite
def tailed_weights(draw):
    """Random heads with a constant, xi or reciprocal-xi tail."""
    tail = draw(st.sampled_from([ConstantTail, XiTail, ReciprocalXiTail]))
    if tail is ConstantTail:
        head = draw(st.lists(nonnegative, min_size=2, max_size=6))
        return SquaredWeights(tuple(head), ConstantTail(draw(nonnegative)))
    head = draw(st.lists(nonnegative, min_size=2, max_size=2))
    w2sq = draw(st.fractions(min_value=1, max_value=5, max_denominator=10 ** 6))
    return SquaredWeights(tuple(head), tail(w2sq))


@settings(max_examples=40, deadline=None)
@given(tailed_weights(), st.integers(0, 3), st.integers(0, 12))
def test_adjoint_powers_match_the_fraction_sums(w, k, n):
    size = max(k + n + 1, 2)
    expected = _fraction_sum_route(w, k, n, size)
    assert fractions(hsequence(w, k, n)) == tuple(expected)
    assert gram_diagonal(w, k, n) == expected[-1]


@settings(max_examples=60, deadline=None)
@given(tailed_weights(), st.integers(0, 6), st.integers(0, 14), st.integers(0, 3))
def test_adjoint_route_matches_the_forward_reference(w, k, n, extra):
    size = max(k + n + 1, 2)
    expected = forward_powers(w, k, n, size)
    assert forward_powers(w, k, n, size + extra) == expected
    assert fractions(hsequence(w, k, n)) == tuple(expected)
    assert gram_diagonal(w, k, n) == expected[-1]


# hsequence(dual, k, 100) written one p/q a line, as recorded with the window
# on reduced pairs: a spec that is not 2-isometric, and the family at a
# 21-digit x, whose window entries reach about 21,000 bits
HSEQUENCE_AT_SCALE = [
    ("kind = explicit\nsq = [1/2, 1, 5/4]\ntail = ones\n", 0, 9915,
     "417040ecf5e0e5f1232554daa2d537c254d40280a5264b3bac42573a597d2896"),
    ("kind = explicit\nsq = [1/2, 1, 5/4]\ntail = ones\n", 3, 202,
     "ff9aba721f53de76e2079fada1c20689f508ddc9cdaac91c69d4d36c052354af"),
    ("kind = family\nx = 999999999999999999997\n", 0, 630627,
     "e18653f1b65b9f64fa30af7449f005d6a6b9f17af53699591b6ae7aa9469dcba"),
    ("kind = family\nx = 999999999999999999997\n", 3, 4697,
     "5897102c81064dedf3d09a05f0d68cdf167c2d26d943517e4ac045acf341c789"),
]


@pytest.mark.parametrize("spec, k, length, digest", HSEQUENCE_AT_SCALE)
def test_hsequence_bytes_at_scale(spec, k, length, digest):
    seq = hsequence(dual_weights(parse_weight_spec(spec)), k, 100)
    text = "".join(format_rat(v) + "\n" for v in fractions(seq))
    assert len(text) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest
