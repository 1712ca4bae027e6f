import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circuitdual.family import FamilyParam, omega_eval
from circuitdual.moments import (
    DEFAULT_FLOAT_TOL,
    MomentSeq,
    _EXACT_ARITHMETIC,
    _eliminate,
    _float_arithmetic,
    diff_transform,
    hausdorff_test,
    stieltjes_test,
)
from circuitdual.family import family_weights
from ref_moments import exact_prefix, fractions, fractions_built
from ref_oracle import dual_moment_fiberk

rats01 = st.fractions(min_value=0, max_value=1, max_denominator=16)


def seq(*values):
    return exact_prefix(values)


def test_diff_transform_examples():
    const = seq(*([1] * 6))
    assert diff_transform(const, 3, 0) == 0
    spike = seq(1, 0, 0, 0)
    assert diff_transform(spike, 2, 0) == 1
    geo = exact_prefix([F(1, 2) ** n for n in range(6)])
    assert diff_transform(geo, 2, 1) == F(1, 8)
    # the sum takes the type of the entries, also for a zero sum
    for m in (0, 2, 3):
        assert type(diff_transform(const, m, 0)) is F
        assert type(diff_transform(MomentSeq.floats([1] * 6), m, 0)) is float
    assert type(diff_transform(geo, 2, 1)) is F
    assert type(diff_transform(MomentSeq.floats([0.5 ** n for n in range(6)]), 2, 1)) is float


def test_diff_transform_prefix_too_short():
    with pytest.raises(ValueError):
        diff_transform(seq(1, 1), 2, 1)


def test_hausdorff_uniform_density_passes():
    uniform = exact_prefix([F(1, n + 1) for n in range(13)])
    verdict = hausdorff_test(uniform, 6)
    assert verdict.passed
    assert verdict.render() == "PASS depth=6 n=12"


def test_hausdorff_increasing_sequence_fails():
    doubling = exact_prefix([F(2) ** n for n in range(5)])
    verdict = hausdorff_test(doubling, 1)
    assert not verdict.passed
    assert verdict.witness == (1, 0)
    assert verdict.detail == F(-1)
    assert verdict.render() == "FAIL m=1 j=0 value=-1"


def test_hausdorff_family_sequence_inside_window():
    # The fiber-0 dual moments fail at depth 5 only for x below the first
    # positive zero of D_5 (about 0.0034); x = 1/500 is inside that window.
    p = FamilyParam(F(1, 500))
    vals = exact_prefix([omega_eval(n, p) for n in range(13)])
    verdict = hausdorff_test(vals, 5)
    assert not verdict.passed
    assert verdict.witness == (5, 0)


def test_hausdorff_family_sequence_outside_window():
    # At x = 1/10 the first violation sits at m = 9, so depth 5 passes.
    p = FamilyParam(F(1, 10))
    vals = exact_prefix([omega_eval(n, p) for n in range(13)])
    assert hausdorff_test(vals, 5).passed
    deep = hausdorff_test(vals, 9)
    assert not deep.passed
    assert deep.witness == (9, 0)
    # no violation at m = 1 keeps the whole prefix at most omega_0 = 1
    for x in (F(0), F(1, 10), F(1, 2)):
        vals = [omega_eval(n, FamilyParam(x)) for n in range(12)]
        assert vals[0] == 1
        assert hausdorff_test(exact_prefix(vals), 1).passed


def test_stieltjes_factorials_pass():
    fact = exact_prefix([math.factorial(n) for n in range(9)])
    verdict = stieltjes_test(fact, 4)
    assert verdict.passed
    assert verdict.render() == "PASS order=4 n=8"


def test_stieltjes_shifted_hankel_failure():
    alternating = seq(1, 0, 1, 0)
    verdict = stieltjes_test(alternating, 1)
    assert not verdict.passed
    assert verdict.witness == ("hankel", 1, 2)
    assert verdict.detail == F(-1)
    assert verdict.render() == "FAIL hankel=1 order=2 value=-1"


def test_stieltjes_family_fiber_one_passes():
    w = family_weights(FamilyParam(F(1, 2)))
    vals = exact_prefix([dual_moment_fiberk(w, 1, n) for n in range(11)])
    assert stieltjes_test(vals, 5).passed


def test_stieltjes_zero_leading_minor_falls_through_to_sweep():
    # leading minors of [[0,0],[0,-1]] are 0 and 0; only the principal
    # minor on the second index exposes the violation
    verdict = stieltjes_test(seq(0, 0, -1), 1)
    assert not verdict.passed
    assert verdict.witness == ("hankel", 0, 1)
    assert verdict.detail == F(-1)


def test_stieltjes_zero_sequence_passes():
    assert stieltjes_test(seq(0, 0, 0), 1).passed


def test_hausdorff_shorter_prefix_caps_the_index():
    values = [F(1, n + 1) for n in range(10)] + [F(-1)]
    assert not hausdorff_test(exact_prefix(values), 2).passed
    capped = hausdorff_test(exact_prefix(values[:10]), 2)
    assert capped.passed
    assert capped.top_index == 9


def test_float_threshold_is_the_tolerance():
    # a difference or a Hankel pivot of -eps: within tol of zero on float
    # when eps < tol, negative on float when eps > tol, negative on exact
    tol = 2.0 ** -20
    for eps, float_passes in ((F(1, 2 ** 21), True), (F(1, 2 ** 19), False)):
        step = exact_prefix([1, 1 + eps])
        assert hausdorff_test(step, 1, tol=tol).witness == (1, 0)
        verdict = hausdorff_test(step.to_floats(), 1, tol=tol)
        assert verdict.passed == float_passes
        if not float_passes:
            assert (verdict.witness, verdict.detail) == ((1, 0), float(-eps))
        pivot = exact_prefix([0, 0, -eps])
        assert stieltjes_test(pivot, 1, tol=tol).witness == ("hankel", 0, 1)
        verdict = stieltjes_test(pivot.to_floats(), 1, tol=tol)
        assert verdict.passed == float_passes
        if not float_passes:
            assert (verdict.witness, verdict.detail) == (("hankel", 0, 1), float(-eps))


def test_float_conversion_overflow_names_the_entry():
    with pytest.raises(ValueError, match="entry 1 is beyond the float range"):
        exact_prefix([1, F(10) ** 400]).to_floats()


# entries at the edges of the double range, each with float() as the truth
FLOAT_EDGES = [
    F(2 ** 1024 - 2 ** 970 - 1),  # just below the rounding threshold: the largest double
    -F(2 ** 1024 - 2 ** 970 - 1),
    F(1, 2 ** 1074),  # the least subnormal
    F(1, 2 ** 1075),  # half of it: ties to even, 0.0
    F(1, 2 ** 1075 - 1),  # just above half: the least subnormal
    F(-1, 2 ** 1080),  # -0.0
    F(3 ** 1000, 2 * 3 ** 999),  # numerator and denominator past the range, 3/2
    F(2 ** 53 + 1),  # ties to even
    F(1, 3),
    F(0),
]


def test_to_floats_is_float_of_each_entry():
    got = exact_prefix(FLOAT_EDGES).to_floats().values
    assert [v.hex() for v in got] == [float(v).hex() for v in FLOAT_EDGES]
    for beyond in (F(2 ** 1024 - 2 ** 970), -F(2 ** 1024 - 2 ** 970), F(2 ** 2000, 3)):
        with pytest.raises(ValueError, match="^entry 2 is beyond the float range$"):
            exact_prefix([1, F(1, 2), beyond]).to_floats()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(F, st.integers(-(2 ** 1100), 2 ** 1100), st.integers(1, 2 ** 1100)),
                min_size=1, max_size=6))
def test_to_floats_matches_float_on_wide_fractions(values):
    try:
        want = [float(v).hex() for v in values]
    except OverflowError:
        with pytest.raises(ValueError, match="is beyond the float range"):
            exact_prefix(values).to_floats()
        return
    assert [v.hex() for v in exact_prefix(values).to_floats().values] == want


def test_float_backend_agrees_on_clear_cases():
    doubling = MomentSeq.floats([2.0 ** n for n in range(5)])
    verdict = hausdorff_test(doubling, 1)
    assert not verdict.passed and verdict.witness == (1, 0)
    geo = MomentSeq.floats([0.5 ** n for n in range(9)])
    assert hausdorff_test(geo, 4).passed
    fact = MomentSeq.floats([float(math.factorial(n)) for n in range(9)])
    assert stieltjes_test(fact, 4).passed
    # a largest eigenvalue near 5e19 leaves eigenvalue roundoff far above an
    # absolute tolerance; the pivots here are all large and positive
    big = MomentSeq.floats([float(math.factorial(n)) for n in range(22)])
    assert stieltjes_test(big, 10).passed
    alternating = MomentSeq.floats([1.0, 0.0, 1.0, 0.0])
    assert not stieltjes_test(alternating, 1).passed


def test_backend_mixing_rejected():
    with pytest.raises(TypeError):
        MomentSeq((F(1), 0.5))
    with pytest.raises(TypeError):
        MomentSeq((F(1), 1))
    with pytest.raises(TypeError):
        MomentSeq((1, 0.5), 2)
    with pytest.raises(TypeError):
        MomentSeq((F(1), F(1, 2)), 1)
    with pytest.raises(ValueError):
        MomentSeq(())
    for denominator in (0, -2, F(2)):
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            MomentSeq((1, 2), denominator)


def test_backend_follows_the_entries():
    assert MomentSeq((2, 1), 2).backend == "exact"
    assert MomentSeq((1.0, 0.5)).backend == "float"
    assert seq(1, 2).to_floats().backend == "float"


def test_float_hankel_square_overflows_to_inf():
    # a zero diagonal leaves the off-diagonal test, whose square is beyond
    # a double: -inf on float, the exact square on exact
    values = exact_prefix([0, F(10) ** 200, 0])
    verdict = stieltjes_test(values.to_floats(), 1)
    assert (verdict.witness, verdict.detail) == (("hankel", 0, 2), -math.inf)
    verdict = stieltjes_test(values, 1)
    assert (verdict.witness, verdict.detail) == (("hankel", 0, 2), -F(10) ** 400)


def test_tolerance_is_keyword_only():
    values = seq(1, 1, 1)
    with pytest.raises(TypeError):
        stieltjes_test(values, 1, 0.5)
    with pytest.raises(TypeError):
        hausdorff_test(values, 1, 0.5)


def test_sequence_file_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# comment\n1\n1/2\n0.25  # inline\n\n")
    loaded = MomentSeq.from_file(path)
    assert (loaded.values, loaded.denominator) == ((4, 2, 1), 4)
    assert loaded == exact_prefix([1, F(1, 2), F(1, 4)])
    assert loaded.to_floats().values == (1.0, 0.5, 0.25)


@given(st.lists(rats01, min_size=1, max_size=7), st.integers(0, 2))
@settings(max_examples=60)
def test_polynomial_annihilation(coeffs, extra):
    # A polynomial sequence of degree d is killed by differences of order > d.
    poly = coeffs
    degree = len(poly) - 1
    m = degree + 1 + extra
    values = [
        sum(c * F(n) ** k for k, c in enumerate(poly)) for n in range(m + 1)
    ]
    assert diff_transform(exact_prefix(values), m, 0) == 0


@given(
    st.lists(st.tuples(rats01, rats01), min_size=1, max_size=5),
    st.integers(4, 8),
)
@settings(max_examples=50, deadline=None)
def test_atomic_measure_synthesis_soundness(atoms, prefix):
    assume(any(mass > 0 for _, mass in atoms))
    values = [
        sum(mass * point ** n for point, mass in atoms) for n in range(prefix + 1)
    ]
    assert hausdorff_test(exact_prefix(values), prefix).passed


@given(st.lists(rats01, min_size=3, max_size=9), st.integers(1, 3))
@settings(max_examples=60)
def test_shift_stability(values, depth):
    base = exact_prefix(values)
    if hausdorff_test(base, depth).passed:
        shifted = exact_prefix(values[1:])
        if shifted.top_index >= depth:
            assert hausdorff_test(shifted, depth).passed


@given(st.lists(rats01, min_size=3, max_size=8), st.integers(1, 3))
@settings(max_examples=60)
def test_exact_float_agreement_away_from_zero(values, depth):
    exact = exact_prefix(values)
    tested = [
        diff_transform(exact, m, j)
        for m in range(depth + 1)
        for j in range(len(values) - m)
    ]
    assume(all(abs(t) > F(1, 10 ** 9) for t in tested))
    exact_verdict = hausdorff_test(exact, depth)
    float_verdict = hausdorff_test(exact.to_floats(), depth)
    assert exact_verdict.passed == float_verdict.passed
    if not exact_verdict.passed:
        assert exact_verdict.witness == float_verdict.witness


# Two references for the elimination of both backends.  ``_psd`` is the
# elimination written once for any entries that support arithmetic, with
# values within ``tol`` of zero counted as zero: each backend's routine
# must return its (ok, order, value).  ``_reference_psd`` checks every
# leading minor, then every principal minor whenever a leading minor
# vanishes: exponential, but independent of any pivot rule, and the
# oracle of verdicts and minors on small matrices.


def _psd(matrix, tol):
    """PSD decision by symmetric elimination: (ok, order, value).

    Pivots run in natural order while the pivot is nonzero; on a zero pivot
    a negative diagonal entry is taken if one exists, else a nonzero one.
    A negative Schur-complement pivot fails with its minor, det times the
    pivot; when every remaining diagonal entry is zero, a nonzero
    off-diagonal entry s_ij fails through the minor -det * s_ij^2.
    """
    a = [row[:] for row in matrix]
    rest = list(range(len(a)))
    det = 1
    while rest:
        done = len(a) - len(rest)
        nonzero = [i for i in rest if abs(a[i][i]) > tol]
        if not nonzero:
            for i in rest:
                for j in rest:
                    if abs(a[i][j]) > tol:
                        return False, done + 2, -det * (a[i][j] * a[i][j])
            break
        p = nonzero[0]
        if p != rest[0]:
            p = next((i for i in nonzero if a[i][i] < 0), p)
        if a[p][p] < 0:
            return False, done + 1, det * a[p][p]
        det *= a[p][p]
        rest.remove(p)
        for i in rest:
            factor = a[i][p] / a[p][p]
            for j in rest:
                a[i][j] -= factor * a[p][j]
    return True, None, None


def _det(rows):
    n = len(rows)
    m = [row[:] for row in rows]
    det = F(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] / m[c][c]
            for cc in range(c, n):
                m[r][cc] -= factor * m[c][cc]
    return det


def _principal(matrix, subset):
    return [[matrix[r][c] for c in subset] for r in subset]


def _reference_psd(matrix):
    n = len(matrix)
    leading = [_det(_principal(matrix, range(k))) for k in range(1, n + 1)]
    for k, d in enumerate(leading, start=1):
        if d < 0:
            return False, k, d
    if all(leading):
        return True, None, None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            d = _det(_principal(matrix, subset))
            if d < 0:
                return False, size, d
    return True, None, None


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["any", "gram", "gram_bumped", "zero_lead"]))
    if kind == "any":
        a = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(small)
        return a
    # B B^T with B of rank below n: PSD and singular
    rank = draw(st.integers(0, n - 1))
    b = [[draw(small) for _ in range(rank)] for _ in range(n)]
    a = [[sum((x * y for x, y in zip(b[i], b[j])), F(0)) for j in range(n)]
         for i in range(n)]
    if kind == "gram_bumped":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        delta = draw(small)
        a[i][j] += delta
        if i != j:
            a[j][i] += delta
    elif kind == "zero_lead":
        a[0][0] = F(0)
    return a


def exact_psd(matrix):
    """The exact route on a Fraction matrix, its entries as reduced pairs."""
    pairs = [[(v.numerator, v.denominator) for v in row] for row in matrix]
    ok, order, value = _eliminate(pairs, *_EXACT_ARITHMETIC)
    return ok, order, None if ok else F(*value)


def float_psd(matrix, tol):
    """The float route on a float matrix."""
    return _eliminate(matrix, *_float_arithmetic(tol))


sixteenths = st.integers(0, 16).map(lambda k: F(k, 16))


@st.composite
def atomic_hankels(draw):
    """Hankel of shift 0 or 1 and order 1..9 of a measure with 1 to 8
    atoms at multiples of 1/16, singular past its atom count; some
    entries are bumped by a multiple of 1/256."""
    atoms = draw(st.lists(st.tuples(sixteenths, sixteenths), min_size=1, max_size=8))
    order, shift = draw(st.integers(1, 9)), draw(st.integers(0, 1))
    values = [sum(mass * point ** n for point, mass in atoms) for n in range(2 * order + 2)]
    bumps = st.tuples(st.integers(0, 2 * order + 1), st.integers(-16, 16))
    for n, k in draw(st.lists(bumps, max_size=2)):
        values[n] += F(k, 256)
    return [[values[i + j + shift] for j in range(order + 1)] for i in range(order + 1)]


@st.composite
def sparse_symmetric(draw):
    """Entries in {-1, 0, 1}: zero pivots with a negative diagonal entry
    behind them are common, which exercises the pivot rule."""
    n = draw(st.integers(1, 6))
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = F(draw(st.integers(-1, 1)))
    return a


@given(st.one_of(symmetric_matrices(), atomic_hankels(), sparse_symmetric()))
@settings(max_examples=150, deadline=None)
def test_psd_exact_matches_psd(matrix):
    assert exact_psd(matrix) == _psd(matrix, 0)


@st.composite
def overflowing_symmetric(draw):
    """Entries 0 and +-10^k, |k| <= 300: in doubles, products overflow to
    inf, and inf - inf makes NaN, which the float zero rule counts as 0."""
    n = draw(st.integers(1, 5))
    power = st.builds(lambda sign, k: sign * F(10) ** k, st.sampled_from([-1, 1]),
                      st.integers(-300, 300))
    entries = st.one_of(st.just(F(0)), power)
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entries)
    return a


def same_bits(x, y):
    """x and y are the same float (-0.0 is not 0.0), or both NaN."""
    if isinstance(x, float) and isinstance(y, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1, x) == math.copysign(1, y)
    return x == y and type(x) is type(y)


@given(
    st.one_of(symmetric_matrices(), atomic_hankels(), sparse_symmetric(),
              overflowing_symmetric()),
    st.sampled_from([DEFAULT_FLOAT_TOL, 0.0]),
)
# in doubles the last diagonal entry ends as NaN: counted as 0, as the
# reference counts it, the matrix passes; counted as negative, it would fail
@example([[F(1, 10 ** 200), F(0), F(-10 ** 300)],
          [F(0), F(1), F(-1, 10 ** 200)],
          [F(-10 ** 300), F(-1, 10 ** 200), F(0)]], 0.0)
@settings(max_examples=200, deadline=None)
def test_both_routes_match_the_reference_elimination(matrix, tol):
    floats = [[float(v) for v in row] for row in matrix]
    (ok, order, value), want = float_psd(floats, tol), _psd(floats, tol)
    assert (ok, order) == want[:2] and same_bits(value, want[2])
    assert exact_psd(matrix) == _psd(matrix, 0)


def test_exact_stieltjes_builds_only_the_witness():
    # the prefix becomes integer pairs once; only a witness value is a
    # Fraction again, and at most two Fractions form it
    def atomic(points, count):
        return [sum(F(t, 16) ** n for t in points) / len(points) for n in range(count)]

    singular = exact_prefix(atomic((2, 7, 13), 17))
    lowered = atomic((1, 3, 5, 8, 11, 15), 17)
    lowered[16] -= F(1, 64)
    lowered = exact_prefix(lowered)
    passed, built = fractions_built(lambda: stieltjes_test(singular, 8))
    assert passed.passed and built <= 2
    failed, built = fractions_built(lambda: stieltjes_test(lowered, 8))
    assert failed.witness == ("hankel", 0, 7) and failed.detail < 0 and built <= 2


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_psd_matches_reference(matrix):
    ok, order, value = exact_psd(matrix)
    want = _reference_psd(matrix)
    assert ok == want[0]
    if not ok:
        assert value < 0
        minors = {
            _det(_principal(matrix, subset))
            for subset in itertools.combinations(range(len(matrix)), order)
        }
        assert value in minors
    n = len(matrix)
    if all(_det(_principal(matrix, range(k))) for k in range(1, n + 1)):
        assert (ok, order, value) == want


@given(symmetric_matrices())
@settings(max_examples=100, deadline=None)
def test_psd_float_agrees_with_eigenvalues(matrix):
    np = pytest.importorskip("numpy")
    floats = [[float(v) for v in row] for row in matrix]
    ok = float_psd(floats, DEFAULT_FLOAT_TOL)[0]
    lowest = float(np.linalg.eigvalsh(np.array(floats)).min())
    assert ok == _reference_psd(matrix)[0] == (lowest >= -DEFAULT_FLOAT_TOL)


# positive semidefinite and singular (numpy's lowest eigenvalue is -2.7e-15),
# yet in doubles the last Schur pivot reads -2.65e-10 after a pivot of 2.9e-5,
# so the float route fails with (False, 4, -1.28e-14); confirming every float
# FAIL exactly (ROADMAP direction 9) turns this test into an XPASS
FLOAT_FALSE_FAIL = [
    [F(497, 144), F(71, 12), F(-17, 6), F(-8, 3)],
    [F(71, 12), F(85, 8), F(-73, 12), F(-9, 2)],
    [F(-17, 6), F(-73, 12), F(49, 9), F(2)],
    [F(-8, 3), F(-9, 2), F(2), F(4)],
]


def test_exact_psd_passes_the_float_false_fail():
    assert exact_psd(FLOAT_FALSE_FAIL) == _reference_psd(FLOAT_FALSE_FAIL) == (True, None, None)


@pytest.mark.xfail(strict=True, reason="float elimination's false FAIL (ROADMAP direction 9)")
def test_float_psd_passes_where_the_exact_route_passes():
    floats = [[float(v) for v in row] for row in FLOAT_FALSE_FAIL]
    assert float_psd(floats, DEFAULT_FLOAT_TOL) == (True, None, None)


# Reference Hausdorff scan: one binomial sum per (m, j) in lexicographic
# order, the route the difference table replaced on both backends.


def _reference_hausdorff(seq, depth):
    cap = seq.top_index
    depth = min(depth, cap)
    for m in range(depth + 1):
        for j in range(cap - m + 1):
            value = diff_transform(seq, m, j)
            if value < 0:
                return "fail", (m, j), value, depth, cap
    return "pass", None, None, depth, cap


def _outcome(verdict):
    return (verdict.status, verdict.witness, verdict.detail, verdict.depth,
            verdict.top_index)


signed_rats = st.fractions(min_value=-2, max_value=2, max_denominator=50)
# 12-14 unrelated 300-bit denominators, sorted so that row 1 passes
wide_prefixes = st.lists(
    st.builds(F, st.integers(0, 2 ** 300), st.integers(2 ** 299, 2 ** 300)),
    min_size=12, max_size=14,
).map(lambda values: sorted(values, reverse=True))


@given(
    st.one_of(
        st.lists(st.one_of(rats01, signed_rats, st.just(F(0))), min_size=1, max_size=14),
        wide_prefixes,
    ),
    st.integers(1, 15),
    st.integers(0, 15),
)
@settings(max_examples=50, deadline=None)
def test_difference_table_matches_binomial_sums(values, depth, top):
    exact = exact_prefix(values[: top + 1])
    assert _outcome(hausdorff_test(exact, depth)) == _reference_hausdorff(exact, depth)


def _fraction_table(seq, depth):
    """The in-place difference table in Fractions, one reduction per entry:
    the route the integer table over the lcm replaced."""
    cap = seq.top_index
    depth = min(depth, cap)
    row = list(fractions(seq))
    for m in range(depth + 1):
        for j in range(cap - m + 1):
            if m:
                row[j] -= row[j + 1]
            if row[j] < 0:
                return "fail", (m, j), row[j], depth, cap
    return "pass", None, None, depth, cap


@st.composite
def coprime_prefixes(draw):
    """12-14 values in [0, 1] over the 296- to 300-bit denominators 1 + i t,
    i = 1..14, with t a multiple of 14!.  They are pairwise coprime: a prime
    dividing two of them divides (i - i') t, hence t, hence 1.  Sorted so
    that row 1 passes."""
    t = math.factorial(14) * draw(st.integers(2 ** 259, 2 ** 260))
    dens = [1 + i * t for i in range(1, draw(st.integers(12, 14)) + 1)]
    return sorted((F(draw(st.integers(0, d)), d) for d in dens), reverse=True)


@given(coprime_prefixes(), st.integers(1, 15))
@settings(max_examples=30, deadline=None)
def test_integer_table_matches_the_fraction_table(values, depth):
    verdict = hausdorff_test(exact_prefix(values), depth)
    assert _outcome(verdict) == _fraction_table(exact_prefix(values), depth)
    assert verdict.passed or type(verdict.detail) is F


# small integers over 2**k, k <= 20: every entry of a depth-15 table fits in
# 41 bits, so double arithmetic is exact, and a negative entry is at most
# -2**-20, far below -DEFAULT_FLOAT_TOL
dyadic = st.builds(lambda n, k: F(n, 2 ** k), st.integers(-64, 64), st.integers(0, 20))


@given(st.lists(dyadic, min_size=1, max_size=14), st.integers(1, 15), st.integers(0, 15))
@settings(max_examples=50, deadline=None)
def test_float_difference_table_matches_binomial_sums(values, depth, top):
    exact = exact_prefix(values[: top + 1])
    status, witness, detail, reached, cap = _reference_hausdorff(exact, depth)
    want = (status, witness, None if detail is None else float(detail), reached, cap)
    assert _outcome(hausdorff_test(exact.to_floats(), depth)) == want


def test_difference_table_zero_runs_and_caps():
    # zeros keep every difference at zero until the bump enters the window
    values = [F(0)] * 6 + [F(1, 3), F(0), F(0)]
    for depth in range(1, 9):
        for top in (8, 3, 5, 6, 7):
            exact = exact_prefix(values[: top + 1])
            assert _outcome(hausdorff_test(exact, depth)) == _reference_hausdorff(exact, depth)
    assert hausdorff_test(exact_prefix(values), 1).witness == (1, 5)
    assert hausdorff_test(exact_prefix(values[:6]), 1).passed
