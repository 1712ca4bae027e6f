import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circuitdual.family import FamilyParam, omega_eval
from circuitdual.moments import (
    DEFAULT_FLOAT_TOL,
    MomentSeq,
    _psd,
    diff_transform,
    hausdorff_test,
    stieltjes_test,
)
from circuitdual.operators import dual_moment_fiberk
from circuitdual.family import family_weights

rats01 = st.fractions(min_value=0, max_value=1, max_denominator=16)


def seq(*values):
    return MomentSeq.exact(values)


def test_diff_transform_examples():
    const = seq(*([1] * 6))
    assert diff_transform(const, 3, 0) == 0
    spike = seq(1, 0, 0, 0)
    assert diff_transform(spike, 2, 0) == 1
    geo = MomentSeq.exact([F(1, 2) ** n for n in range(6)])
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
    uniform = MomentSeq.exact([F(1, n + 1) for n in range(13)])
    verdict = hausdorff_test(uniform, 6)
    assert verdict.passed
    assert verdict.render() == "PASS depth=6 n=12"


def test_hausdorff_increasing_sequence_fails():
    doubling = MomentSeq.exact([F(2) ** n for n in range(5)])
    verdict = hausdorff_test(doubling, 1)
    assert not verdict.passed
    assert verdict.witness == (1, 0)
    assert verdict.detail == F(-1)
    assert verdict.render() == "FAIL m=1 j=0 value=-1"


def test_hausdorff_family_sequence_inside_window():
    # The fiber-0 dual moments fail at depth 5 only for x below the first
    # positive zero of D_5 (about 0.0034); x = 1/500 is inside that window.
    p = FamilyParam(F(1, 500))
    vals = MomentSeq.exact([omega_eval(n, p) for n in range(13)])
    verdict = hausdorff_test(vals, 5)
    assert not verdict.passed
    assert verdict.witness == (5, 0)


def test_hausdorff_family_sequence_outside_window():
    # At x = 1/10 the first violation sits at m = 9, so depth 5 passes.
    p = FamilyParam(F(1, 10))
    vals = MomentSeq.exact([omega_eval(n, p) for n in range(13)])
    assert hausdorff_test(vals, 5).passed
    deep = hausdorff_test(vals, 9)
    assert not deep.passed
    assert deep.witness == (9, 0)
    # no violation at m = 1 keeps the whole prefix at most omega_0 = 1
    for x in (F(0), F(1, 10), F(1, 2)):
        vals = [omega_eval(n, FamilyParam(x)) for n in range(12)]
        assert vals[0] == 1
        assert hausdorff_test(MomentSeq.exact(vals), 1).passed


def test_stieltjes_factorials_pass():
    fact = MomentSeq.exact([math.factorial(n) for n in range(9)])
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
    vals = MomentSeq.exact([dual_moment_fiberk(w, 1, n) for n in range(11)])
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
    assert not hausdorff_test(MomentSeq.exact(values), 2).passed
    capped = hausdorff_test(MomentSeq.exact(values[:10]), 2)
    assert capped.passed
    assert capped.top_index == 9


def test_float_threshold_is_the_tolerance():
    # a difference or a Hankel pivot of -eps: within tol of zero on float
    # when eps < tol, negative on float when eps > tol, negative on exact
    tol = 2.0 ** -20
    for eps, float_passes in ((F(1, 2 ** 21), True), (F(1, 2 ** 19), False)):
        step = MomentSeq.exact([1, 1 + eps])
        assert hausdorff_test(step, 1, tol=tol).witness == (1, 0)
        verdict = hausdorff_test(step.to_floats(), 1, tol=tol)
        assert verdict.passed == float_passes
        if not float_passes:
            assert (verdict.witness, verdict.detail) == ((1, 0), float(-eps))
        pivot = MomentSeq.exact([0, 0, -eps])
        assert stieltjes_test(pivot, 1, tol=tol).witness == ("hankel", 0, 1)
        verdict = stieltjes_test(pivot.to_floats(), 1, tol=tol)
        assert verdict.passed == float_passes
        if not float_passes:
            assert (verdict.witness, verdict.detail) == (("hankel", 0, 1), float(-eps))


def test_float_conversion_overflow_names_the_entry():
    with pytest.raises(ValueError, match="entry 1 is beyond the float range"):
        MomentSeq.exact([1, F(10) ** 400]).to_floats()


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
    with pytest.raises(ValueError):
        MomentSeq(())


def test_backend_follows_the_entries():
    assert MomentSeq((F(1), F(1, 2))).backend == "exact"
    assert MomentSeq((1.0, 0.5)).backend == "float"
    assert seq(1, 2).to_floats().backend == "float"


def test_float_hankel_square_overflows_to_inf():
    # a zero diagonal leaves the off-diagonal test, whose square is beyond
    # a double: -inf on float, the exact square on exact
    values = MomentSeq.exact([0, F(10) ** 200, 0])
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
    assert loaded.values == (F(1), F(1, 2), F(1, 4))
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
    assert diff_transform(MomentSeq.exact(values), m, 0) == 0


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
    assert hausdorff_test(MomentSeq.exact(values), prefix).passed


@given(st.lists(rats01, min_size=3, max_size=9), st.integers(1, 3))
@settings(max_examples=60)
def test_shift_stability(values, depth):
    base = MomentSeq.exact(values)
    if hausdorff_test(base, depth).passed:
        shifted = MomentSeq.exact(values[1:])
        if shifted.top_index >= depth:
            assert hausdorff_test(shifted, depth).passed


@given(st.lists(rats01, min_size=3, max_size=8), st.integers(1, 3))
@settings(max_examples=60)
def test_exact_float_agreement_away_from_zero(values, depth):
    exact = MomentSeq.exact(values)
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


# Reference PSD decision: every leading minor, then every principal minor
# whenever a leading minor vanishes.  Exponential, but independent of the
# elimination in ``_psd``; kept here as its oracle on small matrices.


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


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_psd_matches_reference(matrix):
    ok, order, value = _psd(matrix, 0)
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
    ok = _psd(floats, DEFAULT_FLOAT_TOL)[0]
    lowest = float(np.linalg.eigvalsh(np.array(floats)).min())
    assert ok == _reference_psd(matrix)[0] == (lowest >= -DEFAULT_FLOAT_TOL)


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
    exact = MomentSeq.exact(values[: top + 1])
    assert _outcome(hausdorff_test(exact, depth)) == _reference_hausdorff(exact, depth)


def _fraction_table(seq, depth):
    """The in-place difference table in Fractions, one reduction per entry:
    the route the integer table over the lcm replaced."""
    cap = seq.top_index
    depth = min(depth, cap)
    row = list(seq.values)
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
    verdict = hausdorff_test(MomentSeq.exact(values), depth)
    assert _outcome(verdict) == _fraction_table(MomentSeq.exact(values), depth)
    assert verdict.passed or type(verdict.detail) is F


# small integers over 2**k, k <= 20: every entry of a depth-15 table fits in
# 41 bits, so double arithmetic is exact, and a negative entry is at most
# -2**-20, far below -DEFAULT_FLOAT_TOL
dyadic = st.builds(lambda n, k: F(n, 2 ** k), st.integers(-64, 64), st.integers(0, 20))


@given(st.lists(dyadic, min_size=1, max_size=14), st.integers(1, 15), st.integers(0, 15))
@settings(max_examples=50, deadline=None)
def test_float_difference_table_matches_binomial_sums(values, depth, top):
    exact = MomentSeq.exact(values[: top + 1])
    status, witness, detail, reached, cap = _reference_hausdorff(exact, depth)
    want = (status, witness, None if detail is None else float(detail), reached, cap)
    assert _outcome(hausdorff_test(exact.to_floats(), depth)) == want


def test_difference_table_zero_runs_and_caps():
    # zeros keep every difference at zero until the bump enters the window
    values = [F(0)] * 6 + [F(1, 3), F(0), F(0)]
    for depth in range(1, 9):
        for top in (8, 3, 5, 6, 7):
            exact = MomentSeq.exact(values[: top + 1])
            assert _outcome(hausdorff_test(exact, depth)) == _reference_hausdorff(exact, depth)
    assert hausdorff_test(MomentSeq.exact(values), 1).witness == (1, 5)
    assert hausdorff_test(MomentSeq.exact(values[:6]), 1).passed
