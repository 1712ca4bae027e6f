"""Acceptance criteria, one test per criterion, all exact arithmetic.

Each test prints a single PASS/FAIL line (run with -s to see them all).
Criteria 4 and 7 assert sign claims about D_5 and D_6 that exact
computation refutes: D_5(x) < 0 only for 0 < x < 0.003418 (first positive
zero of D_5) and D_6(x) < 0 only for 0 < x < 0.023913, so at
x in {1/100, 1/20, 1/10} the first Hausdorff violations are m = 6, 7, 9
and not m = 5, and D_5 is already positive at every sample of the default
figure grid.  Those two tests are kept as stated and fail; the
supplementary tests at the end run the identical pipelines at parameters
inside the actual negativity window and pass.
"""

import random
import time
from fractions import Fraction as F

from circuitdual.family import (
    FamilyParam,
    counterexample_verdict,
    d_taylor,
    family_weights,
    figure_rows,
    omega_eval,
    s_closed_form,
    s_derivatives_at_zero,
)
from circuitdual.moments import diff_transform, hausdorff_test
from circuitdual.operators import (
    SquaredWeights,
    ConstantTail,
    XiTail,
    construct_2isometry,
    dual_moment_fiber0,
    dual_weights,
    h_of,
)
from circuitdual.oracle import gram_diagonal
from ref_moments import exact_prefix


def _report(tag, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag} {status} ({elapsed:.2f}s) {detail}")


def test_criterion_1_derivative_table():
    start = time.monotonic()
    mismatches = [
        (n, l)
        for n in range(13)
        for l in range(5)
        if s_derivatives_at_zero(n, l) != s_closed_form(n, l)
    ]
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 5
    _report("1", ok, elapsed,
            "derivative table matches all five closed forms, n<=12, l<=4")
    assert not mismatches, f"table mismatches at {mismatches}"
    assert elapsed < 5


def test_criterion_2_vanishing_law():
    start = time.monotonic()
    bad = [m for m in range(4, 11) if d_taylor(m, 3) != (F(0),) * 4]
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30
    _report("2", ok, elapsed,
            "D_m derivatives of order <= 3 vanish at 0 for m = 4..10")
    assert not bad, f"nonvanishing low-order derivatives at m in {bad}"
    assert elapsed < 30


def test_criterion_3_fourth_derivative():
    start = time.monotonic()
    bad = [
        m for m in range(5, 11)
        if d_taylor(m, 4)[4] != F(-288) / 2 ** m
    ]
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30
    _report("3", ok, elapsed,
            "fourth derivative of D_m at 0 equals -288/2^m for m = 5..10")
    assert not bad, f"fourth-derivative law fails at m in {bad}"
    assert elapsed < 30


def _verdict_issues(x, depth, expected_witness):
    verdict = counterexample_verdict(
        FamilyParam(x), depth=depth, horizon=12, residual_depth=50
    )
    issues = []
    if not verdict.report.bounded:
        issues.append("not bounded")
    if not verdict.report.cyclic_sufficient:
        issues.append("cyclicity condition fails")
    if not verdict.residuals_all_zero:
        issues.append("nonzero 2-isometry residual")
    if not verdict.closed_form_agrees:
        issues.append("moment routes disagree")
    if verdict.hausdorff.passed:
        issues.append(f"hausdorff passes to depth {depth}")
    elif verdict.hausdorff.witness != expected_witness:
        issues.append(
            f"hausdorff witness {verdict.hausdorff.witness}, "
            f"expected {expected_witness}"
        )
    return issues


def test_criterion_4_counterexample_as_stated():
    start = time.monotonic()
    problems = {}
    for x in (F(1, 100), F(1, 20), F(1, 10)):
        issues = _verdict_issues(x, depth=5, expected_witness=(5, 0))
        if issues:
            problems[str(x)] = issues
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10
    _report("4", ok, elapsed,
            "counterexample at x in {1/100, 1/20, 1/10} with witness m=5")
    assert not problems, (
        "the m=5 witness is not attainable at these parameters: D_5 has its "
        "first positive zero near x = 0.003418, so D_5(x) > 0 here and the "
        f"actual behavior is {problems}; see the supplementary tests for "
        "the same pipeline at parameters where the witness is m=5"
    )
    assert elapsed < 10


def test_criterion_5_boundary_case():
    start = time.monotonic()
    p = FamilyParam(F(0))
    w = family_weights(p)
    flat_h = all(h_of(w, n) == 1 for n in range(101))
    moments = tuple(omega_eval(n, p) for n in range(13))
    constant = moments == (F(1),) * 13
    agree = all(
        moments[n] == dual_moment_fiber0(w, n)
        == gram_diagonal(dual_weights(w), 0, n)
        for n in range(13)
    )
    verdict = hausdorff_test(exact_prefix(moments), 12)
    elapsed = time.monotonic() - start
    ok = flat_h and constant and agree and verdict.passed and elapsed < 2
    _report("5", ok, elapsed,
            "x = 0 boundary: h constant 1 to depth 100, dual moments "
            "constant 1, hausdorff passes at depth 12")
    assert flat_h and constant and agree and verdict.passed
    assert elapsed < 2


def test_criterion_6_flat_tail_closed_form():
    start = time.monotonic()
    failures = []
    for t_sq in (F(1, 4), F(1), F(4)):
        w = construct_2isometry(1, t_sq)
        alpha = 1 + t_sq
        values = []
        for n in range(13):
            value = dual_moment_fiber0(w, n)
            expected = (
                1 / (2 + t_sq)
                + (1 + t_sq) / (2 + t_sq) * alpha ** (-2 * n)
            )
            if value != expected:
                failures.append((t_sq, n))
            values.append(value)
        if not hausdorff_test(exact_prefix(values), 6).passed:
            failures.append((t_sq, "hausdorff"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5
    _report("6", ok, elapsed,
            "flat-tail dual moments match the geometric closed form and "
            "pass hausdorff depth 6")
    assert not failures, failures
    assert elapsed < 5


def test_criterion_7_figure_grid_as_stated():
    start = time.monotonic()
    rows = figure_rows(F(3, 5), 120)
    d4_ok = all(values[0] >= 0 for _, values in rows)
    window = [(x, values) for x, values in rows if x <= F(1, 10)]
    d5_neg = [x for x, values in window if values[1] < 0]
    d6_neg = [x for x, values in window if values[2] < 0]
    stated = d4_ok and len(d5_neg) == len(window) and len(d6_neg) == len(window)
    elapsed = time.monotonic() - start
    ok = stated and elapsed < 60
    _report("7", ok, elapsed,
            "figure grid (0, 3/5], 120 steps: D4 >= 0 everywhere and "
            "D5, D6 < 0 at every sample in (0, 1/10]")
    assert stated, (
        f"D4 >= 0 holds ({d4_ok}) but on the 20 samples in (0, 1/10] D5 is "
        f"negative at {len(d5_neg)} of them and D6 at {len(d6_neg)}: the "
        "negativity windows end near 0.003418 (m=5) and 0.023913 (m=6), "
        "before the first grid point 1/200 resp. after only four of them"
    )
    assert elapsed < 60


def test_criterion_8_property_suites():
    start = time.monotonic()
    rng = random.Random(20260810)
    failures = []

    # polynomial annihilation, 200 random polynomials of degree <= 6
    for trial in range(200):
        degree = rng.randint(0, 6)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
        top = degree + 3
        values = [
            sum(c * F(n) ** k for k, c in enumerate(coeffs))
            for n in range(top + 1)
        ]
        seq = exact_prefix(values)
        for m in range(degree + 1, degree + 4):
            if diff_transform(seq, m, 0) != 0:
                failures.append(("annihilation", trial, m))

    # atomic-measure soundness, 200 random measures with <= 5 atoms in [0,1]
    for trial in range(200):
        atoms = [
            (F(rng.randint(0, 12), 12), F(rng.randint(1, 9), 9))
            for _ in range(rng.randint(1, 5))
        ]
        values = [
            sum(mass * point ** n for point, mass in atoms) for n in range(9)
        ]
        if not hausdorff_test(exact_prefix(values), 8).passed:
            failures.append(("atomic", trial))

    # dual involution and reciprocity, 100 random bounded-below specs
    for trial in range(100):
        head = [F(rng.randint(0, 8), rng.randint(1, 8)) for _ in range(2)]
        if head[0] + head[1] == 0:
            head[0] = F(1)
        if rng.random() < 0.5:
            w = SquaredWeights(tuple(head), XiTail(1 + F(rng.randint(0, 9), 9)))
        else:
            head += [F(rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(rng.randint(0, 2))]
            w = SquaredWeights(
                tuple(head), ConstantTail(F(rng.randint(1, 9), rng.randint(1, 9)))
            )
        d = dual_weights(w)
        if not all(dual_weights(d).sq(n) == w.sq(n) for n in range(25)):
            failures.append(("involution", trial))
        if not all(h_of(d, n) * h_of(w, n) == 1 for n in range(25)):
            failures.append(("reciprocity", trial))

    # oracle vs closed form, 50 random 2-isometric specs, n <= 10
    built = 0
    while built < 50:
        sq0 = F(rng.randint(0, 12), 8)
        sq1 = F(rng.randint(1, 16), 8)
        if (sq0 + sq1) * (2 - sq0) - 1 < sq1:
            continue
        w = construct_2isometry(sq0, sq1)
        dual = dual_weights(w)
        if any(
            gram_diagonal(dual, 0, n) != dual_moment_fiber0(w, n)
            for n in range(11)
        ):
            failures.append(("oracle", built))
        built += 1

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    _report("8", ok, elapsed,
            "property suites: annihilation x200, atomic measures x200, "
            "involution/reciprocity x100, oracle equality x50")
    assert not failures, failures[:5]
    assert elapsed < 120


def test_supplementary_counterexample_inside_window():
    start = time.monotonic()
    problems = {}
    for x in (F(1, 2000), F(1, 1000), F(1, 500)):
        issues = _verdict_issues(x, depth=5, expected_witness=(5, 0))
        if issues:
            problems[str(x)] = issues
    elapsed = time.monotonic() - start
    _report("S1", not problems, elapsed,
            "same pipeline as criterion 4 at x in {1/2000, 1/1000, 1/500}: "
            "confirmed with witness m=5, j=0")
    assert not problems, problems


def test_supplementary_deep_witness_at_stated_points():
    start = time.monotonic()
    expected = {F(1, 100): (6, 0), F(1, 20): (7, 0), F(1, 10): (9, 0)}
    problems = {}
    for x, witness in expected.items():
        issues = _verdict_issues(x, depth=witness[0], expected_witness=witness)
        if issues:
            problems[str(x)] = issues
    elapsed = time.monotonic() - start
    _report("S2", not problems, elapsed,
            "x in {1/100, 1/20, 1/10} still refute subnormality, with first "
            "witnesses m = 6, 7, 9")
    assert not problems, problems


def test_supplementary_figure_fine_grid():
    start = time.monotonic()
    rows = figure_rows(F(1, 25), 120)  # samples k/3000, k = 1..120
    d4_ok = all(values[0] >= 0 for _, values in rows)
    d5_neg = [k + 1 for k, (_, values) in enumerate(rows) if values[1] < 0]
    d6_neg = [k + 1 for k, (_, values) in enumerate(rows) if values[2] < 0]
    ok = (
        d4_ok
        and d5_neg == list(range(1, 11))
        and d6_neg == list(range(1, 72))
    )
    elapsed = time.monotonic() - start
    _report("S3", ok, elapsed,
            "fine grid (0, 1/25]: D4 >= 0 everywhere, D5 < 0 exactly on the "
            "first 10 samples, D6 < 0 exactly on the first 71")
    assert ok, (d4_ok, d5_neg[:12], d6_neg[:3], d6_neg[-3:] if d6_neg else [])
