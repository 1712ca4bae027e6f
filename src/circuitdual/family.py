"""The one-parameter weight family whose Cauchy dual fails subnormality.

For a parameter x >= 0 the squared weights are

    sq(0) = 1/2,  sq(1) = 1/2 + x,  sq(2) = (1+3x)/(1+2x),

completed by the xi tail, which telescopes to
sq(n+2) = (1 + (n+3)x) / (1 + (n+2)x).  The operator is bounded, cyclic
for x > 0, and 2-isometric for every x >= 0; at x = 0 it degenerates to an
isometry and its dual is subnormal.

The dual moment sequence at the circuit point has the closed form

    omega_n(x) = (1 + (1+2x)^2 S_n(x)) / (2^n (1+x)^(2n)),
    S_n(x) = sum_{j=0}^{n-1} 2^j (1+x)^(2j) / (1 + (j+2)x),

defined on (-1/(n+1), infinity).  Subnormality of the dual is equivalent
to {omega_n(x)}_n being a Hausdorff moment sequence, which the alternating
combinations

    D_m(x) = sum_{n=0}^{m} (-1)^n C(m, n) omega_n(x)

test: any strictly negative D_m(x) is a witness against it.  Every D_m has
a zero of order exactly 4 at x = 0 with D_m^{(4)}(0) = -288/2^m for
m >= 5, so each such D_m is strictly negative on a punctured right
neighborhood of 0.  The neighborhoods are small: exact scanning locates
the first positive zero of D_5 near 0.003418 and of D_6 near 0.023913.

The symbolic layer builds D_m in integer arithmetic over the closed-form
common denominator

    L_m = 2^m (1+x)^(2m) P_m,   P_m = prod_{j=2}^{m+1} (1 + jx).

For x > 0, with r = 2(1+x)^2, q = 1 - 1/r, c = (1+2x)^2/x and the Beta
integrals beta_k = k! x^(k+1) / P_{k+1}(x), the alternating sum collapses
to one positive term minus positive terms (README derives it):

    D_m = q^m - (c/r) sum_{k<m} q^(m-1-k) beta_k.

Multiplied by L_m it gives the integer numerator N_m = D_m L_m by

    N_0 = 1,
    N_{k+1} = (1+4x+2x^2)(1+(k+2)x) N_k - k! (1+2x)^2 (2x(1+x)^2)^k,

each step one product with a cubic, so N_m costs O(m^2) operations.  The
recurrence serves both routes:

- d_ratfn reduces N_m / L_m to canonical form (numerator and denominator
  coprime, denominator monic) without a polynomial gcd: the numerator is
  divided by (1+x) up to 2m times and by each (1+jx), j = 2..m+1, once,
  each time only while it vanishes at -1/j.  Exactly (1+x)(1+2x) cancels
  at every m = 1..120 checked; the (1+2x) follows from the identity, but
  the (1+x) is only observed, so the divisions stay trials.
- d_taylor truncates the recurrence after the requested order and divides
  the series by the linear factors of L_m, one truncated synthetic
  division each.  The only division of integers is the final one by 2^m,
  so D_m^{(l)}(0) for l <= order costs O(m * order) operations on
  integers.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .moments import MomentSeq, MomentVerdict, hausdorff_test
from .operators import (
    OperatorReport,
    SquaredWeights,
    XiTail,
    dual_moments_fiber0,
    dual_weights,
    operator_report,
)
from .oracle import hsequence
from .rational import Poly, RatFn, format_rat


class FamilyParam(Record):
    """Family parameter; the operator-side constructions need x >= 0."""

    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x < 0:
            raise ValueError("the weight family is defined for x >= 0")


def domain_min(n: int) -> Fraction:
    """Left endpoint of the domain of omega_n (and of D_n): -1/(n+1)."""
    return Fraction(-1, n + 1)


def _check_domain(n: int, x: Fraction):
    if x <= domain_min(n):
        raise ValueError(
            f"x = {format_rat(x)} is outside the domain "
            f"({format_rat(domain_min(n))}, oo) at index {n}"
        )


def family_weights(p: FamilyParam) -> SquaredWeights:
    x = p.x
    sq2 = (1 + 3 * x) / (1 + 2 * x)
    return SquaredWeights((Fraction(1, 2), Fraction(1, 2) + x, sq2), XiTail(sq2))


def omega_prefix(horizon: int, p: FamilyParam) -> tuple:
    """omega_0..omega_horizon, the fiber-0 dual moments, in one pass.

    S_n and the power 2^n (1+x)^(2n) are running quantities, so each
    further index costs one addition and two multiplications.
    """
    if horizon < 0:
        raise ValueError("index must be nonnegative")
    x = p.x
    _check_domain(horizon, x)
    base, lift = 2 * (1 + x) ** 2, (1 + 2 * x) ** 2
    out, s, power = [Fraction(1)], Fraction(0), Fraction(1)  # power = base^j
    for j in range(horizon):
        s += power / (1 + (j + 2) * x)
        power *= base
        out.append((1 + lift * s) / power)
    return tuple(out)


def omega_eval(n: int, p: FamilyParam) -> Fraction:
    """Direct rational evaluation of omega_n, the fiber-0 dual moment."""
    return omega_prefix(n, p)[n]


# ---------------------------------------------------------------------------
# symbolic layer


# Integer polynomials are coefficient lists, lowest degree first.


def _mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _series_div(a, j) -> list:
    """a / (1 + jx) as a power series at 0, truncated to len(a) terms."""
    q, prev = [], 0
    for c in a:
        prev = c - j * prev
        q.append(prev)
    return q


def _div_linear(a, j):
    """a / (1 + jx) by synthetic division, or None when it is not exact."""
    q = _series_div(a, j)
    return q[:-1] if q[-1] == 0 else None


def _d_numerator(m: int, terms=None) -> list:
    """N_m = D_m L_m by its recurrence (see the module docstring),
    truncated to `terms` coefficients when given."""
    num, term = [1], [-1, -4, -4]  # term = -k! (1+2x)^2 (2x(1+x)^2)^k
    for k in range(m):
        j = k + 2
        num = _add(_mul(num, (1, j + 4, 4 * j + 2, 2 * j)), term)[:terms]
        term = _mul(term, (0, 2 * j - 2, 4 * j - 4, 2 * j - 2))[:terms]
    return num


def _l_factors(m: int) -> list:
    """(j, e) with L_m = 2^m prod (1 + jx)^e."""
    return [(1, 2 * m)] + [(j, 1) for j in range(2, m + 2)]


def _canonical(num, scale: int, factors) -> RatFn:
    """num / (scale prod (1 + jx)^e) as a reduced RatFn with monic denominator.

    The denominator's factors are known, so the gcd is divided out one
    linear factor at a time, for as long as num vanishes at -1/j.
    """
    den = [scale]
    for j, e in factors:
        while e and (q := _div_linear(num, j)) is not None:
            num, e = q, e - 1
        for _ in range(e):
            den = _mul(den, (1, j))
    lead = den[-1]
    return RatFn._from_reduced(
        Poly(Fraction(c, lead) for c in num), Poly(Fraction(c, lead) for c in den)
    )


@lru_cache(maxsize=None)
def d_ratfn(m: int) -> RatFn:
    if m < 0:
        raise ValueError("index must be nonnegative")
    return _canonical(_d_numerator(m), 2**m, _l_factors(m))


def evaluate_d(m: int, x) -> Fraction:
    x = Fraction(x)
    _check_domain(m, x)
    return d_ratfn(m).eval(x)


def _s_series(m: int, terms: int) -> list:
    """S_0..S_m as integer power series at 0, truncated to `terms` coefficients."""
    s, power = [0] * terms, [1] + [0] * (terms - 1)  # power = 2^j (1+x)^(2j)
    out = [s]
    for j in range(m):
        s = [a + b for a, b in zip(s, _series_div(power, j + 2))]
        power = _mul(power, (2, 4, 2))[:terms]
        out.append(s)
    return out


def d_taylor(m: int, order: int) -> tuple:
    """Derivatives D_m^{(l)}(0) for l = 0..order (derivatives, not coefficients)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    # N_m / L_m as a series: one truncated division per linear factor of L_m
    terms = order + 1
    series = _d_numerator(m, terms)
    series += [0] * (terms - len(series))
    for j, e in _l_factors(m):
        for _ in range(e):
            series = _series_div(series, j)
    return tuple([Fraction(c * math.factorial(l), 2**m) for l, c in enumerate(series)])


TABLE_MAX_ORDER = 4


def s_derivatives_at_zero(n: int, l: int) -> Fraction:
    """S_n^{(l)}(0) from the truncated power series of S_n.

    The closed-form cross-check table covers l <= 4 only; higher orders are
    still computed but flagged.
    """
    if n < 0 or l < 0:
        raise ValueError("index and order must be nonnegative")
    if l > TABLE_MAX_ORDER:
        warnings.warn(
            f"order {l} is beyond the tabulated closed forms (l <= 4)",
            stacklevel=2,
        )
    return Fraction(_s_series(n, l + 1)[n][l] * math.factorial(l))


def s_closed_form(n: int, l: int) -> Fraction:
    """Tabulated closed forms for S_n^{(l)}(0), l = 0..4.

    These are the independent check for the symbolic engine: both sides are
    required to agree exactly for all n up to at least 12.
    """
    if not 0 <= l <= TABLE_MAX_ORDER:
        raise ValueError("the table covers orders 0..4")
    t = Fraction(2) ** n
    if l == 0:
        return t - 1
    if l == 1:
        return n * t - 4 * (t - 1)
    if l == 2:
        return 2 * n**2 * t - 10 * n * t + 24 * (t - 1)
    if l == 3:
        return 2 * n**3 * t - 30 * n**2 * t + 100 * n * t - 192 * (t - 1)
    return (
        8 * n**4 * t - 56 * n**3 * t + 460 * n**2 * t - 1324 * n * t
        + 2208 * (t - 1)
    )


# ---------------------------------------------------------------------------
# sign scanning


BRACKET_SHRINK = 1024  # bisection target: width <= x_max / 2^10


class SignScanReport(Record):
    m: int
    x_max: Fraction
    steps: int
    signs: tuple                      # -1 / 0 / +1 at k*x_max/steps, k=1..steps
    values: tuple                     # exact sample values
    negative_prefix: int              # leading samples with D_m < 0
    first_nonnegative: Fraction | None
    bracket: tuple | None             # (lo, hi): D_m(lo) < 0 <= D_m(hi)

    def all_negative(self) -> bool:
        return self.negative_prefix == self.steps

    def summary(self) -> str:
        neg = sum(1 for s in self.signs if s < 0)
        parts = [
            f"m={self.m} samples={self.steps} negative={neg}",
            f"negative_prefix={self.negative_prefix}",
        ]
        if self.bracket is not None:
            lo, hi = self.bracket
            parts.append(
                f"first crossing in [{format_rat(lo)}, {format_rat(hi)}]"
            )
        return " ".join(parts)


def sign_scan(m: int, x_max, steps: int) -> SignScanReport:
    """Exact signs of D_m on the grid k*x_max/steps, k = 1..steps.

    When the samples change sign from negative to nonnegative, the first
    crossing is bisected down to a bracket of width x_max/1024 with
    D_m < 0 on the left end and D_m >= 0 on the right.
    """
    x_max = Fraction(x_max)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    f = d_ratfn(m)
    values = f.eval_grid(x_max, steps)
    signs = tuple([-1 if v < 0 else (0 if v == 0 else 1) for v in values])

    prefix = next((k for k, s in enumerate(signs) if s >= 0), steps)
    first_nonneg = x_max * (prefix + 1) / steps if prefix < steps else None

    bracket = None
    if 1 <= prefix < steps:
        lo, hi = x_max * prefix / steps, first_nonneg
        target = x_max / BRACKET_SHRINK
        while hi - lo > target:
            mid = (lo + hi) / 2
            if f.eval(mid) < 0:
                lo = mid
            else:
                hi = mid
        bracket = (lo, hi)

    return SignScanReport(
        m=m,
        x_max=x_max,
        steps=steps,
        signs=signs,
        values=values,
        negative_prefix=prefix,
        first_nonnegative=first_nonneg,
        bracket=bracket,
    )


FIGURE_MS = (4, 5, 6)
FIGURE_X_MAX = Fraction(3, 5)
FIGURE_STEPS = 120


def figure_rows(x_max=FIGURE_X_MAX, steps: int = FIGURE_STEPS):
    """Exact (x, D_m values for m in FIGURE_MS) rows for the sign-landscape
    table."""
    x_max = Fraction(x_max)
    if steps < 1 or x_max <= 0:
        raise ValueError("need steps >= 1 and x_max > 0")
    columns = [d_ratfn(m).eval_grid(x_max, steps) for m in FIGURE_MS]
    p, big_q = x_max.numerator, x_max.denominator * steps
    return [
        (Fraction(k * p, big_q), row) for k, row in enumerate(zip(*columns), 1)
    ]


# ---------------------------------------------------------------------------
# counterexample pipeline


class CounterexampleVerdict(Record):
    """Bundled evidence that the dual of the family operator at x is not
    subnormal: operator facts, the moment prefix by three independent
    routes, and the Hausdorff verdict."""

    x: Fraction
    report: OperatorReport
    residual_depth: int
    moments: tuple                 # omega route, n = 0..horizon
    closed_form_agrees: bool       # omega == fiber-0 closed form == oracle
    hausdorff: MomentVerdict

    @property
    def residuals_all_zero(self) -> bool:
        return all(r == 0 for r in self.report.two_isometry_residuals)

    @property
    def confirmed(self) -> bool:
        return (
            self.report.bounded
            and self.report.cyclic_sufficient
            and self.residuals_all_zero
            and self.closed_form_agrees
            and not self.hausdorff.passed
        )

    def render(self) -> str:
        lines = [
            f"x = {format_rat(self.x)}",
            f"bounded = {str(self.report.bounded).lower()} "
            f"(norm_sq = {format_rat(self.report.norm_sq)}, "
            f"lower_sq = {format_rat(self.report.lower_bound_sq)})",
            f"cyclic_sufficient = {str(self.report.cyclic_sufficient).lower()}",
            f"two_isometry_residuals = "
            f"{'all zero' if self.residuals_all_zero else 'NONZERO'} "
            f"(depth {self.residual_depth})",
            f"moment_routes_agree = {str(self.closed_form_agrees).lower()} "
            f"(n <= {len(self.moments) - 1})",
            f"hausdorff: {self.hausdorff.render()}",
            f"verdict = {'counterexample confirmed' if self.confirmed else 'not confirmed'}",
        ]
        return "\n".join(lines)


def counterexample_verdict(
    p: FamilyParam,
    depth: int = 5,
    horizon: int = 12,
    residual_depth: int = 50,
) -> CounterexampleVerdict:
    """Run the whole pipeline at parameter x and bundle the evidence.

    Confirmation requires: bounded, the cyclicity condition, residuals
    identically zero, exact agreement of the three moment routes, and a
    Hausdorff failure within the tested depth.  x = 0 is rejected: there
    the operator is an isometry, its dual is an isometry as well, hence
    subnormal, and no counterexample exists.
    """
    if p.x == 0:
        raise ValueError(
            "x = 0 gives an isometry whose dual is subnormal; "
            "the construction needs x > 0"
        )
    w = family_weights(p)
    report = operator_report(w, probe_depth=residual_depth)

    moments = omega_prefix(horizon, p)
    closed = dual_moments_fiber0(w, horizon)
    brute = hsequence(dual_weights(w), 0, horizon).values
    agrees = moments == closed == brute

    verdict = hausdorff_test(MomentSeq.exact(moments), depth)
    return CounterexampleVerdict(
        x=p.x,
        report=report,
        residual_depth=residual_depth,
        moments=moments,
        closed_form_agrees=agrees,
        hausdorff=verdict,
    )
