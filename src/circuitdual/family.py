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

Multiplied by L_m it gives the integer numerator N_m = D_m L_m.  For
m >= 1 exactly (1+x)(1+2x) of L_m cancels (README proves it from the
identity), so D_m's reduced denominator is

    2^m (1+x)^(2m-1) prod_{j=3}^{m+1} (1+jx),   of degree 3m - 2.

The reduced numerator M_m = N_m / ((1+x)(1+2x)) has its own
division-free recurrence,

    M_0 = 1,  M_1 = 2x,
    M_{k+1} = (1+4x+2x^2)(1+(k+2)x) M_k - k! 2^k x^k (1+2x)(1+x)^(2k-1),

each step one product with a cubic, so M_m costs O(m^2) operations.  The
recurrence serves three routes:

- d_ratfn puts M_m over the reduced denominator, built as
  prod_{j=3}^{m+1} (1+jx) and then one product with the binomial row of
  (1+x)^(2m-1), and divides both by their integer content: no polynomial
  gcd, no trial division and no Fraction.
- d_taylor truncates the recurrence after the requested order and divides
  the series by the 3m - 2 linear factors of the reduced denominator, one
  truncated synthetic division each.  The only division of integers is the
  final one by 2^m, so D_m^{(l)}(0) for l <= order costs O(m * order)
  operations on integers.
- figure_pairs runs it on integers at each grid point x = a/b,
  homogenised by b^(3m-2), with the denominator as a running product:
  no RatFn and no Horner pass.

The reduced denominator is a product of positive constants and factors
(1 + jx), so all its coefficients are positive and it is positive for
every x > 0.  There D_m has the sign of its stored numerator (M_m over a
positive content), which sign_scan reads by a binary search (see there).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from ._record import Record
from .moments import MomentSeq, MomentVerdict, hausdorff_test
from .operators import (
    OperatorReport,
    SquaredWeights,
    construct_2isometry,
    dual_moments_fiber0,
    dual_weights,
    operator_report,
)
from .oracle import _powers
from .rational import RatFn, _as_fraction, _homogeneous, format_rat


class FamilyParam(Record):
    """Family parameter; the operator-side constructions need x >= 0."""

    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction(self.x))
        if self.x < 0:
            raise ValueError("the weight family is defined for x >= 0")


def family_weights(p: FamilyParam) -> SquaredWeights:
    """The 2-isometric completion of the head sq(0) = 1/2, sq(1) = 1/2 + x."""
    return construct_2isometry(Fraction(1, 2), Fraction(1, 2) + p.x)


def _omega_terms(horizon: int, p: FamilyParam) -> tuple:
    """omega_0..omega_horizon, the fiber-0 dual moments, as unreduced pairs.

    With x = a/b write B = 2(a+b)^2, L = (b+2a)^2, c_j = b + (j+2)a and
    P_n = prod_{j<n} c_j, so 2^n (1+x)^(2n) = B^n / b^(2n).  Then
    t_n = b^(2n-2) S_n P_n is an integer, t_0 = 0 and
    t_{n+1} = b^2 c_n t_n + b B^n P_n, and

        omega_n = (b^(2n) P_n + L t_n) / (B^n P_n).

    The numerator's first term and the denominator are carried as running
    products as well, so each further index costs a few products with
    small integers and no gcd.  Each B^n P_n > 0 divides the last one.
    """
    if horizon < 0:
        raise ValueError("index must be nonnegative")
    a, b = p.x.numerator, p.x.denominator  # x >= 0: in the domain of every omega_n
    big_b, lift, b_sq = 2 * (a + b) ** 2, (b + 2 * a) ** 2, b * b
    out, t = [(1, 1)], 0
    head, den = 1, 1  # b^(2n) P_n and B^n P_n
    for j in range(horizon):
        c = b + (j + 2) * a
        t = b_sq * c * t + b * den
        head *= b_sq * c
        den *= big_b * c
        out.append((head + lift * t, den))
    return tuple(out)


def omega_eval(n: int, p: FamilyParam) -> Fraction:
    """Direct rational evaluation of omega_n, the fiber-0 dual moment."""
    return Fraction(*_omega_terms(n, p)[n])


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


def _d_numerator(m: int, terms=None) -> list:
    """M_m = D_m L_m / ((1+x)(1+2x)) by its recurrence (see the module
    docstring), truncated to `terms` coefficients when given."""
    if m == 0:
        return [1]
    num, term = [0, 2], [0, -2, -6, -4]  # term = -k! 2^k x^k (1+2x)(1+x)^(2k-1)
    for k in range(1, m):
        j = k + 2
        num = _add(_mul(num, (1, j + 4, 4 * j + 2, 2 * j)), term)[:terms]
        term = _mul(term, (0, 2 * j - 2, 4 * j - 4, 2 * j - 2))[:terms]
    return num[:terms]


def _d_factors(m: int) -> list:
    """(j, e) with D_m's reduced denominator 2^m prod (1 + jx)^e."""
    return [(j, 1) for j in range(3, m + 2)] + [(1, 2 * m - 1)] if m else []


@lru_cache(maxsize=None)
def d_ratfn(m: int) -> RatFn:
    """D_m in lowest terms, its denominator of degree 3m - 2 for m >= 1
    (see the module docstring)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    den = [2**m]
    for j, e in _d_factors(m):
        den = _mul(den, [math.comb(e, i) * j**i for i in range(e + 1)])
    return RatFn(_d_numerator(m), den)


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
    # M_m over D_m's reduced denominator as a series: one truncated
    # division per linear factor
    terms = order + 1
    series = _d_numerator(m, terms)
    series += [0] * (terms - len(series))
    for j, e in _d_factors(m):
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
    negative_prefix: int              # leading samples with D_m < 0
    first_nonnegative: Fraction | None
    bracket: tuple | None             # (lo, hi): D_m(lo) < 0 <= D_m(hi)

    def summary(self) -> str:
        neg = self.signs.count(-1)
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

    D_m's reduced denominator has only positive coefficients, so for x > 0
    D_m has the sign of its integer numerator.  With at most one sign
    variation Descartes' rule leaves it one sign change for x > 0, found by
    a binary search over k, one homogenised Horner pass per probe, from
    which every sign follows.  The count is checked here, and an m with more
    raises ValueError; every m <= 250 has at most one (README).

    When the samples change sign from negative to nonnegative, the first
    crossing is bisected down to a bracket of width x_max/1024 with
    D_m < 0 on the left end and D_m >= 0 on the right.
    """
    x_max = _as_fraction(x_max)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    a = d_ratfn(m).int_numerator
    positive = [c > 0 for c in a if c]
    variations = sum([u != v for u, v in zip(positive, positive[1:])])
    if variations > 1:
        raise ValueError(f"the numerator of D_{m} has {variations} sign variations")
    low = (1 if positive[0] else -1) if positive else 0  # the sign near 0+

    # the first k whose sign is not low lies in (lo, hi]; hi = steps + 1: none
    p, big_q = x_max.numerator, x_max.denominator * steps
    lo, hi, last = 0, steps + 1, 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = _homogeneous(a, mid * p, big_q)
        sign = (v > 0) - (v < 0)
        if sign == low:
            lo = mid
        else:
            hi, last = mid, sign
    signs = (low,) * lo + ((last,) + (-low,) * (steps - hi) if hi <= steps else ())

    prefix = next((k for k, s in enumerate(signs) if s >= 0), steps)
    first_nonneg = Fraction((prefix + 1) * p, big_q) if prefix < steps else None

    bracket = None
    if 1 <= prefix < steps:
        # [lo, lo + 1] * p/den, halved until the width is x_max/BRACKET_SHRINK
        lo, den, width = prefix, big_q, steps
        while width < BRACKET_SHRINK:
            lo, den, width = 2 * lo, 2 * den, 2 * width
            if _homogeneous(a, (lo + 1) * p, den) < 0:
                lo += 1
        bracket = (Fraction(lo * p, den), Fraction((lo + 1) * p, den))

    return SignScanReport(m=m, x_max=x_max, steps=steps, signs=signs, negative_prefix=prefix,
                          first_nonnegative=first_nonneg, bracket=bracket)


FIGURE_MS = (4, 5, 6)
FIGURE_X_MAX = Fraction(3, 5)
FIGURE_STEPS = 120


def _d_at(a: int, b: int, top: int) -> list:
    """D_0..D_top at x = a/b >= 0, top >= 1, as integer pairs: D_0 = (1, 1)
    and, for m >= 1, b^(3m-2) times M_m and D_m's reduced denominator at a/b.

    Homogenised, M's recurrence reads H_{k+1} = C (b + (k+2)a) H_k - T_k
    with C = b^2 + 4ab + 2a^2 and T_k = k! 2^k a^k (b+2a) (a+b)^(2k-1) b.
    T_k and the denominator 2^m (a+b)^(2m-1) prod_{j=3}^{m+1} (b+ja) are
    running products, so each m costs a few products with small integers.
    """
    s, cubic = (a + b) ** 2, b * b + 4 * a * b + 2 * a * a
    num, term, den = 2 * a, 2 * a * (b + 2 * a) * (a + b) * b, 2 * (a + b)
    out = [(1, 1), (num, den)]
    for k in range(1, top):
        c = b + (k + 2) * a
        num = cubic * c * num - term
        term *= 2 * (k + 1) * a * s
        den *= 2 * s * c
        out.append((num, den))
    return out


def figure_pairs(x_max=FIGURE_X_MAX, steps: int = FIGURE_STEPS):
    """Rows (x, D_m for m in FIGURE_MS) of the sign-landscape table as unreduced
    pairs: x = (k p, Q) with p/q = x_max and Q = q steps, and D_m's pair from
    ``_d_at`` at that point, whose second entry is positive for x > 0."""
    x_max = _as_fraction(x_max)
    if steps < 1 or x_max <= 0:
        raise ValueError("need steps >= 1 and x_max > 0")
    p, big_q = x_max.numerator, x_max.denominator * steps
    pick, top = itemgetter(*FIGURE_MS), max(FIGURE_MS)
    return [((a, big_q), pick(_d_at(a, big_q, top))) for a in range(p, p * steps + 1, p)]


def figure_rows(x_max=FIGURE_X_MAX, steps: int = FIGURE_STEPS):
    """``figure_pairs`` as exact Fractions: rows (x, D_m for m in FIGURE_MS)."""
    return [(Fraction(*x), tuple([Fraction(*v) for v in row]))
            for x, row in figure_pairs(x_max, steps)]


# ---------------------------------------------------------------------------
# counterexample pipeline


class CounterexampleVerdict(Record):
    """Bundled evidence that the dual of the family operator at x is not
    subnormal: operator facts, the moment prefix by three independent
    routes, and the Hausdorff verdict."""

    x: Fraction
    report: OperatorReport
    residual_depth: int
    moments: tuple                 # omega route as unreduced pairs, n = 0..horizon
    closed_form_agrees: bool       # omega == fiber-0 closed form == oracle
    hausdorff: MomentVerdict

    @property
    def residuals_all_zero(self) -> bool:
        return not any(self.report.two_isometry_residuals)

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

    # pairs with positive denominators, reduced but for omega's (n, d)
    moments = _omega_terms(horizon, p)
    closed = dual_moments_fiber0(w, horizon)
    brute = tuple(_powers(dual_weights(w), 0, horizon))
    agrees = closed == brute and all([n * q == u * d for (n, d), (u, q) in zip(moments, closed)])
    # the table over B^H P_H, a positive multiple of each d, has the same witness
    big = moments[-1][1]
    verdict = hausdorff_test(MomentSeq.exact([n * (big // d) for n, d in moments]), depth)
    if not verdict.passed:
        verdict = MomentVerdict("fail", "hausdorff", verdict.depth, verdict.top_index,
                                witness=verdict.witness, detail=verdict.detail / big)
    return CounterexampleVerdict(
        x=p.x,
        report=report,
        residual_depth=residual_depth,
        moments=moments,
        closed_form_agrees=agrees,
        hausdorff=verdict,
    )
