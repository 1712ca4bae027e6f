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

The symbolic layer builds S_n, omega_n and D_m in integer arithmetic over
the closed-form common denominator

    L_m = 2^m (1+x)^(2m) P_m,   P_m = prod_{j=2}^{m+1} (1 + jx),
    omega_n L_m = 2^(m-n) (1+x)^(2(m-n))
                  (P_m + (1+2x)^2 sum_{j<n} 2^j (1+x)^(2j) P_m / (1 + (j+2)x)),

where each P_m / (1 + (j+2)x) is an exact synthetic division.  The
canonical form (numerator and denominator coprime, denominator monic)
follows without a polynomial gcd: the numerator is divided by (1+x) up to
2m times and by each (1+jx), j = 2..m+1, once, each time only while it
vanishes at -1/j.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

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


@dataclass(frozen=True)
class FamilyParam:
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


def _div_linear(a, j):
    """a / (1 + jx) by synthetic division, or None when it is not exact."""
    q, prev = [], 0
    for c in a[:-1]:
        prev = c - j * prev
        q.append(prev)
    return q if a[-1] == j * prev else None


def _s_times_p(m: int):
    """P_m and the integer polynomials S_n P_m for n = 0..m."""
    p = [1]
    for j in range(2, m + 2):
        p = _mul(p, (1, j))
    s, power = [], [1]  # power = 2^n (1+x)^(2n)
    out = [s]
    for n in range(m):
        s = _add(s, _mul(power, _div_linear(p, n + 2)))
        power = _mul(power, (2, 4, 2))
        out.append(s)
    return p, out


def _l_factors(m: int) -> list:
    """(j, e) with L_m = 2^m prod (1 + jx)^e."""
    return [(1, 2 * m)] + [(j, 1) for j in range(2, m + 2)]


def _canonical(num, scale: int, factors) -> RatFn:
    """num / (scale prod (1 + jx)^e) as a reduced RatFn with monic denominator.

    The denominator's factors are known, so the gcd is divided out one
    linear factor at a time, for as long as num vanishes at -1/j.
    """
    if not num:
        return RatFn._from_reduced(Poly(), Poly.const(1))
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
def s_ratfn(n: int) -> RatFn:
    """S_n as a reduced rational function (S_0 is the zero function)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    _, s = _s_times_p(n)
    return _canonical(s[n], 1, _l_factors(n)[1:])  # over P_n


@lru_cache(maxsize=None)
def omega_ratfn(n: int) -> RatFn:
    if n < 0:
        raise ValueError("index must be nonnegative")
    p, s = _s_times_p(n)  # omega_n L_n = P_n + (1+2x)^2 S_n P_n
    return _canonical(_add(p, _mul((1, 4, 4), s[n])), 2**n, _l_factors(n))


@lru_cache(maxsize=None)
def d_ratfn(m: int) -> RatFn:
    if m < 0:
        raise ValueError("index must be nonnegative")
    # D_m L_m = sum_n (-1)^n C(m, n) A^(m-n) (P_m + (1+2x)^2 S_n P_m) with
    # A = 2 (1+x)^2, summed by Horner in A
    p, s = _s_times_p(m)
    total = []
    for n in range(m + 1):
        coeff = (-1) ** n * math.comb(m, n)
        term = [coeff * c for c in _add(p, _mul((1, 4, 4), s[n]))]
        total = _add(_mul(total, (2, 4, 2)), term)
    return _canonical(total, 2**m, _l_factors(m))


def evaluate_d(m: int, x) -> Fraction:
    x = Fraction(x)
    _check_domain(m, x)
    return d_ratfn(m).eval(x)


def d_taylor(m: int, order: int) -> tuple:
    """Derivatives D_m^{(l)}(0) for l = 0..order (derivatives, not coefficients)."""
    coeffs = d_ratfn(m).taylor_at_zero(order)
    return tuple(c * math.factorial(l) for l, c in enumerate(coeffs))


TABLE_MAX_ORDER = 4


def s_derivatives_at_zero(n: int, l: int) -> Fraction:
    """S_n^{(l)}(0) from the symbolic layer.

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
    return s_ratfn(n).taylor_at_zero(l)[l] * math.factorial(l)


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


def _rising(a: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= a + i
    return out


def inverse_power_deriv_at_zero(p: int, j: int) -> Fraction:
    """j-th derivative of (1+x)^(-p) at 0: (-1)^j p (p+1) ... (p+j-1)."""
    return Fraction((-1) ** j * _rising(p, j))


def omega_bracket_at_zero(i: int, n: int) -> Fraction:
    """i-th derivative at 0 of (1 + (1+2x)^2 S_n(x)) / 2^n.

    Expanding ((1+2x)^2 S_n)^{(i)} by the product rule leaves three terms;
    at 0 they combine the tabulated S_n derivatives with small binomials.
    For i <= 3 these brackets are polynomials in n of degree i, which is
    what makes the first four derivatives of every D_m (m >= 4) vanish.
    """
    value = Fraction(1) if i == 0 else Fraction(0)
    if i >= 2:
        value += 8 * math.comb(i, 2) * s_derivatives_at_zero(n, i - 2)
    if i >= 1:
        value += 4 * i * s_derivatives_at_zero(n, i - 1)
    value += s_derivatives_at_zero(n, i)
    return value / Fraction(2) ** n


def omega_deriv_leibniz(n: int, l: int) -> Fraction:
    """omega_n^{(l)}(0) assembled by the product rule, independent of the
    symbolic differentiation path."""
    return sum(
        (
            math.comb(l, i)
            * inverse_power_deriv_at_zero(2 * n, l - i)
            * omega_bracket_at_zero(i, n)
            for i in range(l + 1)
        ),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# sign scanning


BRACKET_SHRINK = 1024  # bisection target: width <= x_max / 2^10


@dataclass(frozen=True)
class SignScanReport:
    m: int
    x_max: Fraction
    steps: int
    signs: tuple                      # -1 / 0 / +1 at k*x_max/steps, k=1..steps
    values: tuple                     # exact sample values
    negative_prefix: int              # leading samples with D_m < 0
    first_nonnegative: Optional[Fraction]
    bracket: Optional[tuple]          # (lo, hi): D_m(lo) < 0 <= D_m(hi)

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
    xs = [x_max * k / steps for k in range(1, steps + 1)]
    values = tuple(f.eval(x) for x in xs)
    signs = tuple(-1 if v < 0 else (0 if v == 0 else 1) for v in values)

    prefix = 0
    for s in signs:
        if s < 0:
            prefix += 1
        else:
            break

    first_nonneg = None
    for x, s in zip(xs, signs):
        if s >= 0:
            first_nonneg = x
            break

    bracket = None
    if 1 <= prefix < steps:
        lo, hi = xs[prefix - 1], xs[prefix]
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


def figure_rows(x_max=FIGURE_X_MAX, steps: int = FIGURE_STEPS, ms=FIGURE_MS):
    """Exact (x, D_m values) rows for the sign-landscape table."""
    x_max = Fraction(x_max)
    if steps < 1 or x_max <= 0:
        raise ValueError("need steps >= 1 and x_max > 0")
    fns = [d_ratfn(m) for m in ms]
    rows = []
    for k in range(1, steps + 1):
        x = x_max * k / steps
        rows.append((x, tuple(f.eval(x) for f in fns)))
    return rows


# ---------------------------------------------------------------------------
# counterexample pipeline


@dataclass(frozen=True)
class CounterexampleVerdict:
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
