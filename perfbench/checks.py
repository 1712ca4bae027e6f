"""Independent checks of every benchmark operation's output.

Each check recomputes the answer by a route other than the one the command
took, and returns an error message, or None when the output is right:

- ``taylor``: truncated power series of the closed form of omega_n, in the
  bench's own Fraction arithmetic; the first five entries must also read
  ``0 0 0 0 -288/2^m`` (the paper's law for m >= 5);
- ``scan`` and ``figure``: D_m(x) as sum (-1)^n C(m, n) omega_eval(n, x)
  instead of the symbolic D_m;
- ``verdict``: the Hausdorff witness recomputed from omega_eval with a
  difference table instead of binomial sums;
- ``moments`` and ``dual``: the answer known by construction (atomic
  measures pass, perturbed sequences fail) and, for witnesses, the same
  difference table.

The exit code must be 0 for a pass and 1 for a failed check; exit code 2 or
a raised exception is always an error.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Optional

from workloads import rat

WRONG_VERDICT = "wrong verdict:"
FLOAT_SLACK = Fraction(1, 10 ** 9)  # float witness values: rounding is far below this


def _decimal(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _series_mul(a: list, b: list) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def omega_series(n: int, order: int) -> list[Fraction]:
    """Taylor coefficients at 0 of omega_n up to x^order, from the closed
    form (1 + (1+2x)^2 S_n(x)) / (2^n (1+x)^(2n))."""
    s = [Fraction(0)] * (order + 1)
    for j in range(n):
        rising = [Fraction(2 ** j * math.comb(2 * j, k)) for k in range(order + 1)]
        geometric = [Fraction((-(j + 2)) ** k) for k in range(order + 1)]
        s = [u + v for u, v in zip(s, _series_mul(rising, geometric))]
    square = [Fraction(c) for c in (1, 4, 4)] + [Fraction(0)] * order
    num = _series_mul(square[: order + 1], s)
    num[0] += 1
    inverse = [Fraction((-1) ** k * math.comb(2 * n + k - 1, k), 2 ** n) if n else
               Fraction(int(k == 0)) for k in range(order + 1)]
    return _series_mul(num, inverse)


def d_derivatives(m: int, order: int) -> list[Fraction]:
    """D_m^{(l)}(0) for l = 0..order (derivatives, not coefficients)."""
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(m + 1):
        sign = (-1) ** n * math.comb(m, n)
        coeffs = [c + sign * w for c, w in zip(coeffs, omega_series(n, order))]
    return [c * math.factorial(l) for l, c in enumerate(coeffs)]


def d_value(m: int, x: Fraction) -> Fraction:
    """D_m(x) from the direct omega_n evaluation, not from the symbolic D_m."""
    from circuitdual.family import FamilyParam, omega_eval

    p = FamilyParam(x)
    return sum((-1) ** n * math.comb(m, n) * omega_eval(n, p) for n in range(m + 1))


def first_violation(values, depth: int):
    """First (m, j, value) in lexicographic order with Delta^m gamma_j < 0,
    m <= depth, j + m <= top index; None when there is none.  Uses the
    difference table Delta^m gamma_j = Delta^{m-1} gamma_j - Delta^{m-1} gamma_{j+1}."""
    row = list(values)
    for m in range(depth + 1):
        for j, v in enumerate(row):
            if v < 0:
                return m, j, v
        row = [row[j] - row[j + 1] for j in range(len(row) - 1)]
        if not row:
            break
    return None


def _status_line(code, out: str) -> Optional[str]:
    if code not in (0, 1):
        return f"exit code {code}"
    if out.startswith("PASS") != (code == 0) or not out.startswith(("PASS", "FAIL")):
        return f"exit code {code} does not match output {out[:60]!r}"
    return None


def _taylor(job, code, out):
    m, order = job["m"], job["order"]
    want = d_derivatives(m, order)
    if want[:5] != [0, 0, 0, 0, Fraction(-288, 2 ** m)]:
        return "series route breaks the -288/2^m law"
    expected = " ".join(rat(v) for v in want)
    if code != 0 or out.strip() != expected:
        return f"taylor m={m}: got {out.strip()!r} (exit {code}), want {expected!r}"
    return None


_SUMMARY_RE = re.compile(
    r"^m=(\d+) samples=(\d+) negative=(\d+) negative_prefix=(\d+)"
    r"(?: first crossing in \[(\S+), (\S+)\])?$"
)


def _scan(job, code, out):
    m, steps, xmax = job["m"], job["steps"], Fraction(job["xmax"])
    lines = out.splitlines()
    if code != 0 or len(lines) != 3:
        return f"scan m={m}: exit {code}, {len(lines)} lines"
    match = _SUMMARY_RE.match(lines[0])
    if not match or not lines[1].startswith("signs: "):
        return f"scan m={m}: malformed output {lines[:2]!r}"
    signs = lines[1][len("signs: "):]
    xs = [xmax * k / steps for k in range(1, steps + 1)]
    prefix = len(signs) - len(signs.lstrip("-"))
    if (int(match[1]), int(match[2]), int(match[3]), int(match[4])) != (
        m, steps, signs.count("-"), prefix
    ) or len(signs) != steps:
        return f"scan m={m}: summary {lines[0]!r} disagrees with signs"
    want_last = (
        "no nonnegative sample" if prefix == steps
        else f"first nonnegative sample at x={rat(xs[prefix])}"
    )
    if lines[2] != want_last:
        return f"scan m={m}: {lines[2]!r}, want {want_last!r}"
    # signs at the crossing, the ends and a spread of interior samples
    picks = {0, steps - 1, max(prefix - 1, 0), min(prefix, steps - 1)}
    picks.update(range(0, steps, max(steps // 6, 1)))
    glyph = {-1: "-", 0: "0", 1: "+"}
    for k in sorted(picks):
        v = d_value(m, xs[k])
        if signs[k] != glyph[(v > 0) - (v < 0)]:
            return f"scan m={m}: sign at x={rat(xs[k])} is {signs[k]!r}, D = {rat(v)}"
    if (match[5] is not None) != (1 <= prefix < steps):
        return f"scan m={m}: bracket presence wrong for prefix {prefix}"
    if match[5] is not None:
        lo, hi = Fraction(match[5]), Fraction(match[6])
        if not (xs[prefix - 1] <= lo < hi <= xs[prefix] and hi - lo <= xmax / 1024):
            return f"scan m={m}: bracket [{match[5]}, {match[6]}] is not a refinement"
        if not d_value(m, lo) < 0 <= d_value(m, hi):
            return f"scan m={m}: D(lo) < 0 <= D(hi) fails on [{match[5]}, {match[6]}]"
    return None


def _figure(job, code, out):
    steps, xmax = job["steps"], Fraction(job["xmax"])
    render = rat if job["exact"] else _decimal
    lines = out.splitlines()
    if code != 0 or len(lines) != steps + 1 or lines[0] != "x,D4,D5,D6":
        return f"figure: exit {code}, {len(lines)} lines, header {lines[:1]!r}"
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows, start=1):
        if len(row) != 4 or row[0] != render(xmax * k / steps):
            return f"figure: row {k} is {row!r}"
    for k in sorted({1, steps, *range(1, steps + 1, max(steps // 8, 1))}):
        x = xmax * k / steps
        want = [render(d_value(m, x)) for m in (4, 5, 6)]
        if rows[k - 1][1:] != want:
            return f"figure: row {k} values {rows[k - 1][1:]!r}, want {want!r}"
    return None


def _verdict(job, code, out):
    from circuitdual.family import FamilyParam, omega_eval

    x, h = Fraction(job["x"]), job["horizon"]
    p = FamilyParam(x)
    moments = [omega_eval(n, p) for n in range(h + 1)]
    witness = first_violation(moments, h)
    hausdorff = (
        f"hausdorff: PASS depth={h} n={h}" if witness is None
        else f"hausdorff: FAIL m={witness[0]} j={witness[1]} value={rat(witness[2])}"
    )
    want = [
        f"x = {rat(x)}",
        None,  # bounded line: checked by prefix below
        "cyclic_sufficient = true",
        "two_isometry_residuals = all zero (depth 50)",
        f"moment_routes_agree = true (n <= {h})",
        hausdorff,
        "verdict = " + ("not confirmed" if witness is None else "counterexample confirmed"),
    ]
    lines = out.splitlines()
    if len(lines) != len(want) or not lines[1].startswith("bounded = true "):
        return f"verdict x={job['x']}: malformed output {lines!r}"
    for got, exp in zip(lines, want):
        if exp is not None and got != exp:
            return f"verdict x={job['x']} H={h}: {got!r}, want {exp!r}"
    if code != (1 if witness is None else 0):
        return f"verdict x={job['x']} H={h}: exit {code}"
    return None


def _moment_verdict(job, code, out, values, truth):
    """Shared check for a moment-test op whose exact prefix and truth are known."""
    error = _status_line(code, out)
    if error:
        return error
    status = "pass" if code == 0 else "fail"
    tag = f"{job['backend']} {job['mode']} size={job['size']}"
    if status != truth:
        return f"{WRONG_VERDICT} {tag}: {status.upper()} where the truth is {truth.upper()}"
    top = len(values) - 1
    if truth == "pass":
        key = "depth" if job["mode"] == "hausdorff" else "order"
        want = f"PASS {key}={job['size']} n={top}"
        return None if out.strip() == want else f"{tag}: {out.strip()!r}, want {want!r}"
    if job["mode"] == "stieltjes":
        match = re.match(r"^FAIL hankel=[01] order=\d+ value=(\S+)$", out.strip())
        ok = match and Fraction(match[1]) < 0
        return None if ok else f"{tag}: malformed Hankel witness {out.strip()!r}"
    m, j, v = first_violation(values, job["size"])
    match = re.match(r"^FAIL m=(\d+) j=(\d+) value=(\S+)$", out.strip())
    if match and (int(match[1]), int(match[2])) == (m, j):
        got = Fraction(match[3])
        if got == v if job["backend"] == "exact" else abs(got - v) <= FLOAT_SLACK:
            return None
    return f"{tag}: {out.strip()!r}, want FAIL m={m} j={j} value={rat(v)}"


def _moments(job, code, out):
    values = [Fraction(v) for v in job["values"]]
    if job["mode"] == "hausdorff":
        table = first_violation(values, job["size"])
        if (table is None) != (job["truth"] == "pass"):
            return "bench error: the difference table contradicts the constructed truth"
    return _moment_verdict(job, code, out, values, job["truth"])


def _dual(job, code, out):
    x, fiber, h = Fraction(job["x"]), job["fiber"], job["horizon"]
    if fiber == 0:
        from circuitdual.family import FamilyParam, omega_eval

        p = FamilyParam(x)
        values = [omega_eval(n, p) for n in range(h + 1)]
    else:
        # the xi tail telescopes: |C'^n e_k|^2 = (1+(k+1)x) / (1+(k+n+1)x)
        values = [(1 + (fiber + 1) * x) / (1 + (fiber + n + 1) * x) for n in range(h + 1)]
    truth = "pass" if first_violation(values, job["size"]) is None else "fail"
    return _moment_verdict(dict(job, mode="hausdorff"), code, out, values, truth)


CHECKS = {
    "taylor": _taylor,
    "scan": _scan,
    "figure": _figure,
    "verdict": _verdict,
    "moments": _moments,
    "dual": _dual,
}


def check(job: dict, code, out: str) -> Optional[str]:
    """Error message for a wrong output, or None."""
    if code is None:
        return "the command raised"
    if code == 2:
        return "exit code 2 (input error) on a valid input"
    return CHECKS[job["check"]](job, code, out)


def is_float_disagreement(job: dict, error: Optional[str]) -> bool:
    """A float-backend verdict whose pass/fail status differs from the exact
    truth: the tolerance defect of the float backend, not a wrong answer of
    the exact path."""
    return (
        error is not None
        and job.get("backend") == "float"
        and error.startswith(WRONG_VERDICT)
    )
