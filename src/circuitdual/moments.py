"""Finite-prefix tests for Hausdorff and Stieltjes moment conditions.

A sequence of reals is a Hausdorff moment sequence exactly when all of its
iterated backward differences

    sum_{n=0}^{m} (-1)^n C(m, n) gamma_{n+j}   (j, m >= 0)

are nonnegative; Stieltjes necessary conditions ask the Hankel matrix
(gamma_{i+j}) and its shift (gamma_{i+j+1}) to be positive semidefinite.
Only a finite prefix is ever available here, so a passing verdict means "no
violation among the tested pairs", never membership.  Verdicts carry the
tested ranges for that reason, and a failing verdict always carries an
explicit witness.

The differences come from one difference table, shared by both backends,
Delta^m gamma_j = Delta^(m-1) gamma_j - Delta^(m-1) gamma_(j+1): one
subtraction per tested pair instead of a binomial sum.  Positive
semidefiniteness is decided by one symmetric elimination (``_eliminate``),
which holds the pivot rule and the witness rule; each backend brings only
its arithmetic.  An exact prefix is integer numerators over one positive
denominator, and no entry is a Fraction.  The exact backend decides signs
exactly and builds a Fraction only for a witness: its difference table
runs on the numerators, its elimination on entries reduced to integer
pairs.  The float backend runs both in doubles and treats values within
an absolute tolerance of zero as zero.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from operator import itemgetter

from ._record import Record
from .rational import (
    _add, _mul, format_rat, over_common_denominator, parse_pair,
)

DEFAULT_FLOAT_TOL = 1e-10

EXACT = "exact"
FLOAT = "float"


class MomentSeq(Record):
    """Finite prefix gamma_0..gamma_N under moment testing: exact, gamma_i =
    values[i] / denominator in integers; float, float values and no
    denominator.  ``backend`` is read once, from the denominator."""

    values: tuple
    denominator: int | None = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("a moment prefix needs at least one entry")
        d = self.denominator
        if not all(isinstance(v, float if d is None else int) for v in self.values):
            raise TypeError("moment entries must be integers over a denominator, or floats")
        if d is not None and (type(d) is not int or d <= 0):
            raise ValueError("the denominator must be a positive integer")
        object.__setattr__(self, "backend", FLOAT if d is None else EXACT)

    @classmethod
    def floats(cls, values) -> "MomentSeq":
        converted = []
        try:
            for v in values:
                converted.append(float(v))
        except OverflowError:
            raise ValueError(f"entry {len(converted)} is beyond the float range") from None
        return cls(tuple(converted))

    @classmethod
    def from_file(cls, path, cap=None) -> "MomentSeq":
        """Load one value per line; '#' starts a comment.

        Entries may be 'p/q' strings, integers, or decimal literals, and
        convert exactly: the prefix is always on the exact backend.  A file
        of more than ``cap`` values is refused at value cap + 1, unparsed.
        """
        pairs = []
        with open(path, "r", encoding="utf-8-sig") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if len(pairs) == cap:
                    raise ValueError(f"a sequence file must hold at most {cap} "
                                     f"values, got more than {cap}")
                pairs.append(parse_pair(line))
        if not pairs:
            raise ValueError(f"no values in sequence file {path}")
        return cls(*over_common_denominator(pairs))

    @property
    def top_index(self) -> int:
        return len(self.values) - 1

    def to_floats(self) -> "MomentSeq":
        return MomentSeq.floats(n / self.denominator for n in self.values)  # correctly rounded


class MomentVerdict(Record):
    """Outcome of a finite-depth necessary-conditions check.

    ``witness`` is (m, j) for a difference violation, with ``detail`` the
    negative difference, and ('hankel', shift, order) for a Hankel
    violation, with ``detail`` a negative principal minor of size ``order``
    of that Hankel matrix.  Passing verdicts record the ranges actually
    tested.
    """

    status: str                  # "pass" | "fail"
    mode: str                    # "hausdorff" | "stieltjes"
    depth: int                   # max difference order m, or Hankel order K
    top_index: int               # largest sequence index examined
    witness: tuple | None = None
    detail: object = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def render(self) -> str:
        def fmt(v):
            return format_rat(v) if isinstance(v, Fraction) else repr(v)

        if self.passed:
            key = "depth" if self.mode == "hausdorff" else "order"
            return f"PASS {key}={self.depth} n={self.top_index}"
        if self.mode == "hausdorff":
            m, j = self.witness
            return f"FAIL m={m} j={j} value={fmt(self.detail)}"
        _, shift, order = self.witness
        return f"FAIL hankel={shift} order={order} value={fmt(self.detail)}"


def diff_transform(seq: MomentSeq, m: int, j: int):
    """Alternating binomial sum sum_n (-1)^n C(m,n) gamma_{n+j}, exact or float."""
    if m < 0 or j < 0:
        raise ValueError("order and shift must be nonnegative")
    if j + m > seq.top_index:
        raise ValueError(
            f"prefix too short: need index {j + m}, have {seq.top_index}"
        )
    vals = seq.values
    total = 0
    for n in range(m + 1):
        term = math.comb(m, n) * vals[n + j]
        total = total + term if n % 2 == 0 else total - term
    return Fraction(total, seq.denominator) if seq.backend == EXACT else total


def hausdorff_test(
    seq: MomentSeq, depth: int, *, tol: float = DEFAULT_FLOAT_TOL
) -> MomentVerdict:
    """Check all differences with m <= depth and j + m <= N.

    The difference table runs in place, row by row, one subtraction per
    tested pair, up to the first negative one (below -tol on floats), on
    an exact prefix's numerators.  The verdict records the depth actually
    reached, at most the top index tested.  The first violation in
    lexicographic (m, j) order is reported, so failures are deterministic
    and citable.  A pass certifies only the tested range; to test a
    shorter range, pass a shorter prefix.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    cap = seq.top_index
    depth = min(depth, cap)
    exact = seq.backend == EXACT
    floor = 0 if exact else -abs(tol)
    row = list(seq.values)
    for m in range(depth + 1):
        for j in range(cap - m + 1):
            if m:
                row[j] -= row[j + 1]  # row[j + 1] still holds row m - 1
            if row[j] < floor:
                value = Fraction(row[j], seq.denominator) if exact else row[j]
                return MomentVerdict(
                    "fail", "hausdorff", depth, cap, witness=(m, j), detail=value
                )
    return MomentVerdict("pass", "hausdorff", depth, cap)


def _hankel(values: Sequence, size: int, shift: int) -> list[list]:
    return [[values[i + j + shift] for j in range(size)] for i in range(size)]


def _eliminate(matrix: list[list], sign, product, step) -> tuple:
    """PSD decision by symmetric elimination: (ok, order, value).

    Pivot rule: pivots run in natural order while nonzero; on a zero pivot a
    negative diagonal entry is taken if one exists, else a nonzero one.
    Every accepted pivot is positive, so a Schur-complement diagonal entry
    times det, the product of the pivots, is a principal minor one size
    larger than the number of pivots.  Witness rule: a negative pivot fails
    with that minor; when every diagonal entry left is zero, the first
    nonzero s_ij in row order fails with the minor -det * s_ij^2, two sizes
    larger.  The backend brings its arithmetic: ``sign(v)``, a number of
    v's sign under its zero rule; ``product(factors, start=1)``, as
    ``math.prod``; ``step(a, p, rest)``, the Schur complement of pivot p.
    """
    a = [row[:] for row in matrix]
    rest = list(range(len(a)))
    pivots = []
    while rest:
        nonzero = [i for i in rest if sign(a[i][i])]
        if not nonzero:
            s = next((a[i][j] for i in rest for j in rest if sign(a[i][j])), None)
            if s is None:
                break
            return False, len(pivots) + 2, product([*pivots, product([s, s])], start=-1)
        p = nonzero[0]
        if p != rest[0]:
            p = next((i for i in nonzero if sign(a[i][i]) < 0), p)
        if sign(a[p][p]) < 0:
            return False, len(pivots) + 1, product([*pivots, a[p][p]])
        pivots.append(a[p][p])
        rest.remove(p)
        step(a, p, rest)
    return True, None, None


def _float_arithmetic(tol: float) -> tuple:
    """Doubles: values within tol of zero count as zero, and so does NaN
    (from inf - inf).  Products overflow to inf.  The step runs on the
    whole matrix."""

    def sign(v):
        return v if abs(v) > tol else 0

    def step(a, p, rest):
        for i in rest:
            factor = a[i][p] / a[p][p]
            for j in rest:
                a[i][j] -= factor * a[p][j]

    return sign, math.prod, step


def _exact_product(factors, start=1):
    n, d = reduce(_mul, factors)
    return start * n, d


def _exact_step(a, p, rest):
    """Exact Schur complements stay exactly symmetric, so the step runs on
    the upper triangle and mirrors it.  Entries stay reduced (``_mul``,
    ``_add``): unreduced, as in fraction-free elimination, they grow each step."""
    row = a[p]
    minus_inverse = (-row[p][1], row[p][0])  # the pivot is positive
    for k, i in enumerate(rest):
        factor, a_i = _mul(row[i], minus_inverse), a[i]
        for j in rest[k:]:
            a_i[j] = a[j][i] = _add(a_i[j], _mul(factor, row[j]))


_EXACT_ARITHMETIC = (itemgetter(0), _exact_product, _exact_step)  # numerator's sign


def stieltjes_test(
    seq: MomentSeq, order: int, *, tol: float = DEFAULT_FLOAT_TOL
) -> MomentVerdict:
    """Necessary Stieltjes conditions via the Hankel matrix and its shift.

    The unshifted matrix has size order+1.  The shifted one needs index
    2*order+1, so when only 2*order entries are available it is truncated
    by one row and column.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    n = seq.top_index
    if 2 * order > n:
        raise ValueError(f"prefix too short: need index {2 * order}, have {n}")
    shifted_size = order + 1 if 2 * order + 1 <= n else order
    d, exact = seq.denominator, seq.backend == EXACT
    read = seq.values[: 2 * order + 2]  # the entries the Hankels read, reduced if exact
    values = [(v // g, d // g) for v in read for g in (math.gcd(v, d),)] if exact else read
    arithmetic = _EXACT_ARITHMETIC if exact else _float_arithmetic(abs(tol))
    for shift, size in ((0, order + 1), (1, shifted_size)):
        ok, k, value = _eliminate(_hankel(values, size, shift), *arithmetic)
        if not ok:
            return MomentVerdict(
                "fail", "stieltjes", order, n,
                witness=("hankel", shift, k),
                detail=Fraction(*value) if exact else value,
            )
    return MomentVerdict("pass", "stieltjes", order, n)
