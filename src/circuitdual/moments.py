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
semidefiniteness is decided by symmetric elimination with one pivot rule
and one witness rule.  The exact backend decides signs exactly and builds
a Fraction only for a witness: its difference table runs in integers, the
prefix scaled once to numerators over the lcm of its denominators, and
its elimination (``_psd_exact``) on reduced integer pairs.  The float
backend runs the table and ``_psd`` in doubles and treats values within
an absolute tolerance of zero as zero (``_zero``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .rational import (
    _add, _as_fraction, _mul, format_rat, over_common_denominator, parse_rat,
)

DEFAULT_FLOAT_TOL = 1e-10

EXACT = "exact"
FLOAT = "float"


class MomentSeq(Record):
    """Finite prefix gamma_0..gamma_N under moment testing.  The entries
    give the backend: all Fraction is exact, all float is float."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("a moment prefix needs at least one entry")
        self.backend  # raises TypeError on any other mix of entries

    @property
    def backend(self) -> str:
        for kind, backend in ((Fraction, EXACT), (float, FLOAT)):
            if all(isinstance(v, kind) for v in self.values):
                return backend
        raise TypeError("moment entries must be all Fraction or all float")

    @classmethod
    def exact(cls, values) -> "MomentSeq":
        return cls(tuple([v if type(v) is Fraction else _as_fraction(v) for v in values]))

    @classmethod
    def floats(cls, values) -> "MomentSeq":
        converted = []
        for n, v in enumerate(values):
            try:
                converted.append(float(v))
            except OverflowError:
                raise ValueError(f"entry {n} is beyond the float range") from None
        return cls(tuple(converted))

    @classmethod
    def from_file(cls, path) -> "MomentSeq":
        """Load one value per line; '#' starts a comment.

        Entries may be 'p/q' strings, integers, or decimal literals, and
        convert exactly: the prefix is always on the exact backend.
        """
        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                entries.append(parse_rat(line))
        if not entries:
            raise ValueError(f"no values in sequence file {path}")
        return cls.exact(entries)

    @property
    def top_index(self) -> int:
        return len(self.values) - 1

    def to_floats(self) -> "MomentSeq":
        return MomentSeq.floats(self.values)


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
    return total


def _zero(seq: MomentSeq, tol: float):
    """Values within this of zero count as zero: 0 on the exact backend,
    abs(tol) on the float one."""
    return 0 if seq.backend == EXACT else abs(tol)


def hausdorff_test(
    seq: MomentSeq, depth: int, *, tol: float = DEFAULT_FLOAT_TOL
) -> MomentVerdict:
    """Check all differences with m <= depth and j + m <= N.

    The difference table runs in place, row by row, one subtraction per
    tested pair, up to the first difference below -zero; an exact prefix
    runs as integer numerators over the lcm of its denominators.  The
    verdict records the depth actually reached, which is at most the top
    index tested.  The first violation in lexicographic (m, j) order is
    reported, so failures are deterministic and citable.  A pass certifies
    only the tested range; to test a shorter range, pass a shorter prefix.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    cap = seq.top_index
    depth = min(depth, cap)
    floor = -_zero(seq, tol)
    exact = seq.backend == EXACT
    if exact:
        row, lcm = over_common_denominator(seq.values)
    else:
        row = list(seq.values)
    for m in range(depth + 1):
        for j in range(cap - m + 1):
            if m:
                row[j] -= row[j + 1]  # row[j + 1] still holds row m - 1
            if row[j] < floor:
                value = Fraction(row[j], lcm) if exact else row[j]
                return MomentVerdict(
                    "fail", "hausdorff", depth, cap, witness=(m, j), detail=value
                )
    return MomentVerdict("pass", "hausdorff", depth, cap)


def _hankel(values: Sequence, size: int, shift: int) -> list[list]:
    return [[values[i + j + shift] for j in range(size)] for i in range(size)]


def _psd(matrix: list[list], tol: float) -> tuple:
    """PSD decision by symmetric elimination: (ok, order, value).  The
    float backend's route; on Fractions with tol = 0, ``_psd_exact``'s oracle.

    Pivots run in natural order while the pivot is nonzero; on a zero pivot
    a negative diagonal entry is taken if one exists, else a nonzero one.
    Every accepted pivot is positive, so each Schur-complement diagonal
    entry times the product of the pivots is a principal minor, one size
    larger than the number of pivots.  A negative one fails; when every
    remaining diagonal entry is zero, a nonzero off-diagonal entry s_ij
    fails through the principal minor -det * s_ij^2 two sizes larger.
    Entries within ``tol`` of zero count as zero.  The square is a product,
    so on floats it overflows to inf like every other product here.
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


def _psd_exact(matrix: list[list[tuple]]) -> tuple:
    """``_psd(matrix, 0)`` on reduced (numerator, denominator) pairs: the
    same pivots and witnesses, so the same (ok, order, value).  Exact Schur
    complements stay exactly symmetric, so each step runs on the upper
    triangle and mirrors it.  Entries stay reduced (``rational._mul`` and
    ``_add``): unreduced, they grow at every step, which makes
    fraction-free elimination far slower on wide entries.
    """
    a = [row[:] for row in matrix]
    rest = list(range(len(a)))
    det = (1, 1)
    while rest:
        done = len(a) - len(rest)
        nonzero = [i for i in rest if a[i][i][0]]
        if not nonzero:
            for k, i in enumerate(rest):
                for j in rest[k + 1:]:
                    if a[i][j][0]:
                        n, d = _mul(det, _mul(a[i][j], a[i][j]))
                        return False, done + 2, Fraction(-n, d)
            break
        p = nonzero[0]
        if p != rest[0]:
            p = next((i for i in nonzero if a[i][i][0] < 0), p)
        pivot = a[p][p]
        if pivot[0] < 0:
            return False, done + 1, Fraction(*_mul(det, pivot))
        det = _mul(det, pivot)
        rest.remove(p)
        row, minus_inverse = a[p], (-pivot[1], pivot[0])  # the pivot is positive
        for k, i in enumerate(rest):
            factor, a_i = _mul(row[i], minus_inverse), a[i]
            for j in rest[k:]:
                a_i[j] = a[j][i] = _add(a_i[j], _mul(factor, row[j]))
    return True, None, None


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
    exact = seq.backend == EXACT
    values = [(v.numerator, v.denominator) for v in seq.values] if exact else seq.values
    for shift, size in ((0, order + 1), (1, shifted_size)):
        matrix = _hankel(values, size, shift)
        ok, k, value = _psd_exact(matrix) if exact else _psd(matrix, _zero(seq, tol))
        if not ok:
            return MomentVerdict(
                "fail", "stieltjes", order, n,
                witness=("hankel", shift, k), detail=value,
            )
    return MomentVerdict("pass", "stieltjes", order, n)
