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

On the exact backend the differences come from the difference table,
Delta^m gamma_j = Delta^(m-1) gamma_j - Delta^(m-1) gamma_(j+1): one
subtraction per tested pair instead of a binomial sum.

Positive semidefiniteness is decided by one symmetric elimination (``_psd``)
shared by both backends: the exact path works in Fractions and decides signs
exactly; the float path runs the same steps in doubles and treats values
within an absolute tolerance of zero as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rational import format_rat, parse_rat

DEFAULT_FLOAT_TOL = 1e-10

EXACT = "exact"
FLOAT = "float"


@dataclass(frozen=True)
class MomentSeq:
    """Finite prefix gamma_0..gamma_N under moment testing."""

    values: tuple
    backend: str

    def __post_init__(self):
        if self.backend not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {self.backend!r}")
        if len(self.values) == 0:
            raise ValueError("a moment prefix needs at least one entry")
        if self.backend == EXACT:
            if not all(isinstance(v, Fraction) for v in self.values):
                raise TypeError("exact backend requires Fraction entries")
        else:
            if not all(isinstance(v, float) for v in self.values):
                raise TypeError("float backend requires float entries")

    @classmethod
    def exact(cls, values) -> "MomentSeq":
        return cls(tuple(Fraction(v) for v in values), EXACT)

    @classmethod
    def floats(cls, values) -> "MomentSeq":
        return cls(tuple(float(v) for v in values), FLOAT)

    @classmethod
    def from_file(cls, path, backend: str = EXACT) -> "MomentSeq":
        """Load one value per line; '#' starts a comment.

        Entries may be 'p/q' strings, integers, or decimal literals.  On the
        exact backend decimal literals convert exactly.
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
        if backend == EXACT:
            return cls.exact(entries)
        return cls.floats(entries)

    @property
    def top_index(self) -> int:
        return len(self.values) - 1

    def to_floats(self) -> "MomentSeq":
        if self.backend == FLOAT:
            return self
        return MomentSeq.floats(self.values)


@dataclass(frozen=True)
class MomentVerdict:
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
    witness: Optional[tuple] = None
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
    if seq.backend == EXACT:
        total = Fraction(0)
    else:
        total = 0.0
    for n in range(m + 1):
        term = math.comb(m, n) * vals[n + j]
        total = total + term if n % 2 == 0 else total - term
    return total


def _first_violation(seq: MomentSeq, depth: int, cap: int, tol: float):
    """First (m, j, difference) below zero, m <= depth and j + m <= cap, in
    lexicographic order; None when there is none.

    The exact backend runs the difference table in place, row by row,
    Delta^m gamma_j = Delta^(m-1) gamma_j - Delta^(m-1) gamma_(j+1), one
    subtraction per tested pair.  The float backend keeps the binomial sums
    of ``diff_transform``, which round differently from the table, and
    counts a difference as negative only below -tol.
    """
    if seq.backend == FLOAT:
        floor = -abs(tol)
        for m in range(depth + 1):
            for j in range(cap - m + 1):
                value = diff_transform(seq, m, j)
                if value < floor:
                    return m, j, value
        return None
    row = list(seq.values[: cap + 1])
    for m in range(depth + 1):
        for j in range(cap - m + 1):
            if m:
                row[j] -= row[j + 1]  # row[j + 1] still holds row m - 1
            if row[j] < 0:
                return m, j, row[j]
    return None


def hausdorff_test(
    seq: MomentSeq,
    depth: int,
    max_index: Optional[int] = None,
    tol: float = DEFAULT_FLOAT_TOL,
) -> MomentVerdict:
    """Check all differences with m <= depth, j + m <= min(N, max_index).

    The verdict records the depth actually reached, which is at most the
    top index tested.  The first violation in lexicographic (m, j) order is
    reported, so failures are deterministic and citable.  A pass certifies
    only the tested range.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    cap = seq.top_index if max_index is None else min(seq.top_index, max_index)
    depth = min(depth, cap)
    violation = _first_violation(seq, depth, cap, tol)
    if violation is None:
        return MomentVerdict("pass", "hausdorff", depth, cap)
    m, j, value = violation
    return MomentVerdict(
        "fail", "hausdorff", depth, cap, witness=(m, j), detail=value
    )


def _hankel(values: Sequence, size: int, shift: int) -> list[list]:
    return [[values[i + j + shift] for j in range(size)] for i in range(size)]


def _psd(matrix: list[list], tol: float) -> tuple:
    """PSD decision by symmetric elimination: (ok, order, value).

    Pivots run in natural order while the pivot is nonzero; on a zero pivot
    a negative diagonal entry is taken if one exists, else a nonzero one.
    Every accepted pivot is positive, so each Schur-complement diagonal
    entry times the product of the pivots is a principal minor, one size
    larger than the number of pivots.  A negative one fails; when every
    remaining diagonal entry is zero, a nonzero off-diagonal entry s_ij
    fails through the principal minor -det * s_ij^2 two sizes larger.
    Entries within ``tol`` of zero count as zero.
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
                        return False, done + 2, -det * a[i][j] ** 2
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


def stieltjes_test(
    seq: MomentSeq,
    order: int,
    tol: float = DEFAULT_FLOAT_TOL,
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
    zero = 0 if seq.backend == EXACT else abs(tol)
    for shift, size in ((0, order + 1), (1, shifted_size)):
        ok, k, value = _psd(_hankel(seq.values, size, shift), zero)
        if not ok:
            return MomentVerdict(
                "fail", "stieltjes", order, n,
                witness=("hankel", shift, k), detail=value,
            )
    return MomentVerdict("pass", "stieltjes", order, n)


def boundedness_check(seq: MomentSeq, bound) -> bool:
    """True when every entry is at most the bound.

    A bounded Stieltjes moment sequence is automatically a Hausdorff moment
    sequence, so this justifies following a Stieltjes pass with the
    difference test after rescaling by the bound.
    """
    if seq.backend == EXACT:
        bound = Fraction(bound)
    else:
        bound = float(bound)
    return all(v <= bound for v in seq.values)
