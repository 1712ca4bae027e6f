"""Brute-force ground truth for operator powers on a finite basis block.

Nothing here uses a closed form, a 2-isometry or a telescoping product:
the squared norms |C^n e_k|^2 are read off one finite matrix power, which
is what the rest of the package is checked against.

The action never merges two sources into one index: the circuit feeds e_0
and e_1 from e_0 alone, and the shift feeds e_{n+1} from e_n alone.  So
with A_ij = |<C e_j, e_i>|^2 the power A^n is |C^n|^2 entrywise, and

    |C^n e_k|^2 = sum_i |<C^n e_k, e_i>|^2 = (1^T A^n)_k.

The oracle reads that row from the adjoint side: u_0 = (1, 1, ...) and
u_j = A^T u_{j-1} give u_j[k] = |C^j e_k|^2, with

    u_j[0] = sq(0) u_{j-1}[0] + sq(1) u_{j-1}[1],
    u_j[i] = sq(i+1) u_{j-1}[i+1]  (i >= 1),

so the only sum has two terms.  For k >= 1 index 0 is never read, so step
j carries only indices k..k+n-j (0..n-j for k = 0): n + 1 entries at the
start, one fewer each step, whatever the fiber.

Each entry is an exact rational held as a reduced (numerator, denominator)
pair of integers; no square root and no sign convention is ever needed.
Products and the two-term sum stay reduced as ``Fraction`` keeps them, by
the package's one pair arithmetic, ``rational._mul`` and ``rational._add``.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .moments import MomentSeq
from .operators import SquaredWeights
from .rational import _add, _mul


class BandedOp(Record):
    """Truncated action on span{e_0..e_{size-1}}, on squared moduli."""

    weights: SquaredWeights
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("need at least span{e_0, e_1}")
        object.__setattr__(self, "_sq", tuple(self.weights.pairs(self.size)))

    def apply(self, u: list, start: int = 0) -> list:
        """One step of the adjoint action, u -> A^T u, on a window.

        ``u`` holds reduced (numerator, denominator) pairs at the indices
        start..start+len(u)-1; the image is returned on the same window
        less its last index, which would need an entry past it.
        """
        end = start + len(u)
        if len(u) < 2 or start < 0 or end > self.size:
            raise ValueError(
                f"window {start}..{end - 1} is not two or more indices "
                f"inside the block 0..{self.size - 1}"
            )
        sq = self._sq
        # lists and no tuple slices: CPython 3.11 files every freed 20-item
        # tuple on a free list that no allocation takes from, up to 2,000 of
        # them until a full collection, and the windows take every length
        out = [_mul(a, sq[i]) for i, a in enumerate(u[1:], start + 1)]
        if start == 0:
            out[0] = _add(_mul(u[0], sq[0]), out[0])
        return out


def _powers(w: SquaredWeights, k: int, n: int) -> list:
    """|C^j e_k|^2 for j = 0..n, as the first entry of each window."""
    size = max(k + n + 1, 2)
    if k < 0:
        raise ValueError(f"basis index {k} outside 0..{size - 1}")
    op = BandedOp(w, size)
    u = [(1, 1)] * (n + 1)
    values = [Fraction(1)]
    for _ in range(n):
        u = op.apply(u, k)
        values.append(Fraction(*u[0]))
    return values


def gram_diagonal(w: SquaredWeights, k: int, n: int) -> Fraction:
    """|C^n e_k|^2 by direct application on the block e_0..e_{k+n}, which
    holds C^n e_k; exact, no truncation error."""
    if k < 0 or n < 0:
        raise ValueError("fiber and power must be nonnegative")
    return _powers(w, k, n)[-1]


def hsequence(w: SquaredWeights, k: int, n_max: int = 12) -> MomentSeq:
    """Moment prefix {|C^n e_k|^2} for n = 0..n_max, ready for testing."""
    if n_max < 0:
        raise ValueError("horizon must be nonnegative")
    return MomentSeq.exact(_powers(w, k, n_max))
