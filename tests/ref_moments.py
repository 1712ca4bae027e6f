"""Reference routes for exact moment prefixes, and the tests' converter.

An exact ``MomentSeq`` is integer numerators over one denominator, built
by the loaders without a ``Fraction`` per entry.  The route it replaced
stays here as an oracle: ``ref_from_file`` reads every value line into a
``Fraction`` by ``ref_parse_rat``, Fraction's string parser, and ``exact_prefix`` puts a list of
Fractions or ints over the lcm of their reduced denominators, with its own
lcm.
``ref_moments_check`` runs ``cdl moments check`` on a sequence file by
that route: the float backend takes ``float()`` of each Fraction.

``exact_prefix`` is also how the tests write a prefix from Fractions, and
``fractions`` reads one back as Fractions.  ``fractions_built`` counts the
``Fraction`` objects a call builds.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from circuitdual import rational
from circuitdual.moments import MomentSeq, hausdorff_test, stieltjes_test
import ref_rational  # a module import: ref_rational imports this module


def exact_prefix(values) -> MomentSeq:
    """An exact prefix from Fractions or ints over the lcm of their reduced
    denominators, so that equal prefixes compare equal; floats are refused."""
    values = [rational._as_fraction(v) for v in values]
    lcm = math.lcm(*[v.denominator for v in values])
    return MomentSeq(tuple([v.numerator * (lcm // v.denominator) for v in values]), lcm)


def fractions(seq: MomentSeq) -> tuple:
    """The values of an exact prefix as Fractions."""
    return tuple([Fraction(n, seq.denominator) for n in seq.values])


def ref_from_file(path, cap=None) -> list:
    """The values of a sequence file as Fractions, each line through
    ``ref_parse_rat``; the same refusals and messages as the loader."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if len(entries) == cap:
                raise ValueError(f"a sequence file must hold at most {cap} "
                                 f"values, got more than {cap}")
            entries.append(ref_rational.ref_parse_rat(line))
    if not entries:
        raise ValueError(f"no values in sequence file {path}")
    return entries


def ref_moments_check(path, backend: str, mode: str, level: int, cap: int) -> tuple:
    """(exit code, stdout, stderr) of ``cdl --backend B moments check path
    --mode M`` with ``level`` as --depth or --order, by the Fraction route."""
    try:
        entries = ref_from_file(path, cap)
        seq = MomentSeq.floats(entries) if backend == "float" else exact_prefix(entries)
        test = hausdorff_test if mode == "hausdorff" else stieltjes_test
        verdict = test(seq, level)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    return (0 if verdict.passed else 1), verdict.render() + "\n", ""


def fractions_built(call) -> tuple:
    """call() and the number of Fraction.__new__ calls it made."""
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            built += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, built
