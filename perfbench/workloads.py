"""Seeded job lists for the four benchmark workloads.

A job is a dict.  ``argv`` is the ``cdl`` argument list the program
receives; every other key is what the independent checker needs to know
about the input.  Sequence and weight-spec files are written into the run's
work directory.  The same (workload, seed) always gives the same jobs and
the same file contents.

Each workload keeps its cost mix fixed and draws only the inputs from the
seed (the parameters are stratified, the values random), so that two seeds
cost about the same and a change in a metric means a change in the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


def rat(value: Fraction) -> str:
    """The 'p/q' rendering the package uses (denominator 1 omitted)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _rational_in(rng: random.Random, lo: Fraction, hi: Fraction, q: int) -> Fraction:
    """A rational p/q in [lo, hi]; a prime q keeps every draw at the same size."""
    return Fraction(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


# ---------------------------------------------------------------------------
# symbolic-cold: the cold symbolic build of D_m behind `family taylor`


def symbolic_cold(rng: random.Random, workdir: Path, smoke: bool) -> list[dict]:
    # three D_11 builds in the middle and three D_14 builds on top make the
    # median over the ops the middle D_11 and the p80 tail the fastest D_14,
    # so that neither sits where the latency jumps between two values of m
    ms = [6, 7, 8] if smoke else [*range(6, 14), 11, 11, 14, 14, 14]
    orders = [4 + i % 5 for i in range(len(ms))]
    rng.shuffle(orders)
    jobs = []
    for m, order in zip(ms, orders):
        jobs.append({
            "argv": ["family", "taylor", "--m", str(m), "--order", str(order)],
            "check": "taylor", "m": m, "order": order,
        })
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# scan-warm: evaluation of cached D_m (sign scans, bisection, CSV figure)


def scan_warm(rng: random.Random, workdir: Path, smoke: bool) -> list[dict]:
    ms = [4, 8] if smoke else list(range(4, 13)) * 2
    jobs = []
    for i, m in enumerate(ms):
        n = 60 + 5 * i
        xmax = _rational_in(rng, Fraction(1, 10), Fraction(3, 5), 19)
        jobs.append({
            "argv": ["family", "scan", "--m", str(m), "--xmax", rat(xmax), "--steps", str(n)],
            "check": "scan", "m": m, "xmax": rat(xmax), "steps": n,
        })
    figures = [(False, 20), (True, 30)] if smoke else [(False, 100), (False, 120),
                                                       (True, 110), (True, 130)]
    for exact, n in figures:
        xmax = _rational_in(rng, Fraction(2, 5), Fraction(3, 5), 19)
        argv = ["family", "figure", "--xmax", rat(xmax), "--steps", str(n), "--out", "-"]
        jobs.append({
            "argv": argv + (["--exact"] if exact else []),
            "check": "figure", "xmax": rat(xmax), "steps": n, "exact": exact,
        })
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verdict-sweep: the full counterexample pipeline, no symbolic layer


def verdict_sweep(rng: random.Random, workdir: Path, smoke: bool) -> list[dict]:
    # the op's cost grows with x (the Hausdorff test fails at a larger m), so
    # one x from each of three narrow bands per horizon keeps the cost and the
    # mix of confirmed (small x) and unconfirmed (x near 1/2, small H)
    # outcomes the same for every seed
    bands = ((Fraction(5, 101), Fraction(8, 101)), (Fraction(20, 101), Fraction(23, 101)),
             (Fraction(44, 101), Fraction(47, 101)))
    horizons = (8, 12) if smoke else (12, 16, 20, 24, 28, 32)
    jobs = []
    for h in horizons:
        for lo, hi in bands[:1] if smoke else bands:
            x = _rational_in(rng, lo, hi, 101)
            jobs.append({
                "argv": ["family", "verdict", "--x", rat(x), "--depth", str(h),
                         "--horizon", str(h)],
                "check": "verdict", "x": rat(x), "horizon": h,
            })
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# moment-tests: `moments check` on sequence and weight-spec files


def _atomic_moments(rng: random.Random, atoms: int, top: int) -> list[Fraction]:
    """gamma_0..gamma_top of a measure with atoms at multiples of 1/16 in (0, 1)."""
    points = [Fraction(a, 16) for a in rng.sample(range(1, 16), atoms)]
    raw = [rng.randint(1, 9) for _ in points]
    weights = [Fraction(r, sum(raw)) for r in raw]
    return [sum(w * t ** n for t, w in zip(points, weights)) for n in range(top + 1)]


def _bump_hausdorff(rng: random.Random, values: list[Fraction]) -> list[Fraction]:
    # gamma_j > gamma_{j-1} makes the first difference at j-1 negative
    j = rng.randint(1, len(values) - 1)
    out = list(values)
    out[j] = out[j - 1] + out[0] / 8
    return out


def _bump_stieltjes(rng: random.Random, values: list[Fraction]) -> list[Fraction]:
    # gamma_1 = gamma_0 + gamma_2 makes the 2x2 Hankel minor negative
    out = list(values)
    out[1] = out[0] + out[2]
    return out


def moment_tests(rng: random.Random, workdir: Path, smoke: bool) -> list[dict]:
    specs = []  # (values, truth, mode, size, float backend shows the known defect)

    def add(values, truth, mode, size, known_defect=False):
        specs.append((values, truth, mode, size, known_defect))

    # singular Hankels (atoms <= order): the exponential minor sweep
    for atoms in ((2,) if smoke else (3, 4, 3, 4)):
        order = 4 if smoke else 8
        add(_atomic_moments(rng, atoms, 2 * order + 1), "pass", "stieltjes", order)
    # regular Hankels (atoms > order + 1)
    for order, extra in ((3, 0),) if smoke else ((5, 0), (6, 1), (7, 2)):
        add(_atomic_moments(rng, order + 3 + extra, 2 * order + 1), "pass", "stieltjes", order)
    # moderate-depth difference tests
    for depth, atoms in ((5, 3),) if smoke else ((10, 3), (13, 5), (16, 8)):
        add(_atomic_moments(rng, atoms, depth + 4), "pass", "hausdorff", depth)
    # deep difference tests on 12 atoms: the float backend's known false FAIL
    for _ in range(1 if smoke else 2):
        add(_atomic_moments(rng, 12, 41), "pass", "hausdorff", 40, known_defect=True)
    # perturbed sequences that must fail
    for depth, order, atoms in ((6, 3, 2),) if smoke else ((6, 3, 2), (12, 6, 6)):
        add(_bump_hausdorff(rng, _atomic_moments(rng, atoms, depth + 4)),
            "fail", "hausdorff", depth)
        add(_bump_stieltjes(rng, _atomic_moments(rng, atoms, 2 * order + 1)),
            "fail", "stieltjes", order)

    jobs = []
    for i, (values, truth, mode, size, known_defect) in enumerate(specs):
        path = workdir / f"seq{i}.txt"
        path.write_text("".join(rat(v) + "\n" for v in values), encoding="utf-8")
        flag = "--depth" if mode == "hausdorff" else "--order"
        for backend in ("exact", "float"):
            jobs.append({
                "argv": ["--backend", backend, "moments", "check", str(path),
                         "--mode", mode, flag, str(size)],
                "check": "moments", "backend": backend, "mode": mode, "size": size,
                "values": [rat(v) for v in values], "truth": truth,
                "known_defect": known_defect and backend == "float",
            })

    # dual moment sequences from family weight specs: fiber 0 carries the
    # counterexample, fibers >= 1 are Hausdorff moment sequences
    for i in range(1 if smoke else 2):
        x = _rational_in(rng, Fraction(1, 20), Fraction(1, 2), 37)
        path = workdir / f"spec{i}.cdl"
        path.write_text(f"kind = family\nx = {rat(x)}\n", encoding="utf-8")
        for fiber, horizon, depth in ((0, 12 + 4 * i, 6 + 4 * i), (rng.randint(1, 3), 16, 8)):
            for backend in ("exact", "float"):
                jobs.append({
                    "argv": ["--backend", backend, "moments", "check", "--from-dual",
                             str(path), "--fiber", str(fiber), "--horizon", str(horizon),
                             "--depth", str(depth)],
                    "check": "dual", "backend": backend, "x": rat(x), "fiber": fiber,
                    "horizon": horizon, "size": depth,
                })
    rng.shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, Path, bool], list]
    # every op in a freshly forked worker; otherwise one untimed warm-up pass
    # comes first (timed in fresh-interpreter probes, it goes to setup_s)
    cold: bool
    tail_pct: int    # percentile over the ops reported as op_tail_ms


WORKLOADS = {
    "symbolic-cold": Workload(symbolic_cold, cold=True, tail_pct=80),
    "scan-warm": Workload(scan_warm, cold=False, tail_pct=90),
    "verdict-sweep": Workload(verdict_sweep, cold=False, tail_pct=90),
    "moment-tests": Workload(moment_tests, cold=False, tail_pct=90),
}


def make_jobs(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[dict]:
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name].make(rng, workdir, smoke)
