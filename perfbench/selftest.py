"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

1. A smoke-size run of every workload, untraced and traced, prints every
   metric named in BENCHMARK.json with its unit, every output checks and
   no op fails.
2. Corrupting one expected value per job makes the checker count that job
   as failed, and so does corrupting one computed value in each output
   (a coefficient, a sign or a bracket end, a figure cell, a witness)
   while its format and summary stay consistent: every route of the
   checks can fail.
3. The same seed gives the same job list and input files, and the same
   exact per-layer counts.

Exits 0 when all pass and 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import run
from runner import import_cli, run_op
from workloads import WORKLOADS, make_jobs, rat

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("rational.gcd_calls", "rational.max_coeff_bits", "operators.residual_checks",
                "moments.diff_evals", "oracle.apply_calls")


def smoke(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def corrupt(job: dict) -> dict:
    """The job with one expected value changed so that its output must be rejected."""
    bad = dict(job)
    if job["check"] in ("taylor", "scan"):
        bad["m"] += 1
    elif job["check"] == "figure":
        bad["steps"] += 1
    elif job["check"] == "verdict":
        bad["x"] = rat(Fraction(job["x"]) + Fraction(1, 1000))
    elif job["check"] == "dual":
        bad["x"] = rat(Fraction(job["x"]) + Fraction(1, 1000))
        bad["size"] += 1
    else:
        bad["truth"] = "fail" if job["truth"] == "pass" else "pass"
        bad["backend"] = "exact"  # a flipped truth must not read as the float defect
    return bad


def _plus_one(text: str) -> str:
    return rat(Fraction(text) + 1)


def corrupt_outputs(job: dict, code: int, out: str) -> list:
    """(what, code, output) variants of a correct output with one computed
    value changed and the rest of the output kept consistent with it."""
    lines = out.splitlines()
    kind, bad = job["check"], []
    if kind == "taylor":
        *head, last = out.split()
        bad.append(("last coefficient", code, " ".join(head + [_plus_one(last)])))
    elif kind == "scan":
        summary, signs_line, last = lines
        signs = signs_line[len("signs: "):]
        prefix = len(signs) - len(signs.lstrip("-"))
        if prefix < len(signs) - 1:
            # the last sample is always checked; flipping it keeps the prefix
            flipped = signs[:-1] + ("+" if signs[-1] == "-" else "-")
            head = re.sub(r"negative=\d+", f"negative={flipped.count('-')}", summary)
            bad.append(("last sign", code, f"{head}\nsigns: {flipped}\n{last}\n"))
        match = checks._SUMMARY_RE.match(summary)
        if match[5] is not None:
            # the half of the bracket on which D keeps its sign
            lo, hi = Fraction(match[5]), Fraction(match[6])
            mid = (lo + hi) / 2
            half = (mid, hi) if checks.d_value(job["m"], mid) >= 0 else (lo, mid)
            wrong = f"[{rat(half[0])}, {rat(half[1])}]"
            bad.append(("bracket", code, out.replace(f"[{match[5]}, {match[6]}]", wrong)))
    elif kind == "figure":
        render = rat if job["exact"] else checks._decimal
        row = lines[1].split(",")
        row[1] = render(Fraction(row[1]) + 1)
        bad.append(("figure cell", code, "\n".join([lines[0], ",".join(row), *lines[2:]])))
    elif kind == "verdict":
        fail = re.match(r"^(hausdorff: FAIL m=\d+ j=\d+ value=)(\S+)$", lines[5])
        if fail:
            lines[5] = fail[1] + _plus_one(fail[2])
        else:
            lines[5] = "hausdorff: FAIL m=1 j=0 value=-1"
            lines[6], code = "verdict = counterexample confirmed", 0
        bad.append(("witness", code, "\n".join(lines)))
    else:
        fail = re.match(r"^(FAIL \S+ \S+ value=)(\S+)$", out.strip())
        if fail and "hankel=" in fail[1]:
            bad.append(("Hankel witness", code, fail[1] + rat(-Fraction(fail[2]))))
        elif fail:
            bad.append(("witness", code, fail[1] + _plus_one(fail[2])))
        else:
            hausdorff = kind == "dual" or job["mode"] == "hausdorff"
            claim = "m=1 j=0" if hausdorff else "hankel=0 order=1"
            bad.append(("verdict", 1, f"FAIL {claim} value=-1"))
    return bad


def main() -> int:
    problems = []
    want = {"0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    counts = {}
    for workload in WORKLOADS:
        for trace, seed in (("0", 1), ("1", 1), ("1", 1)):
            result = smoke(workload, seed, int(trace))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1 or result["failed"]:
                problems.append(f"{workload} trace {trace}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if trace == "1":
                exact = {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}
                if counts.setdefault(workload, exact) != exact:
                    problems.append(f"{workload}: exact counts {exact} != {counts[workload]}")

    main_fn, _ = import_cli()
    for workload in WORKLOADS:
        first, second = (ROOT / ".perfbench_work" / f"selftest-{x}" for x in "ab")
        for d in (first, second):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        jobs_a = make_jobs(workload, 7, first, smoke=True)
        jobs_b = make_jobs(workload, 7, second, smoke=True)
        same_files = all((first / f.name).read_bytes() == f.read_bytes() for f in second.iterdir())
        if json.dumps(jobs_a).replace("selftest-a", "x") != json.dumps(jobs_b).replace(
                "selftest-b", "x") or not same_files:
            problems.append(f"{workload}: seed 7 gave two different job lists")

        outputs = [run_op(main_fn, job["argv"]) for job in jobs_a]
        clean, broken = run.Tally(jobs_a), run.Tally([corrupt(j) for j in jobs_a])
        clean.add_pass(outputs)
        broken.add_pass(outputs)
        if not clean.correct:
            problems.append(f"{workload}: clean smoke jobs failed: {clean.errors[:3]}")
        # every job must fail once corrupted, on top of the known float defects
        if broken.failed != len(jobs_a) or broken.correct:
            problems.append(f"{workload}: {broken.failed} of {len(jobs_a)} corrupted jobs failed")
        for job, output in zip(jobs_a, outputs):
            variants = corrupt_outputs(job, output["code"], output["out"])
            if not variants:
                problems.append(f"{workload}: no corrupted output for {job['argv']}")
            for what, code, out in variants:
                if checks.check(job, code, out) is None:
                    problems.append(f"{workload}: a changed {what} passed the check "
                                    f"of {job['argv']}")
        for d in (first, second):
            shutil.rmtree(d, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
