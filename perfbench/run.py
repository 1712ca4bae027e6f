"""The circuitdual benchmark: one command, four workloads of real ``cdl`` ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py and design.json): symbolic-cold, scan-warm,
verdict-sweep, moment-tests.  The jobs are made from the seed here; the
package only ever receives the generated argument lists and input files,
run by perfbench/runner.py in a fresh interpreter.  After the timed run
every output is checked by an independent route (checks.py), outside the
timed region.

Every time is scaled to a fixed machine speed (see _scaled for why): an
op's latency is its median scaled latency over the run's passes; wall_s
sums them over the job list, op_p50_ms and op_tail_ms are percentiles over
the ops.  setup_s is what comes before the timed passes: the package
import and the untimed warm-up pass of a warm workload (every op's first
call), median over fresh-interpreter probes, plus the cold workload's
per-op worker start-up, median over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
plan untraced and then traced (half the seconds each) and prints the
per-layer metrics, including the tracing overhead.  ``--smoke`` shrinks the
job lists for the self-tests.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The run exits with 1, and no
JSON line, when the package cannot be run.

An operation fails when it raises, exits with 2, or disagrees with its
check; exit 1 is a legitimate "check failed" answer.  ``correct`` is false
when any failure is something other than the float backend's known
tolerance defect (a float verdict that differs from the exact truth).  The
ops that show that defect (workloads.py, ``known_defect``) run once per
run, untimed; each is checked, and a disagreement of the defect's kind is
reported as moments.float_disagreements and on its own line, not in
``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
PROBES = {True: 15, False: 5}  # fresh-interpreter set-ups per run, by plan coldness
REF_CAL_MS = 2.5       # runner.calibrate's time at the reference machine speed
MIN_BEYOND = 10        # samples the tail percentile must leave beyond it
MIN_PASSES = 3
RUNNER_SLACK_S = 60    # a runner may overrun its seconds by this much (probes, warm-up, last pass)


def _tail_rank(ops: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile among ops, leaving at
    least one op beyond it."""
    return min(math.ceil(pct / 100 * ops), ops - 1)


def _min_passes(ops: int, pct: int) -> int:
    """Fewest passes that put MIN_BEYOND latency samples beyond the tail."""
    return max(MIN_PASSES, math.ceil(MIN_BEYOND / (ops - _tail_rank(ops, pct))))


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CDL_BACKEND"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _runner(plan: dict, workdir: Path, tag: str) -> dict:
    plan_path, out_path = workdir / f"plan-{tag}.json", workdir / f"result-{tag}.json"
    plan = dict(plan, path=str(plan_path), out=str(out_path))
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "runner.py"), str(plan_path)],
        cwd=ROOT, env=_env(), check=True, timeout=plan["seconds"] + RUNNER_SLACK_S,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(out_path.read_text(encoding="utf-8"))


class Tally:
    """Checked operations across every runner result of one invocation."""

    def __init__(self, jobs: list):
        self.jobs = jobs
        self.attempted = self.failed = self.known_defects = 0
        self.correct = True
        self.errors: list = []

    def add_pass(self, outputs: list, repeats: int = 1) -> set:
        """Check one pass's outputs, counted ``repeats`` times (passes that
        gave the same bytes); return the indices of the failed ops."""
        failing = set()
        for index, (job, output) in enumerate(zip(self.jobs, outputs)):
            error = checks.check(job, output["code"], output["out"])
            self.attempted += repeats
            if error is None:
                continue
            failing.add(index)
            self.failed += repeats
            if not checks.is_float_disagreement(job, error):
                self.correct = False
            self.errors.append(f"{' '.join(job['argv'])}: {error} {output['err'].strip()}")
        return failing

    def add_known_defects(self, jobs: list, outputs: list):
        """Check the known-defect ops: the defect itself is counted apart,
        any other error is a failed op."""
        for job, output in zip(jobs, outputs):
            error = checks.check(job, output["code"], output["out"])
            if checks.is_float_disagreement(job, error):
                self.known_defects += 1
            elif error is not None:
                self.attempted += 1
                self.failed += 1
                self.correct = False
                self.errors.append(f"{' '.join(job['argv'])}: {error} {output['err'].strip()}")

    def add_result(self, result: dict):
        setup = [p["outputs"] for p in result["probes"] if p["outputs"]]
        if result["warmup_outputs"] is not None:
            setup.append(result["warmup_outputs"])
        failing = self.add_pass(result["outputs"], len(result["passes"]) + len(setup))
        # set-up runs (probes, warm-up) and later passes must repeat the
        # first timed pass's bytes
        differ = [tuple(c) for c in result["changed"]]
        for run_no, outputs in enumerate(setup):
            differ += [(f"set-up run {run_no}", i) for i, o in enumerate(outputs)
                       if o != result["outputs"][i]]
        for pass_no, index in differ:
            self.failed += index not in failing
            self.correct = False
            self.errors.append(f"{' '.join(self.jobs[index]['argv'])}: output of pass "
                               f"{pass_no} differs from pass 0")


def _scaled(times: list, cals: list) -> list:
    """Times scaled to the machine speed at which runner.calibrate takes
    REF_CAL_MS, each by the median of the kernel's times measured around it.

    The CPU speed of the shared machine swings by 1.5x and more, in phases
    from under a second to many minutes, and CPU time swings with wall time;
    no estimator over raw times within a run removes a slow phase that lasts
    the whole run.  The kernel is the same kind of work as the package's
    (pure-Python Fraction arithmetic) and runs right before and after each
    op, so the ratio of the two keeps the program's cost and drops the
    machine's speed: over 40 s of drift in which a verdict op's median moved
    from 49 to 69 ms, its ratio to the kernel moved by 4%.  A single kernel
    run now and then takes several times its usual time (preemption, a
    forked worker's exit), hence the median of several.
    """
    return [t * REF_CAL_MS / statistics.median(c) for t, c in zip(times, cals)]


def _op_ms(result: dict) -> list:
    """Each op's median scaled latency over the timed passes."""
    per_pass = [_scaled(p["ms"], p["cals"]) for p in result["passes"]]
    return [statistics.median(samples) for samples in zip(*per_pass)]


def _wall_s(result: dict) -> float:
    return sum(_op_ms(result)) / 1000


def _setup_parts(result: dict) -> dict:
    """The set-up components, scaled: the import and the warm-up pass (the
    sum of every op's first call) as medians over the probes, the worker
    start-up as the sum over the ops of each op's median over the passes."""
    probes = result["probes"]
    starts = [_scaled(p["startup_s"], p["cals"]) for p in result["passes"]]
    return {
        "setup.import_s": statistics.median(
            p["import_s"] * REF_CAL_MS / p["import_cal_ms"] for p in probes),
        "setup.warmup_s": statistics.median(
            sum(_scaled(p["ms"], p["cals"])) for p in probes) / 1000,
        "setup.worker_start_s": sum(statistics.median(s) for s in zip(*starts)),
    }


def end_to_end(result: dict, pct: int, lines: list) -> dict:
    latency = sorted(_op_ms(result))
    passes = len(result["passes"])
    parts = _setup_parts(result)
    probes = len(result["probes"])
    rank = _tail_rank(len(latency), pct)
    metrics = {
        "wall_s": (_wall_s(result), "s"),
        "op_p50_ms": (statistics.median(latency), "ms"),
        "op_tail_ms": (latency[rank - 1], "ms"),
        "setup_s": (sum(parts.values()), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }
    notes = {
        "wall_s": f"sum over the {len(latency)} ops of the job list of each op's median "
                  f"latency over {passes} passes",
        "op_p50_ms": f"median over {len(latency)} ops of their median latency, "
                     f"{len(latency) * passes} samples",
        "op_tail_ms": f"p{pct} over {len(latency)} ops of their median latency, "
                      f"{(len(latency) - rank) * passes} samples beyond",
        "setup_s": f"import {parts['setup.import_s']:.4g} s + warm-up pass "
                   f"{parts['setup.warmup_s']:.4g} s (medians over {probes} fresh "
                   f"interpreters) + worker start-up {parts['setup.worker_start_s']:.4g} s "
                   f"(each op's median over {passes} passes)",
        "peak_rss_mib": "max RSS of the measuring process and its workers",
    }
    lines.append(f"times scaled to the speed at which the calibration kernel takes "
                 f"{REF_CAL_MS} ms; its median this run: {_cal_median(result):.4g} ms")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit} ({notes[name]})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _cal_median(result: dict) -> float:
    return statistics.median(c for p in result["passes"] for op in p["cals"] for c in op)


def per_layer(plain: dict, traced: dict, tally: Tally, lines: list) -> dict:
    values = tracing.layer_metrics(traced["trace"], len(traced["passes"]))
    units = {name: ("count" if kind in ("spans", "sum") else "bits" if kind == "max" else "s")
             for name, (kind, _) in tracing.LAYER_METRICS.items()}
    values["moments.float_disagreements"] = tally.known_defects
    units["moments.float_disagreements"] = "count"
    values.update(_setup_parts(plain))
    values["trace.overhead_s"] = _wall_s(traced) - _wall_s(plain)
    units.update({name: "s" for name in values if name.startswith(("setup.", "trace."))})
    lines.append(f"per-layer values: best of {len(traced['passes'])} traced passes")
    for name, value in values.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job lists (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "circuitdual" / "__init__.py").is_file():
        print("error: src/circuitdual is missing; run from a full checkout", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        every_job = make_jobs(args.workload, args.seed, workdir, smoke=args.smoke)
        jobs = [job for job in every_job if not job.get("known_defect")]
        known_defect = [job for job in every_job if job.get("known_defect")]
        plan = {
            "jobs": [job["argv"] for job in jobs],
            "known_defect": [job["argv"] for job in known_defect],
            "cold": workload.cold,
            "probes": PROBES[workload.cold],
            "probe_timeout": RUNNER_SLACK_S,
            "min_passes": _min_passes(len(jobs), workload.tail_pct),
            "trace": False,
            "seconds": args.seconds / (2 if args.trace else 1),
        }
        started = time.perf_counter()
        plain = _runner(plan, workdir, "plain")
        traced = None
        if args.trace:
            traced = _runner(dict(plan, trace=True, probes=0), workdir, "traced")
        elapsed = time.perf_counter() - started

        # checks run after every timed region has ended
        sys.path.insert(0, str(ROOT / "src"))
        tally = Tally(jobs)
        for result in (plain, traced):
            if result is not None:
                tally.add_result(result)
        tally.add_known_defects(known_defect, plain["known_defect_outputs"])
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: the benchmark could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [
        f"workload {args.workload} seed {args.seed}: {len(jobs)} ops per pass, "
        f"closed loop, 1 client, {elapsed:.1f} s",
        f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"src_lines={_src_lines()} (informational)",
    ]
    if args.trace:
        metrics = per_layer(plain, traced, tally, lines)
    else:
        metrics = end_to_end(plain, workload.tail_pct, lines)
    lines.append(f"fail_ratio {tally.failed}/{tally.attempted} (failed/attempted ops)")
    if known_defect:
        lines.append(f"known float defect: {tally.known_defects} of {len(known_defect)} "
                     f"float-backend ops (12-atom measures at depth 40, run once, untimed) "
                     f"FAIL where the exact truth is PASS")
    lines.extend(f"FAILED {e}" for e in tally.errors[:20])
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
