"""Runs one workload's job list against the package, in this process.

    python3 perfbench/runner.py PLAN.json            measure; write the plan's "out" file
    python3 perfbench/runner.py --probe PLAN.json    one fresh set-up, printed as JSON

Every operation is one ``cdl`` argument list passed to
``circuitdual.cli.main`` with stdout and stderr captured: what a ``cdl``
user gets, minus interpreter start-up.  One client sends the operations one
after another (a closed loop, no threads).  The job list is run as a pass,
again and again, until the plan's seconds are spent and the tail
percentile has enough samples; the first timed pass keeps every output for
checking and later passes keep only whether their output changed.

In a cold plan each operation runs in a worker forked from this process
before any symbolic object exists; the fork is outside the op's time and is
reported as worker start-up.  In a warm plan the untimed warm-up pass is the
only thing that fills the package's caches.

Set-up is measured by probes: fresh interpreters that import the package
and, in a warm plan, run the untimed warm-up pass once, so each op's first
call pays what a fresh ``cdl`` process pays (lazy imports, cache fills).
The probes are spread evenly over the plan's seconds, between passes.

Every op, and every probe's import, comes with runs of ``calibrate``: a
fixed pure-Python kernel whose times around an op (``cals``) run.py uses to
scale the op's time to a fixed machine speed (see run.py).  In a warm plan
one kernel run sits between two ops and an op's ``cals`` are the CAL_SIDE
runs on each side of it; a cold op's worker runs the kernel CAL_SIDE times
before and after the op itself, on the CPU the op runs on.  The plan's
known-defect ops run once, untimed, after the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAL_SIDE = 3  # kernel runs on each side of an op that scale its time


def import_cli():
    """Import circuitdual.cli from this checkout; return (main, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import circuitdual.cli
    seconds = time.perf_counter() - start
    if not Path(circuitdual.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"circuitdual imported from {circuitdual.cli.__file__}")
    return circuitdual.cli.main, seconds


def run_op(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising op is a failed op, not a failed run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - start) * 1000
    return {"code": code, "ms": ms, "out": out.getvalue(), "err": err.getvalue()}


def calibrate() -> float:
    """Milliseconds of a fixed kernel of the package's kind of work (pure-Python
    Fraction sums with growing gcds), made of the standard library only."""
    from fractions import Fraction  # not before the package import is timed

    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k * k + 1)
    return (time.perf_counter() - start) * 1000


def run_calibrated(op, count: int) -> list:
    """op(i) for i < count, one kernel run between two ops; each result's
    ``cals`` are the CAL_SIDE kernel times on each side of it (fewer at the
    ends)."""
    results, cals = [], [calibrate()]
    for index in range(count):
        results.append(op(index))
        cals.append(calibrate())
    for index, result in enumerate(results):
        result["cals"] = cals[max(0, index + 1 - CAL_SIDE):index + 1 + CAL_SIDE]
    return results


def run_op_calibrated(main, argv: list) -> dict:
    """run_op with CAL_SIDE kernel runs right before and after the op."""
    before = [calibrate() for _ in range(CAL_SIDE)]
    result = run_op(main, argv)
    result["cals"] = before + [calibrate() for _ in range(CAL_SIDE)]
    return result


def run_forked(task) -> dict:
    """Run task() in a forked child and return its JSON-able result, plus
    the child's start-up time (fork to first instruction)."""
    read_fd, write_fd = os.pipe()
    forked_at = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            started = time.perf_counter()
            result = task()
            result["startup_s"] = started - forked_at
            with os.fdopen(write_fd, "w") as fh:
                json.dump(result, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"code": None, "ms": 0.0, "out": "", "err": "worker died", "startup_s": 0.0,
                "cals": [1.0]}
    return json.loads(data)


class Runner:
    def __init__(self, plan: dict, main, tracer):
        self.jobs = plan["jobs"]
        self.cold = plan["cold"]
        self.main = main
        self.tracer = tracer

    def op(self, pass_no: int, index: int) -> dict:
        argv = self.jobs[index]
        if self.tracer is not None:
            self.tracer.op = (pass_no, index)
        if not self.cold:
            return run_op(self.main, argv)
        if self.tracer is None:
            return run_forked(lambda: run_op_calibrated(self.main, argv))

        def traced():
            self.tracer.reset()
            self.tracer.op = (pass_no, index)
            result = run_op_calibrated(self.main, argv)
            result["trace"] = self.tracer.export()
            return result

        result = run_forked(traced)
        if "trace" in result:
            self.tracer.merge(result.pop("trace"))
        return result

    def run_pass(self, pass_no: int) -> list:
        if self.cold:
            return [self.op(pass_no, i) for i in range(len(self.jobs))]
        return run_calibrated(lambda i: self.op(pass_no, i), len(self.jobs))


def _outputs(results: list) -> list:
    return [{"code": r["code"], "out": r["out"], "err": r["err"]} for r in results]


def measure(plan: dict) -> dict:
    main, import_s = import_cli()
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.span("cli", main)
    runner = Runner(plan, main, tracer)

    # probes, warm-up and timed passes share the plan's seconds; probe k runs
    # once k/probes of them have passed
    start = time.perf_counter()
    report = {"import_s": import_s, "probes": [], "warmup_outputs": None}
    if not plan["cold"]:
        report["warmup_outputs"] = _outputs(runner.run_pass(-1))

    passes, first, changed = [], None, []
    while True:
        elapsed = time.perf_counter() - start
        probes = report["probes"]
        due = len(probes) * plan["seconds"] / plan["probes"] if plan["probes"] else 0
        if len(probes) < plan["probes"] and elapsed >= due:
            probes.append(_probe(plan))
            continue
        if elapsed >= plan["seconds"] and len(passes) >= plan["min_passes"]:
            break
        results = runner.run_pass(len(passes))
        outputs = _outputs(results)
        if first is None:
            first = outputs
        else:
            changed.extend([len(passes), i] for i, o in enumerate(outputs) if o != first[i])
        passes.append({
            "ms": [r["ms"] for r in results],
            "cals": [r["cals"] for r in results],
            "startup_s": [r.get("startup_s", 0.0) for r in results],
        })
    if tracer is not None:
        tracer.op = (None, None)
    report.update(
        known_defect_outputs=_outputs([run_op(main, argv) for argv in plan["known_defect"]]),
        passes=passes,
        outputs=first,
        changed=changed,
        peak_rss_kib=max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        trace=tracer.export() if tracer else None,
    )
    return report


def _probe(plan: dict) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--probe", plan["path"]],
        check=True, capture_output=True, text=True, timeout=plan["probe_timeout"],
    )
    return json.loads(done.stdout)


def probe(plan: dict) -> dict:
    """This fresh interpreter's set-up: the import, and in a warm plan the
    warm-up pass (every op's first call), timed per op."""
    main, import_s = import_cli()
    import_cals = sorted(calibrate() for _ in range(3))
    jobs = [] if plan["cold"] else plan["jobs"]
    results = run_calibrated(lambda i: run_op(main, jobs[i]), len(jobs))
    return {"import_s": import_s, "import_cal_ms": import_cals[1], "ms": [r["ms"] for r in results],
            "cals": [r["cals"] for r in results], "outputs": _outputs(results)}


def main(argv: list) -> int:
    plan = json.loads(Path(argv[-1]).read_text(encoding="utf-8"))
    if argv[0] == "--probe":
        print(json.dumps(probe(plan)))
        return 0
    report = measure(plan)
    Path(plan["out"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
