"""Every attribute the benchmark tracer wraps must exist in the package.

``perfbench/tracing.py`` looks its span and count points up by name when a
traced run starts, so deleting or renaming one would crash that run.  This
test reads the same tables and resolves each point, class attributes
through ``vars(cls)`` as the tracer does.  A name that resolves can
still stop seeing its layer, so traced runs pin two metrics of the
symbolic build, two counts of the verdict pipeline, and the loader, the
oracle and the exact Stieltjes test under ``moments check``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circuitdual

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# executed from its source text, so nothing is written next to the file
tracing = {"__name__": "perfbench_tracing"}
exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing)
POINTS = sorted({(row[0], row[1]) for row in tracing["SPANS"] + tracing["COUNTS"]})


@pytest.mark.parametrize("module, path", POINTS)
def test_trace_point_resolves(module, path):
    owner = getattr(circuitdual, module)
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        assert attr in vars(owner)
    else:
        assert callable(getattr(owner, attr))


# a traced `cdl` run in a fresh interpreter, so the wrappers never reach
# this process; -B keeps the tracer's bytecode out of perfbench/
TRACED_RUN = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(TRACING.parent)!r})
from circuitdual import cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
tracer.op = (0, 0)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, tracing.layer_metrics(tracer.export(), 1)]))
"""


def traced(argv: list) -> tuple:
    """Exit code and per-layer metrics of one traced ``cdl`` run."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUN, json.dumps(argv)],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return tuple(json.loads(done.stdout))


def test_traced_scan_sees_the_symbolic_build():
    code, metrics = traced(["family", "scan", "--m", "12", "--xmax", "3/5", "--steps", "60"])
    assert code == 0
    assert metrics["family.d_build_s"] > 0
    assert metrics["rational.max_coeff_bits"] == 52


def test_traced_verdict_counts_the_oracle_and_the_residuals():
    code, metrics = traced(
        ["family", "verdict", "--x", "1/7", "--horizon", "12", "--depth", "12"]
    )
    assert code == 0
    # one application per power of the brute-force route
    assert metrics["oracle.apply_calls"] == 12
    # residuals 0..L+1 once, L = 3 for the family's head of three: they
    # decide 2-isometry for every depth, so a deeper --residual-depth,
    # the default 50 here, computes no more
    assert metrics["operators.residual_checks"] == 5
    # the verdict spans that still see work
    assert metrics["family.verdict_s"] > 0
    assert metrics["operators.report_s"] > 0
    assert metrics["moments.hausdorff_s"] > 0


@pytest.mark.parametrize("label", [["--residual-depth", "2"], ["--residual-depth", "3"], []],
                         ids=["2", "3", "default"])
def test_traced_verdict_decides_the_residuals_at_any_depth(label):
    # residuals 0..L+1 = 0..4 whatever --residual-depth says: below L + 1
    # it only labels the line, and 2-isometry stays decided
    code, metrics = traced(["family", "verdict", "--x", "1/7", "--horizon", "12", "--depth", "12",
                            *label])
    assert code == 0
    assert metrics["operators.residual_checks"] == 5


def test_traced_moments_check_sees_the_loader_the_oracle_and_the_test(tmp_path):
    # the loaders build the exact prefix without a Fraction per entry; the
    # spans around them must still see the work
    seq = tmp_path / "seq.txt"
    seq.write_text("".join(f"1/{k + 1}\n" for k in range(9)))
    code, metrics = traced(["moments", "check", str(seq), "--mode", "stieltjes", "--order", "4"])
    assert code == 0
    assert metrics["files.load_s"] > 0
    assert metrics["moments.stieltjes_exact_s"] > 0
    spec = tmp_path / "family.cdl"
    spec.write_text("kind = family\nx = 1/10\n")
    code, metrics = traced(["moments", "check", "--from-dual", str(spec)])
    assert code == 0
    assert metrics["oracle.hsequence_s"] > 0
