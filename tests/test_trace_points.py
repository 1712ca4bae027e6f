"""Every attribute the benchmark tracer wraps must exist in the package.

``perfbench/tracing.py`` looks its span and count points up by name when a
traced run starts, so deleting or renaming one would crash that run.  This
test reads the same tables and resolves each point, class attributes
through ``vars(cls)`` as the tracer does.
"""

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
