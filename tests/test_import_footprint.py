"""The CLI's import loads only the standard-library modules it uses.

A fresh ``import circuitdual.cli`` is paid by every one-shot ``cdl``
process, so the package keeps ``dataclasses`` (which imports ``inspect``)
and ``typing`` off its import path.  The check runs ``python -S``, which
skips the site hooks: those may import ``typing`` themselves.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = ("dataclasses", "inspect", "typing")

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import circuitdual.cli; "
    f"print(*[m for m in {AVOIDED!r} if m in sys.modules])"
)


def test_cli_import_avoids_dataclasses_inspect_and_typing():
    run = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
