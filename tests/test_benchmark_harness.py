"""The benchmark harness can still set up every workload against this library.

`benchmarks/rep.py --setup-only` builds a workload's inputs through the
library's public names (spec parsing, truth building, scalar draws, search
configs) and stops before the timed call, so a rename that breaks the
benchmark fails here too.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_setup_only(tmp_path, workload):
    done = subprocess.run(
        [
            sys.executable,
            str(BENCHMARKS / "rep.py"),
            "--workload", workload,
            "--seed", "1",
            "--work-dir", str(tmp_path / "work"),
            "--spawned-at", str(time.monotonic()),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["stage"] == "setup_only"
