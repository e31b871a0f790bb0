"""The benchmark harness can still set up and run its workloads against this library.

`benchmarks/rep.py --setup-only` builds a workload's inputs through the
library's public names (spec parsing, truth building, scalar draws, search
configs) and stops before the timed call, so a rename that breaks the
benchmark fails here too. The full runs then check the benchmark's own
output check and golden digests, untraced and traced: the traced run wraps
every public library function, so it also fails when a name that
`spans.install` patches is gone.
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


GOLDEN = json.loads((BENCHMARKS / "golden.json").read_text(encoding="utf-8"))


def run_rep(tmp_path, workload: str, *flags: str) -> dict:
    """One `rep.py` repetition at the golden seed; its JSON result line."""
    done = subprocess.run(
        [
            sys.executable,
            str(BENCHMARKS / "rep.py"),
            "--workload", workload,
            "--seed", str(GOLDEN["seed"]),
            "--work-dir", str(tmp_path / "work"),
            "--spawned-at", str(time.monotonic()),
            *flags,
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_setup_only(tmp_path, workload):
    assert run_rep(tmp_path, workload, "--setup-only")["stage"] == "setup_only"


# search_case12_v12 is left out: one search of it takes about 10 s.
@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("workload", ("urns_em", "bits_ladder_v12", "c12_many_small"))
def test_outputs_match_golden(tmp_path, workload, traced):
    result = run_rep(tmp_path, workload, *(("--trace",) if traced else ()))
    assert result["stage"] == "done", result.get("error")
    assert result["problems"] == []
    assert result["digests"] == GOLDEN["workloads"][workload]
