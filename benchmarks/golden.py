"""Rewrite golden.json: output digests of every workload at the golden seed.

    python3 benchmarks/golden.py [workload ...]

Run this only when a change is meant to alter output bytes, and say so
where the change is described; run.py counts every repetition whose
digests differ from golden.json as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="workload", help="default: all")
    names = parser.parse_args().names or sorted(workloads.WHY)
    unknown = sorted(set(names) - set(workloads.WHY))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(workloads.WHY)}")
    path = HERE / "golden.json"
    golden = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"seed": workloads.GOLDEN_SEED, "workloads": {}}
    )
    work_root = HERE / ".work" / "golden"
    for name in names:
        args = argparse.Namespace(workload=name, seed=golden["seed"])
        rep = run.run_rep(args, work_root, 0, False, False, run.HARD_LIMIT_S)
        shutil.rmtree(work_root, ignore_errors=True)
        if rep["stage"] != "done" or rep["problems"]:
            print(f"{name}: {rep.get('error') or rep['problems']}", file=sys.stderr)
            return 1
        golden["workloads"][name] = rep["digests"]
        print(f"{name}: {rep['digests']}")
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
