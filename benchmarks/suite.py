"""Run every workload for several rounds, interleaved, and summarise them.

    python3 benchmarks/suite.py --rounds 3 --seed 1 --seconds 30 [--trace 1]

Round r runs the workloads in an order rotated by r, each through run.py
(so every repetition is still a fresh interpreter), and no workload's
numbers depend on which one ran just before it in a fixed order. The
summary (each metric's per-round values and their median) is written to
benchmarks/results/suite-*.json and printed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

import summary
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(workloads.WHY)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(args.rounds):
        for name in names[r % len(names):] + names[: r % len(names)]:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                print(f"{name}: run.py exited {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            runs[name].append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"round {r} {name}: {done.stdout.strip().splitlines()[-1]}", file=sys.stderr)

    report = {}
    for name, results in runs.items():
        metrics = results[0]["metrics"]
        report[name] = {
            "correct": all(res["correct"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "attempted": sum(res["attempted"] for res in results),
            "metrics": {
                metric: {
                    "unit": info["unit"],
                    "rounds": [res["metrics"][metric]["value"] for res in results],
                    "median": summary.median([res["metrics"][metric]["value"] for res in results]),
                }
                for metric, info in metrics.items()
            },
        }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = results_dir / f"suite-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if all(entry["correct"] for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
