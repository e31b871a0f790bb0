"""One benchmark repetition, always in a fresh interpreter.

run.py starts this file once per repetition, so no state (such as the
enum-table cache that forked search workers inherit) carries over between
repetitions or workloads. It sets the workload up, times one call into the
library's public entry point (`pipeline.run_experiment` or
`cli.main(["search", ...])`), checks and digests the outputs, and prints
one JSON line. With --trace it wraps the library's layers first (see
spans.py); with --setup-only it stops once the call could be made.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import re
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import summary  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "latent_structure_lab"


@dataclass
class Prepared:
    call: Callable[[], object]  # the timed call into the library
    items: int  # curve points or candidates that one call produces
    outputs: Callable[[], dict[str, Path]]  # byte-stable outputs by name
    checks: Callable[[], list[str]]  # problems found in the outputs


def setup(workload: str, seed: int, work_dir: Path) -> Prepared:
    from latent_structure_lab import cli, experiment, pipeline, prob, rng, simulate

    # The package exports a function named `search`, which hides the module.
    search = importlib.import_module("latent_structure_lab.search")

    out = work_dir / "out"
    out.mkdir(parents=True)
    if workload == "search_case12_v12":
        truth_seed = workloads.input_seed(workload, seed)
        truth = simulate.build_bitvector_truth(
            simulate.BitsConfig(**workloads.SEARCH_TRUTH), truth_seed
        )
        state = rng.RngState(rng.derive_seed(truth_seed, 2))
        patterns = []
        for _ in range(workloads.SEARCH_SAMPLES):
            pattern, state = simulate.draw_bitvector(truth, state)
            patterns.append(pattern)
        data = work_dir / "data.jsonl"
        simulate.write_bits_dataset(data, patterns, truth.v)
        result = out / "topk.json"
        argv = ["search", "--data", str(data), *workloads.SEARCH_ARGS, "--out", str(result)]
        count = search.candidate_count(
            search.SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12")
        )
        joint = simulate.true_joint(truth)

        def call():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"lsl search exited with {code}")

        def checks():
            payload = json.loads(result.read_text(encoding="utf-8"))
            top = payload["top_k"]
            problems = [] if len(top) == 10 else [f"top-k has {len(top)} entries, not 10"]
            best = search.Candidate(
                prob.Grouping(tuple(tuple(v - 1 for v in grp) for grp in top[0]["grouping"])),
                tuple(top[0]["assignment"]),
            )
            if not search.in_truth_orbit(best, joint):
                problems.append("top-1 candidate is not in the truth's orbit")
            return problems

        return Prepared(call, count, lambda: {"topk.json": result}, checks)

    spec = experiment.spec_from_jsonable(workloads.experiment_spec(workload, seed))
    n_checkpoints = len(spec.checkpoints or experiment.default_checkpoints(spec.n_samples))
    n_cases = 2 if spec.kind == "four_urns" else len(spec.cases)
    totals_expected = n_cases * n_checkpoints

    def outputs():
        return {p.name: p for p in sorted(out.iterdir()) if p.name != "manifest.json"}

    def checks():
        problems = []
        with open(out / "curves.csv", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["run"] == "avg" and r["urn"] == ""]
        if len(rows) != totals_expected:
            problems.append(f"curves.csv has {len(rows)} averaged totals, not {totals_expected}")
        bad = [r for r in rows if not (math.isfinite(float(r["kl"])) and float(r["kl"]) >= 0.0)]
        if bad:
            problems.append(f"{len(bad)} averaged KL values are negative or not finite")
        return problems

    return Prepared(
        lambda: pipeline.run_experiment(spec, out),
        spec.n_runs * totals_expected,
        outputs,
        checks,
    )


def guard_rate() -> float | None:
    """The candidates/s rate check_search_cost prices case12 at, read back
    from its refusal message (worker-hours = scorings / rate / 3600), or
    None when it does not refuse or its message no longer parses."""
    from latent_structure_lab import experiment

    spec = experiment.spec_from_jsonable(
        {"kind": "bit_vectors", "n_samples": 1, "n_runs": 100_000, "base_seed": 0, "cases": ["c12"]}
    )
    try:
        experiment.check_search_cost(spec, False)
        return None
    except experiment.ExpensiveSearchError as exc:
        message = str(exc)
    scorings = re.search(r"~([\d,]+) scorings", message)
    hours = re.search(r"([\d.]+) worker-hours", message)
    if not (scorings and hours) or float(hours.group(1)) <= 0:
        return None
    return int(scorings.group(1).replace(",", "")) / (float(hours.group(1)) * 3600)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float, help="parent's time.monotonic()")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    try:
        prepared = setup(args.workload, args.seed, args.work_dir)
    except Exception:
        print(json.dumps({"stage": "setup", "error": traceback.format_exc()}))
        return 3
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"stage": "setup_only", "setup_s": setup_s}))
        return 0

    recorded = None
    if args.trace:
        import spans

        rate = guard_rate()
        recorded = spans.Spans()
        spans.install(PACKAGE, recorded)
    started = time.perf_counter()
    try:
        prepared.call()
    except Exception:
        print(json.dumps({"stage": "call", "error": traceback.format_exc()}))
        return 0
    call_s = time.perf_counter() - started
    import numpy

    result = {
        "stage": "done",
        "setup_s": setup_s,
        "call_s": call_s,
        "items": prepared.items,
        "peak_rss_mib": peak_rss_mib(),
        "cores": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "trace": None,
    }
    if recorded is not None:
        result["trace"] = spans.layer_metrics(recorded)
        result["guard_rate"] = rate
    try:
        result["digests"] = {
            name: summary.sha256_bytes(path.read_bytes()) for name, path in prepared.outputs().items()
        }
        result["problems"] = prepared.checks()
    except Exception:
        result["digests"] = {}
        result["problems"] = ["output check raised: " + traceback.format_exc()]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
