"""Benchmark entry point: one workload, closed loop, one client, fresh interpreters.

    python3 benchmarks/run.py --workload urns_em --seed 1 --seconds 30 --trace 0

Runs repetitions of the workload (each one rep.py process, one library call
at a time) until the next one would overrun --seconds, then prints one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (medians over repetitions); with --trace 1
repetitions alternate untraced and traced, and the metrics are the
per-layer ones. A result file with every repetition, the tail percentiles,
sample counts and the environment goes to benchmarks/results/.

An operation is one repetition's library call. It fails when it raises,
when its outputs fail a check, or when their digests differ from the
committed ones (golden.json, at seed workloads.GOLDEN_SEED) or, at other
seeds, from the first repetition's.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import spans
import summary
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_rep(args, work_root: Path, index: int, traced: bool, setup_only: bool, limit_s: float) -> dict:
    """Start one rep.py process in its own process group and wait for its JSON line."""
    work_dir = work_root / f"rep{index}"
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work_dir),
    ]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(time.monotonic())],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, limit_s))
        lines = out.strip().splitlines()
        rep = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the group holds the pool workers too
        proc.communicate()
        rep = {"stage": "call", "error": f"timed out after {limit_s:.1f} s"}
    except (IndexError, json.JSONDecodeError):
        rep = {"stage": "setup", "error": f"exit {proc.returncode}, no result line: {err[-2000:]}"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    rep["wall_s"] = time.monotonic() - started
    rep["traced"] = traced
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.monotonic()
    load_start = os.getloadavg()[0]
    work_root = HERE / ".work" / f"{os.getpid()}"
    reps: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            elapsed = time.monotonic() - began
            traced = bool(args.trace) and len(reps) % 2 == 1
            if reps:
                walls = [r["wall_s"] for r in reps if r["traced"] == traced] or [r["wall_s"] for r in reps]
                minimum = 2 if args.trace else 1
                if len(reps) >= minimum and elapsed + summary.median(walls) > args.seconds:
                    break
            rep = run_rep(args, work_root, len(reps), traced, False, HARD_LIMIT_S - elapsed)
            if rep["stage"] == "setup":
                print(f"benchmark cannot start: {rep['error']}", file=sys.stderr)
                return 2
            reps.append(rep)
            if "setup_s" in rep:
                setups.append(rep["setup_s"])
            if rep["stage"] != "done":
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            probe = run_rep(args, work_root, len(reps) + len(setups), False, True,
                            HARD_LIMIT_S - (time.monotonic() - began))
            if probe["stage"] != "setup_only":
                print(f"benchmark cannot start: {probe.get('error')}", file=sys.stderr)
                return 2
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    reference = golden["workloads"][args.workload] if args.seed == golden["seed"] else None
    failures: list[str] = []
    for i, rep in enumerate(reps):
        if rep["stage"] != "done":
            failures.append(f"rep {i}: {rep['error']}")
            continue
        expected = reference if reference is not None else reps[0]["digests"]
        problems = list(rep["problems"])
        mismatched = summary.digest_mismatches(expected, rep["digests"])
        if mismatched:
            problems.append(f"digest differs for {', '.join(mismatched)}")
        if problems:
            failures.append(f"rep {i}: {'; '.join(problems)}")
    attempted = len(reps)
    failed = len(failures)
    done = [r for r in reps if r["stage"] == "done"]
    untraced = [r for r in done if not r["traced"]]
    traced_reps = [r for r in done if r["traced"]]
    correct = failed == 0

    detail: dict[str, dict] = {}
    if args.trace:
        if not (untraced and traced_reps):
            correct = False
            metrics = {}
        else:
            layers = [r["trace"] for r in traced_reps]
            for name in spans.EXACT:
                values = {layer["metrics"][name] for layer in layers}
                if len(values) > 1:
                    correct = False
                    failures.append(f"exact count {name} differs between repetitions: {sorted(values)}")
            metrics = spans.pooled_metrics(layers, traced_reps[0]["guard_rate"])
            metrics["trace.overhead_s"] = summary.median(
                [r["call_s"] for r in traced_reps]
            ) - summary.median([r["call_s"] for r in untraced])
            detail["cost_guard"] = {
                "rate_candidates_per_s": traced_reps[0]["guard_rate"],
                "case12_candidates": layers[0]["guard"]["candidates"],
                "worker_cpu_s": [layer["guard"]["worker_cpu_s"] for layer in layers],
            }
        units = workloads.PER_LAYER
    else:
        rates = [r["items"] / r["call_s"] for r in untraced]
        values = {
            "items_per_s": (rates, "low"),
            "setup_s": (setups, "high"),
            "peak_rss_mib": ([r["peak_rss_mib"] for r in untraced], "high"),
        }
        metrics = {}
        for name, (samples, worse) in values.items():
            if not samples:
                correct = False
                continue
            metrics[name] = summary.median(samples)
            tail = summary.tail(samples, worse)
            detail[name] = {
                "median": metrics[name],
                "samples": len(samples),
                "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            }
        if "items_per_s" in detail:
            search = args.workload == "search_case12_v12"
            detail["items_per_s"]["item"] = "candidates" if search else "KL curve points"
        units = {name: spec[0] for name, spec in workloads.END_TO_END.items()}
    if set(metrics) != set(units):
        correct = False

    workers = workloads.WORKERS[args.workload]
    environment = {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": done[0]["numpy"] if done else None,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "load_1min_start": load_start,
        "load_1min_end": os.getloadavg()[0],
        "workers": workers,
        "reps_short_of_cores": sum(1 for r in done if r["cores"] < workers),
    }
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "golden_checked": reference is not None,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "failures": failures,
        "metrics": metrics,
        "detail": detail,
        "setup_samples": setups,
        "reps": [
            {k: v for k, v in r.items() if k != "trace"}
            | ({"layers": r["trace"]["metrics"]} if r.get("trace") else {})
            | {"short_of_cores": r.get("cores", workers) < workers}
            for r in reps
        ],
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
