"""Tests of the benchmark's own logic; none of them runs a workload.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spans
import summary
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_tail_needs_ten_samples_beyond():
    assert summary.tail(list(range(10))) is None
    pct, value = summary.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    pct, value = summary.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0
    assert sum(1 for x in range(100) if x > value) == 10
    pct, value = summary.tail([float(x) for x in range(100)], worse="low")
    assert value == 10.0 and sum(1 for x in range(100) if x < value) == 10


def test_p90_only_with_ten_calls_beyond():
    assert summary.percentile_with_tail([1.0] * 99, 90) is None
    values = [float(x) for x in range(100)]
    assert summary.percentile_with_tail(values, 90) == 89.0
    assert summary.percentile_with_tail(values, 50) == 49.0
    assert summary.percentile_with_tail(values, 95) is None


def test_one_changed_byte_fails_the_digest():
    data = b"case,run,samples,kl,urn\nc0,avg,1,0.5,\n"
    expected = {"curves.csv": summary.sha256_bytes(data)}
    assert summary.digest_mismatches(expected, {"curves.csv": summary.sha256_bytes(data)}) == []
    changed = data[:-3] + b"6" + data[-2:]
    assert summary.digest_mismatches(expected, {"curves.csv": summary.sha256_bytes(changed)}) == [
        "curves.csv"
    ]
    assert summary.digest_mismatches(expected, {}) == ["curves.csv"]
    assert summary.digest_mismatches({}, {"extra.svg": "00"}) == ["extra.svg"]


def nested() -> spans.Spans:
    # pipeline [0, 10] > estimate.em [1, 6] > prob.kl [2, 3] and prob.kl [4, 5.5];
    # pipeline > estimate.grouped [7, 9] > estimate.em [7.5, 8.5]
    s = spans.Spans()
    root = s.add("pipeline.run_experiment", 0.0, 10.0)
    em = s.add("estimate.em_two_type", 1.0, 6.0, root, iterations=7)
    s.add("prob.kl_divergence", 2.0, 3.0, em)
    s.add("prob.kl_divergence", 4.0, 5.5, em)
    grouped = s.add("estimate.grouped_known_estimate", 7.0, 9.0, root)
    s.add("estimate.em_two_type", 7.5, 8.5, grouped, iterations=3)
    return s


def test_self_time_subtracts_direct_children():
    assert spans.self_times(nested()) == [3.0, 2.5, 1.0, 1.5, 1.0, 1.0]


def test_layer_self_times_add_up_to_wall_time():
    metrics = spans.layer_metrics(nested())["metrics"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert metrics["trace.wall_s"] == 10.0
    assert layers == pytest.approx(10.0)
    assert metrics["pipeline.self_s"] == 3.0
    assert metrics["prob.self_s"] == 2.5
    assert metrics["estimate.self_s"] == 4.5


def test_busy_time_counts_outermost_spans_and_exclusions():
    s = nested()
    assert spans.busy(s, spans.EM) == 6.0
    assert spans.busy(s, spans.GROUPED, spans.EM) == 1.0
    assert spans.busy(s, spans.KL) == 2.5
    metrics = spans.layer_metrics(s)["metrics"]
    assert metrics["estimate.em_calls"] == 2
    assert metrics["estimate.em_iterations"] == 10
    assert metrics["prob.kl_calls"] == 2


def test_pooled_metrics_come_from_the_median_repetition():
    reps = [spans.layer_metrics(nested()) for _ in range(3)]
    for rep, wall in zip(reps, (12.0, 10.0, 11.0)):
        rep["metrics"]["trace.wall_s"] = wall
        rep["metrics"]["pipeline.self_s"] = wall - 7.0
    out = spans.pooled_metrics(reps, guard_rate=3e5)
    assert out["trace.wall_s"] == 11.0 and out["pipeline.self_s"] == 4.0
    assert out["estimate.em_calls"] == 2
    assert out["estimate.em_call_s_p50"] == 3.0
    assert out["search.call_s_p90"] == 0.0
    assert out["search.cost_guard_ratio"] == 0.0


def test_install_wraps_calls_made_across_modules():
    # In a child interpreter, so this process keeps the unwrapped library.
    code = textwrap.dedent(
        f"""
        import sys
        sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "benchmarks")!r}]
        import importlib, json, spans
        from latent_structure_lab import experiment, prob
        recorded = spans.Spans()
        spans.install("latent_structure_lab", recorded)
        p = prob.Categorical.uniform(4)
        experiment.kl_divergence(p, p)
        executor = importlib.import_module("latent_structure_lab.search").ProcessPoolExecutor
        print(json.dumps([recorded.names, recorded.counts["prob.objects_built"], executor.__name__]))
        """
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    names, built, executor = json.loads(done.stdout)
    assert names == ["prob.kl_divergence"]
    assert built == 1
    assert executor == "CountingExecutor"


def test_metric_and_workload_names_are_valid():
    names = [*workloads.END_TO_END, *workloads.PER_LAYER, *workloads.WHY]
    assert len(names) == len(set(names))
    assert all(summary.valid_name(n) for n in names)
    units = [u for u, _, _ in workloads.END_TO_END.values()] + list(workloads.PER_LAYER.values())
    assert all(summary.valid_unit(u) for u in units)
    for bad in ("", "_x", "a b", "a/b", "x" * 65, "é"):
        assert not summary.valid_name(bad)


def test_traced_metrics_match_declared_per_layer_names():
    out = spans.pooled_metrics([spans.layer_metrics(nested())], guard_rate=3e5)
    out["trace.overhead_s"] = 0.0
    assert set(out) == set(workloads.PER_LAYER)
    assert set(spans.EXACT) <= set(workloads.PER_LAYER)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in bench["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == (
        workloads.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.PER_LAYER
    assert max(m["bound"] for m in bench["end_to_end"]) == workloads.END_TO_END["setup_s"][2]
