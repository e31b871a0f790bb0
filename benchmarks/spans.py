"""Span tracing for the traced benchmark run, installed from outside the library.

`install` replaces every public function of the library's layer modules
with a wrapper that records one span per call (name, start, end, parent),
counts `Categorical`/`TallyVector` constructions, and swaps the executor
that `search.py` looks up for one that counts pool starts and submitted
tasks. Spans stay in memory; `layer_metrics` turns them into the per-layer
numbers once the timed call has returned. Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from summary import median, percentile_with_tail

LAYERS = ("rng", "simulate", "prob", "estimate", "search", "experiment", "report", "pipeline", "cli")

EM = {"estimate.em_two_type"}
GROUPED = {"estimate.grouped_known_estimate"}
OTHER_ESTIMATORS = {
    "estimate.raw_tally_estimate",
    "estimate.independent_bits_estimate",
    "estimate.joint_dirichlet_estimate",
    "estimate.per_unit_mixture",
}
JOINTS = {"prob.joint_from_grouping", "prob.joint_from_independent_bits"}
KL = {"prob.kl_divergence"}
DRAWS = {"simulate.draw_urn_sample", "simulate.draw_bitvector"}
SEARCH = {"search.search"}
FROM_CANDIDATE = {"search.estimate_from_candidate"}


def _cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Spans:
    """Spans in call order; a parent always precedes its children."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    extras: dict[int, dict[str, float]] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    stack: list[int] = field(default_factory=list)

    def add(self, name: str, start: float, end: float, parent: int = -1, **extra: float) -> int:
        """Append a finished span; the tests build nested spans with this."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        if extra:
            self.extras[len(self.names) - 1] = extra
        return len(self.names) - 1

    def wrap(self, name: str, fn: Callable, extra: Callable | None = None) -> Callable:
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        measure_cpu = name in SEARCH  # worker CPU seconds feed search.cost_guard_ratio

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            cpu = _cpu_seconds() if measure_cpu else 0.0
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            if measure_cpu:
                self.extras.setdefault(index, {})["cpu_s"] = _cpu_seconds() - cpu
            if extra is not None:
                self.extras.setdefault(index, {}).update(extra(args, result))
            return result

        return traced


def install(package: str, spans: Spans) -> None:
    """Wrap the public functions of every layer module of `package`.

    Every module of the package that imported such a function by name gets
    the wrapper too, so calls across modules are traced as well.
    """
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    search_mod = modules["search"]
    candidate_count = search_mod.candidate_count
    extras = {
        "search.search": lambda args, result: {
            "candidates": candidate_count(args[1]),
            "case12": float(args[1].mode == "case12"),
        },
        "estimate.em_two_type": lambda args, result: {"iterations": result.iterations},
        "experiment.run_four_urns": lambda args, result: {
            "points": sum(len(r.raw.points) + len(r.ours.points) for r in result.runs)
        },
        "experiment.run_bitvectors": lambda args, result: {
            "points": sum(len(c.points) for r in result.runs for c in r.curves.values())
        },
        "report.write_curves_csv": lambda args, result: {"bytes": _size(args[0])},
        "report.write_svg": lambda args, result: {"bytes": _size(args[0])},
    }
    wrappers: dict[Callable, Callable] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[obj] = spans.wrap(name, obj, extras.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])

    prob = modules["prob"]
    for cls in (prob.Categorical, prob.TallyVector):
        cls.__post_init__ = _counting(cls.__post_init__, spans.counts, "prob.objects_built")

    counts = spans.counts

    class CountingExecutor(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["search.pool_starts"] += 1
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            counts["search.tasks"] += 1
            return super().submit(*args, **kwargs)

    search_mod.ProcessPoolExecutor = CountingExecutor


def _counting(fn: Callable, counts: Counter, key: str) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _size(path) -> float:
    return float(Path(path).stat().st_size)


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [end - start for start, end in zip(spans.starts, spans.ends)]
    for index, parent in enumerate(spans.parents):
        if parent >= 0:
            own[parent] -= spans.ends[index] - spans.starts[index]
    return own


def _inside(spans: Spans, names: set[str]) -> list[bool]:
    """Whether some ancestor of each span is named in `names`."""
    flags: list[bool] = []
    for parent in spans.parents:
        flags.append(parent >= 0 and (flags[parent] or spans.names[parent] in names))
    return flags


def busy(spans: Spans, names: set[str], outside: set[str] = frozenset()) -> float:
    """Seconds during which a span named in `names` is open and none in `outside` is."""
    in_names = _inside(spans, names)
    in_outside = _inside(spans, outside)
    total = 0.0
    for i, name in enumerate(spans.names):
        duration = spans.ends[i] - spans.starts[i]
        if name in names and not in_names[i] and not in_outside[i]:
            total += duration
        elif name in outside and in_names[i] and not in_outside[i]:
            total -= duration
    return total


def durations(spans: Spans, names: set[str]) -> list[float]:
    return [e - s for n, s, e in zip(spans.names, spans.starts, spans.ends) if n in names]


def _extra_sum(spans: Spans, key: str) -> float:
    return sum(extra.get(key, 0.0) for extra in spans.extras.values())


# Per-layer metric names; "exact" ones are counts that must repeat bit-for-bit.
EXACT = (
    "estimate.em_calls",
    "estimate.em_iterations",
    "prob.objects_built",
    "prob.joint_calls",
    "prob.kl_calls",
    "rng.unit_draws",
    "simulate.draws",
    "search.calls",
    "search.candidates",
    "search.pool_starts",
    "search.tasks",
    "search.estimate_from_candidate_calls",
    "experiment.curve_points",
    "report.bytes_written",
)


def layer_metrics(spans: Spans) -> dict:
    """Per-layer numbers of one traced repetition.

    Returns {"metrics": name -> value, "calls": kind -> call durations,
    "guard": case12 candidates and their worker CPU seconds}; call
    durations are pooled across repetitions before percentiles are taken.
    """
    own = self_times(spans)
    roots = [i for i, parent in enumerate(spans.parents) if parent < 0]
    metrics: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, seconds in zip(spans.names, own):
        metrics[name.split(".", 1)[0] + ".self_s"] += seconds
    count = Counter(spans.names)
    metrics.update(
        {
            "trace.wall_s": sum(spans.ends[i] - spans.starts[i] for i in roots),
            "estimate.em_calls": count["estimate.em_two_type"],
            "estimate.em_iterations": _extra_sum(spans, "iterations"),
            "estimate.em_busy_s": busy(spans, EM),
            "estimate.grouped_busy_s": busy(spans, GROUPED, EM),
            "estimate.other_busy_s": busy(spans, OTHER_ESTIMATORS, GROUPED | EM),
            "prob.objects_built": spans.counts["prob.objects_built"],
            "prob.joint_calls": sum(count[n] for n in JOINTS),
            "prob.joint_busy_s": busy(spans, JOINTS),
            "prob.kl_calls": sum(count[n] for n in KL),
            "prob.kl_busy_s": busy(spans, KL),
            "rng.unit_draws": count["rng.next_unit"],
            "simulate.draws": sum(count[n] for n in DRAWS),
            "simulate.busy_s": busy(spans, {n for n in count if n.startswith("simulate.")}),
            "search.calls": count["search.search"],
            "search.candidates": _extra_sum(spans, "candidates"),
            "search.busy_s": busy(spans, SEARCH),
            "search.pool_starts": spans.counts["search.pool_starts"],
            "search.tasks": spans.counts["search.tasks"],
            "search.estimate_from_candidate_calls": count["search.estimate_from_candidate"],
            "search.estimate_from_candidate_busy_s": busy(spans, FROM_CANDIDATE),
            "experiment.curve_points": _extra_sum(spans, "points"),
            "report.busy_s": busy(spans, {n for n in count if n.startswith("report.")}),
            "report.bytes_written": _extra_sum(spans, "bytes"),
            "search.worker_cpu_s": _extra_sum(spans, "cpu_s"),
        }
    )
    case12 = [e for i, e in spans.extras.items() if spans.names[i] in SEARCH and e["case12"]]
    return {
        "metrics": metrics,
        "calls": {"em": durations(spans, EM), "search": durations(spans, SEARCH)},
        "guard": {
            "candidates": sum(e["candidates"] for e in case12),
            "worker_cpu_s": sum(e["cpu_s"] for e in case12),
        },
    }


def pooled_metrics(reps: Sequence[dict], guard_rate: float | None) -> dict[str, float]:
    """Combine traced repetitions.

    Times and counts come from the repetition with the median wall time,
    so its layer self times still add up to its wall time (the caller
    checks that exact counts agree across repetitions). Call-duration
    percentiles pool the calls of every repetition. The cost-guard ratio
    reads 0 without case12 searches or a known guard rate.
    """
    ordered = sorted(reps, key=lambda rep: rep["metrics"]["trace.wall_s"])
    middle = ordered[(len(ordered) - 1) // 2]
    out = {name: int(v) if name in EXACT else v for name, v in middle["metrics"].items()}
    em_calls = [d for rep in reps for d in rep["calls"]["em"]]
    search_calls = [d for rep in reps for d in rep["calls"]["search"]]
    out["estimate.em_call_s_p50"] = median(em_calls) if em_calls else 0.0
    out["search.call_s_p50"] = median(search_calls) if search_calls else 0.0
    out["search.call_s_p90"] = percentile_with_tail(search_calls, 90) or 0.0
    out["search.candidates_per_busy_s"] = (
        out["search.candidates"] / out["search.busy_s"] if out["search.busy_s"] > 0 else 0.0
    )
    guard = middle["guard"]
    out["search.cost_guard_ratio"] = (
        guard["candidates"] / guard_rate / guard["worker_cpu_s"]
        if guard_rate and guard["worker_cpu_s"] > 0
        else 0.0
    )
    return out
