"""Seeded experiment runs producing KL-vs-samples curves.

Two experiment kinds: four urns (raw tallies vs the two-type estimator,
with per-urn breakdowns) and bit-vectors (the six-case ladder from
independence assumptions up to full structure search).

Every run is a pure function of (spec, base_seed): per-run seeds derive as
splitmix64(base_seed + run_index), so any subset of runs can be reproduced
independently and curves are byte-stable across invocations.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import typing
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimate import (
    BIT_CASES,
    EstimatorConfig,
    checkpoint_counts,
    em_two_type_many,
    fit_bit_case,
    mixture_rows,
)
from .prob import _read_only, dirichlet_mean_rows, joint_from_independent_bits, kl_divergence, kl_divergence_rows
from .rng import RngState, derive_seed, derive_seeds
from .search import SCORERS, Candidate, SearchConfig, SearchSession, candidate_count, search
from .simulate import (
    BitsConfig,
    BitVectorTruth,
    UrnConfig,
    UrnTruth,
    build_bitvector_truth,
    build_urn_truth,
    draw_bitvectors,
    draw_urn_samples,
    true_joint,
)

# case12 candidates scored per worker CPU-second, which check_search_cost
# prices a refused search at. The traced V=12 marginal-scorer sweep of
# benchmarks/run.py (workload search_case12_v12, seed 1, 2 cores, Python
# 3.11, numpy 2.4) scored its 106,444,800 candidates in 7.2-7.7 worker
# CPU-seconds over three runs (median 7.34), 14.5M per worker CPU-second,
# with the cell-fold scorer.
CASE12_SCORINGS_PER_WORKER_S = 14e6
# check_search_cost refuses a case12 search space larger than this.
CASE12_EXPENSIVE_CANDIDATES = 1_000_000


class ExpensiveSearchError(RuntimeError):
    """A search case was requested at a scale that needs explicit opt-in."""


@dataclass(frozen=True, eq=False)
class KlCurve:
    """One plotted line: KL to the truth at each checkpoint.

    samples (int64) and values (float64) are read-only 1-d arrays of equal
    length, samples strictly increasing; both are checked and copied once,
    here.
    """

    label: str
    samples: np.ndarray
    values: np.ndarray
    per_unit: tuple["KlCurve", ...] | None = None

    def __post_init__(self) -> None:
        samples = _read_only(self.samples, np.int64)
        values = _read_only(self.values)
        if samples.ndim != 1 or values.shape != samples.shape:
            raise ValueError(f"samples and values must be 1-d of one length, got {samples.shape} and {values.shape}")
        if (samples[1:] <= samples[:-1]).any():
            raise ValueError("checkpoint samples must be strictly increasing")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "values", values)
        if self.per_unit is not None:
            object.__setattr__(self, "per_unit", tuple(self.per_unit))

    @property
    def points(self) -> tuple[tuple[int, float], ...]:
        """The (samples, value) pairs as Python numbers, built on each call."""
        return tuple(zip(self.samples.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class SearchSettings:
    """How the search-based cases (c1, c12) are run inside an experiment.

    The cases search at `checkpoints` (default: every curve checkpoint).
    When the list leaves out the first curve checkpoint, they search there
    too, having no structure yet, and that one-sample structure then serves
    every checkpoint before the first listed one.
    """

    checkpoints: tuple[int, ...] | None = None  # default: every curve checkpoint
    workers: int = 1
    scorer: str = "paper_plugin"

    def __post_init__(self) -> None:
        if self.scorer not in SCORERS:
            raise ValueError(f"scorer must be one of {SCORERS}, got {self.scorer!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    n_samples: int
    n_runs: int
    base_seed: int
    cases: tuple[str, ...] = ("c0", "c0p", "c13", "c123")
    checkpoints: tuple[int, ...] | None = None
    resample_truth: bool = True
    urn_config: UrnConfig = field(default_factory=UrnConfig)
    bits_config: BitsConfig = field(default_factory=BitsConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    search: SearchSettings = field(default_factory=SearchSettings)
    emit_hard_readout: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("four_urns", "bit_vectors"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.n_runs < 1 or self.n_samples < 0:
            raise ValueError("n_runs must be >= 1 and n_samples >= 0")
        object.__setattr__(self, "cases", tuple(self.cases))
        for name in ("resample_truth", "emit_hard_readout"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if self.checkpoints is not None:
            if not self.checkpoints:
                raise ValueError("checkpoints []: must list one or more sample counts, or be left out")
            for cp in self.checkpoints:
                if isinstance(cp, bool) or not isinstance(cp, numbers.Integral):
                    raise ValueError(f"checkpoints must be integers, got {cp!r}")
            object.__setattr__(self, "checkpoints", tuple(int(c) for c in self.checkpoints))
        bad = [c for c in self.cases if c not in BIT_CASES]
        if bad:
            raise ValueError(f"unknown case ids {bad}; valid: {list(BIT_CASES)}")
        cps = self.checkpoints or ()
        for cp in cps:
            if not 1 <= cp <= self.n_samples:
                raise ValueError(f"checkpoint {cp} outside [1, {self.n_samples}]")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        searched = self.search.checkpoints
        if searched is not None and not (searched and set(searched) <= set(_curve_checkpoints(self))):
            raise ValueError(f"search.checkpoints {list(searched)}: must be one or more curve checkpoints")


def default_checkpoints(n_samples: int) -> tuple[int, ...]:
    """Dense early grid: every sample to 100, every 10 to 1000, every 100 after."""
    if n_samples < 1:
        return ()
    cps = list(range(1, min(n_samples, 100) + 1))
    if n_samples > 100:
        cps.extend(range(110, min(n_samples, 1000) + 1, 10))
    if n_samples > 1000:
        cps.extend(range(1100, n_samples + 1, 100))
    if cps[-1] != n_samples:
        cps.append(n_samples)
    return tuple(cps)


def _curve_checkpoints(spec: ExperimentSpec) -> tuple[int, ...]:
    return spec.checkpoints if spec.checkpoints is not None else default_checkpoints(spec.n_samples)


def _truth_seed(spec: ExperimentSpec, run_seed: int) -> int:
    if spec.resample_truth:
        return derive_seed(run_seed, 1)
    return derive_seed(spec.base_seed, 1)


def average_curves(curves: Sequence[KlCurve]) -> KlCurve:
    """Pointwise arithmetic mean, one mean(axis=0) over the (runs, checkpoints)
    stack; +inf points propagate into the mean."""
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].samples
    for c in curves[1:]:
        if not np.array_equal(c.samples, grid):
            raise ValueError("curves must share an identical checkpoint grid")
    per_unit = None
    firsts = curves[0].per_unit
    if firsts is not None and all(
        c.per_unit is not None and len(c.per_unit) == len(firsts) for c in curves
    ):
        per_unit = tuple(
            average_curves([c.per_unit[i] for c in curves])  # type: ignore[index]
            for i in range(len(firsts))
        )
    means = np.stack([c.values for c in curves]).mean(axis=0)
    return KlCurve(curves[0].label, grid, means, per_unit)


# ---------------------------------------------------------------------------
# Four urns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourUrnsRun:
    truth: UrnTruth
    raw: KlCurve
    ours: KlCurve
    ours_hard: KlCurve | None
    urn1_samples: tuple[int, ...]


@dataclass(frozen=True)
class FourUrnsResult:
    runs: tuple[FourUrnsRun, ...]
    avg_raw: KlCurve
    avg_ours: KlCurve
    avg_ours_hard: KlCurve | None


def _per_urn_curves(label: str, grid, kls: np.ndarray) -> KlCurve:
    """The total curve of a (checkpoints, urns) KL array, with one sub-curve
    per urn column. The total adds the columns left to right onto +0.0, the
    order the pinned curve bytes were made with."""
    grid = np.asarray(grid, dtype=np.int64)
    total = kls[:, 0] + 0.0
    for u in range(1, kls.shape[1]):
        total += kls[:, u]
    subs = tuple(KlCurve(f"urn{u + 1}", grid, kls[:, u]) for u in range(kls.shape[1]))
    return KlCurve(label, grid, total, subs)


def _four_urns_runs(spec: ExperimentSpec, run_indices: Sequence[int]) -> tuple[FourUrnsRun, ...]:
    """Runs run_indices of a four-urns spec, each a pure function of (spec, run index).

    Every run's checkpoint counts go into one (runs x checkpoints, urns,
    colors) array, and one em_two_type_many call fits them all; the KL
    arrays are read out run by run, and the count and winner arrays are
    freed before any KlCurve is built.
    """
    grid = _curve_checkpoints(spec) or ((0,) if spec.n_samples == 0 else ())
    n_cp = len(grid)
    run_seeds = [derive_seed(spec.base_seed, r) for r in run_indices]
    truths = [build_urn_truth(spec.urn_config, _truth_seed(spec, run_seed)) for run_seed in run_seeds]
    n_urns, k = spec.urn_config.n_urns, spec.urn_config.n_colors
    counts = np.empty((len(truths) * n_cp, n_urns, k))
    seeds = np.empty(len(truths) * n_cp, dtype=np.uint64)
    urn1_samples = []
    for i, (run_seed, truth) in enumerate(zip(run_seeds, truths)):
        samples, _ = draw_urn_samples(truth, RngState(derive_seed(run_seed, 2)), spec.n_samples)
        counts[i * n_cp : (i + 1) * n_cp] = checkpoint_counts(
            samples[:, 0] * k + samples[:, 1], grid, n_urns * k
        ).reshape(-1, n_urns, k)
        seeds[i * n_cp : (i + 1) * n_cp] = derive_seeds(run_seed, np.arange(1000, 1000 + n_cp))
        urn1_samples.append(tuple((np.flatnonzero(samples[:, 0] == 0) + 1).tolist()))
    q, resp = em_two_type_many(counts, spec.estimator, seeds)

    def urn_kls(truth: UrnTruth, estimates: np.ndarray) -> np.ndarray:
        """(checkpoints, urns) KL values from (checkpoints, urns, colors) estimates."""
        kls = [kl_divergence_rows(truth.urn_dist(u), estimates[:, u]) for u in range(n_urns)]
        return np.stack(kls, axis=1)

    kls = []
    for i, truth in enumerate(truths):
        rows = slice(i * n_cp, (i + 1) * n_cp)
        kls.append((
            urn_kls(truth, dirichlet_mean_rows(counts[rows], spec.estimator.pseudocount)),
            urn_kls(truth, mixture_rows(resp[rows], q[rows, 0], q[rows, 1])),
            urn_kls(truth, mixture_rows(resp[rows], q[rows, 0], q[rows, 1], hard=True))
            if spec.emit_hard_readout
            else None,
        ))
    del counts, q, resp
    return tuple(
        FourUrnsRun(
            truth=truth,
            raw=_per_urn_curves("raw", grid, raw),
            ours=_per_urn_curves("ours", grid, ours),
            ours_hard=None if hard is None else _per_urn_curves("ours_hard", grid, hard),
            urn1_samples=urn1,
        )
        for truth, (raw, ours, hard), urn1 in zip(truths, kls, urn1_samples)
    )


def _four_urns_single_run(spec: ExperimentSpec, run_index: int) -> FourUrnsRun:
    """Run run_index of a four-urns spec on its own: the one-run case of _four_urns_runs."""
    return _four_urns_runs(spec, [run_index])[0]


def run_four_urns(spec: ExperimentSpec) -> FourUrnsResult:
    """Raw-tally and two-type curves per run plus their across-run averages."""
    if spec.kind != "four_urns":
        raise ValueError("spec.kind must be 'four_urns'")
    runs = _four_urns_runs(spec, range(spec.n_runs))
    return FourUrnsResult(
        runs=runs,
        avg_raw=average_curves([r.raw for r in runs]),
        avg_ours=average_curves([r.ours for r in runs]),
        avg_ours_hard=(
            average_curves([r.ours_hard for r in runs]) if spec.emit_hard_readout else None
        ),
    )


# ---------------------------------------------------------------------------
# Bit vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitVectorsRun:
    truth: BitVectorTruth
    curves: dict[str, KlCurve]


@dataclass(frozen=True)
class BitVectorsResult:
    runs: tuple[BitVectorsRun, ...]
    averaged: dict[str, KlCurve]


def independent_bits_floor(truth: BitVectorTruth) -> float:
    """KL from the true joint to the product of its true single-bit marginals.

    The analytic expressiveness floor of the all-bits-independent model.
    """
    joint = true_joint(truth)
    v = truth.v
    outcomes = np.arange(1 << v, dtype=np.int64)
    marginals = [
        float(joint.weights[(outcomes >> (v - 1 - var)) & 1 == 1].sum()) for var in range(v)
    ]
    return kl_divergence(joint, joint_from_independent_bits(marginals))


def check_search_cost(spec: ExperimentSpec, allow_expensive: bool) -> None:
    """Refuse full-scale case12 searches unless explicitly allowed."""
    if spec.kind != "bit_vectors" or "c12" not in spec.cases:
        return
    count = candidate_count(_search_config(spec, "c12"))
    if count <= CASE12_EXPENSIVE_CANDIDATES or allow_expensive:
        return
    n_cp = len(spec.search.checkpoints or _curve_checkpoints(spec))
    total = count * n_cp * spec.n_runs
    hours = total / CASE12_SCORINGS_PER_WORKER_S / 3600
    raise ExpensiveSearchError(
        f"case c12 would score {count:,} candidates at {n_cp} checkpoints over "
        f"{spec.n_runs} run(s) (~{total:,} scorings, roughly {hours:.1f} "
        f"worker-hours); pass allow_expensive to run it anyway"
    )


def ladder_search_config(case: str, v: int, g: int, s: int, scorer: str, workers: int) -> SearchConfig:
    """The top-1 search that ladder case c1 (mode case1, one type) or c12
    (mode case12, two types) runs to find its grouping."""
    mode, num_types = {"c1": ("case1", 1), "c12": ("case12", 2)}[case]
    return SearchConfig(
        v=v, g=g, s=s, num_types=num_types, mode=mode, scorer=scorer, workers=workers, top_k=1
    )


def _search_config(spec: ExperimentSpec, case: str) -> SearchConfig:
    bc = spec.bits_config
    return ladder_search_config(case, bc.v, bc.g, bc.s, spec.search.scorer, spec.search.workers)


def _searched_candidates(spec: ExperimentSpec, case: str, patterns: np.ndarray, grid) -> list[Candidate]:
    """The candidate that search case c1 or c12 uses at each checkpoint.

    It searches at spec.search.checkpoints (default: every checkpoint), and
    at the first checkpoint, which has no candidate yet otherwise. The
    searches share one session, so each tallies only the patterns drawn
    since the one before.
    """
    cfg = _search_config(spec, case)
    search_at = spec.search.checkpoints
    session = SearchSession()
    found: list[Candidate] = []
    for n in grid:
        if search_at is None or n in search_at or not found:
            found.append(search(patterns[:n], cfg, session)[0].candidate)
        else:
            found.append(found[-1])
    return found


# Checkpoints whose 2**V joints are built and scored at once. On the seed-1
# bits_ladder_v12 spec (V=12, 140 checkpoints; 2 cores, Python 3.11, numpy
# 2.4) the in-process run took about the same time from 2 rows up, while
# the peak traced allocation of run_bitvectors grew with the rows held:
# 0.40 MiB at 2, 0.58 at 4, 0.96 at 8 and 3.2 at 32, against 0.26 when each
# checkpoint was fitted on its own. At 4 rows the benchmark's peak RSS went
# from 38.6 to 39.2 MiB (+1.7%). TestBitVectorsMemory holds the traced peak
# under 1 MiB.
_JOINT_ROWS = 4


def _bitvectors_single_run(spec: ExperimentSpec, run_index: int) -> BitVectorsRun:
    run_seed = derive_seed(spec.base_seed, run_index)
    truth = build_bitvector_truth(spec.bits_config, _truth_seed(spec, run_seed))
    patterns, _ = draw_bitvectors(truth, RngState(derive_seed(run_seed, 2)), spec.n_samples)
    joint = true_joint(truth)
    grid = _curve_checkpoints(spec)
    curves = {}
    for case in spec.cases:
        groupings, assignments = [truth.hidden_grouping] * len(grid), None
        if case in ("c1", "c12"):
            found = _searched_candidates(spec, case, patterns, grid)
            groupings = [candidate.grouping for candidate in found]
            assignments = [candidate.assignment for candidate in found] if case == "c12" else None
        seeds = derive_seeds(run_seed, 1000 + np.arange(len(grid)) * len(BIT_CASES) + BIT_CASES.index(case))
        fit = fit_bit_case(case, patterns, grid, truth.v, spec.estimator, groupings, assignments, seeds)
        kls = [kl_divergence_rows(joint, fit.joints(lo, hi)) for lo, hi in fit.chunks(_JOINT_ROWS)]
        curves[case] = KlCurve(case, grid, np.concatenate([np.empty(0), *kls]))
    return BitVectorsRun(truth=truth, curves=curves)


def run_bitvectors(spec: ExperimentSpec, allow_expensive: bool = False) -> BitVectorsResult:
    """One shared sample stream per run feeds every requested case."""
    if spec.kind != "bit_vectors":
        raise ValueError("spec.kind must be 'bit_vectors'")
    check_search_cost(spec, allow_expensive)
    runs = tuple(_bitvectors_single_run(spec, r) for r in range(spec.n_runs))
    averaged = {
        case: average_curves([r.curves[case] for r in runs]) for case in spec.cases
    }
    return BitVectorsResult(runs=runs, averaged=averaged)


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------


# The ExperimentSpec field that a spec's "truth" object fills, per kind.
_TRUTH_FIELDS = {"four_urns": "urn_config", "bit_vectors": "bits_config"}
# JSON key -> ExperimentSpec field, apart from "truth".
_SPEC_KEYS = {
    f.name: f.name for f in dataclasses.fields(ExperimentSpec) if f.name not in _TRUTH_FIELDS.values()
}


def _spec_error(context: str, message: str) -> ValueError:
    return ValueError(f"spec field '{context}': {message}" if context else f"spec: {message}")


def _read_value(tp, value, context: str):
    """Check one JSON value against a field annotation; lists become tuples."""
    args = typing.get_args(tp)
    if type(None) in args:  # `X | None`
        return None if value is None else _read_value(args[0], value, context)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise _spec_error(context, f"expected a list, got {json.dumps(value)}")
        args = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(args):
            raise _spec_error(context, f"expected {len(args)} items, got {len(value)}")
        return tuple(_read_value(a, v, f"{context}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if dataclasses.is_dataclass(tp):
        return config_from_jsonable(tp, value, context)
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise _spec_error(context, f"expected {tp.__name__}, got {json.dumps(value)}")
    return value


def config_from_jsonable(cls, payload, context: str, keys: dict[str, str] | None = None):
    """Build config dataclass `cls` from its JSON object (`keys`: JSON key ->
    field name, by default the field names), checking each value against its
    field's annotation. Grouping variables are 1-based. Errors name the field."""
    if not isinstance(payload, dict):
        raise _spec_error(context, f"expected a JSON object, got {json.dumps(payload)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    keys = keys or {name: name for name in fields}
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise _spec_error(f"{context}.{unknown[0]}".lstrip("."), "unknown")
    kwargs = {}
    for key, name in keys.items():
        where, f = f"{context}.{key}".lstrip("."), fields[name]
        if key in payload:
            kwargs[name] = _read_value(hints[name], payload[key], where)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise _spec_error(where, "required")
    if kwargs.get("grouping") is not None:
        kwargs["grouping"] = tuple(tuple(var - 1 for var in grp) for grp in kwargs["grouping"])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise _spec_error(context, str(exc)) from exc


def spec_from_jsonable(payload: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from its JSON form; "truth" holds the kind's truth config."""
    if not isinstance(payload, dict):
        raise ValueError("spec file must hold a JSON object")
    kind = payload.get("kind")
    if kind not in _TRUTH_FIELDS:
        raise ValueError(f"spec field 'kind': must be four_urns or bit_vectors, got {kind!r}")
    keys = {**_SPEC_KEYS, "truth": _TRUTH_FIELDS[kind]}
    return config_from_jsonable(ExperimentSpec, payload, "", keys)


def _to_jsonable(value, name: str = ""):
    if dataclasses.is_dataclass(value):
        return {f.name: _to_jsonable(getattr(value, f.name), f.name) for f in dataclasses.fields(value)}
    if name == "grouping" and value is not None:
        return [[var + 1 for var in grp] for grp in value]
    return [_to_jsonable(item) for item in value] if isinstance(value, tuple) else value


def spec_to_jsonable(spec: ExperimentSpec) -> dict:
    """The JSON form that spec_from_jsonable reads back to an equal spec."""
    keys = {**_SPEC_KEYS, "truth": _TRUTH_FIELDS[spec.kind]}
    return {key: _to_jsonable(getattr(spec, name), name) for key, name in keys.items()}
