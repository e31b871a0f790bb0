"""Seeded experiment runs producing KL-vs-samples curves.

Two experiment kinds: four urns (raw tallies vs the two-type estimator,
with per-urn breakdowns) and bit-vectors (the six-case ladder from
independence assumptions up to full structure search).

Every run is a pure function of (spec, base_seed): per-run seeds derive as
splitmix64(base_seed + run_index), so any subset of runs can be reproduced
independently and curves are byte-stable across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimate import (
    EstimatorConfig,
    TallyVector,
    em_two_type,
    grouped_known_estimate,
    independent_bits_estimate,
    joint_dirichlet_estimate,
    per_unit_mixture,
    raw_tally_estimate,
)
from .prob import (
    Categorical,
    joint_from_grouping,
    joint_from_independent_bits,
    kl_divergence,
)
from .rng import RngState, derive_seed
from .search import Candidate, SearchConfig, candidate_count, estimate_from_candidate, search
from .simulate import (
    BitsConfig,
    BitVectorTruth,
    UrnConfig,
    UrnTruth,
    build_bitvector_truth,
    build_urn_truth,
    draw_bitvector,
    draw_urn_sample,
    true_joint,
)

BIT_CASES = ("c0", "c0p", "c13", "c123", "c1", "c12")

# case12 candidates scored per worker CPU-second, which check_search_cost
# prices a refused search at. The V=12 marginal-scorer sweep of
# benchmarks/run.py (workload search_case12_v12, 2 cores, Python 3.11,
# numpy 2.4) scored 1.8M-1.9M per worker CPU-second; the earlier price of
# 3e5/s overstated worker-hours about 6x.
CASE12_SCORINGS_PER_WORKER_S = 1.8e6


class ExpensiveSearchError(RuntimeError):
    """A search case was requested at a scale that needs explicit opt-in."""


@dataclass(frozen=True)
class KlCurve:
    """One plotted line: KL to the truth at each checkpoint."""

    label: str
    points: tuple[tuple[int, float], ...]
    per_unit: tuple["KlCurve", ...] | None = None

    def __post_init__(self) -> None:
        pts = tuple((int(n), float(v)) for n, v in self.points)
        samples = [n for n, _ in pts]
        if any(b <= a for a, b in zip(samples, samples[1:])):
            raise ValueError("checkpoint samples must be strictly increasing")
        object.__setattr__(self, "points", pts)
        if self.per_unit is not None:
            object.__setattr__(self, "per_unit", tuple(self.per_unit))

    @property
    def samples(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


@dataclass(frozen=True)
class SearchSettings:
    """How the search-based cases (c1, c12) are run inside an experiment."""

    checkpoints: tuple[int, ...] | None = None  # default: every curve checkpoint
    workers: int = 1
    scorer: str = "paper_plugin"
    expensive_threshold: int = 1_000_000


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
        if self.checkpoints is not None:
            object.__setattr__(self, "checkpoints", tuple(int(c) for c in self.checkpoints))
        bad = [c for c in self.cases if c not in BIT_CASES]
        if bad:
            raise ValueError(f"unknown case ids {bad}; valid: {list(BIT_CASES)}")
        for cp in self.checkpoints or ():
            if not 1 <= cp <= self.n_samples:
                raise ValueError(f"checkpoint {cp} outside [1, {self.n_samples}]")


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
    """Pointwise arithmetic mean; +inf points propagate into the mean."""
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].samples
    for c in curves[1:]:
        if c.samples != grid:
            raise ValueError("curves must share an identical checkpoint grid")
    values = np.array([c.values for c in curves])
    means = values.mean(axis=0)
    per_unit = None
    firsts = curves[0].per_unit
    if firsts is not None and all(
        c.per_unit is not None and len(c.per_unit) == len(firsts) for c in curves
    ):
        per_unit = tuple(
            average_curves([c.per_unit[i] for c in curves])  # type: ignore[index]
            for i in range(len(firsts))
        )
    return KlCurve(
        label=curves[0].label,
        points=tuple(zip(grid, (float(m) for m in means))),
        per_unit=per_unit,
    )


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


def _per_urn_curves(label: str, grid, per_urn_kls) -> KlCurve:
    n_urns = len(per_urn_kls[0])
    totals = [float(sum(row)) for row in per_urn_kls]
    subs = tuple(
        KlCurve(
            label=f"urn{i + 1}",
            points=tuple((n, row[i]) for n, row in zip(grid, per_urn_kls)),
        )
        for i in range(n_urns)
    )
    return KlCurve(label=label, points=tuple(zip(grid, totals)), per_unit=subs)


def _four_urns_single_run(spec: ExperimentSpec, run_index: int) -> FourUrnsRun:
    run_seed = derive_seed(spec.base_seed, run_index)
    truth = build_urn_truth(spec.urn_config, _truth_seed(spec, run_seed))
    rng = RngState(derive_seed(run_seed, 2))
    n_urns = truth.n_urns
    k = truth.n_colors
    counts = np.zeros((n_urns, k))
    urn1_samples: list[int] = []
    grid = _curve_checkpoints(spec) or ((0,) if spec.n_samples == 0 else ())
    truths = [truth.urn_dist(i) for i in range(n_urns)]

    raw_rows: list[list[float]] = []
    ours_rows: list[list[float]] = []
    hard_rows: list[list[float]] = []

    def evaluate(checkpoint_index: int) -> None:
        tallies = [TallyVector(counts[i]) for i in range(n_urns)]
        raw_est = raw_tally_estimate(tallies, spec.estimator)
        em = em_two_type(
            tallies, spec.estimator, derive_seed(run_seed, 1000 + checkpoint_index)
        )
        ours_est = per_unit_mixture(em)
        raw_rows.append([kl_divergence(truths[i], raw_est[i]) for i in range(n_urns)])
        ours_rows.append([kl_divergence(truths[i], ours_est[i]) for i in range(n_urns)])
        if spec.emit_hard_readout:
            hard_est = per_unit_mixture(em, hard=True)
            hard_rows.append([kl_divergence(truths[i], hard_est[i]) for i in range(n_urns)])

    cp_iter = iter(enumerate(grid))
    next_cp = next(cp_iter, None)
    if spec.n_samples == 0 and grid == (0,):
        evaluate(0)
        next_cp = None
    for t in range(1, spec.n_samples + 1):
        sample, rng = draw_urn_sample(truth, rng)
        counts[sample.urn_id, sample.color] += 1.0
        if sample.urn_id == 0:
            urn1_samples.append(t)
        while next_cp is not None and next_cp[1] == t:
            evaluate(next_cp[0])
            next_cp = next(cp_iter, None)

    return FourUrnsRun(
        truth=truth,
        raw=_per_urn_curves("raw", grid, raw_rows),
        ours=_per_urn_curves("ours", grid, ours_rows),
        ours_hard=_per_urn_curves("ours_hard", grid, hard_rows) if spec.emit_hard_readout else None,
        urn1_samples=tuple(urn1_samples),
    )


def run_four_urns(spec: ExperimentSpec) -> FourUrnsResult:
    """Raw-tally and two-type curves per run plus their across-run averages."""
    if spec.kind != "four_urns":
        raise ValueError("spec.kind must be 'four_urns'")
    runs = tuple(_four_urns_single_run(spec, r) for r in range(spec.n_runs))
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
    cfg = _search_config(spec, "case12")
    count = candidate_count(cfg)
    if count <= spec.search.expensive_threshold or allow_expensive:
        return
    n_cp = len(spec.search.checkpoints or _curve_checkpoints(spec))
    total = count * n_cp * spec.n_runs
    hours = total / CASE12_SCORINGS_PER_WORKER_S / 3600
    raise ExpensiveSearchError(
        f"case c12 would score {count:,} candidates at {n_cp} checkpoints over "
        f"{spec.n_runs} run(s) (~{total:,} scorings, roughly {hours:.1f} "
        f"worker-hours); pass allow_expensive to run it anyway"
    )


def _search_config(spec: ExperimentSpec, mode: str) -> SearchConfig:
    bc = spec.bits_config
    return SearchConfig(
        v=bc.v,
        g=bc.g,
        s=bc.s,
        num_types=2 if mode == "case12" else 1,
        mode=mode,
        scorer=spec.search.scorer,
        workers=spec.search.workers,
        top_k=1,
    )


class _SearchCase:
    """Tracks the current best candidate for one search-based case."""

    def __init__(self, spec: ExperimentSpec, mode: str):
        self.cfg = _search_config(spec, mode)
        cps = spec.search.checkpoints
        self.search_at = set(cps) if cps is not None else None
        self.best: Candidate | None = None

    def estimate(self, patterns: list[int], n: int, est_cfg: EstimatorConfig, seed: int) -> Categorical:
        if self.search_at is None or n in self.search_at or self.best is None:
            self.best = search(patterns[:n], self.cfg)[0].candidate
        return estimate_from_candidate(patterns[:n], self.best, est_cfg, seed)


def _bitvectors_single_run(spec: ExperimentSpec, run_index: int) -> BitVectorsRun:
    run_seed = derive_seed(spec.base_seed, run_index)
    truth = build_bitvector_truth(spec.bits_config, _truth_seed(spec, run_seed))
    rng = RngState(derive_seed(run_seed, 2))
    patterns: list[int] = []
    for _ in range(spec.n_samples):
        pattern, rng = draw_bitvector(truth, rng)
        patterns.append(pattern)

    v = truth.v
    joint = true_joint(truth)
    grid = _curve_checkpoints(spec)
    grouping = truth.hidden_grouping
    arr = np.asarray(patterns, dtype=np.int64)
    bit_prefix = np.cumsum(((arr[:, None] >> (v - 1 - np.arange(v))) & 1), axis=0)

    searchers = {
        case: _SearchCase(spec, "case1" if case == "c1" else "case12")
        for case in spec.cases
        if case in ("c1", "c12")
    }
    rows: dict[str, list[tuple[int, float]]] = {case: [] for case in spec.cases}
    for cp_index, n in enumerate(grid):
        for case in spec.cases:
            seed = derive_seed(run_seed, 1000 + cp_index * len(BIT_CASES) + BIT_CASES.index(case))
            if case == "c0":
                ones = bit_prefix[n - 1]
                probs = independent_bits_estimate(
                    [(float(o), float(n)) for o in ones], spec.estimator
                )
                est = joint_from_independent_bits(probs)
            elif case == "c0p":
                tally = TallyVector(np.bincount(arr[:n], minlength=1 << v))
                est = joint_dirichlet_estimate(tally, spec.estimator)
            elif case == "c13":
                dists, _ = grouped_known_estimate(
                    grouping, patterns[:n], spec.estimator, share_types=False
                )
                est = joint_from_grouping(grouping, dists)
            elif case == "c123":
                dists, _ = grouped_known_estimate(
                    grouping, patterns[:n], spec.estimator, share_types=True, seed=seed
                )
                est = joint_from_grouping(grouping, dists)
            else:
                est = searchers[case].estimate(patterns, n, spec.estimator, seed)
            rows[case].append((n, kl_divergence(joint, est)))

    curves = {case: KlCurve(label=case, points=tuple(rows[case])) for case in spec.cases}
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


def _build_config(cls, payload: dict, context: str):
    import dataclasses

    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"spec field '{context}': unknown keys {sorted(unknown)}")
    kwargs = dict(payload)
    for key in ("urn_weights", "assignment", "checkpoints"):
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    if kwargs.get("type_dists") is not None:
        kwargs["type_dists"] = tuple(tuple(d) for d in kwargs["type_dists"])
    if kwargs.get("grouping") is not None:
        kwargs["grouping"] = tuple(tuple(var - 1 for var in grp) for grp in kwargs["grouping"])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"spec field '{context}': {exc}") from exc


def spec_from_jsonable(payload: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from its JSON form (variables 1-based in files)."""
    if not isinstance(payload, dict):
        raise ValueError("spec file must hold a JSON object")
    kind = payload.get("kind")
    if kind not in ("four_urns", "bit_vectors"):
        raise ValueError(f"spec field 'kind': must be four_urns or bit_vectors, got {kind!r}")
    for req in ("n_samples", "n_runs", "base_seed"):
        if req not in payload:
            raise ValueError(f"spec field '{req}': required")
    top_known = {
        "kind",
        "n_samples",
        "n_runs",
        "base_seed",
        "cases",
        "checkpoints",
        "resample_truth",
        "truth",
        "estimator",
        "search",
        "emit_hard_readout",
    }
    unknown = set(payload) - top_known
    if unknown:
        raise ValueError(f"spec field {sorted(unknown)[0]!r}: unknown")
    truth_payload = payload.get("truth", {})
    kwargs = dict(
        kind=kind,
        n_samples=int(payload["n_samples"]),
        n_runs=int(payload["n_runs"]),
        base_seed=int(payload["base_seed"]),
        resample_truth=bool(payload.get("resample_truth", True)),
        emit_hard_readout=bool(payload.get("emit_hard_readout", False)),
        estimator=_build_config(EstimatorConfig, payload.get("estimator", {}), "estimator"),
        search=_build_config(SearchSettings, payload.get("search", {}), "search"),
    )
    if payload.get("cases") is not None:
        kwargs["cases"] = tuple(payload["cases"])
    if payload.get("checkpoints") is not None:
        kwargs["checkpoints"] = tuple(int(c) for c in payload["checkpoints"])
    if kind == "four_urns":
        kwargs["urn_config"] = _build_config(UrnConfig, truth_payload, "truth")
    else:
        kwargs["bits_config"] = _build_config(BitsConfig, truth_payload, "truth")
    try:
        return ExperimentSpec(**kwargs)
    except ValueError as exc:
        raise ValueError(f"spec: {exc}") from exc


def spec_to_jsonable(spec: ExperimentSpec) -> dict:
    truth: dict
    if spec.kind == "four_urns":
        uc = spec.urn_config
        truth = {
            "n_urns": uc.n_urns,
            "n_colors": uc.n_colors,
            "urn_weights": list(uc.urn_weights),
            "assignment": list(uc.assignment),
            "type_dists": [list(d) for d in uc.type_dists] if uc.type_dists else None,
            "min_separation": uc.min_separation,
            "max_retries": uc.max_retries,
        }
    else:
        bc = spec.bits_config
        truth = {
            "v": bc.v,
            "g": bc.g,
            "s": bc.s,
            "assignment": list(bc.assignment) if bc.assignment else None,
            "type_dists": [list(d) for d in bc.type_dists] if bc.type_dists else None,
            "grouping": (
                [[var + 1 for var in grp] for grp in bc.grouping] if bc.grouping else None
            ),
            "min_separation": bc.min_separation,
            "max_retries": bc.max_retries,
        }
    est = spec.estimator
    return {
        "kind": spec.kind,
        "n_samples": spec.n_samples,
        "n_runs": spec.n_runs,
        "base_seed": spec.base_seed,
        "cases": list(spec.cases),
        "checkpoints": list(spec.checkpoints) if spec.checkpoints is not None else None,
        "resample_truth": spec.resample_truth,
        "emit_hard_readout": spec.emit_hard_readout,
        "truth": truth,
        "estimator": {
            "pseudocount": est.pseudocount,
            "em_tol": est.em_tol,
            "em_max_iters": est.em_max_iters,
            "em_restarts": est.em_restarts,
            "em_init_noise": est.em_init_noise,
        },
        "search": {
            "checkpoints": (
                list(spec.search.checkpoints) if spec.search.checkpoints is not None else None
            ),
            "workers": spec.search.workers,
            "scorer": spec.search.scorer,
            "expensive_threshold": spec.search.expensive_threshold,
        },
    }
