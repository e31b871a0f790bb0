"""The estimator ladder: from raw smoothed tallies to two-type EM clustering.

Every estimator consumes tallies (or raw bit-patterns) and emits smoothed
Categorical estimates. The two-type estimator treats each unit (urn or
variable group) as drawn from one of two shared distributions and uses EM
over soft type responsibilities.

The EM objective recorded in traces is the observed-data log-likelihood
plus the Dirichlet smoothing term matching the M-step's pseudocount. That
is the quantity this EM provably never decreases; the bare data likelihood
can dip when an update trades likelihood against smoothing.

The EM runs on raw float arrays with one row per restart, each row with its
own counts and stopping iteration. em_two_type runs one dataset's restarts
side by side; em_two_type_many runs the restarts of many datasets (the
checkpoints of a four-urns run) in the same loop, in batches of at most
_EM_BATCH_ROWS rows, and returns each dataset's winning restart as arrays.
Inputs are validated once, at entry; only em_two_type wraps its winner in
Categoricals.

Per-unit estimates are read out on arrays: mixture_rows mixes (..., K)
type distributions by (..., N, 2) responsibilities, so a four-urns run
forms every checkpoint's estimates at once, and per_unit_mixture is its
one-result case. The raw estimate is prob.dirichlet_mean_rows.

The bit-vector ladder (BIT_CASES) is fitted in one place, bit_case_joint:
c0 independent bits, c0p one bin per pattern, c13/c1 unrelated smoothed
groups and c123/c12 the two-type EM over groups, for a known (c13, c123)
or searched (c1, c12) grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prob import (
    Categorical,
    Grouping,
    TallyVector,
    dirichlet_mean,
    group_outcomes,
    joint_from_grouping,
    joint_from_independent_bits,
)
from .rng import RngState, next_units

BIT_CASES = ("c0", "c0p", "c13", "c123", "c1", "c12")


@dataclass(frozen=True)
class EstimatorConfig:
    pseudocount: float = 1.0
    em_tol: float = 1e-9
    em_max_iters: int = 500
    em_restarts: int = 5
    em_init_noise: float = 0.05

    def __post_init__(self) -> None:
        if not (
            self.pseudocount > 0
            and self.em_tol > 0
            and self.em_max_iters > 0
            and self.em_restarts > 0
        ):
            raise ValueError("estimator configuration fields must be positive")
        if not 0 <= self.em_init_noise < 1:
            # Restart factors 1 + noise * (2u - 1) must stay in (0, 2).
            raise ValueError(f"em_init_noise must lie in [0, 1), got {self.em_init_noise!r}")


@dataclass(frozen=True, eq=False)
class EmResult:
    """Converged two-type EM state.

    responsibilities[i] = (P(unit i is type a), P(type b)); rows sum to 1.
    log_likelihood and trace record the EM objective described in the
    module docstring; the trace covers the winning restart only.
    """

    q_a: Categorical
    q_b: Categorical
    responsibilities: np.ndarray
    log_likelihood: float
    iterations: int
    restarts_used: int
    trace: tuple[float, ...]
    restart_objectives: tuple[float, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "q_a": self.q_a.to_list(),
            "q_b": self.q_b.to_list(),
            "responsibilities": [[float(x) for x in row] for row in self.responsibilities],
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "trace": list(self.trace),
            "restart_objectives": list(self.restart_objectives),
        }


def raw_tally_estimate(tallies: Sequence[TallyVector], cfg: EstimatorConfig) -> list[Categorical]:
    """Independent smoothed estimate per unit; the no-sharing baseline."""
    return [dirichlet_mean(t, cfg.pseudocount) for t in tallies]


def _counts_matrix(tallies: Sequence[TallyVector]) -> np.ndarray:
    if len(tallies) == 0:
        raise ValueError("need at least one tally vector")
    k = tallies[0].k
    if any(t.k != k for t in tallies):
        raise ValueError("all tally vectors must share the same outcome count")
    return np.stack([t.counts for t in tallies])


def _em_m_step(counts: np.ndarray, resp: np.ndarray, pseudocount: float) -> np.ndarray:
    """(A, 2, K) smoothed type distributions from (A, N, K) counts and (A, N, 2) responsibilities.

    Each type pools `resp[a, :, s] @ counts[a]` as its own vector-matrix
    product of a strided column, as one restart's (N, 2) array gives it;
    the golden curves depend on that product's rounding.
    """
    pooled = (resp.transpose(0, 2, 1)[:, :, None, :] @ counts[:, None])[:, :, 0]
    total = pooled.sum(axis=2, keepdims=True) + counts.shape[2] * pseudocount
    return (pooled + pseudocount) / total


def _em_batch(
    counts: np.ndarray, q: np.ndarray, cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run EM from each of the (A, 2, K) starts in q on its own (N, K) counts, all rows at once.

    counts is (A, N, K): one count matrix per row, so one batch can hold the
    restarts of several datasets. A row stops at its own iteration: once its
    objective moves by less than em_tol, its objective, responsibilities,
    distributions and trace freeze while the others go on. A row still
    moving after em_max_iters M-steps gets one last E-step. Returns the
    final q, the (A, N, 2) responsibilities, the (A,) objectives, the
    (steps, A) objective traces and the (A,) iteration counts; row a's
    trace is traces[:iterations[a], a].
    """
    n_rows = q.shape[0]
    final_q = np.empty_like(q)
    final_resp = np.empty((n_rows, counts.shape[1], 2))
    final_obj = np.empty(n_rows)
    iterations = np.empty(n_rows, dtype=np.int64)
    history: list[tuple[np.ndarray, np.ndarray]] = []
    live = np.arange(n_rows)
    prev = np.full(n_rows, np.nan)  # no row can stop at its first E-step
    for step in range(cfg.em_max_iters + 1):
        log_q = np.log(q)
        # (A, N, 2), C-ordered like the (N, 2) stack of one restart: the
        # M-step reads its columns, and their stride sets BLAS rounding.
        ll = np.ascontiguousarray((counts[:, None] @ log_q[..., None])[..., 0].transpose(0, 2, 1))
        peak = ll.max(axis=2)
        shifted = np.exp(ll - peak[..., None])
        norm = shifted.sum(axis=2)
        obj = np.sum(peak + np.log(0.5 * norm), axis=1) + cfg.pseudocount * (
            log_q[:, 0].sum(axis=1) + log_q[:, 1].sum(axis=1)
        )
        resp = shifted / norm[..., None]
        history.append((live, obj))
        done = (np.abs(obj - prev) < cfg.em_tol) | (step == cfg.em_max_iters)
        if done.any():
            stop = live[done]
            final_q[stop], final_resp[stop], final_obj[stop] = q[done], resp[done], obj[done]
            iterations[stop] = step + 1
            keep = ~done
            live, q, resp, obj, counts = live[keep], q[keep], resp[keep], obj[keep], counts[keep]
            if live.size == 0:
                break
        prev = obj
        q = _em_m_step(counts, resp, cfg.pseudocount)
    traces = np.empty((len(history), n_rows))
    for step, (rows, values) in enumerate(history):
        traces[step, rows] = values
    return final_q, final_resp, final_obj, traces, iterations


# Rows (datasets x restarts) per _em_batch call in em_two_type_many. On the
# urns_em benchmark (190 checkpoints x 5 restarts per run, 2 cores) EM took
# about 105-135 ms per run one checkpoint at a time and 25-40 ms per run from
# 40 rows up, while peak RSS grows with the rows held at once: all of a
# run's rows in one call cost about 5% over one checkpoint at a time, 80
# rows 1.4% (41.4 to 42.0 MiB).
_EM_BATCH_ROWS = 80


def _restart_starts(counts: np.ndarray, cfg: EstimatorConfig, seeds: Sequence[int]) -> np.ndarray:
    """(C*R, 2, K) noisy starts: dataset c's R restarts perturb its pooled mean with seeds[c]."""
    k = counts.shape[2]
    pooled_counts = counts.sum(axis=1)
    pooled = (pooled_counts + cfg.pseudocount) / (
        pooled_counts.sum(axis=1, keepdims=True) + k * cfg.pseudocount
    )
    n_units = cfg.em_restarts * 2 * k
    units = np.stack([next_units(RngState(seed), n_units)[0] for seed in seeds])
    units = units.reshape(len(seeds), cfg.em_restarts, 2, k)
    weights = pooled[:, None, None, :] * (1.0 + cfg.em_init_noise * (2.0 * units - 1.0))
    return (weights / weights.sum(axis=3, keepdims=True)).reshape(-1, 2, k)


def _winner(q, resp, objectives, traces, iterations) -> EmResult:
    """The EmResult of the first row with the strictly largest objective."""
    best = int(np.argmax(objectives))
    n_iter = int(iterations[best])
    winner = np.array(resp[best])
    winner.setflags(write=False)
    return EmResult(
        q_a=Categorical(q[best, 0]),
        q_b=Categorical(q[best, 1]),
        responsibilities=winner,
        log_likelihood=float(objectives[best]),
        iterations=n_iter,
        restarts_used=len(objectives),
        trace=tuple(traces[:n_iter, best].tolist()),
        restart_objectives=tuple(objectives.tolist()),
    )


def em_two_type(
    tallies: Sequence[TallyVector],
    cfg: EstimatorConfig,
    seed: int,
    init_responsibilities: np.ndarray | None = None,
) -> EmResult:
    """Two-type EM over per-unit tallies.

    E-step: unit responsibilities from the type likelihoods under a uniform
    1/2 class prior (log-sum-exp). M-step: each type's distribution is the
    smoothed mean of the responsibility-weighted pooled tallies.

    Runs cfg.em_restarts initializations (the pooled distribution with
    multiplicative noise, renormalized) side by side on raw arrays and keeps
    the best final objective; ties go to the earliest restart. When
    init_responsibilities is given, that single hard/soft initialization is
    refined instead. Inputs are validated here, once; only the winning
    restart is wrapped in Categoricals.
    """
    counts = _counts_matrix(tallies)[None]
    if init_responsibilities is None:
        starts = _restart_starts(counts, cfg, [seed])
        counts = np.repeat(counts, cfg.em_restarts, axis=0)
    else:
        resp = np.asarray(init_responsibilities, dtype=np.float64)
        if resp.shape != (counts.shape[1], 2):
            raise ValueError(f"init_responsibilities must have shape ({counts.shape[1]}, 2)")
        if not np.all(np.isfinite(resp)) or np.any(resp < 0.0):
            raise ValueError("init_responsibilities must be finite and nonnegative")
        starts = _em_m_step(counts, resp[None], cfg.pseudocount)
    return _winner(*_em_batch(counts, starts, cfg))


def em_two_type_many(
    counts: np.ndarray, cfg: EstimatorConfig, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """em_two_type over each (N, K) count matrix in counts (C, N, K), with seeds[c] for counts[c].

    Returns the winners' (C, 2, K) type distributions q (q[c, 0] is q_a)
    and (C, N, 2) responsibilities, equal bit for bit to C em_two_type
    calls from noisy restarts: each dataset keeps the first restart with
    the largest objective. The restarts of several datasets share one
    _em_batch call (at most _EM_BATCH_ROWS rows), each row with its own
    counts and stopping iteration. Inputs are validated here, as
    em_two_type's are.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 3 or 0 in counts.shape[1:] or counts.shape[0] != len(seeds):
        raise ValueError("counts must be (C, N, K) with N, K >= 1 and one seed per dataset")
    if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
        raise ValueError("counts must be finite and nonnegative")
    restarts = cfg.em_restarts
    per_batch = max(1, _EM_BATCH_ROWS // restarts)
    q = np.empty((len(seeds), 2, counts.shape[2]))
    resp = np.empty(counts.shape[:2] + (2,))
    for lo in range(0, len(seeds), per_batch):
        block = counts[lo : lo + per_batch]
        starts = _restart_starts(block, cfg, seeds[lo : lo + per_batch])
        block_q, block_resp, objectives, _, _ = _em_batch(np.repeat(block, restarts, axis=0), starts, cfg)
        best = objectives.reshape(len(block), restarts).argmax(axis=1) + restarts * np.arange(len(block))
        q[lo : lo + len(block)], resp[lo : lo + len(block)] = block_q[best], block_resp[best]
    return q, resp


def per_unit_mixture(result: EmResult, hard: bool = False) -> list[Categorical]:
    """Per-unit estimates from an EM result.

    Default is the responsibility-weighted mixture of the two type
    distributions; hard=True snaps each unit to its most likely type.
    """
    rows = mixture_rows(result.responsibilities, result.q_a.weights, result.q_b.weights, hard)
    return [Categorical(row) for row in rows]


def mixture_rows(
    resp: np.ndarray, q_a: np.ndarray, q_b: np.ndarray, hard: bool = False
) -> np.ndarray:
    """per_unit_mixture on arrays: (..., N, K) estimates from (..., N, 2)
    responsibilities and (..., K) type distributions."""
    q_a, q_b = q_a[..., None, :], q_b[..., None, :]
    if hard:
        return np.where(resp[..., :1] >= resp[..., 1:], q_a, q_b)
    return resp[..., :1] * q_a + resp[..., 1:] * q_b


def independent_bits_estimate(patterns: Sequence[int], v: int, cfg: EstimatorConfig) -> np.ndarray:
    """Per-variable Bernoulli posterior means under a Beta(pc, pc) prior,
    from the V-bit patterns (variable 0 is the most significant bit)."""
    arr = np.asarray(patterns, dtype=np.int64)
    ones = ((arr[:, None] >> (v - 1 - np.arange(v))) & 1).sum(axis=0)
    return (ones + cfg.pseudocount) / (len(arr) + 2.0 * cfg.pseudocount)


def joint_dirichlet_estimate(joint_tally: TallyVector, cfg: EstimatorConfig) -> Categorical:
    """Smoothed estimate over the full outcome space (one bin per pattern)."""
    k = joint_tally.k
    if k & (k - 1) or k > (1 << 20):
        raise ValueError(f"joint tally size must be a power of two <= 2**20, got {k}")
    return dirichlet_mean(joint_tally, cfg.pseudocount)


def group_tallies(patterns: Sequence[int], grouping: Grouping) -> list[TallyVector]:
    """Per-group outcome tallies from projecting each pattern onto the grouping."""
    cell = 1 << grouping.s
    outcomes = group_outcomes(np.asarray(patterns, dtype=np.int64), grouping)
    return [TallyVector.from_outcomes(outcomes[:, j], cell) for j in range(grouping.g)]


def assignment_responsibilities(assignment: Sequence[str]) -> np.ndarray:
    """Hard (0/1) responsibility rows for a fixed a/b assignment."""
    return np.array([[1.0, 0.0] if lab == "a" else [0.0, 1.0] for lab in assignment])


def grouped_known_estimate(
    grouping: Grouping,
    patterns: Sequence[int],
    cfg: EstimatorConfig,
    share_types: bool = False,
    seed: int = 0,
    init_assignment: Sequence[str] | None = None,
) -> tuple[list[Categorical], EmResult | None]:
    """Per-group estimates for a known (or hypothesized) grouping.

    share_types=False treats the G groups as unrelated (smoothed tallies);
    share_types=True pools them through the two-type EM and returns each
    group's mixture estimate alongside the EM result.
    """
    tallies = group_tallies(patterns, grouping)
    if not share_types:
        return [dirichlet_mean(t, cfg.pseudocount) for t in tallies], None
    init = assignment_responsibilities(init_assignment) if init_assignment is not None else None
    result = em_two_type(tallies, cfg, seed, init_responsibilities=init)
    return per_unit_mixture(result), result


def bit_case_joint(
    case: str,
    patterns: Sequence[int],
    v: int,
    cfg: EstimatorConfig,
    grouping: Grouping | None = None,
    assignment: Sequence[str] | None = None,
    seed: int = 0,
) -> Categorical:
    """The 2**V joint that ladder case `case` (one of BIT_CASES) fits to the V-bit patterns.

    c0 and c0p ignore the grouping. c13 and c1 fit the grouping's groups as
    unrelated smoothed tallies; c123 runs the two-type EM over them from
    noisy restarts seeded by `seed`, and c12 refines the hard a/b
    `assignment` (a searched candidate's labels) instead.
    """
    if case not in BIT_CASES:
        raise ValueError(f"unknown case id {case!r}; valid: {list(BIT_CASES)}")
    if case == "c0":
        return joint_from_independent_bits(independent_bits_estimate(patterns, v, cfg))
    if case == "c0p":
        tally = TallyVector(np.bincount(np.asarray(patterns, dtype=np.int64), minlength=1 << v))
        return joint_dirichlet_estimate(tally, cfg)
    if grouping is None or (assignment is None) == (case == "c12"):
        raise ValueError(f"case {case} needs a grouping, and an assignment exactly when it is c12")
    dists, _ = grouped_known_estimate(
        grouping, patterns, cfg, case in ("c123", "c12"), seed=seed, init_assignment=assignment
    )
    return joint_from_grouping(grouping, dists)
