"""The estimator ladder: from raw smoothed tallies to two-type EM clustering.

Every estimator consumes tallies (or raw bit-patterns) and emits smoothed
Categorical estimates. The two-type estimator treats each unit (urn or
variable group) as drawn from one of two shared distributions and uses EM
over soft type responsibilities.

The EM objective recorded in traces is the observed-data log-likelihood
plus the Dirichlet smoothing term matching the M-step's pseudocount. That
is the quantity this EM provably never decreases; the bare data likelihood
can dip when an update trades likelihood against smoothing.

The EM runs every restart side by side on raw (R, 2, K) float arrays, each
restart stopping at its own iteration. Its inputs are validated once, at
entry; only the winning restart is wrapped in Categoricals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prob import Categorical, Grouping, TallyVector, dirichlet_mean, group_outcomes
from .rng import RngState, next_unit


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
    """(A, 2, K) smoothed type distributions from (A, N, 2) responsibilities.

    Each type pools `resp[a, :, s] @ counts` as its own vector-matrix
    product of a strided column, as one restart's (N, 2) array gives it;
    the golden curves depend on that product's rounding.
    """
    pooled = (resp.transpose(0, 2, 1)[:, :, None, :] @ counts)[:, :, 0]
    total = pooled.sum(axis=2, keepdims=True) + counts.shape[1] * pseudocount
    return (pooled + pseudocount) / total


def _em_batch(
    counts: np.ndarray, q: np.ndarray, cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Run EM from each of the (R, 2, K) starts in q, all restarts at once.

    A restart stops at its own iteration: once its objective moves by less
    than em_tol, its objective, responsibilities, distributions and trace
    freeze while the others go on. A restart still moving after
    em_max_iters M-steps gets one last E-step. Returns the final q, the
    (R, N, 2) responsibilities, the (R,) objectives and the R traces.
    """
    n_starts = q.shape[0]
    final_q = np.empty_like(q)
    final_resp = np.empty((n_starts, counts.shape[0], 2))
    final_obj = np.empty(n_starts)
    traces: list[list[float]] = [[] for _ in range(n_starts)]
    live = np.arange(n_starts)
    prev = np.full(n_starts, np.nan)  # no restart can stop at its first E-step
    for step in range(cfg.em_max_iters + 1):
        log_q = np.log(q)
        # (A, N, 2), C-ordered like the (N, 2) stack of one restart: the
        # M-step reads its columns, and their stride sets BLAS rounding.
        ll = np.ascontiguousarray((counts @ log_q[..., None])[..., 0].transpose(0, 2, 1))
        peak = ll.max(axis=2)
        shifted = np.exp(ll - peak[..., None])
        norm = shifted.sum(axis=2)
        obj = np.sum(peak + np.log(0.5 * norm), axis=1) + cfg.pseudocount * (
            log_q[:, 0].sum(axis=1) + log_q[:, 1].sum(axis=1)
        )
        resp = shifted / norm[..., None]
        for r, value in zip(live.tolist(), obj.tolist()):
            traces[r].append(value)
        done = (np.abs(obj - prev) < cfg.em_tol) | (step == cfg.em_max_iters)
        if done.any():
            stop = live[done]
            final_q[stop], final_resp[stop], final_obj[stop] = q[done], resp[done], obj[done]
            keep = ~done
            live, q, resp, obj = live[keep], q[keep], resp[keep], obj[keep]
            if live.size == 0:
                break
        prev = obj
        q = _em_m_step(counts, resp, cfg.pseudocount)
    return final_q, final_resp, final_obj, traces


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
    counts = _counts_matrix(tallies)
    if init_responsibilities is not None:
        resp = np.asarray(init_responsibilities, dtype=np.float64)
        if resp.shape != (counts.shape[0], 2):
            raise ValueError(f"init_responsibilities must have shape ({counts.shape[0]}, 2)")
        if not np.all(np.isfinite(resp)) or np.any(resp < 0.0):
            raise ValueError("init_responsibilities must be finite and nonnegative")
        starts = _em_m_step(counts, resp[None], cfg.pseudocount)
    else:
        pooled = dirichlet_mean(TallyVector(counts.sum(axis=0)), cfg.pseudocount).weights
        units = np.empty((cfg.em_restarts, 2, pooled.size))
        rng = RngState(seed)
        for j in range(units.size):
            units.flat[j], rng = next_unit(rng)
        weights = pooled * (1.0 + cfg.em_init_noise * (2.0 * units - 1.0))
        starts = weights / weights.sum(axis=2, keepdims=True)

    q, resp, objectives, traces = _em_batch(counts, starts, cfg)
    best = int(np.argmax(objectives))
    winner = np.array(resp[best])
    winner.setflags(write=False)
    return EmResult(
        q_a=Categorical(q[best, 0]),
        q_b=Categorical(q[best, 1]),
        responsibilities=winner,
        log_likelihood=float(objectives[best]),
        iterations=len(traces[best]),
        restarts_used=len(starts),
        trace=tuple(traces[best]),
        restart_objectives=tuple(objectives.tolist()),
    )


def per_unit_mixture(result: EmResult, hard: bool = False) -> list[Categorical]:
    """Per-unit estimates from an EM result.

    Default is the responsibility-weighted mixture of the two type
    distributions; hard=True snaps each unit to its most likely type.
    """
    out = []
    for row in result.responsibilities:
        if hard:
            out.append(result.q_a if row[0] >= row[1] else result.q_b)
        else:
            out.append(
                Categorical(row[0] * result.q_a.weights + row[1] * result.q_b.weights)
            )
    return out


def independent_bits_estimate(
    bit_tallies: Sequence[tuple[float, float]], cfg: EstimatorConfig
) -> np.ndarray:
    """Per-variable Bernoulli posterior means under a Beta(pc, pc) prior."""
    probs = np.empty(len(bit_tallies))
    for i, (ones, total) in enumerate(bit_tallies):
        if ones < 0 or total < 0 or ones > total:
            raise ValueError(f"bad bit tally ({ones}, {total}) at variable {i}")
        probs[i] = (ones + cfg.pseudocount) / (total + 2.0 * cfg.pseudocount)
    return probs


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
