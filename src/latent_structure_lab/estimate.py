"""The estimator ladder: from raw smoothed tallies to two-type EM clustering.

Every estimator consumes count arrays (or raw bit-patterns) and emits
smoothed probability rows. The two-type estimator treats each unit (urn or
variable group) as drawn from one of two shared distributions and uses EM
over soft type responsibilities.

The EM objective is the observed-data log-likelihood plus the Dirichlet
smoothing term matching the M-step's pseudocount. That is the quantity
this EM provably never decreases; the bare data likelihood can dip when an
update trades likelihood against smoothing.

The EM runs on raw float arrays with one row per restart, each row with its
own counts and stopping iteration. em_two_type_many runs the restarts of
many datasets (the checkpoints of every run of an experiment: noisy
restarts, or one row refining a given start) through one EM loop, _em_pool:
a pool of at most _EM_POOL_ROWS rows that takes in the next rows as others
stop, so that its passes stay full while a few slow rows run on. It
returns each dataset's winning row as arrays; one dataset is its
(1, N, K) case. Inputs are validated once, at entry.

A pass (_em_e_step, then _em_m_step) takes the max and the sum over the 2
types elementwise (np.maximum, a + b), not as reductions over a length-2
axis, which numpy runs as one inner-loop call per unit; the two forms give
the same bits but for the sign of a NaN, and tests/oracles.py keeps the
reduction form. The sums over units and over K stay numpy reductions:
strided adds in numpy's order made no urns_em pass faster and passes of a
few rows slower. The matrix products stay BLAS calls of the shapes one
restart gives, since the pinned curves depend on their rounding.

Per-unit estimates are read out on arrays: mixture_rows mixes (..., K)
type distributions by (..., N, 2) responsibilities, so a four-urns run
forms every checkpoint's estimates at once. The raw estimate is
prob.dirichlet_mean_rows.

The bit-vector ladder (BIT_CASES) is fitted in one place, fit_bit_case:
c0 independent bits, c0p one bin per pattern, c13/c1 unrelated smoothed
groups and c123/c12 the two-type EM over groups, for a known (c13, c123)
or searched (c1, c12) grouping. It fits a case at every checkpoint of a
run at once: checkpoint_counts tallies each segment (a run of checkpoints
that share one grouping) with one cumulative bincount, and the EM rows of
all checkpoints share em_two_type_many's pool. The fit stays in
factored form (bit probabilities or group distributions); BitCaseFit.joints
expands a few rows at a time to 2**V joints through the row forms of
prob.joint_from_grouping and prob.joint_from_independent_bits.
bit_case_joint, which `lsl estimate` calls, is its one-checkpoint case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .prob import (
    MAX_JOINT_BITS,
    CapacityError,
    Categorical,
    Grouping,
    dirichlet_mean_rows,
    group_outcomes,
    joint_from_grouping_rows,
    joint_from_independent_bits_rows,
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


def _em_m_step(counts: np.ndarray, resp: np.ndarray, pseudocount: float) -> np.ndarray:
    """(A, 2, K) smoothed type distributions from (A, N, K) counts and (A, N, 2) responsibilities.

    Each type pools `resp[a, :, s] @ counts[a]` as its own vector-matrix
    product of a strided column, as one restart's (N, 2) array gives it;
    the golden curves depend on that product's rounding.
    """
    pooled = (resp.transpose(0, 2, 1)[:, :, None, :] @ counts[:, None])[:, :, 0]
    total = pooled.sum(axis=2, keepdims=True) + counts.shape[2] * pseudocount
    return (pooled + pseudocount) / total


def _em_e_step(counts: np.ndarray, q: np.ndarray, pseudocount: float) -> tuple[np.ndarray, np.ndarray]:
    """(A,) objectives and (A, N, 2) responsibilities of (A, N, K) counts under (A, 2, K) types.

    The max and the sum over the 2 types are elementwise, which gives the
    bits of .max(axis=2) and .sum(axis=2) (a NaN may carry the other sign)
    at a fraction of their cost.
    """
    log_q = np.log(q)
    # (A, N, 2), C-ordered like the (N, 2) stack of one restart: the
    # M-step reads its columns, and their stride sets BLAS rounding.
    ll = np.ascontiguousarray((counts[:, None] @ log_q[..., None])[..., 0].transpose(0, 2, 1))
    peak = np.maximum(ll[..., 0], ll[..., 1])
    shifted = np.exp(ll - peak[..., None])
    norm = shifted[..., 0] + shifted[..., 1]
    obj = np.sum(peak + np.log(0.5 * norm), axis=1) + pseudocount * (
        log_q[:, 0].sum(axis=1) + log_q[:, 1].sum(axis=1)
    )
    return obj, shifted / norm[..., None]


# Rows (dataset x restart) the EM pool holds at once. A pass makes about 28
# numpy calls whatever its row count (about 42 when rows stop). On the
# seed-1 urns_em spec, at 143 rows per pass on average, a warm pass took
# 139-140 microseconds, against 177-181 when its max and sum over the 2
# types were .max/.sum reductions (2 cores, numpy 2.4). Most rows stop
# within a few E-steps and a few run to em_max_iters, so a pool that takes
# in new rows as others stop keeps its passes full, where fixed batches
# ran on for their slowest row. On the seed-1 urns_em benchmark (24 runs x
# 190 checkpoints x 5 restarts, 221,892 row M-steps; 2 cores) 80-row
# batches took 7,658 passes, and a pool of 100, 200 or 400 rows 3,074,
# 1,554 or 905. 400 rows ran about 15% faster than 200 but raised the
# benchmark's peak RSS by about 0.7 MiB (1.7%), where 200 rows raised it
# by 0.04 MiB.
_EM_POOL_ROWS = 200


def _em_pool(
    counts: np.ndarray,
    restarts: int,
    starts: Callable[[int, int], np.ndarray],
    cfg: EstimatorConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run EM on `restarts` rows per (N, K) count matrix of counts (C, N, K) and keep each dataset's winner.

    Row j is restart j % restarts of dataset j // restarts; starts(lo, hi)
    gives the ((hi - lo) * restarts, 2, K) starts of datasets lo..hi-1 in
    that order. The pool holds at most _EM_POOL_ROWS rows, each with its
    own counts, start step and previous objective. A row stops at its own
    iteration: once its objective moves by less than em_tol, or after
    em_max_iters M-steps and one last E-step. Stopped rows leave the pool;
    whenever it is half empty, the rows stopped since the last refill meet
    their datasets' winners so far, and the next rows come in. No row's
    arithmetic depends on the rows that share its pass. Each dataset keeps
    the first restart with the largest final objective, NaN counting as
    largest (np.argmax's rule), whatever order its rows stop in. Returns
    the winners' (C, 2, K) type distributions, (C, N, 2) responsibilities,
    (C,) objectives and (C,) iteration counts (E-steps run).
    """
    n_sets, n_units, k = counts.shape
    n_rows = n_sets * restarts
    win_q = np.empty((n_sets, 2, k))
    win_resp = np.empty((n_sets, n_units, 2))
    win_obj = np.empty(n_sets)
    win_iters = np.empty(n_sets, dtype=np.int64)
    win_key = np.full(n_sets, -np.inf)  # the winner's objective, NaN as +inf
    win_restart = np.full(n_sets, restarts)
    rows = np.empty(0, dtype=np.int64)
    live_counts, q = np.empty((0, n_units, k)), np.empty((0, 2, k))
    prev, born = np.empty(0), np.empty(0, dtype=np.int64)
    stopped: list[tuple[np.ndarray, ...]] = []  # (rows, q, resp, objective, iterations) since the last refill
    taken = step = 0
    while True:
        refill = rows.size <= _EM_POOL_ROWS // 2
        if refill and stopped:
            ids, s_q, s_resp, s_obj, s_iters = (np.concatenate(part) for part in zip(*stopped))
            stopped = []
            dataset, restart = np.divmod(ids, restarts)
            key = np.where(np.isnan(s_obj), np.inf, s_obj)
            # One restart at a time, so that no dataset repeats within a
            # step: largest key, then first restart, over each dataset's
            # winner so far and its rows here, whatever order they stopped
            # in. (A sort or ufunc.at would cost 0.1-0.3 MiB of peak RSS
            # for its first call.)
            for r in range(restarts):
                at = np.flatnonzero(restart == r)
                c = dataset[at]
                better = (key[at] > win_key[c]) | ((key[at] == win_key[c]) & (r < win_restart[c]))
                at, c = at[better], c[better]
                win_key[c], win_restart[c] = key[at], r
                win_q[c], win_resp[c], win_obj[c], win_iters[c] = s_q[at], s_resp[at], s_obj[at], s_iters[at]
        if refill and taken < n_rows:
            end = min(n_rows, taken + _EM_POOL_ROWS - rows.size)
            lo, hi = taken // restarts, -(-end // restarts)
            new = np.arange(taken, end)
            rows = np.concatenate([rows, new])
            live_counts = np.concatenate([live_counts, counts[new // restarts]])
            q = np.concatenate([q, starts(lo, hi)[taken - lo * restarts : end - lo * restarts]])
            prev = np.concatenate([prev, np.full(new.size, np.nan)])  # no row stops at its first E-step
            born = np.concatenate([born, np.full(new.size, step)])
            taken = end
        if rows.size == 0:
            break
        obj, resp = _em_e_step(live_counts, q, cfg.pseudocount)
        done = (np.abs(obj - prev) < cfg.em_tol) | (born == step - cfg.em_max_iters)
        if done.any():
            stopped.append((rows[done], q[done], resp[done], obj[done], step + 1 - born[done]))
            keep = ~done
            rows, live_counts, q, resp, obj, born = (
                rows[keep], live_counts[keep], q[keep], resp[keep], obj[keep], born[keep]
            )
        prev = obj
        q = _em_m_step(live_counts, resp, cfg.pseudocount)
        step += 1
    return win_q, win_resp, win_obj, win_iters


def _restart_starts(counts: np.ndarray, cfg: EstimatorConfig, seeds: np.ndarray) -> np.ndarray:
    """(C*R, 2, K) noisy starts: dataset c's R restarts perturb its pooled mean
    with the uint64 seeds[c]."""
    k = counts.shape[2]
    pooled_counts = counts.sum(axis=1)
    pooled = (pooled_counts + cfg.pseudocount) / (
        pooled_counts.sum(axis=1, keepdims=True) + k * cfg.pseudocount
    )
    n_units = cfg.em_restarts * 2 * k
    units = next_units(seeds, n_units)[0].reshape(len(seeds), cfg.em_restarts, 2, k)
    weights = pooled[:, None, None, :] * (1.0 + cfg.em_init_noise * (2.0 * units - 1.0))
    return (weights / weights.sum(axis=3, keepdims=True)).reshape(-1, 2, k)


def _checked_init(init_responsibilities, shape: tuple[int, ...]) -> np.ndarray:
    """init_responsibilities as float64, checked to have `shape` and finite, nonnegative entries."""
    init = np.asarray(init_responsibilities, dtype=np.float64)
    if init.shape != shape:
        raise ValueError(f"init_responsibilities must have shape {shape}")
    if not np.all(np.isfinite(init)) or np.any(init < 0.0):
        raise ValueError("init_responsibilities must be finite and nonnegative")
    return init


def em_two_type_many(
    counts: np.ndarray,
    cfg: EstimatorConfig,
    seeds: Sequence[int] | np.ndarray | None = None,
    init_responsibilities: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-type EM over each (N, K) count matrix of counts (C, N, K): the units
    are its N rows, and seeds[c] seeds dataset c's restarts. seeds is a
    sequence of ints, each taken modulo 2**64 as RngState takes it, or a
    uint64 array such as rng.derive_seeds gives.

    E-step: unit responsibilities from the type likelihoods under a uniform
    1/2 class prior (log-sum-exp). M-step: each type's distribution is the
    smoothed mean of the responsibility-weighted pooled counts.

    Each dataset runs cfg.em_restarts starts (its pooled distribution with
    multiplicative noise, renormalized) and keeps the first restart with
    the largest final objective. With (C, N, 2) init_responsibilities,
    dataset c instead refines init_responsibilities[c] in one row, and
    seeds are not used. Returns the winners' (C, 2, K) type distributions q
    (q[c, 0] is type a) and (C, N, 2) responsibilities. The rows of all
    datasets run in one _em_pool, each row with its own counts and stopping
    iteration.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 3 or 0 in counts.shape[1:]:
        raise ValueError("counts must be (C, N, K) with N, K >= 1")
    if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
        raise ValueError("counts must be finite and nonnegative")
    if init_responsibilities is None:
        if seeds is None or len(seeds) != len(counts):
            raise ValueError("em_two_type_many needs one seed per dataset")
        if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
            seeds = np.array([RngState(seed).state for seed in seeds], dtype=np.uint64)
        q, resp, _, _ = _em_pool(
            counts, cfg.em_restarts, lambda lo, hi: _restart_starts(counts[lo:hi], cfg, seeds[lo:hi]), cfg
        )
    else:
        init = _checked_init(init_responsibilities, counts.shape[:2] + (2,))
        q, resp, _, _ = _em_pool(
            counts, 1, lambda lo, hi: _em_m_step(counts[lo:hi], init[lo:hi], cfg.pseudocount), cfg
        )
    return q, resp


def mixture_rows(
    resp: np.ndarray, q_a: np.ndarray, q_b: np.ndarray, hard: bool = False
) -> np.ndarray:
    """Per-unit estimates: (..., N, K) mixtures of the (..., K) type
    distributions by the (..., N, 2) responsibilities. hard=True snaps each
    unit to its most likely type, type a on ties."""
    q_a, q_b = q_a[..., None, :], q_b[..., None, :]
    if hard:
        return np.where(resp[..., :1] >= resp[..., 1:], q_a, q_b)
    return resp[..., :1] * q_a + resp[..., 1:] * q_b


def independent_bits_estimate(patterns: Sequence[int], v: int, cfg: EstimatorConfig) -> np.ndarray:
    """Per-variable Bernoulli posterior means under a Beta(pc, pc) prior,
    from the V-bit patterns (variable 0 is the most significant bit): case
    c0's fit, at one checkpoint."""
    return fit_bit_case("c0", patterns, [len(patterns)], v, cfg).factors[0]


def assignment_responsibilities(assignment: Sequence[str]) -> np.ndarray:
    """Hard (0/1) responsibility rows for a fixed a/b assignment."""
    return np.array([[1.0, 0.0] if lab == "a" else [0.0, 1.0] for lab in assignment])


def checkpoint_counts(codes: np.ndarray, checkpoints: Sequence[int], k: int) -> np.ndarray:
    """(C, k) float counts of the codes in [0, k) that the first checkpoints[c]
    samples hold, for increasing checkpoints; codes is (N,) or (N, M), M
    codes per sample. One bincount of the codes tagged with their segment
    (checkpoints[c-1], checkpoints[c]], then a running sum over segments.
    Integer sums in float64 are exact, so the order of addition is free."""
    n_cp = len(checkpoints)
    used = np.asarray(codes, dtype=np.int64)[: checkpoints[-1] if n_cp else 0]
    segment = np.searchsorted(checkpoints, np.arange(1, len(used) + 1), side="left")
    tagged = segment.reshape((-1,) + (1,) * (used.ndim - 1)) * k + used
    per_segment = np.bincount(tagged.ravel(), minlength=n_cp * k)
    return np.cumsum(per_segment.reshape(n_cp, k), axis=0, dtype=np.float64)


def _group_counts(patterns: np.ndarray, checkpoints: np.ndarray, grouping: Grouping) -> np.ndarray:
    """(C, G, 2**S) group outcome counts of the first checkpoints[c] patterns."""
    cell = 1 << grouping.s
    outcomes = group_outcomes(patterns[: checkpoints[-1]], grouping) + cell * np.arange(grouping.g)
    return checkpoint_counts(outcomes, checkpoints, grouping.g * cell).reshape(-1, grouping.g, cell)


@dataclass(frozen=True, eq=False)
class BitCaseFit:
    """One ladder case fitted at C checkpoints, kept small until joints() expands it.

    factors[c] is the fit at checkpoints[c]: c0's (V,) bit probabilities, or
    a grouped case's (G, 2**S) group distributions on the grouping of the
    segment that holds row c. A segment (first row, end row, grouping) is a
    run of checkpoints that share one grouping. c0p's fit is its 2**V
    pattern distribution, as large as its joint, so its factors are None
    and joints() counts its rows from the patterns.
    """

    case: str
    v: int
    checkpoints: np.ndarray
    segments: tuple[tuple[int, int, Grouping | None], ...]
    factors: np.ndarray | None
    patterns: np.ndarray
    pseudocount: float

    def chunks(self, rows: int) -> list[tuple[int, int]]:
        """(lo, hi) row ranges of at most `rows` rows, each within one segment, covering every row."""
        return [(a, min(a + rows, end)) for start, end, _ in self.segments for a in range(start, end, rows)]

    def joints(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, 2**V) joints at checkpoints[lo:hi], rows of one segment."""
        if self.case == "c0":
            return joint_from_independent_bits_rows(self.factors[lo:hi])
        if self.case == "c0p":
            counts = checkpoint_counts(self.patterns, self.checkpoints[lo:hi], 1 << self.v)
            return dirichlet_mean_rows(counts, self.pseudocount)
        for start, end, grouping in self.segments:
            if start <= lo and hi <= end:
                return joint_from_grouping_rows(grouping, self.factors[lo:hi])
        raise ValueError(f"rows {lo}..{hi - 1} do not lie in one segment")


def fit_bit_case(
    case: str,
    patterns: Sequence[int],
    checkpoints: Sequence[int],
    v: int,
    cfg: EstimatorConfig,
    groupings: Sequence[Grouping | None] | None = None,
    assignments: Sequence[Sequence[str]] | None = None,
    seeds: Sequence[int] | np.ndarray | None = None,
) -> BitCaseFit:
    """Fit ladder case `case` (one of BIT_CASES) to the first n V-bit patterns, for each n in checkpoints.

    groupings[c], assignments[c] and seeds[c] serve checkpoints[c]. c0 and
    c0p ignore the groupings. c13 and c1 smooth each group's tallies on its
    own; c123 runs the two-type EM over them from noisy restarts seeded by
    seeds[c], and c12 refines the hard a/b assignments[c] (a searched
    candidate's labels) instead. Counts come from one cumulative bincount
    per segment, and the EM rows of all checkpoints share em_two_type_many's
    pool.
    """
    if case not in BIT_CASES:
        raise ValueError(f"unknown case id {case!r}; valid: {list(BIT_CASES)}")
    grouped = case not in ("c0", "c0p")
    if grouped and (
        groupings is None or None in groupings or (assignments is None) == (case == "c12")
    ):
        raise ValueError(f"case {case} needs a grouping, and an assignment exactly when it is c12")
    if not 1 <= v <= MAX_JOINT_BITS:
        raise CapacityError(f"v={v}: ladder joints need 1 <= v <= {MAX_JOINT_BITS}")
    arr = np.asarray(patterns, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"patterns must be a 1-d sequence, got shape {arr.shape}")
    outside = arr[(arr < 0) | (arr >= 1 << v)]
    if outside.size:
        raise ValueError(f"bit pattern {outside[0]} outside [0, 2**{v})")
    cps = np.asarray(checkpoints, dtype=np.int64)
    if cps.ndim != 1 or (cps.size and (cps[0] < 0 or cps[-1] > arr.size or (np.diff(cps) <= 0).any())):
        raise ValueError(f"checkpoints must increase strictly within [0, {arr.size}]")
    if grouped and len(groupings) != cps.size:
        raise ValueError(f"need one grouping per checkpoint, got {len(groupings)} for {cps.size}")
    for grouping in groupings or ():
        if grouping is not None and grouping.v != v:
            raise ValueError(f"grouping covers {grouping.v} variables, not v={v}")

    def fit(segments, factors) -> BitCaseFit:
        return BitCaseFit(case, v, cps, tuple(segments), factors, arr, cfg.pseudocount)

    if cps.size == 0:
        return fit((), None)
    if case == "c0p":
        return fit([(0, cps.size, None)], None)
    if case == "c0":
        ones = _group_counts(arr, cps, Grouping.identity(v, 1))[:, :, 1]
        return fit([(0, cps.size, None)], (ones + cfg.pseudocount) / (cps[:, None] + 2.0 * cfg.pseudocount))
    segments: list[tuple[int, int, Grouping]] = []
    for c, grouping in enumerate(groupings):
        if segments and grouping == segments[-1][2]:
            segments[-1] = (segments[-1][0], c + 1, grouping)
        else:
            segments.append((c, c + 1, grouping))
    counts = np.concatenate([_group_counts(arr, cps[lo:hi], grouping) for lo, hi, grouping in segments])
    if case in ("c13", "c1"):
        return fit(segments, dirichlet_mean_rows(counts, cfg.pseudocount))
    if case == "c123":
        q, resp = em_two_type_many(counts, cfg, seeds)
    else:
        init = np.stack([assignment_responsibilities(labels) for labels in assignments])
        q, resp = em_two_type_many(counts, cfg, init_responsibilities=init)
    return fit(segments, mixture_rows(resp, q[:, 0], q[:, 1]))


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

    The one-checkpoint case of fit_bit_case: c0 and c0p ignore the grouping,
    c123 seeds its restarts with `seed`, and c12 refines the hard a/b
    `assignment`.
    """
    assignments = None if assignment is None else [assignment]
    fit = fit_bit_case(case, patterns, [len(patterns)], v, cfg, [grouping], assignments, [seed])
    return Categorical(fit.joints(0, 1)[0])
