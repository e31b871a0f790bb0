"""Slow scalar reference versions of library code, kept as test oracles.

The library unranks, enumerates and scores candidates through the
vectorized `_EnumTables` walk and `_ScoreContext`. The functions here do
the same one candidate at a time with plain loops over pools of variables,
so tests can check the fast paths against an independent implementation;
`oracle_enum_tables` builds the unranking tables themselves by walking
every (state, digit) pair with a dict of next states
(`assert_enum_tables_match_oracle` compares a build with it byte for
byte), `oracle_walk` unranks a range of prefix ranks by dividing every
rank into its digits, and `oracle_tuple_tally` counts each tuple's outcomes
with its own bincount.
`oracle_em_e_step` is the EM pass's E-step with numpy's .max/.sum
reductions over the 2 types, which the library's elementwise E-step must
match bit for bit, but for the sign of a NaN. `em_fit` is not an oracle
but a test helper: one dataset's two-type EM through the library's own
restart starts and EM row pool, keeping what `em_two_type_many` drops
(every restart's objective and iteration count) so tests can compare them
with a scalar EM; `em_objective_path` reads the objective after each of
the first M-steps through it. `oracle_four_urns_single_run` likewise draws
a four-urns run one sample at a time (`oracle_draw_urn_sample`), fits each
checkpoint with its own `em_fit` call and reads it out through the scalar
`oracle_dirichlet_mean`, `oracle_per_unit_mixture` and
`oracle_kl_divergence`, one Categorical per urn, adding each curve total
one float at a time (`oracle_per_urn_curves`).
`oracle_bitvectors_single_run` fits every ladder case at every
checkpoint on its own, from per-group `TallyVector`s (`oracle_bit_case_joint`),
and builds each joint by a per-pattern gather (`oracle_joint_from_grouping`).
`fit_one_checkpoint` is a test helper like `em_fit`: the joint that the
library's `fit_bit_case` gives one dataset at one checkpoint, as `lsl
estimate` fits it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from latent_structure_lab.estimate import (
    BIT_CASES,
    EstimatorConfig,
    _em_m_step,
    _em_pool,
    _restart_starts,
    assignment_responsibilities,
    fit_bit_case,
)
from latent_structure_lab.experiment import (
    BitVectorsRun,
    ExperimentSpec,
    FourUrnsRun,
    KlCurve,
    _curve_checkpoints,
    _search_config,
    _truth_seed,
)
from latent_structure_lab.prob import (
    Categorical,
    Grouping,
    TallyVector,
    group_outcomes,
)
from latent_structure_lab.rng import RngState, derive_seed, draw_index
from latent_structure_lab.search import (
    Candidate,
    SearchConfig,
    _case1_radices,
    _pattern_from_index,
    _per_pattern,
    _pin_positions,
    candidate_count,
    search,
    unrank_candidate,
)
from latent_structure_lab.simulate import (
    UrnTruth,
    build_bitvector_truth,
    build_urn_truth,
    draw_bitvector,
    true_joint,
)


def oracle_kl_divergence(p: Categorical, q: Categorical) -> float:
    """KL(p || q) in nats over p's support; +inf where q leaves p's mass unsupported."""
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    mask = p.weights > 0.0
    pw = p.weights[mask]
    qw = q.weights[mask]
    if np.any(qw == 0.0):
        return math.inf
    return float(np.dot(pw, np.log(pw) - np.log(qw)))


def oracle_dirichlet_mean(t: TallyVector, pseudocount: float = 1.0) -> Categorical:
    """Posterior mean under a symmetric Dirichlet prior with the given pseudocount."""
    if not pseudocount > 0.0:
        raise ValueError("pseudocount must be positive")
    return Categorical((t.counts + pseudocount) / (t.total + t.k * pseudocount))


class EmFit(NamedTuple):
    """One dataset's two-type EM: the winning restart, then every restart's
    final objective and iteration count (E-steps run)."""

    q_a: Categorical
    q_b: Categorical
    responsibilities: np.ndarray
    log_likelihood: float
    iterations: int
    restart_objectives: tuple[float, ...]
    restart_iterations: tuple[int, ...]


def em_fit(counts, cfg: EstimatorConfig, seed: int, init_responsibilities=None) -> EmFit:
    """The library EM on one (N, K) count matrix, as em_two_type_many runs a
    dataset: cfg.em_restarts noisy starts seeded by `seed`, or one row
    refining init_responsibilities; the first largest objective wins."""
    counts = np.asarray(counts, dtype=np.float64)[None]
    if init_responsibilities is None:
        starts = _restart_starts(counts, cfg, np.array([seed], dtype=np.uint64))
    else:
        init = np.asarray(init_responsibilities, dtype=np.float64)
        starts = _em_m_step(counts, init[None], cfg.pseudocount)
    # Each restart as a dataset of its own, so the pool returns every row.
    rows = np.repeat(counts, len(starts), axis=0)
    q, resp, objectives, iterations = _em_pool(rows, 1, lambda lo, hi: starts[lo:hi], cfg)
    best = int(np.argmax(objectives))
    return EmFit(
        Categorical(q[best, 0]),
        Categorical(q[best, 1]),
        resp[best],
        float(objectives[best]),
        int(iterations[best]),
        tuple(objectives.tolist()),
        tuple(iterations.tolist()),
    )


def oracle_em_e_step(counts: np.ndarray, q: np.ndarray, pseudocount: float) -> tuple[np.ndarray, np.ndarray]:
    """The EM pass's E-step by numpy reductions: (A,) objectives and (A, N, 2)
    responsibilities of (A, N, K) counts under (A, 2, K) types, with .max and
    .sum over the 2 types."""
    log_q = np.log(q)
    ll = np.ascontiguousarray((counts[:, None] @ log_q[..., None])[..., 0].transpose(0, 2, 1))
    peak = ll.max(axis=2)
    shifted = np.exp(ll - peak[..., None])
    norm = shifted.sum(axis=2)
    obj = np.sum(peak + np.log(0.5 * norm), axis=1) + pseudocount * (
        log_q[:, 0].sum(axis=1) + log_q[:, 1].sum(axis=1)
    )
    return obj, shifted / norm[..., None]


def em_objective_path(counts, cfg: EstimatorConfig, init_responsibilities, steps: int) -> np.ndarray:
    """The library EM's objective after 1, ..., steps M-steps from one start:
    em_fit refining init_responsibilities with em_max_iters = 1, ..., steps."""
    return np.array([
        em_fit(counts, replace(cfg, em_max_iters=m), 0, init_responsibilities).log_likelihood
        for m in range(1, steps + 1)
    ])


def oracle_per_unit_mixture(result: EmFit, hard: bool = False) -> list[Categorical]:
    """Per-unit mixture (or, hard=True, most likely type) of an EM result, one unit at a time."""
    out = []
    for row in result.responsibilities:
        if hard:
            out.append(result.q_a if row[0] >= row[1] else result.q_b)
        else:
            out.append(Categorical(row[0] * result.q_a.weights + row[1] * result.q_b.weights))
    return out


def log_likelihood(t: TallyVector, q: Categorical) -> float:
    """Sum of counts_j * ln(q_j); -inf when data sits on a zero of q."""
    if t.k != q.k:
        raise ValueError(f"dimension mismatch: {t.k} vs {q.k}")
    mask = t.counts > 0.0
    qw = q.weights[mask]
    if np.any(qw == 0.0):
        return -math.inf
    return float(np.dot(t.counts[mask], np.log(qw)))


# ---------------------------------------------------------------------------
# Scalar unranking and ranking
# ---------------------------------------------------------------------------


def oracle_enum_tables(
    v: int, g: int, s: int, arrangements: bool
) -> tuple[list[tuple[int, ...]], list[tuple[np.ndarray, np.ndarray]], list[tuple[np.ndarray, np.ndarray]]]:
    """`_EnumTables`' (tuples, comb, arr), built by walking every (state, digit) pair.

    Level j+1's states are numbered as a dict first reaches them: level j's
    states in index order, the combination digits before the arrangement
    digits, each in itertools order.
    """
    choose_tuples = itertools.permutations if arrangements else itertools.combinations
    tuples = list(choose_tuples(range(v), s))
    tuple_index = {tup: i for i, tup in enumerate(tuples)}
    comb: list[tuple[np.ndarray, np.ndarray]] = []
    arr: list[tuple[np.ndarray, np.ndarray]] = []
    kinds = [(itertools.combinations, math.comb, comb)]
    if arrangements:
        kinds.append((itertools.permutations, math.perm, arr))
    states: list[tuple[int, ...]] = [tuple(range(v))]
    for j in range(g):
        next_index: dict[tuple[int, ...], int] = {}
        for choose, count, tables in kinds:
            tab_id = np.empty((len(states), count(v - j * s, s)), dtype=np.int32)
            tab_next = np.empty_like(tab_id)
            for si, pool in enumerate(states):
                for r, grp in enumerate(choose(pool, s)):
                    tab_id[si, r] = tuple_index[grp]
                    rest = tuple(x for x in pool if x not in grp)
                    tab_next[si, r] = next_index.setdefault(rest, len(next_index))
            tables.append((tab_id, tab_next))
        states = list(next_index)
    return tuples, comb, arr


def assert_enum_tables_match_oracle(tables, arrangements: bool) -> None:
    """`tables`, an `_EnumTables`, equals `oracle_enum_tables`: the same tuples,
    and every array with the same dtype, shape and bytes."""
    tuples, comb, arr = oracle_enum_tables(tables.v, tables.g, tables.s, arrangements)
    assert tables.tuples == tuples
    assert len(tables.comb) == len(comb) and len(tables.arr) == len(arr)
    for got, want in zip(tables.comb + tables.arr, comb + arr):
        for got_tab, want_tab in zip(got, want, strict=True):
            assert (got_tab.dtype, got_tab.shape) == (want_tab.dtype, want_tab.shape)
            assert got_tab.tobytes() == want_tab.tobytes()


def oracle_walk(tables, radices, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """`_EnumTables._walk` by digits: the ids of the first len(radices) groups
    of prefix ranks [lo, hi), and the next state, one (state, digit) gather
    per rank and level."""
    place = math.prod(radices)
    rem = np.arange(lo, hi, dtype=np.int64)
    state = np.zeros(hi - lo, dtype=np.int64)
    ids = np.empty((hi - lo, len(radices)), dtype=np.int64)
    for j, radix in enumerate(radices):
        place //= radix
        digit = rem // place
        rem = rem - digit * place
        tab_id, tab_next = tables[j]
        ids[:, j] = tab_id[state, digit]
        state = tab_next[state, digit].astype(np.int64)
    return ids, state


def _unrank_combination(pool: list[int], s: int, r: int) -> tuple[list[int], list[int]]:
    """r-th lexicographic s-subset of a sorted pool; returns (subset, rest)."""
    chosen: list[int] = []
    rest: list[int] = []
    need = s
    idx = 0
    while need > 0:
        block = math.comb(len(pool) - idx - 1, need - 1)
        if r < block:
            chosen.append(pool[idx])
            need -= 1
        else:
            rest.append(pool[idx])
            r -= block
        idx += 1
    rest.extend(pool[idx:])
    return chosen, rest


def _unrank_arrangement(pool: list[int], s: int, r: int) -> tuple[list[int], list[int]]:
    """r-th lexicographic ordered s-tuple from a sorted pool; (tuple, rest)."""
    items = list(pool)
    out: list[int] = []
    for pos in range(s):
        block = math.perm(len(items) - 1, s - pos - 1)
        i, r = divmod(r, block)
        out.append(items.pop(i))
    return out, items


def _case12_groups_for_subrank(
    v: int, g: int, s: int, pins: tuple[int, ...], subrank: int
) -> list[tuple[int, ...]]:
    pool = list(range(v))
    radices = [
        math.comb(v - j * s, s) if j in pins else math.perm(v - j * s, s) for j in range(g)
    ]
    place = math.prod(radices)
    groups: list[tuple[int, ...]] = []
    rem = subrank
    for j in range(g):
        place //= radices[j]
        digit, rem = divmod(rem, place)
        if j in pins:
            grp, pool = _unrank_combination(pool, s, digit)
        else:
            grp, pool = _unrank_arrangement(pool, s, digit)
        groups.append(tuple(grp))
    return groups


def _case1_groups_for_rank(v: int, g: int, s: int, rank: int) -> list[tuple[int, ...]]:
    pool = list(range(v))
    radices = _case1_radices(v, g, s)
    place = math.prod(radices)
    groups: list[tuple[int, ...]] = []
    rem = rank
    for j in range(g):
        place //= radices[j]
        digit, rem = divmod(rem, place)
        grp, pool = _unrank_combination(pool, s, digit)
        groups.append(tuple(grp))
    return groups


def oracle_unrank(cfg: SearchConfig, rank: int) -> Candidate:
    """The rank-th canonical candidate by closed-form mixed-radix unranking."""
    total = candidate_count(cfg)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    if cfg.mode == "case1":
        groups = _case1_groups_for_rank(cfg.v, cfg.g, cfg.s, rank)
        return Candidate(Grouping(tuple(groups)), None)
    pattern_idx, subrank = divmod(rank, _per_pattern(cfg))
    labels = _pattern_from_index(pattern_idx, cfg.g, cfg.num_types)
    pins = _pin_positions(labels, cfg.num_types)
    groups = _case12_groups_for_subrank(cfg.v, cfg.g, cfg.s, pins, subrank)
    return Candidate(Grouping(tuple(groups)), labels)


def _pattern_index(labels: Sequence[str], g: int, t: int) -> int:
    if t == 1:
        return 0
    idx = 0
    for j in range(1, g):
        idx = (idx << 1) | (1 if labels[j] == "b" else 0)
    return idx


def _rank_combination(pool: list[int], chosen: Sequence[int]) -> int:
    r = 0
    need = len(chosen)
    ci = 0
    for idx, item in enumerate(pool):
        if ci == need:
            break
        if item == chosen[ci]:
            ci += 1
        else:
            r += math.comb(len(pool) - idx - 1, need - ci - 1)
    return r


def _arrangement_rank(pool: list[int], chosen: Sequence[int]) -> int:
    items = list(pool)
    r = 0
    for pos, item in enumerate(chosen):
        i = items.index(item)
        r += i * math.perm(len(items) - 1, len(chosen) - pos - 1)
        items.pop(i)
    return r


def candidate_rank(cfg: SearchConfig, candidate: Candidate) -> int:
    """Inverse of unrank_candidate; requires a canonical candidate."""
    slots = candidate.grouping.slots
    if cfg.mode == "case1":
        pool = list(range(cfg.v))
        rank = 0
        for grp, radix in zip(slots, _case1_radices(cfg.v, cfg.g, cfg.s)):
            if list(grp) != sorted(grp) or grp[0] != pool[0]:
                raise ValueError("candidate is not in canonical form")
            rank = rank * radix + _rank_combination(pool, grp)
            pool = [x for x in pool if x not in grp]
        return rank
    labels = candidate.assignment
    if labels is None or labels[0] != "a":
        raise ValueError("candidate is not in canonical form")
    pins = _pin_positions(labels, cfg.num_types)
    pool = list(range(cfg.v))
    subrank = 0
    for j, grp in enumerate(slots):
        if j in pins:
            if list(grp) != sorted(grp):
                raise ValueError("candidate is not in canonical form")
            radix = math.comb(len(pool), cfg.s)
            digit = _rank_combination(pool, sorted(grp))
        else:
            radix = math.perm(len(pool), cfg.s)
            digit = _arrangement_rank(pool, grp)
        subrank = subrank * radix + digit
        pool = [x for x in pool if x not in grp]
    return _pattern_index(labels, cfg.g, cfg.num_types) * _per_pattern(cfg) + subrank


# ---------------------------------------------------------------------------
# Enumeration and canonical form
# ---------------------------------------------------------------------------


def enumerate_candidates(cfg: SearchConfig, start: int = 0, end: int | None = None) -> Iterator[Candidate]:
    """Yield canonical candidates with ranks in [start, end), by the library's unranker."""
    total = candidate_count(cfg)
    if end is None:
        end = total
    if not 0 <= start <= end <= total:
        raise ValueError(f"rank range [{start}, {end}) outside [0, {total}]")
    for rank in range(start, end):
        yield unrank_candidate(cfg, rank)


def _pins_with_labels(labels: Sequence[str], t: int) -> list[tuple[int, str | None]]:
    if t == 1:
        return [(0, "a")]
    for j, lab in enumerate(labels):
        if lab == "b":
            return [(0, "a"), (j, "b")]
    return [(0, "a"), (1, None)]


def canonicalize_candidate(cfg: SearchConfig, candidate: Candidate) -> Candidate:
    """Map a raw candidate to the canonical representative enumerated here.

    Applies the type-label swap and the per-type simultaneous within-group
    reorderings. For single-label case12 patterns the second positional pin
    is enforced on group 1 alone; that move is a formal tie-down of the
    enumeration slice rather than a score-preserving symmetry. In case1 mode
    it sorts each group and orders the groups by their smallest variable.
    """
    if cfg.mode == "case1":
        groups = sorted(tuple(sorted(grp)) for grp in candidate.grouping.slots)
        return Candidate(Grouping(tuple(groups)), None)
    labels = list(candidate.assignment or ())
    if len(labels) != cfg.g:
        raise ValueError("case12 candidates need an assignment")
    if labels[0] == "b":
        labels = ["a" if l == "b" else "b" for l in labels]
    groups = [list(grp) for grp in candidate.grouping.slots]
    for pin_pos, pin_label in _pins_with_labels(labels, cfg.num_types):
        order = sorted(range(cfg.s), key=lambda i: groups[pin_pos][i])
        if pin_label is None:
            groups[pin_pos] = [groups[pin_pos][i] for i in order]
        else:
            for j, lab in enumerate(labels):
                if lab == pin_label:
                    groups[j] = [groups[j][i] for i in order]
    return Candidate(Grouping(tuple(tuple(grp) for grp in groups)), tuple(labels))


# ---------------------------------------------------------------------------
# Per-candidate scorers
# ---------------------------------------------------------------------------


def oracle_tuple_tally(patterns: Sequence[int], tuples: Sequence[tuple[int, ...]], v: int) -> np.ndarray:
    """(tuples, 2**S) outcome counts, one bincount per tuple; the first variable is the highest bit."""
    arr = np.asarray(patterns, dtype=np.int64)
    bits = ((arr[None, :] >> (v - 1 - np.arange(v))[:, None]) & 1).astype(np.int64)
    cell = 1 << len(tuples[0])
    tally = np.empty((len(tuples), cell), dtype=np.int64)
    for ti, tup in enumerate(tuples):
        out = bits[tup[0]]
        for var in tup[1:]:
            out = (out << 1) | bits[var]
        tally[ti] = np.bincount(out, minlength=cell)
    return tally


def score_candidate_paper(patterns: Sequence[int], candidate: Candidate, cfg: SearchConfig) -> float:
    """Plug-in log-score with self-inclusive pooled tallies.

    Each slot observation is scored under its type's smoothed distribution
    (1 + pooled count) / (2**S + G*|D|), with counts pooled over every slot
    sharing the type, the scored observation included.
    """
    if len(patterns) == 0:
        raise ValueError("cannot score an empty dataset")
    if candidate.assignment is None:
        raise ValueError("plug-in scorer needs a case12 candidate (with assignment)")
    outcomes = group_outcomes(np.asarray(patterns, dtype=np.int64), candidate.grouping)
    cell = 1 << cfg.s
    log_denom = math.log(cell + cfg.g * len(patterns))
    score = 0.0
    for label in ("a", "b"):
        cols = [j for j, lab in enumerate(candidate.assignment) if lab == label]
        if not cols:
            continue
        pooled = np.bincount(outcomes[:, cols].ravel(), minlength=cell)
        score += float(np.dot(pooled, np.log1p(pooled) - log_denom))
    return score


def score_candidate_case1(patterns: Sequence[int], grouping: Grouping, cfg: SearchConfig) -> float:
    """Per-group analogue of the plug-in score, with no type pooling."""
    if len(patterns) == 0:
        raise ValueError("cannot score an empty dataset")
    outcomes = group_outcomes(np.asarray(patterns, dtype=np.int64), grouping)
    cell = 1 << cfg.s
    log_denom = math.log(cell + len(patterns))
    score = 0.0
    for j in range(grouping.g):
        tally = np.bincount(outcomes[:, j], minlength=cell)
        score += float(np.dot(tally, np.log1p(tally) - log_denom))
    return score


def score_candidate_marginal(patterns: Sequence[int], candidate: Candidate, cfg: SearchConfig) -> float:
    """Exact Dirichlet-multinomial marginal log-likelihood (uniform prior).

    The statistically orthodox alternative to the self-inclusive plug-in:
    log integral of the likelihood under a flat Dirichlet per type (case12)
    or per group (case1).
    """
    if len(patterns) == 0:
        raise ValueError("cannot score an empty dataset")
    outcomes = group_outcomes(np.asarray(patterns, dtype=np.int64), candidate.grouping)
    cell = 1 << cfg.s
    score = 0.0
    if candidate.assignment is None:
        for j in range(candidate.grouping.g):
            tally = np.bincount(outcomes[:, j], minlength=cell)
            score += math.lgamma(cell) - math.lgamma(cell + len(patterns))
            score += float(sum(math.lgamma(1 + int(n)) for n in tally))
        return score
    for label in ("a", "b"):
        cols = [j for j, lab in enumerate(candidate.assignment) if lab == label]
        if not cols:
            continue
        pooled = np.bincount(outcomes[:, cols].ravel(), minlength=cell)
        score += math.lgamma(cell) - math.lgamma(cell + len(cols) * len(patterns))
        score += float(sum(math.lgamma(1 + int(n)) for n in pooled))
    return score


# ---------------------------------------------------------------------------
# Four urns, one sample and one EM call at a time
# ---------------------------------------------------------------------------


def oracle_draw_urn_sample(truth: UrnTruth, rng: RngState) -> tuple[tuple[int, int], RngState]:
    """Draw (urn, color) by two scalar inverse-CDF draws; exactly two RNG advances."""
    urn, rng = draw_index(truth.urn_weights.weights, rng)
    color, rng = draw_index(truth.urn_dist(urn).weights, rng)
    return (urn, color), rng


def oracle_four_urns_single_run(spec: ExperimentSpec, run_index: int) -> FourUrnsRun:
    """The streaming four-urns run: scalar draws, tallies updated in place,
    and one em_fit call whenever the stream reaches a checkpoint."""
    run_seed = derive_seed(spec.base_seed, run_index)
    truth = build_urn_truth(spec.urn_config, _truth_seed(spec, run_seed))
    rng = RngState(derive_seed(run_seed, 2))
    n_urns = truth.n_urns
    counts = np.zeros((n_urns, truth.n_colors))
    urn1_samples: list[int] = []
    grid = _curve_checkpoints(spec) or ((0,) if spec.n_samples == 0 else ())
    truths = [truth.urn_dist(i) for i in range(n_urns)]
    raw_rows: list[list[float]] = []
    ours_rows: list[list[float]] = []
    hard_rows: list[list[float]] = []

    def evaluate(checkpoint_index: int) -> None:
        tallies = [TallyVector(counts[i]) for i in range(n_urns)]
        raw_est = [oracle_dirichlet_mean(t, spec.estimator.pseudocount) for t in tallies]
        em = em_fit(counts, spec.estimator, derive_seed(run_seed, 1000 + checkpoint_index))
        ours_est = oracle_per_unit_mixture(em)
        raw_rows.append([oracle_kl_divergence(truths[i], raw_est[i]) for i in range(n_urns)])
        ours_rows.append([oracle_kl_divergence(truths[i], ours_est[i]) for i in range(n_urns)])
        if spec.emit_hard_readout:
            hard_est = oracle_per_unit_mixture(em, hard=True)
            hard_rows.append([oracle_kl_divergence(truths[i], hard_est[i]) for i in range(n_urns)])

    cp_iter = iter(enumerate(grid))
    next_cp = next(cp_iter, None)
    if spec.n_samples == 0 and grid == (0,):
        evaluate(0)
        next_cp = None
    for t in range(1, spec.n_samples + 1):
        (urn, color), rng = oracle_draw_urn_sample(truth, rng)
        counts[urn, color] += 1.0
        if urn == 0:
            urn1_samples.append(t)
        while next_cp is not None and next_cp[1] == t:
            evaluate(next_cp[0])
            next_cp = next(cp_iter, None)

    return FourUrnsRun(
        truth=truth,
        raw=oracle_per_urn_curves("raw", grid, raw_rows),
        ours=oracle_per_urn_curves("ours", grid, ours_rows),
        ours_hard=oracle_per_urn_curves("ours_hard", grid, hard_rows) if spec.emit_hard_readout else None,
        urn1_samples=tuple(urn1_samples),
    )


def oracle_per_urn_curves(label: str, grid: Sequence[int], rows: list[list[float]]) -> KlCurve:
    """A total curve over per-urn KL rows, one float at a time: each total
    adds its row's values left to right onto 0.0, and urn i's sub-curve
    takes the i-th value of every row."""
    totals = []
    for row in rows:
        total = 0.0
        for value in row:
            total += value
        totals.append(total)
    subs = tuple(KlCurve(f"urn{i + 1}", grid, [row[i] for row in rows]) for i in range(len(rows[0])))
    return KlCurve(label, grid, totals, subs)


# ---------------------------------------------------------------------------
# Bit-vector ladder, one case and one checkpoint at a time
# ---------------------------------------------------------------------------


def oracle_joint_from_grouping(grouping: Grouping, group_dists: Sequence[np.ndarray]) -> np.ndarray:
    """Per-pattern gather: each group's weight at its outcome, multiplied in group order."""
    outcomes = group_outcomes(np.arange(1 << grouping.v, dtype=np.int64), grouping)
    joint = np.ones(1 << grouping.v)
    for j, weights in enumerate(group_dists):
        joint *= weights[outcomes[:, j]]
    return joint


def oracle_bit_case_joint(
    case: str,
    patterns: Sequence[int],
    v: int,
    cfg: EstimatorConfig,
    grouping: Grouping,
    assignment: Sequence[str] | None,
    seed: int,
) -> Categorical:
    """Ladder case `case` fitted to the patterns from one tally per group (or pattern)."""
    arr = np.asarray(patterns, dtype=np.int64)
    if case == "c0":
        ones = ((arr[:, None] >> (v - 1 - np.arange(v))) & 1).sum(axis=0)
        probs = (ones + cfg.pseudocount) / (len(arr) + 2.0 * cfg.pseudocount)
        pairs = [np.array([1.0 - p, p]) for p in probs]
        return Categorical(oracle_joint_from_grouping(Grouping.identity(v, 1), pairs))
    if case == "c0p":
        return oracle_dirichlet_mean(TallyVector(np.bincount(arr, minlength=1 << v)), cfg.pseudocount)
    outcomes = group_outcomes(arr, grouping)
    tallies = [TallyVector(np.bincount(outcomes[:, j], minlength=1 << grouping.s)) for j in range(grouping.g)]
    if case in ("c13", "c1"):
        dists = [oracle_dirichlet_mean(t, cfg.pseudocount) for t in tallies]
    else:
        init = None if assignment is None else assignment_responsibilities(assignment)
        dists = oracle_per_unit_mixture(em_fit(np.stack([t.counts for t in tallies]), cfg, seed, init))
    return Categorical(oracle_joint_from_grouping(grouping, [d.weights for d in dists]))


def fit_one_checkpoint(
    case: str,
    patterns: Sequence[int],
    v: int,
    cfg: EstimatorConfig,
    grouping: Grouping | None = None,
    assignment: Sequence[str] | None = None,
    seed: int = 0,
) -> Categorical:
    """The 2**V joint of ladder case `case` fitted by fit_bit_case to all the
    patterns at once: c0 and c0p ignore the grouping, c123 seeds its
    restarts with `seed`, and c12 refines the hard a/b `assignment`."""
    assignments = None if assignment is None else [assignment]
    fit = fit_bit_case(case, patterns, [len(patterns)], v, cfg, [grouping], assignments, [seed])
    return Categorical(fit.joints(0, 1)[0])


def oracle_bitvectors_single_run(spec: ExperimentSpec, run_index: int) -> BitVectorsRun:
    """The checkpoint-at-a-time bit-vector run: scalar draws, and at each
    checkpoint each case searched (c1, c12, where due) and fitted on its own
    and scored by the scalar KL."""
    run_seed = derive_seed(spec.base_seed, run_index)
    truth = build_bitvector_truth(spec.bits_config, _truth_seed(spec, run_seed))
    rng = RngState(derive_seed(run_seed, 2))
    patterns = []
    for _ in range(spec.n_samples):
        pattern, rng = draw_bitvector(truth, rng)
        patterns.append(pattern)
    joint = true_joint(truth)
    search_at = spec.search.checkpoints
    best: dict[str, Candidate] = {}
    rows: dict[str, list[float]] = {case: [] for case in spec.cases}
    for cp_index, n in enumerate(_curve_checkpoints(spec)):
        for case in spec.cases:
            seed = derive_seed(run_seed, 1000 + cp_index * len(BIT_CASES) + BIT_CASES.index(case))
            grouping, assignment = truth.hidden_grouping, None
            if case in ("c1", "c12"):
                if search_at is None or n in search_at or case not in best:
                    best[case] = search(patterns[:n], _search_config(spec, case))[0].candidate
                grouping, assignment = best[case].grouping, best[case].assignment
            est = oracle_bit_case_joint(
                case, patterns[:n], truth.v, spec.estimator, grouping, assignment, seed
            )
            rows[case].append(oracle_kl_divergence(joint, est))
    grid = _curve_checkpoints(spec)
    curves = {case: KlCurve(case, grid, rows[case]) for case in spec.cases}
    return BitVectorsRun(truth=truth, curves=curves)
