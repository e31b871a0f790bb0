"""Exhaustive, symmetry-reduced search over grouping/assignment hypotheses.

The raw hypothesis space pairs every ordered grouping of the V variables
(into G ordered S-slot groups) with every group-to-type assignment. Two
redundancies are quotiented away, exactly matching the reduced count
T**G * V! / (T! * (S!)**T):

- type labels are interchangeable, and
- reordering the slots of every group of one type simultaneously relabels
  that type's outcomes without changing the hypothesis.

Canonical form (the enumeration space) anchors both positionally so that
every assignment pattern owns the same number of permutations, which gives
closed-form mixed-radix unranking and clean rank-range chunking:

- the first group's label is "a" (assignment patterns with A[0] = "a"),
- the first group carrying each label keeps its slots in ascending order;
  a pattern using a single label pins group positions 0 and 1 instead.

Candidates are totally ordered by rank: assignment pattern major,
permutation minor. Enumeration, scoring, and the parallel top-k reduction
are all pure functions of (dataset, config), so results are identical for
any worker count.

In case1 mode there is no assignment and no type is shared, so neither the
case1 scorers nor `estimate_from_candidate` read slot order within a group
or the order of the groups: a hypothesis is a set partition of the V
variables into G groups of S. The canonical form sorts each group and
orders groups by their smallest variable, giving
prod_j C(V - j*S - 1, S - 1) = V!/(G! * (S!)**G) candidates. Group j is the
pool's smallest unused variable plus an (S-1)-subset of the rest, which are
exactly the first C(n-1, S-1) lexicographic S-subsets of the n-variable
pool, so case1 ranks walk the same combination tables as case12 with a
smaller radix.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .estimate import EstimatorConfig, grouped_known_estimate
from .prob import CapacityError, Categorical, Grouping, group_outcomes, joint_from_grouping

logger = logging.getLogger(__name__)

MODES = ("case1", "case12")
SCORERS = ("paper_plugin", "dirichlet_marginal")

_MAX_RANK = 1 << 63
_MAX_TUPLE_TABLE = 50_000_000
ORBIT_JOINT_TOL = 1e-12


@dataclass(frozen=True)
class Candidate:
    """One hypothesis: an ordered grouping plus, in case12 mode, labels."""

    grouping: Grouping
    assignment: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.assignment is not None:
            labels = tuple(self.assignment)
            if len(labels) != self.grouping.g or any(l not in ("a", "b") for l in labels):
                raise ValueError("assignment must give an a/b label per group")
            object.__setattr__(self, "assignment", labels)


@dataclass(frozen=True)
class SearchConfig:
    v: int
    g: int
    s: int
    num_types: int = 2
    mode: str = "case12"
    scorer: str = "paper_plugin"
    workers: int = 1
    top_k: int = 10
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.v != self.g * self.s:
            raise ValueError(f"v must equal g*s (got {self.v} != {self.g}*{self.s})")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.scorer not in SCORERS:
            raise ValueError(f"scorer must be one of {SCORERS}")
        if self.num_types not in (1, 2) or self.num_types > self.g:
            raise ValueError("num_types must be 1 or 2 and at most g")
        if self.workers < 1 or self.top_k < 1:
            raise ValueError("workers and top_k must be positive")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: Candidate
    log_score: float
    rank: int


def _perm_count(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def candidate_count(cfg: SearchConfig) -> int:
    """Size of the canonical candidate space for this configuration."""
    if cfg.mode == "case1":
        count = math.prod(_case1_radices(cfg.v, cfg.g, cfg.s))
    else:
        t = cfg.num_types
        count = (t**cfg.g * math.factorial(cfg.v)) // (
            math.factorial(t) * math.factorial(cfg.s) ** t
        )
    if count >= _MAX_RANK:
        raise CapacityError(f"candidate space {count} exceeds 64-bit rank range")
    return count


# ---------------------------------------------------------------------------
# Canonical enumeration: assignment pattern major, permutation minor
# ---------------------------------------------------------------------------


def _pattern_from_index(idx: int, g: int, t: int) -> tuple[str, ...]:
    if t == 1:
        return ("a",) * g
    labels = ["a"]
    for j in range(1, g):
        labels.append("b" if (idx >> (g - 1 - j)) & 1 else "a")
    return tuple(labels)


def _pattern_index(labels: Sequence[str], g: int, t: int) -> int:
    if t == 1:
        return 0
    idx = 0
    for j in range(1, g):
        idx = (idx << 1) | (1 if labels[j] == "b" else 0)
    return idx


def _pin_positions(labels: Sequence[str], t: int) -> tuple[int, ...]:
    if t == 1:
        return (0,)
    for j, lab in enumerate(labels):
        if lab == "b":
            return (0, j)
    return (0, 1)


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


def _unrank_arrangement(pool: list[int], s: int, r: int) -> tuple[list[int], list[int]]:
    """r-th lexicographic ordered s-tuple from a sorted pool; (tuple, rest)."""
    items = list(pool)
    out: list[int] = []
    for pos in range(s):
        block = _perm_count(len(items) - 1, s - pos - 1)
        i, r = divmod(r, block)
        out.append(items.pop(i))
    return out, items


def _case12_groups_for_subrank(
    v: int, g: int, s: int, pins: tuple[int, ...], subrank: int
) -> list[tuple[int, ...]]:
    pool = list(range(v))
    radices = [
        math.comb(v - j * s, s) if j in pins else _perm_count(v - j * s, s) for j in range(g)
    ]
    place = 1
    for rad in radices:
        place *= rad
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


def _case1_radices(v: int, g: int, s: int) -> list[int]:
    """Per level j: sorted S-subsets of the v - j*s unused variables that hold the smallest."""
    return [math.comb(v - j * s - 1, s - 1) for j in range(g)]


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


def unrank_candidate(cfg: SearchConfig, rank: int) -> Candidate:
    """The rank-th canonical candidate in the fixed total order."""
    total = candidate_count(cfg)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    if cfg.mode == "case1":
        groups = _case1_groups_for_rank(cfg.v, cfg.g, cfg.s, rank)
        return Candidate(Grouping(tuple(groups)), None)
    per_pattern = math.factorial(cfg.v) // math.factorial(cfg.s) ** cfg.num_types
    pattern_idx, subrank = divmod(rank, per_pattern)
    labels = _pattern_from_index(pattern_idx, cfg.g, cfg.num_types)
    pins = _pin_positions(labels, cfg.num_types)
    groups = _case12_groups_for_subrank(cfg.v, cfg.g, cfg.s, pins, subrank)
    return Candidate(Grouping(tuple(groups)), labels)


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
            radix = _perm_count(len(pool), cfg.s)
            digit = _arrangement_rank(pool, grp)
        subrank = subrank * radix + digit
        pool = [x for x in pool if x not in grp]
    per_pattern = math.factorial(cfg.v) // math.factorial(cfg.s) ** cfg.num_types
    return _pattern_index(labels, cfg.g, cfg.num_types) * per_pattern + subrank


def _arrangement_rank(pool: list[int], chosen: Sequence[int]) -> int:
    items = list(pool)
    r = 0
    for pos, item in enumerate(chosen):
        i = items.index(item)
        r += i * _perm_count(len(items) - 1, len(chosen) - pos - 1)
        items.pop(i)
    return r


def enumerate_candidates(cfg: SearchConfig, start: int = 0, end: int | None = None) -> Iterator[Candidate]:
    """Yield canonical candidates with ranks in [start, end)."""
    total = candidate_count(cfg)
    if end is None:
        end = total
    if not 0 <= start <= end <= total:
        raise ValueError(f"rank range [{start}, {end}) outside [0, {total}]")
    for rank in range(start, end):
        yield unrank_candidate(cfg, rank)


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


def _pins_with_labels(labels: Sequence[str], t: int) -> list[tuple[int, str | None]]:
    if t == 1:
        return [(0, "a")]
    for j, lab in enumerate(labels):
        if lab == "b":
            return [(0, "a"), (j, "b")]
    return [(0, "a"), (1, None)]


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


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


def _lgamma_table(top: int) -> np.ndarray:
    out = np.empty(top + 1)
    out[0] = math.inf
    for m in range(1, top + 1):
        out[m] = math.lgamma(m)
    return out


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


class _ScoreContext:
    """Per-dataset tables: one tally row per S-tuple of variables.

    The tuples are ordered for case12 and sorted for case1, whose candidates
    hold sorted groups only. A candidate's pooled tallies are sums of
    precomputed tuple rows, and the per-observation log terms reduce to a
    table lookup, so scoring a batch of candidates is a handful of
    vectorized gathers.
    """

    def __init__(self, patterns: Sequence[int], cfg: SearchConfig):
        self.cfg = cfg
        self.n = len(patterns)
        v, s = cfg.v, cfg.s
        cell = 1 << s
        case12 = cfg.mode == "case12"
        n_tuples = _perm_count(v, s) if case12 else math.comb(v, s)
        if n_tuples * cell > _MAX_TUPLE_TABLE:
            raise CapacityError(f"tuple tally table would need {n_tuples * cell} cells")
        self.tables = _enum_tables(v, cfg.g, s, arrangements=case12)
        arr = np.asarray(patterns, dtype=np.int64)
        shifts = v - 1 - np.arange(v)
        bits = ((arr[None, :] >> shifts[:, None]) & 1).astype(np.int64)
        tally = np.empty((n_tuples, cell), dtype=np.int64)
        for ti, tup in enumerate(self.tables.tuples):
            out = bits[tup[0]]
            for var in tup[1:]:
                out = (out << 1) | bits[var]
            tally[ti] = np.bincount(out, minlength=cell)
        self.tally = tally

        counts = np.arange(cfg.g * self.n + 1, dtype=np.float64)
        if cfg.scorer == "paper_plugin":
            self.pool_term = counts * (np.log1p(counts) - math.log(cell + cfg.g * self.n))
            single = counts[: self.n + 1] * (np.log1p(counts[: self.n + 1]) - math.log(cell + self.n))
            self.tuple_score = single[tally].sum(axis=1)
        else:
            lgam = _lgamma_table(cfg.g * self.n + cell + 1)
            self.pool_term = lgam[np.arange(cfg.g * self.n + 1) + 1]
            self.lgam = lgam
            base = lgam[cell] - lgam[cell + self.n]
            self.tuple_score = base + lgam[tally + 1].sum(axis=1)

    def score_rows(self, ids: np.ndarray, labels: tuple[str, ...] | None) -> np.ndarray:
        if labels is None:
            return self.tuple_score[ids].sum(axis=1)
        cell = 1 << self.cfg.s
        scores = np.zeros(ids.shape[0])
        for label in ("a", "b"):
            cols = [j for j, lab in enumerate(labels) if lab == label]
            if not cols:
                continue
            pooled = self.tally[ids[:, cols]].sum(axis=1)
            scores += self.pool_term[pooled].sum(axis=1)
            if self.cfg.scorer != "paper_plugin":
                scores += self.lgam[cell] - self.lgam[cell + len(cols) * self.n]
        return scores


class _EnumTables:
    """Vectorized unranking tables for one (v, g, s) geometry.

    A level-j state is the set of variables still unused after j groups,
    indexed within the sorted list of such sets. For each state and digit
    the tables give the chosen group's tuple id and the next state, so
    unranking a whole batch of ranks reduces to per-level 2-d gathers.
    Ordered tuples and the arrangement tables are built only when
    `arrangements` is set (case12); case1 needs sorted tuples and the
    combination tables alone.
    """

    def __init__(self, v: int, g: int, s: int, arrangements: bool):
        self.v, self.g, self.s = v, g, s
        tuples = itertools.permutations if arrangements else itertools.combinations
        self.tuples = list(tuples(range(v), s))
        self.tuple_index = {tup: i for i, tup in enumerate(self.tuples)}
        self.comb_radix = [math.comb(v - j * s, s) for j in range(g)]
        self.arr_radix = [_perm_count(v - j * s, s) for j in range(g)]
        self.comb: list[tuple[np.ndarray, np.ndarray]] = []
        self.arr: list[tuple[np.ndarray, np.ndarray]] = []

        states: list[tuple[int, ...]] = [tuple(range(v))]
        for j in range(g):
            next_index: dict[tuple[int, ...], int] = {}

            def intern(pool: tuple[int, ...]) -> int:
                return next_index.setdefault(pool, len(next_index))

            n_states = len(states)
            comb_id = np.empty((n_states, self.comb_radix[j]), dtype=np.int32)
            comb_next = np.empty_like(comb_id)
            for si, pool in enumerate(states):
                for r, grp in enumerate(itertools.combinations(pool, s)):
                    comb_id[si, r] = self.tuple_index[grp]
                    comb_next[si, r] = intern(tuple(x for x in pool if x not in grp))
            self.comb.append((comb_id, comb_next))
            if arrangements:
                arr_id = np.empty((n_states, self.arr_radix[j]), dtype=np.int32)
                arr_next = np.empty_like(arr_id)
                for si, pool in enumerate(states):
                    for r, grp in enumerate(itertools.permutations(pool, s)):
                        arr_id[si, r] = self.tuple_index[grp]
                        arr_next[si, r] = intern(tuple(x for x in pool if x not in grp))
                self.arr.append((arr_id, arr_next))
            states = [pool for pool, _ in sorted(next_index.items(), key=lambda kv: kv[1])]

    def case12_ids(self, pins: tuple[int, ...], sub_lo: int, sub_hi: int) -> np.ndarray:
        """Tuple ids, shape (sub_hi-sub_lo, g), for one assignment pattern."""
        radices = [self.comb_radix[j] if j in pins else self.arr_radix[j] for j in range(self.g)]
        return self._walk(
            [self.comb[j] if j in pins else self.arr[j] for j in range(self.g)],
            radices,
            sub_lo,
            sub_hi,
        )

    def case1_ids(self, lo: int, hi: int) -> np.ndarray:
        """Tuple ids, shape (hi-lo, g): the first radix columns of `comb`."""
        return self._walk(self.comb, _case1_radices(self.v, self.g, self.s), lo, hi)

    def _walk(self, tables, radices, lo: int, hi: int) -> np.ndarray:
        place = 1
        for rad in radices:
            place *= rad
        rem = np.arange(lo, hi, dtype=np.int64)
        state = np.zeros(hi - lo, dtype=np.int64)
        ids = np.empty((hi - lo, self.g), dtype=np.int64)
        for j in range(self.g):
            place //= radices[j]
            digit = rem // place
            rem = rem - digit * place
            tab_id, tab_next = tables[j]
            ids[:, j] = tab_id[state, digit]
            state = tab_next[state, digit].astype(np.int64)
        return ids


_ENUM_TABLES: dict[tuple[int, int, int, bool], _EnumTables] = {}


def _enum_tables(v: int, g: int, s: int, arrangements: bool) -> _EnumTables:
    key = (v, g, s, arrangements)
    if key not in _ENUM_TABLES:
        _ENUM_TABLES[key] = _EnumTables(v, g, s, arrangements)
    return _ENUM_TABLES[key]


_SCORE_BATCH = 65536


def _case12_tuple_rows(
    cfg: SearchConfig, tables: _EnumTables, start: int, end: int
) -> Iterator[tuple[tuple[str, ...] | None, np.ndarray, int]]:
    """Yield (labels, ids, first_rank) over same-pattern, size-bounded batches."""
    per_pattern = math.factorial(cfg.v) // math.factorial(cfg.s) ** cfg.num_types
    rank = start
    while rank < end:
        pattern_idx = rank // per_pattern
        stop = min(end, (pattern_idx + 1) * per_pattern, rank + _SCORE_BATCH)
        labels = _pattern_from_index(pattern_idx, cfg.g, cfg.num_types)
        pins = _pin_positions(labels, cfg.num_types)
        base = pattern_idx * per_pattern
        yield labels, tables.case12_ids(pins, rank - base, stop - base), rank
        rank = stop


def _case1_tuple_rows(
    cfg: SearchConfig, tables: _EnumTables, start: int, end: int
) -> Iterator[tuple[None, np.ndarray, int]]:
    rank = start
    while rank < end:
        stop = min(end, rank + _SCORE_BATCH)
        yield None, tables.case1_ids(rank, stop), rank
        rank = stop


def _score_range(ctx: _ScoreContext, start: int, end: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (ranks, scores) for the rank range [start, end)."""
    cfg = ctx.cfg
    rows = _case1_tuple_rows if cfg.mode == "case1" else _case12_tuple_rows
    rank_parts = []
    score_parts = []
    for labels, ids, first in rows(cfg, ctx.tables, start, end):
        ranks = np.arange(first, first + ids.shape[0], dtype=np.int64)
        scores = ctx.score_rows(ids, labels)
        if ranks.size > k:
            keep = np.lexsort((ranks, -scores))[:k]
            ranks, scores = ranks[keep], scores[keep]
        rank_parts.append(ranks)
        score_parts.append(scores)
    ranks = np.concatenate(rank_parts)
    scores = np.concatenate(score_parts)
    order = np.lexsort((ranks, -scores))[:k]
    return ranks[order], scores[order]


_WORKER_CTX: _ScoreContext | None = None


def _worker_init(patterns: list[int], cfg: SearchConfig) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _ScoreContext(patterns, cfg)


def _worker_score_range(start: int, end: int, k: int) -> tuple[list[int], list[float]]:
    assert _WORKER_CTX is not None
    ranks, scores = _score_range(_WORKER_CTX, start, end, k)
    return ranks.tolist(), scores.tolist()


def search(patterns: Sequence[int], cfg: SearchConfig) -> list[ScoredCandidate]:
    """Exact top-k over the canonical candidate space.

    Workers score disjoint contiguous rank ranges and emit partial top-k
    lists; the merge orders by (score desc, rank asc), so the result is
    identical for every worker count and chunk size.
    """
    if len(patterns) == 0:
        raise ValueError("search requires a nonempty dataset")
    total = candidate_count(cfg)
    k = cfg.top_k
    chunk = cfg.chunk_size or max(1, -(-total // (cfg.workers * 64)))
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    patterns = [int(p) for p in patterns]

    if cfg.workers == 1 or len(ranges) == 1:
        ctx = _ScoreContext(patterns, cfg)
        parts = []
        for lo, hi in ranges:
            parts.append(_score_range(ctx, lo, hi, k))
            logger.info("scored ranks [%d, %d) of %d", lo, hi, total)
    else:
        parts = []
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_worker_init, initargs=(patterns, cfg)
        ) as pool:
            futures = [pool.submit(_worker_score_range, lo, hi, k) for lo, hi in ranges]
            for (lo, hi), fut in zip(ranges, futures):
                ranks, scores = fut.result()
                parts.append((np.asarray(ranks, dtype=np.int64), np.asarray(scores)))
                logger.info("scored ranks [%d, %d) of %d", lo, hi, total)

    ranks = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    order = np.lexsort((ranks, -scores))[:k]
    return [
        ScoredCandidate(
            candidate=unrank_candidate(cfg, int(ranks[i])),
            log_score=float(scores[i]),
            rank=int(ranks[i]),
        )
        for i in order
    ]


def estimate_from_candidate(
    patterns: Sequence[int], candidate: Candidate, est_cfg: EstimatorConfig, seed: int = 0
) -> Categorical:
    """The joint implied by fitting this candidate's model to the data.

    case12 candidates seed the two-type EM with their assignment as a hard
    initialization and refine from there; case1 candidates use independent
    smoothed per-group estimates.
    """
    if candidate.assignment is None:
        dists, _ = grouped_known_estimate(candidate.grouping, patterns, est_cfg, share_types=False)
    else:
        dists, _ = grouped_known_estimate(
            candidate.grouping,
            patterns,
            est_cfg,
            share_types=True,
            seed=seed,
            init_assignment=candidate.assignment,
        )
    return joint_from_grouping(candidate.grouping, dists)


def in_truth_orbit(candidate: Candidate, truth_joint: Categorical) -> bool:
    """Whether this candidate's model family can express the given joint.

    Checks that the joint factorizes exactly over the candidate's groups
    (comparing implied joints within 1e-12) and, for case12 candidates,
    that same-labeled groups carry identical group marginals.
    """
    grouping = candidate.grouping
    v = grouping.v
    cell = 1 << grouping.s
    outcomes = group_outcomes(np.arange(1 << v, dtype=np.int64), grouping)
    marginals = [
        np.bincount(outcomes[:, j], weights=truth_joint.weights, minlength=cell)
        for j in range(grouping.g)
    ]
    product = np.ones(1 << v)
    for j in range(grouping.g):
        product *= marginals[j][outcomes[:, j]]
    if float(np.abs(product - truth_joint.weights).max()) > ORBIT_JOINT_TOL:
        return False
    if candidate.assignment is not None:
        for label in ("a", "b"):
            cols = [j for j, lab in enumerate(candidate.assignment) if lab == label]
            for j in cols[1:]:
                if float(np.abs(marginals[j] - marginals[cols[0]]).max()) > ORBIT_JOINT_TOL:
                    return False
    return True


def search_result_jsonable(cfg: SearchConfig, data_digest: int, results: Sequence[ScoredCandidate]) -> dict:
    """JSON form of a search result; variables print 1-based."""
    return {
        "format_version": 1,
        "config": {
            "v": cfg.v,
            "g": cfg.g,
            "s": cfg.s,
            "num_types": cfg.num_types,
            "mode": cfg.mode,
            "scorer": cfg.scorer,
            "top_k": cfg.top_k,
        },
        "data_digest": f"0x{data_digest:016x}",
        "top_k": [
            {
                "rank": sc.rank,
                "log_score": sc.log_score,
                "grouping": [[var + 1 for var in grp] for grp in sc.candidate.grouping.slots],
                "assignment": list(sc.candidate.assignment) if sc.candidate.assignment else None,
            }
            for sc in results
        ],
    }


def write_search_result(path, cfg: SearchConfig, data_digest: int, results: Sequence[ScoredCandidate]) -> None:
    payload = search_result_jsonable(cfg, data_digest, results)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
