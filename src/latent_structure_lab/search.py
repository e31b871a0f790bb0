"""Exhaustive, symmetry-reduced search over grouping/assignment hypotheses.

The raw hypothesis space pairs every ordered grouping of the V variables
(into G ordered S-slot groups) with every group-to-type assignment. The
case12 count T**G * V! / (T! * (S!)**T) quotients two redundancies:

- type labels are interchangeable, and
- reordering the slots of every group of one type simultaneously relabels
  that type's outcomes without changing the hypothesis.

The space still differs from the set of distinct hypotheses. The scorers
ignore group order, so a top-k can list group-order relabelings of one
hypothesis. With two types, a single-type hypothesis is enumerated only
when two of its groups list their variables in the same relative order
(the single-label pin below). A brute-force orbit count at V=6, G=2, S=3
finds 40 candidates covering 20 of 70 distinct hypotheses, missing 50 of
the 60 single-type ones; at V=6, G=3, S=2 the 720 candidates cover all 150.

Canonical form (the enumeration space) anchors both positionally so that
every assignment pattern owns the same number of permutations, which gives
mixed-radix ranks and clean rank-range chunking:

- the first group's label is "a" (assignment patterns with A[0] = "a"),
- the first group carrying each label keeps its slots in ascending order;
  a pattern using a single label pins group positions 0 and 1 instead.

Candidates are totally ordered by rank: assignment pattern major,
permutation minor. Within a pattern, a rank's mixed-radix digits are
walked through per-geometry tables (`_EnumTables`): digit j picks group j
from the variables still unused and names the next set of unused
variables. That one walk unranks whole scoring batches and the single
top-k ranks alike. Enumeration, scoring, and the parallel top-k reduction
are all pure functions of (dataset, config), so results are identical for
any worker count.

In case1 mode there is no assignment and no type is shared, so neither the
case1 scorers nor the c1 estimate (`estimate.bit_case_joint`) read slot
order within a group or the order of the groups: a hypothesis is a set
partition of the V variables into G groups of S. The canonical form sorts
each group and orders groups by their smallest variable, giving
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
from typing import Sequence

import numpy as np

from .estimate import EstimatorConfig, bit_case_joint
from .prob import CapacityError, Categorical, Grouping, group_outcomes

logger = logging.getLogger(__name__)

MODES = ("case1", "case12")
SCORERS = ("paper_plugin", "dirichlet_marginal")

_MAX_RANK = 1 << 63
_MAX_TUPLE_TABLE = 50_000_000
# (state, digit) entries over all levels of one geometry's _EnumTables, each
# two int32s; the V=12 case12 tables hold 261,800 of them.
_MAX_TABLE_ENTRIES = 10_000_000
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


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: Candidate
    log_score: float
    rank: int


def _per_pattern(cfg: SearchConfig) -> int:
    """case12 candidates per assignment pattern."""
    return math.factorial(cfg.v) // math.factorial(cfg.s) ** cfg.num_types


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


def _pin_positions(labels: Sequence[str], t: int) -> tuple[int, ...]:
    if t == 1:
        return (0,)
    for j, lab in enumerate(labels):
        if lab == "b":
            return (0, j)
    return (0, 1)


def _case1_radices(v: int, g: int, s: int) -> list[int]:
    """Per level j: sorted S-subsets of the v - j*s unused variables that hold the smallest."""
    return [math.comb(v - j * s - 1, s - 1) for j in range(g)]


def unrank_candidate(cfg: SearchConfig, rank: int) -> Candidate:
    """The rank-th canonical candidate in the fixed total order: a one-row table walk."""
    total = candidate_count(cfg)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    tables = _enum_tables(cfg.v, cfg.g, cfg.s, arrangements=cfg.mode == "case12")
    if cfg.mode == "case1":
        ids = tables.case1_ids(rank, rank + 1)[0]
        return Candidate(Grouping(tuple(tables.tuples[i] for i in ids)), None)
    pattern_idx, sub = divmod(rank, _per_pattern(cfg))
    labels = _pattern_from_index(pattern_idx, cfg.g, cfg.num_types)
    prefix, leaves = tables.case12_ids(_pin_positions(labels, cfg.num_types), sub, sub + 1)
    ids = [*prefix[0], leaves[0, sub % leaves.shape[1]]]
    return Candidate(Grouping(tuple(tables.tuples[i] for i in ids)), labels)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def _lgamma_table(top: int) -> np.ndarray:
    out = np.empty(top + 1)
    out[0] = math.inf
    for m in range(1, top + 1):
        out[m] = math.lgamma(m)
    return out


class _ScoreContext:
    """Per-dataset tables: one tally row per S-tuple of variables.

    The tuples are ordered for case12 and sorted for case1, whose candidates
    hold sorted groups only. A candidate's pooled tallies are sums of
    precomputed tuple rows, and the per-observation log terms reduce to a
    table lookup. A case1 batch gathers one precomputed score per group.

    A case12 batch is scored per prefix: the first G-1 groups of r
    consecutive ranks agree, where r is the last level's radix (S! when the
    last group is free, 1 when it is a pin). Each type's pooled tally over
    the prefix groups is summed once per prefix; the type without the last
    group gets its term once per prefix, and the type that owns it adds one
    tuple row per leaf and evaluates its term on the r leaves. Terms still
    accumulate as a's term, a's constant, b's term, b's constant, so the
    scores equal a per-candidate evaluation bit for bit.
    """

    def __init__(self, patterns: Sequence[int], cfg: SearchConfig):
        self.cfg = cfg
        self.n = len(patterns)
        v, s = cfg.v, cfg.s
        cell = 1 << s
        self.tables = _enum_tables(v, cfg.g, s, arrangements=cfg.mode == "case12")
        arr = np.asarray(patterns, dtype=np.int64)
        shifts = v - 1 - np.arange(v)
        bits = ((arr[None, :] >> shifts[:, None]) & 1).astype(np.int64)
        tally = np.empty((len(self.tables.tuples), cell), dtype=np.int64)
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

    def score(self, lo: int, hi: int) -> np.ndarray:
        """Scores of ranks [lo, hi); a case12 range lies within one assignment pattern."""
        cfg = self.cfg
        if cfg.mode == "case1":
            return self.tuple_score[self.tables.case1_ids(lo, hi)].sum(axis=1)
        cell = 1 << cfg.s
        pattern_idx, sub_lo = divmod(lo, _per_pattern(cfg))
        labels = _pattern_from_index(pattern_idx, cfg.g, cfg.num_types)
        pins = _pin_positions(labels, cfg.num_types)
        prefix, leaves = self.tables.case12_ids(pins, sub_lo, sub_lo + hi - lo)
        scores = np.zeros(leaves.shape)
        for label in ("a", "b"):
            cols = [j for j, lab in enumerate(labels[:-1]) if lab == label]
            owns_last = label == labels[-1]
            if not (cols or owns_last):
                continue
            pooled = self.tally[prefix[:, cols]].sum(axis=1)[:, None, :]
            if owns_last:
                pooled = pooled + self.tally[leaves]
            scores += self.pool_term[pooled].sum(axis=-1)
            if cfg.scorer != "paper_plugin":
                scores += self.lgam[cell] - self.lgam[cell + (len(cols) + owns_last) * self.n]
        skip = sub_lo % leaves.shape[1]
        return scores.reshape(-1)[skip : skip + hi - lo]


class _EnumTables:
    """Vectorized unranking tables for one (v, g, s) geometry.

    A level-j state is the set of variables still unused after j groups,
    indexed in the order the build first reaches it: level j-1's states in
    index order, each with its combination digits in order (level 1 at V=6,
    S=2 runs (2,3,4,5), (1,3,4,5), ...). For each state and digit the
    tables give the chosen group's tuple id and the next state, so
    unranking a batch of ranks, or a single one, reduces to per-level 2-d
    gathers. Ordered tuples and the arrangement tables are built only when
    `arrangements` is set (case12); case1 needs sorted tuples and the
    combination tables alone.
    """

    def __init__(self, v: int, g: int, s: int, arrangements: bool):
        self.v, self.g, self.s = v, g, s
        tuples = itertools.permutations if arrangements else itertools.combinations
        self.tuples = list(tuples(range(v), s))
        self.tuple_index = {tup: i for i, tup in enumerate(self.tuples)}
        self.comb_radix = [math.comb(v - j * s, s) for j in range(g)]
        self.arr_radix = [math.perm(v - j * s, s) for j in range(g)]
        self.comb: list[tuple[np.ndarray, np.ndarray]] = []
        self.arr: list[tuple[np.ndarray, np.ndarray]] = []

        kinds = [(itertools.combinations, self.comb_radix, self.comb)]
        if arrangements:
            kinds.append((itertools.permutations, self.arr_radix, self.arr))
        states: list[tuple[int, ...]] = [tuple(range(v))]
        for j in range(g):
            next_index: dict[tuple[int, ...], int] = {}
            for choose, radix, tables in kinds:
                tab_id = np.empty((len(states), radix[j]), dtype=np.int32)
                tab_next = np.empty_like(tab_id)
                for si, pool in enumerate(states):
                    for r, grp in enumerate(choose(pool, s)):
                        tab_id[si, r] = self.tuple_index[grp]
                        rest = tuple(x for x in pool if x not in grp)
                        tab_next[si, r] = next_index.setdefault(rest, len(next_index))
                tables.append((tab_id, tab_next))
            states = list(next_index)

    def case12_ids(
        self, pins: tuple[int, ...], sub_lo: int, sub_hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tuple ids of the prefixes covering subranks [sub_lo, sub_hi) of one pattern.

        Returns the first g-1 groups' ids, shape (n_prefix, g-1), and the
        last group's ids, shape (n_prefix, r), where r is the last radix;
        prefix p covers subranks [p*r, (p+1)*r).
        """
        tables = [self.comb[j] if j in pins else self.arr[j] for j in range(self.g)]
        radices = [self.comb_radix[j] if j in pins else self.arr_radix[j] for j in range(self.g)]
        r = radices[-1]
        prefix, state = self._walk(tables, radices[:-1], sub_lo // r, -(-sub_hi // r))
        return prefix, tables[-1][0][state, :r]

    def case1_ids(self, lo: int, hi: int) -> np.ndarray:
        """Tuple ids, shape (hi-lo, g): the first radix columns of `comb`.

        The last case1 radix is C(S-1, S-1) = 1, so a prefix is one candidate.
        """
        prefix, state = self._walk(self.comb, _case1_radices(self.v, self.g, self.s)[:-1], lo, hi)
        return np.column_stack((prefix, self.comb[-1][0][state, 0]))

    def _walk(self, tables, radices, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the first len(radices) groups of prefix ranks [lo, hi), and the next state."""
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


_ENUM_TABLES: dict[tuple[int, int, int, bool], _EnumTables] = {}


def _table_entries(v: int, g: int, s: int, arrangements: bool) -> int:
    """Entries _EnumTables builds: per level j, C(v, j*s) states times the level's radices."""
    total = 0
    for j in range(g):
        left = v - j * s
        radix = math.comb(left, s) + (math.perm(left, s) if arrangements else 0)
        total += math.comb(v, j * s) * radix
    return total


def _enum_tables(v: int, g: int, s: int, arrangements: bool) -> _EnumTables:
    """The cached tables of one geometry; refused when they or its tuple tally table would be too big."""
    key = (v, g, s, arrangements)
    if key not in _ENUM_TABLES:
        cells = (math.perm(v, s) if arrangements else math.comb(v, s)) << s
        if cells > _MAX_TUPLE_TABLE:
            raise CapacityError(
                f"tuple tally table would need {cells} cells (limit {_MAX_TUPLE_TABLE})"
            )
        entries = _table_entries(v, g, s, arrangements)
        if entries > _MAX_TABLE_ENTRIES:
            raise CapacityError(
                f"enumeration tables would need {entries} entries (limit {_MAX_TABLE_ENTRIES})"
            )
        _ENUM_TABLES[key] = _EnumTables(v, g, s, arrangements)
    return _ENUM_TABLES[key]


_SCORE_BATCH = 65536


def _top_k(ranks: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best by (score desc, rank asc).

    Every score at or above the k-th largest is kept for the final sort, so
    ties with the k-th still break by rank.
    """
    if scores.size > k:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        keep = np.flatnonzero(scores >= kth)
        ranks, scores = ranks[keep], scores[keep]
    order = np.lexsort((ranks, -scores))[:k]
    return ranks[order], scores[order]


def _score_range(ctx: _ScoreContext, start: int, end: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (ranks, scores) for the rank range [start, end)."""
    cfg = ctx.cfg
    span = _per_pattern(cfg) if cfg.mode == "case12" else candidate_count(cfg)
    rank_parts = []
    score_parts = []
    rank = start
    while rank < end:
        stop = min(end, (rank // span + 1) * span, rank + _SCORE_BATCH)
        ranks, scores = _top_k(np.arange(rank, stop, dtype=np.int64), ctx.score(rank, stop), k)
        rank_parts.append(ranks)
        score_parts.append(scores)
        rank = stop
    return _top_k(np.concatenate(rank_parts), np.concatenate(score_parts), k)


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
    identical for every worker count. A space no bigger than one scoring
    batch is scored in-process whatever `workers` says, because starting a
    pool costs more than the scoring.
    """
    if len(patterns) == 0:
        raise ValueError("search requires a nonempty dataset")
    total = candidate_count(cfg)
    k = cfg.top_k
    chunk = max(1, -(-total // (cfg.workers * 64)))
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    patterns = [int(p) for p in patterns]
    # Built before any pool starts: forked workers inherit the enumeration
    # tables, and the final unranks below reuse them.
    ctx = _ScoreContext(patterns, cfg)

    if cfg.workers == 1 or total <= _SCORE_BATCH:
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
    """The joint of ladder case c1 (case1 candidates) or c12 (case12
    candidates, whose assignment starts the two-type EM) fitted to the data."""
    grouping, assignment = candidate.grouping, candidate.assignment
    case = "c1" if assignment is None else "c12"
    return bit_case_joint(case, patterns, grouping.v, est_cfg, grouping, assignment, seed)


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
