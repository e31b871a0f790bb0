"""Exact, symmetry-reduced search over grouping/assignment hypotheses.

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
variables. A walk of those tables unranks whole scoring batches, and the
top-k ranks are unranked by looking up their digits in the same tables.
Enumeration, scoring, and the parallel top-k reduction are all pure
functions of (dataset, config), so results are identical for any worker
count.

In case1 mode there is no assignment and no type is shared, so neither the
case1 scorers nor the c1 estimate (`estimate.fit_bit_case`) read slot
order within a group or the order of the groups: a hypothesis is a set
partition of the V variables into G groups of S. The canonical form sorts
each group and orders groups by their smallest variable, giving
prod_j C(V - j*S - 1, S - 1) = V!/(G! * (S!)**G) candidates. Group j is the
pool's smallest unused variable plus an (S-1)-subset of the rest, which are
exactly the first C(n-1, S-1) lexicographic S-subsets of the n-variable
pool, so case1 ranks walk the same combination tables as case12 with a
smaller radix.

The `dirichlet_marginal` case12 search is a branch and bound. Per S-tuple
t at n samples, maxLL(t) = sum over cells of c*log(c/n) (0 where c = 0)
and gap(t) = ML(t) - maxLL(t) <= 0, where ML(t) is t's one-group
Dirichlet-multinomial term. Neither reads slot order. A candidate with
groups g_1..g_G scores at most sum_j maxLL(g_j) + max_j gap(g_j): by the
chain rule a type's pooled term is ML of one of its groups plus one
predictive term per other group, each at most that group's maxLL, and two
types' gaps sum to at most the larger. A walk row that fixes j groups is
bounded by their maxLL plus the largest sum of maxLL over S-partitions of
the unused variables (`_Bound.rest`); a row that fixes G-1 groups fixes the
partition and takes the full bound. A row is dropped, with every candidate
under it, once its bound is strictly below the threshold of the larger of
a floor and the running k-th score, that value less 1e-9 * max(1, |value|).
Against the k-th alone, a pruned candidate scores strictly below k scored
ones, so the top-k ranks and scores are those of scoring every candidate,
for any worker count. `search` first sweeps with the bound of one partition
as the floor; that sweep is exact when its k-th score reaches the floor's
threshold, or when as many set partitions have a bound that reaches its
k-th as reach the floor, and otherwise a second sweep takes its k-th score
as the floor. Over more than `_IN_PROCESS_MAX` candidates each sweep is
priced by those partitions, so only a sweep that leaves many candidates
starts a worker pool.
case1 and `paper_plugin` walk the same way with no bound, so they score
every candidate.
"""

from __future__ import annotations

import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
        if self.mode == "case1" and self.num_types != 1:
            raise ValueError(f"num_types must be 1 in mode case1, got {self.num_types}")
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


def _span(cfg: SearchConfig) -> int:
    """Ranks per assignment pattern; case1 has no assignment, so one span covers its space."""
    return _per_pattern(cfg) if cfg.mode == "case12" else candidate_count(cfg)


def _levels(cfg: SearchConfig, tables: "_EnumTables", pattern_idx: int):
    """(labels, level tables, radices) of one assignment pattern's walk.

    case12 levels are combinations at the pattern's pins and arrangements
    elsewhere; case1 walks the combination tables (wider than its radices)
    and has no labels.
    """
    if cfg.mode == "case1":
        return None, tables.comb, _case1_radices(cfg.v, cfg.g, cfg.s)
    labels = _pattern_from_index(pattern_idx, cfg.g, cfg.num_types)
    pins = _pin_positions(labels, cfg.num_types)
    levels = [tables.comb[j] if j in pins else tables.arr[j] for j in range(cfg.g)]
    radices = [tables.comb_radix[j] if j in pins else tables.arr_radix[j] for j in range(cfg.g)]
    return labels, levels, radices


def unrank_candidate(cfg: SearchConfig, rank: int) -> Candidate:
    """The rank-th canonical candidate in the fixed total order (`_unrank`)."""
    return _unrank(cfg, [rank])[0]


def _unrank(cfg: SearchConfig, ranks: Sequence[int]) -> list[Candidate]:
    """The canonical candidates of `ranks`, one table lookup per level for each assignment pattern's ranks.

    Within its pattern's span a rank's mixed-radix digits, most significant
    first, pick each level's group and next state, as a walk does.
    """
    total = candidate_count(cfg)
    for rank in ranks:
        if not 0 <= rank < total:
            raise ValueError(f"rank {rank} outside [0, {total})")
    tables = _enum_tables(cfg.v, cfg.g, cfg.s, arrangements=cfg.mode == "case12")
    span = _span(cfg)
    by_pattern: dict[int, list[int]] = {}
    for rank in {int(rank) for rank in ranks}:
        by_pattern.setdefault(rank // span, []).append(rank)
    found = {}
    for idx, group in by_pattern.items():
        labels, levels, radices = _levels(cfg, tables, idx)
        digits = np.array(group, dtype=np.int64) % span
        state, ids = np.zeros(len(group), dtype=np.intp), []
        for j, (tab_id, tab_next) in enumerate(levels):
            digit, digits = np.divmod(digits, math.prod(radices[j + 1 :]))
            ids.append(tab_id[state, digit].tolist())
            state = tab_next[state, digit]
        for rank, row in zip(group, zip(*ids)):
            found[rank] = Candidate(Grouping(tuple(tables.tuples[t] for t in row)), labels)
    return [found[int(rank)] for rank in ranks]


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def _lgamma_table(top: int, known: np.ndarray) -> np.ndarray:
    """`known` (lgamma(m) for m below its length, lgamma(0) taken as inf) extended to m = top."""
    if len(known) > top:
        return known
    return np.concatenate((known, [math.lgamma(m) for m in range(len(known), top + 1)]))


# Tuple codes formed at once while tallying: (tuples in a block) x patterns.
# A block's codes and one gathered bit row take 128 KiB each.
_TALLY_BLOCK = 1 << 14


def _tuple_tally(patterns: np.ndarray, tuple_vars: np.ndarray, v: int) -> np.ndarray:
    """(tuples, 2**S) counts of each S-tuple's outcome over the patterns.

    A tuple's outcome reads its variables' bits, the first one highest. The
    tuples are tallied a block at a time, with one bincount of
    (tuple, outcome) codes per block.
    """
    n_tuples, s = tuple_vars.shape
    cell = 1 << s
    bits = (patterns[None, :] >> (v - 1 - np.arange(v))[:, None]) & 1
    step = max(1, _TALLY_BLOCK // max(1, len(patterns)))
    tally = np.empty((n_tuples, cell), dtype=np.int64)
    for lo in range(0, n_tuples, step):
        block = tuple_vars[lo : lo + step]
        codes = bits[block[:, 0]]
        for k in range(1, s):
            codes <<= 1
            codes |= bits[block[:, k]]
        codes += (np.arange(len(block)) * cell)[:, None]
        tally[lo : lo + len(block)] = np.bincount(codes.ravel(), minlength=len(block) * cell).reshape(-1, cell)
    return tally


def _cell_sum(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """`x.sum(axis=-1)` as elementwise adds over all rows at once, in `scratch`.

    numpy adds each contiguous row of n = 2**S cells pairwise, one
    inner-loop call per row; this makes the same adds in the same order
    with a few strided adds over the whole stack:
    - n < 8: left to right;
    - 8 <= n <= 128: eight accumulators r[i] = x[i] + x[i+8] + ... (left
      to right), combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7));
    - n > 128: the sums of the two halves, added (numpy splits at n/2 cut
      to a multiple of 8, which is n/2 here).
    numpy also starts from its identity +0.0, so a row of negative zeros
    sums to +0.0 there and to -0.0 here. Scores start at +0.0, which
    absorbs that difference, so they are bit for bit those of `.sum`.

    `scratch` is a flat float64 buffer of at least x.size elements that
    shares no memory with `x`; the result is a view into it (a fresh array
    above 128 cells).
    """
    n = x.shape[-1]
    lead = x.shape[:-1]
    m = math.prod(lead)
    if n > 128:
        first = _cell_sum(x[..., : n // 2], scratch).copy()
        return np.add(first, _cell_sum(x[..., n // 2 :], scratch), out=first)

    def region(start: int, width: int) -> np.ndarray:
        return scratch[start * m : (start + width) * m].reshape(*lead, width)

    if n < 8:
        out = region(0, 1)[..., 0]
        np.copyto(out, x[..., 0])
        for i in range(1, n):
            out += x[..., i]
        return out
    blocks = x.reshape(*lead, n // 8, 8)
    acc, base = blocks[..., 0, :], 0
    if n > 8:
        acc, base = np.add(acc, blocks[..., 1, :], out=region(0, 8)), 8
        for b in range(2, n // 8):
            acc += blocks[..., b, :]
    pairs = np.add(acc[..., 0::2], acc[..., 1::2], out=region(base, 4))
    quads = np.add(pairs[..., 0::2], pairs[..., 1::2], out=region(base + 4, 2))
    return np.add(quads[..., 0], quads[..., 1], out=region(base + 6, 1)[..., 0])


class _Bound(NamedTuple):
    """Per-n bound terms of a `dirichlet_marginal` case12 context (module docstring).

    - maxll, gap: per S-tuple, maxLL(t) and ML(t) - maxLL(t).
    - rest[j]: per level-j state, the largest sum of maxLL over the
      S-partitions of its unused variables, a max over the `comb` tables'
      digits; rest[G-1] is the last group's maxLL.
    - last_gap: per level G-1 state, the last group's gap.
    - floor: the bound of one partition of the largest sum of maxLL, picked
      by a greedy dive down `rest`.
    """

    maxll: np.ndarray
    gap: np.ndarray
    rest: list[np.ndarray]
    last_gap: np.ndarray
    floor: float


class _ScoreContext:
    """Per-dataset tables: one tally row per S-tuple of variables.

    The tuples are ordered for case12 and sorted for case1, whose candidates
    hold sorted groups only. A candidate's pooled tallies are sums of
    precomputed tuple rows, and the per-observation log terms reduce to a
    table lookup. A case1 batch gathers one precomputed score per group.

    A case12 batch is scored per prefix: the first G-1 groups of r
    consecutive ranks agree, where r is the last level's radix (S! when the
    last group is free, 1 when it is a pin). Per type:
    - a type that holds one group reads that tuple's term from
      `tuple_term`, per leaf if it owns the last group, else per prefix;
    - a type without the last group pools its prefix groups' rows and gets
      its term once per prefix;
    - the type that owns the last group sums its prefix groups' rows once
      per prefix, adds that sum to each of the r leaves' rows and gets its
      term per leaf.
    A term is the sum of `pool_term` over the 2**S cells of the pooled
    tallies, added by `_cell_sum` in numpy's order for `.sum(axis=-1)`;
    `update` sums each tuple's own term into `tuple_term` by `.sum` (case12
    only, the one mode that reads it). Terms accumulate as a's term, a's
    constant, b's term, b's constant, so the scores equal a per-candidate
    evaluation bit for bit, whichever prefixes share a batch.

    The pooled tallies (int64) and their terms (float64) are laid out leaf
    major, (r, prefixes, 2**S), so that a prefix sum is added to r
    contiguous blocks. They are written to two buffers that every batch
    reuses, so that scoring faults in no fresh pages per batch. Each buffer
    also lends its memory to the other's phase: the terms buffer holds the
    summed prefix rows and one gathered row set before any term is taken,
    and the pooled buffer holds the cell sums once the last count is read.
    Both buffers hold max(r, 2) cells per prefix, since at S=1 (r = 1) the
    summed rows and the gathered rows need two. A context therefore scores
    one batch at a time, of at most `_SCORE_BATCH` ranks.

    `update` moves the context to another dataset. When that dataset extends
    the one held (the same patterns first), only the new patterns' tallies
    are added; otherwise the tallies are rebuilt. Either way the lgamma
    table is extended and the per-n terms are rebuilt, so the scores equal
    those of a context built afresh bit for bit. A `dirichlet_marginal`
    case12 context also holds the per-n bound terms, `bound`.
    """

    def __init__(self, patterns: Sequence[int], cfg: SearchConfig):
        self.cfg = cfg
        self.tables = _enum_tables(cfg.v, cfg.g, cfg.s, arrangements=cfg.mode == "case12")
        self.patterns = np.empty(0, dtype=np.int64)
        self.tally = np.zeros((len(self.tables.tuples), 1 << cfg.s), dtype=np.int64)
        self.lgam = np.array([math.inf])
        self._pooled = np.empty(0, dtype=np.int64)
        self._terms = np.empty(0)
        self.scored = 0  # ranks that `batches` has yielded
        self.update(patterns)

    def update(self, patterns: Sequence[int]) -> None:
        """Hold the tallies and per-n terms of `patterns`."""
        cfg = self.cfg
        arr = np.array(patterns, dtype=np.int64)  # a copy, so a later change by the caller is seen
        held = len(self.patterns)
        if len(arr) >= held and np.array_equal(arr[:held], self.patterns):
            self.tally += _tuple_tally(arr[held:], self.tables.tuple_vars, cfg.v)
        else:
            self.tally = _tuple_tally(arr, self.tables.tuple_vars, cfg.v)
        self.patterns = arr
        self.n = n = len(arr)
        g, cell = cfg.g, 1 << cfg.s
        if cfg.scorer == "paper_plugin":
            counts = np.arange(g * n + 1, dtype=np.float64)
            self.pool_term = counts * (np.log1p(counts) - math.log(cell + g * n))
            single = counts[: n + 1] * (np.log1p(counts[: n + 1]) - math.log(cell + n))
            self.tuple_score = single[self.tally].sum(axis=1)
        else:
            self.lgam = lgam = _lgamma_table(g * n + cell + 1, self.lgam)
            self.pool_term = lgam[1 : g * n + 2]
            self.tuple_score = lgam[cell] - lgam[cell + n] + lgam[self.tally + 1].sum(axis=1)
        self.bound = None
        if cfg.mode == "case12":
            self.tuple_term = self.pool_term[self.tally].sum(axis=1)
            if cfg.scorer == "dirichlet_marginal" and n > 0:
                self.bound = self._bound()

    def _bound(self) -> _Bound:
        """The bound terms of the tallies held (`_Bound`)."""
        g, comb = self.cfg.g, self.tables.comb
        counts = self.tally
        maxll = (counts * np.log(np.maximum(counts, 1) / self.n)).sum(axis=1)  # empty cells add 0
        gap = self.tuple_score - maxll
        last = comb[g - 1][0][:, 0]
        rest = [maxll[last]]
        for j in range(g - 2, -1, -1):
            tab_id, tab_next = comb[j]
            rest.insert(0, (maxll[tab_id] + rest[0][tab_next]).max(axis=1))
        state, groups = 0, []
        for j, (tab_id, tab_next) in enumerate(comb[:-1]):
            digit = int(np.argmax(maxll[tab_id[state]] + rest[j + 1][tab_next[state]]))
            groups.append(tab_id[state, digit])
            state = tab_next[state, digit]
        groups.append(last[state])
        return _Bound(maxll, gap, rest, gap[last], float(rest[0][0] + gap[groups].max()))

    def _prefix_rows(self, prefix: np.ndarray, cols: list[int], out: np.ndarray, spare: np.ndarray):
        """The sum of the tally rows of prefix[:, j] over j in `cols`, into `out`.

        `spare` (flat int64) holds one gathered row set when `cols` has more
        than one group.
        """
        self.tally.take(prefix[:, cols[0]], axis=0, out=out, mode="clip")
        if len(cols) > 1:
            rows = spare[: out.size].reshape(out.shape)
            for j in cols[1:]:  # integer sums, exact in any order
                out += self.tally.take(prefix[:, j], axis=0, out=rows, mode="clip")
        return out

    def _leaf_scores(self, labels: tuple[str, ...], prefix: np.ndarray, leaves: np.ndarray) -> np.ndarray:
        """case12 scores (prefixes, r) of the leaves of explicit prefixes.

        `prefix` (prefixes, G-1) holds the first groups' tuple ids and
        `leaves` (prefixes, r) the last group's. Every take has mode="clip",
        because mode="raise" copies through a temporary; tuple ids and
        pooled counts (<= G*n) are always in range.
        """
        cell = 1 << self.cfg.s
        n_prefix, r = leaves.shape
        leaves = leaves.T  # leaf major
        size = max(r, 2) * n_prefix * cell  # the owner's prefix sum and one gathered row set
        if self._pooled.size < size:
            self._pooled = np.empty(size, dtype=np.int64)
            self._terms = np.empty(size)
        spare, scratch = self._terms.view(np.int64), self._pooled.view(np.float64)
        scores = np.zeros(leaves.shape)
        for label in ("a", "b"):
            cols = [j for j, lab in enumerate(labels[:-1]) if lab == label]
            owns_last = label == labels[-1]
            groups = len(cols) + owns_last
            if groups == 0:
                continue
            if groups == 1:
                scores += self.tuple_term.take(leaves if owns_last else prefix[:, cols[0]], mode="clip")
            else:
                if owns_last:
                    pooled = self._pooled[: leaves.size * cell].reshape(r, n_prefix, cell)
                    self.tally.take(leaves, axis=0, out=pooled, mode="clip")
                    summed = spare[: n_prefix * cell].reshape(n_prefix, cell)
                    pooled += self._prefix_rows(prefix, cols, summed, spare[n_prefix * cell :])
                else:
                    pooled = self._pooled[: n_prefix * cell].reshape(1, n_prefix, cell)
                    self._prefix_rows(prefix, cols, pooled[0], spare)
                terms = self._terms[: pooled.size].reshape(pooled.shape)
                scores += _cell_sum(self.pool_term.take(pooled, out=terms, mode="clip"), scratch)
            if self.cfg.scorer != "paper_plugin":
                scores += self.lgam[cell] - self.lgam[cell + groups * self.n]
        return scores.T

    def batches(self, lo: int, hi: int, bar: Callable[[], float] | None = None):
        """(ranks, scores) of the ranks in [lo, hi), in rank order, at most `_SCORE_BATCH` ranks a batch.

        Each assignment pattern's part of the range is one `_walk`, whose
        prefix rows are scored in batches of `_SCORE_BATCH // r` prefixes.
        Given `bar`, which reads the current threshold, a context with a
        `bound` prunes that walk, so only the ranks under the rows it keeps
        are yielded. Every batch is nonempty; `scored` counts their ranks.
        """
        cfg, tables = self.cfg, self.tables
        prune = (self.bound, bar) if bar is not None and self.bound is not None else None
        span = _span(cfg)
        rank = lo
        while rank < hi:
            pattern_idx, sub = divmod(rank, span)
            base = rank - sub
            stop = min(hi, base + span)
            labels, levels, radices = _levels(cfg, tables, pattern_idx)
            r = radices[-1]
            walk = tables._walk(levels, radices[:-1], sub // r, -(-(stop - base) // r), prune)
            for prefix, state, prefix_ranks in _rebatch(walk, max(1, _SCORE_BATCH // r)):
                leaves = levels[-1][0].take(state, axis=0)[:, :r]  # a case1 table is wider than r = 1
                if labels is None:
                    scores = self.tuple_score[np.column_stack((prefix, leaves))].sum(axis=1)
                else:
                    scores = self._leaf_scores(labels, prefix, leaves).reshape(-1)
                ranks = ((base + prefix_ranks * r)[:, None] + np.arange(r)).reshape(-1)
                first, last = np.searchsorted(ranks, (rank, stop))
                if last > first:
                    self.scored += int(last - first)
                    yield ranks[first:last], scores[first:last]
            rank = stop


def _rebatch(parts, size: int):
    """Row slices (tuples of arrays, one row per index) as batches of at most `size` rows.

    A batch goes out once it is half full, before the next slice is walked.
    A long slice is cut into views, and short ones are joined, so that only
    a batch of several slices is a copy.
    """
    held, count = [], 0
    for part in parts:
        while len(part[0]):
            held.append(tuple(x[: size - count] for x in part))
            part = tuple(x[size - count :] for x in part)
            count += len(held[-1][0])
            if 2 * count >= size:
                yield held[0] if len(held) == 1 else tuple(np.concatenate(x) for x in zip(*held))
                held, count = [], 0
    if held:
        yield held[0] if len(held) == 1 else tuple(np.concatenate(x) for x in zip(*held))


def _rank_terms(v: int, positions: np.ndarray, arrangements: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot terms (s, v) and per-digit offsets of lexicographic tuple ranks.

    Digit r's group holds a[k] = pool[positions[r, k]] in slot k, for an
    ascending pool of variables below v. Its index among the S-arrangements
    of range(v) (if `arrangements`) or among its S-combinations is
    offset[r] + sum_k terms[k, a[k]]:
    - an arrangement's rank is sum_k (a[k] - #{m < k: a[m] < a[k]}) *
      P(v-1-k, s-1-k), and a[m] < a[k] exactly when positions[r, m] <
      positions[r, k];
    - a sorted combination's is C(v, s) - 1 - sum_k C(v-1-a[k], s-k).
    """
    s = positions.shape[1]
    a = np.arange(v, dtype=np.int64)
    if arrangements:
        place = np.array([math.perm(v - 1 - k, s - 1 - k) for k in range(s)], dtype=np.int64)
        earlier_below = np.tril(positions[:, None, :] < positions[:, :, None], -1).sum(axis=2)
        return place[:, None] * a, -(earlier_below @ place)
    terms = np.array([[-math.comb(v - 1 - x, s - k) for x in a] for k in range(s)], dtype=np.int64)
    return terms, np.full(len(positions), math.comb(v, s) - 1, dtype=np.int64)


def _slot_sums(pools: np.ndarray, positions: np.ndarray, terms: np.ndarray, offset) -> np.ndarray:
    """offset + sum_k terms[k, pools[i, positions[r, k]]], shape (pools, digits).

    `offset` broadcasts to that shape. Each slot is one 2-d gather, so the
    temporaries are two int64s per (pool row, digit).
    """
    out = np.empty((len(pools), len(positions)), dtype=np.int64)
    out[...] = offset
    for k in range(positions.shape[1]):
        out += terms[k][pools][:, positions[:, k]]
    return out


# Cells per chunk when _EnumTables sums a level's arrangement ids. It bounds
# the build's temporaries: V=12 levels 1 and 2 hold 110,880 arrangement cells.
_BUILD_CHUNK = 1 << 15


class _EnumTables:
    """Vectorized unranking tables for one (v, g, s) geometry.

    A level-j state is the set of variables still unused after j groups.
    For each state and digit the tables give the chosen group's tuple id and
    the next state, so unranking a batch of ranks, or a single one, reduces
    to per-level 2-d gathers. Ordered tuples and the arrangement tables are
    built only when `arrangements` is set (case12); case1 needs sorted tuples
    and the combination tables alone.

    States are numbered in the order a walk first reaches them: level j's
    states in index order, each with its combination digits in order
    (level 1 at V=6, S=2 runs (2,3,4,5), (1,3,4,5), ...). That is the
    lexicographic order of the variables used so far, since a used set is
    first reached from the state that used its smallest variables, by the
    digit that picks the rest of them. So level j's states are the
    C(v, left) sets of `left` variables in reverse lexicographic order.

    The build is array arithmetic, one level at a time. The rows of `pools`
    are the level's states, each in ascending order. Digit r picks the pool
    columns `positions[r]`, the r-th lexicographic S-combination (or
    S-arrangement) of range(left), which is itertools' order over the pool,
    and leaves the columns `rest[r]`. The group's tuple id and the next
    state's number are both sums of per-slot terms of a lexicographic rank
    (`_rank_terms`, `_slot_sums`). An arrangement leaves the same state as
    the combination of its positions, so the arrangement next-state table
    is a column gather of the combination one.
    """

    def __init__(self, v: int, g: int, s: int, arrangements: bool):
        self.v, self.g, self.s = v, g, s
        tuples = itertools.permutations if arrangements else itertools.combinations
        self.tuples = list(tuples(range(v), s))
        self.tuple_vars = np.array(self.tuples, dtype=np.intp)
        self.comb_radix = [math.comb(v - j * s, s) for j in range(g)]
        self.arr_radix = [math.perm(v - j * s, s) for j in range(g)]
        self.comb: list[tuple[np.ndarray, np.ndarray]] = []
        self.arr: list[tuple[np.ndarray, np.ndarray]] = []

        for j in range(g):
            left = v - j * s
            pools = np.array(list(itertools.combinations(range(v), left)), dtype=np.intp)[::-1]
            positions = np.array(list(itertools.combinations(range(left), s)), dtype=np.intp)
            # complementing reverses lexicographic order
            rest = np.array(list(itertools.combinations(range(left), left - s)), dtype=np.intp)[::-1]
            tab_id = _slot_sums(pools, positions, *_rank_terms(v, positions, arrangements))
            # C(v, left-s) - 1 minus the lexicographic rank of the next state
            tab_next = _slot_sums(pools, rest, -_rank_terms(v, rest, False)[0], 0)
            self.comb.append((tab_id.astype(np.int32), tab_next.astype(np.int32)))
            if not arrangements:
                continue
            positions = np.array(list(itertools.permutations(range(left), s)), dtype=np.intp)
            terms = _rank_terms(v, positions, True)
            tab_id = np.empty((len(pools), len(positions)), dtype=np.int32)
            step = max(1, _BUILD_CHUNK // len(positions))
            for lo in range(0, len(pools), step):
                tab_id[lo : lo + step] = _slot_sums(pools[lo : lo + step], positions, *terms)
            sets = np.sort(positions, axis=1)
            comb_digit = _slot_sums(np.arange(left)[None, :], sets, *_rank_terms(left, sets, False))[0]
            self.arr.append((tab_id, self.comb[j][1].take(comb_digit, axis=1)))  # C order, for row takes

    def _walk(self, tables, radices, lo: int, hi: int, prune=None):
        """The rows of prefix ranks [lo, hi), in rank order, a slice at a time.

        A row is a prefix of the first len(radices) groups. Each slice is
        (ids, next states, prefix ranks) of some rows, and is nonempty.
        The walk expands one level at a time, so no rank is divided into
        digits (`_children`). Levels are expanded depth first, the rows of
        about `_SCORE_BATCH` children at a time, so the rows held stay
        bounded when nothing is pruned. `prune`, a (`_Bound`, threshold
        callable) pair, drops the children whose bound is strictly below
        the threshold read at their expansion.
        """
        depth = len(radices)
        root = (np.empty((1, 0), dtype=np.int64), np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.int64))
        if depth == 0:
            if lo <= 0 < hi:
                yield root
            return
        places = [math.prod(radices[j + 1 :]) for j in range(depth)]
        stack = [(0, root)]
        while stack:
            j, rows = stack.pop()
            take = max(1, _SCORE_BATCH // radices[j])
            if len(rows[1]) > take:
                stack.append((j, tuple(x[take:] for x in rows)))  # after this slice's children
                rows = tuple(x[:take] for x in rows)
            cut = (lo // places[j], -(-hi // places[j]))
            children = _children(tables[j], radices[j], rows, cut, prune, j + 1)
            if children is None:
                continue
            if j + 1 == depth:
                yield children
            else:
                stack.append((j + 1, children))


def _children(table, radix: int, rows, cut: tuple[int, int], prune, level: int):
    """The level-`level` children of walk rows (ids, state, ranks); None if none is kept.

    A row expands into its whole row of digits, `tab[state, :radix]` (a
    case1 table is wider than its radix), each child repeating its parent's
    ids, and the children whose prefix ranks lie outside `cut` are dropped.
    The rows are in rank order and each has a child inside `cut`, so those
    are the first children of the first row and the last of the last row:
    the kept children are one run. Given `prune`, the children whose bound
    is strictly below the threshold are dropped too: the sum of their
    groups' maxLL plus `rest` of their state, and, for a child of level
    G-1, which fixes the partition, the largest gap of its groups and of
    the group its state leaves.
    """
    ids, state, ranks = rows
    tab_id, tab_next = table
    chosen = tab_id.take(state, axis=0)[:, :radix]
    state = tab_next.take(state, axis=0)[:, :radix]
    first = max(0, cut[0] - int(ranks[0]) * radix)
    last = chosen.size - max(0, (int(ranks[-1]) + 1) * radix - cut[1])
    kept = None
    if prune is not None:
        bound, bar = prune
        value = bound.maxll.take(ids).sum(axis=1)[:, None] + bound.maxll.take(chosen)
        value += bound.rest[level].take(state)
        if level == len(bound.rest) - 1:
            worst = np.maximum(bound.gap.take(ids).max(axis=1, initial=-np.inf)[:, None], bound.gap.take(chosen))
            value += np.maximum(worst, bound.last_gap.take(state))
        kept = first + np.flatnonzero(~(value.reshape(-1)[first:last] < bar()))
        if len(kept) == 0:
            return None
    child = (ranks[:, None] * radix + np.arange(radix)).reshape(-1)
    if kept is None or len(kept) == last - first:
        run = slice(first, last)
        ids = ids.repeat(radix, axis=0)[run]
        chosen, state, child = chosen.reshape(-1)[run], state.reshape(-1)[run], child[run]
    else:
        ids = ids[kept // radix]
        chosen, state, child = chosen.reshape(-1)[kept], state.reshape(-1)[kept], child[kept]
    return np.concatenate((ids, chosen[:, None]), axis=1), state, child


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


# Candidates a sweep of search() may score in-process whatever `workers`
# says: starting a pool costs more than scoring that many.
_IN_PROCESS_MAX = 65536
# Ranks per scoring batch (`_ScoreContext.batches`) and, about, children per
# walk expansion; each of the two scoring buffers holds about this many
# times 2**S cells. On 2 cores (numpy 2.4), scoring V=12 in-process ran at
# 13.9-14.7M ranks/s with 4,096-rank batches, 10.4-13.0M with 2,048 and
# 15.4-19.2M with 65,536 (three runs each), but 65,536-rank batches put the
# c12_many_small benchmark's peak RSS at 40.1 MiB, against 39.0 MiB at 4,096.
_SCORE_BATCH = 4096


def _top_k(ranks: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best by (score desc, rank asc).

    Every score at or above the k-th largest is kept for the final sort, so
    ties with the k-th still break by rank. NaN ranks below every score:
    both the threshold and the sort order the negated scores, which puts
    NaN last, and a NaN threshold (fewer than k other scores) keeps all.
    """
    if scores.size > k:
        kth = np.partition(-scores, k - 1)[k - 1]
        if not np.isnan(kth):
            keep = np.flatnonzero(-scores <= kth)
            ranks, scores = ranks[keep], scores[keep]
    order = np.lexsort((ranks, -scores))[:k]
    return ranks[order], scores[order]


def _threshold(value: float) -> float:
    """The threshold of a floor or k-th score: `value` less 1e-9 * max(1, |value|).

    A bound strictly below it is below `value` by more than float error. A
    NaN or infinite value gives -inf, against which nothing is pruned.
    """
    if not math.isfinite(value):
        return -math.inf
    return value - 1e-9 * max(1.0, abs(value))


def _score_range(
    ctx: _ScoreContext, start: int, end: int, k: int, floor: float = -math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (ranks, scores) of the rank range [start, end), merged batch by batch.

    The threshold the context prunes against is that of the larger of
    `floor` and the k-th score held. A batch whose best score is at most the
    k-th held skips the merge: its ranks are all larger, so even a tie with
    the k-th loses. A NaN on either side fails that test and takes the
    merge.
    """
    ranks = np.empty(0, dtype=np.int64)
    scores = np.empty(0)

    def bar() -> float:
        held = float(scores[k - 1]) if len(scores) >= k else -math.inf
        return _threshold(max(floor, held))  # a NaN k-th leaves the floor

    for batch_ranks, batch in ctx.batches(start, end, bar):
        if len(scores) < k or not batch.max() <= scores[-1]:
            ranks, scores = _top_k(np.concatenate((ranks, batch_ranks)), np.concatenate((scores, batch)), k)
    return ranks, scores


def _partitions_reaching(ctx: _ScoreContext, threshold: float) -> int:
    """The set partitions whose full bound reaches `threshold`: one pruned case1 walk.

    A case1 row of the combination tables fixes a partition's first G-1
    groups, and its state the last group, so `_children` keeps it at level
    G-1 when its full bound is not strictly below `threshold`. The test is
    monotone at every level, so a lower threshold keeps a superset.
    """
    cfg, tables = ctx.cfg, ctx.tables
    radices = _case1_radices(cfg.v, cfg.g, cfg.s)[:-1]
    walk = tables._walk(tables.comb, radices, 0, math.prod(radices), (ctx.bound, lambda: threshold))
    return sum(len(rows[2]) for rows in walk)


def _exact_top_k(
    sweep: Callable, survivors: Callable, floor: float, total: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The top-k (ranks, scores) of all `total` candidates, from one or two pruned sweeps.

    `survivors(value)` counts the set partitions whose bound reaches
    `value` less half its threshold's margin, or is None when the search
    does not count them. `sweep(floor, count)` prunes against `floor`, is
    priced by that count, and returns the top-k of the candidates it
    scored, how many it scored and where it ran.

    The first sweep prunes against `floor`. Its top-k is exact when it
    pruned nothing, or when its k-th score reaches the floor's threshold: a
    pruned candidate then scores below that k-th. It is also exact when as
    many partitions survive at its k-th as at the floor. The lower value's
    partitions include the higher one's, so the sets are equal. The
    partition of a candidate the sweep pruned lies in neither, so its bound,
    and the candidate's score, are below the k-th. Otherwise the second
    sweep prunes against the first one's k-th score, which k candidates
    reach, so it is exact.
    """
    count = survivors(floor)
    for sweep_no in (1, 2):
        ranks, scores, scored, where = sweep(floor, count)
        logger.info(
            "pass %d: floor %r, surviving partitions %s, %s, scored %d of %d candidates, pruned %d",
            sweep_no, floor, "not counted" if count is None else count, where, scored, total, total - scored,
        )
        if scored == total or (len(scores) >= k and scores[k - 1] >= _threshold(floor)):
            break
        kth = float(scores[k - 1]) if len(scores) >= k else -math.inf
        at_kth = survivors(kth)
        if at_kth is not None and at_kth == count:
            logger.info("pass 2 skipped: at pass 1's k-th %r as many partitions survive as at its floor, %d", kth, count)
            break
        floor, count = kth, at_kth
    return ranks, scores


_WORKER_CTX: _ScoreContext | None = None


def _worker_init(patterns: np.ndarray, cfg: SearchConfig) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _ScoreContext(patterns, cfg)


def _worker_score_range(start: int, end: int, k: int, floor: float) -> tuple[list[int], list[float], int]:
    assert _WORKER_CTX is not None
    held = _WORKER_CTX.scored
    ranks, scores = _score_range(_WORKER_CTX, start, end, k, floor)
    return ranks.tolist(), scores.tolist(), _WORKER_CTX.scored - held


class SearchSession:
    """Score tables carried across the searches of one growing dataset.

    Pass one session to the `search` calls that a run makes at its
    checkpoints, on patterns[:n] for growing n: each call then tallies only
    the patterns past those of the call before. A dataset that does not
    extend the previous one is tallied afresh, and another config gets new
    tables.
    """

    def __init__(self) -> None:
        self._ctx: _ScoreContext | None = None

    def context(self, patterns: Sequence[int], cfg: SearchConfig) -> _ScoreContext:
        """The score context of `patterns` under `cfg`, updated from the one held where it can be."""
        if self._ctx is None or self._ctx.cfg != cfg:
            self._ctx = _ScoreContext(patterns, cfg)
        else:
            self._ctx.update(patterns)
        return self._ctx


def search(
    patterns: Sequence[int], cfg: SearchConfig, session: SearchSession | None = None
) -> list[ScoredCandidate]:
    """Exact top-k over the canonical candidate space.

    Each sweep over the space is priced by the candidates it may score. A
    sweep of at most `_IN_PROCESS_MAX` (65,536) candidates, or any sweep
    when `workers` is 1, is scored in-process as one rank range, because
    starting a pool costs more than scoring that many. Otherwise workers
    score disjoint contiguous rank ranges and emit partial top-k lists; the
    merge orders by (score desc, rank asc), so the result is identical for
    every worker count. The pool starts at the first sweep that needs it and
    serves both sweeps. Either way a range is scored in batches of at most
    `_SCORE_BATCH` (4,096) ranks.

    A `dirichlet_marginal` case12 search prunes (module docstring): its
    first sweep takes the bound of one partition as floor, and a second
    sweep runs when the first may have pruned a top-k member
    (`_exact_top_k`). Over `_IN_PROCESS_MAX` candidates, it prices a sweep
    by the set partitions whose bound reaches its floor
    (`_partitions_reaching`), times the candidates per partition, which are
    the same for every partition; any other search prices every sweep at the
    whole space. The result is that of scoring every candidate, for every
    worker count. A `session` carries the tuple tallies from one call to the
    next; without one the call is a session's first search.
    """
    if len(patterns) == 0:
        raise ValueError("search requires a nonempty dataset")
    total = candidate_count(cfg)
    k = cfg.top_k
    # Built before any pool starts: forked workers inherit the enumeration
    # tables, and the final unranks below reuse them.
    ctx = (session or SearchSession()).context(patterns, cfg)
    floor = ctx.bound.floor if ctx.bound is not None else -math.inf
    per_partition = total // math.prod(_case1_radices(cfg.v, cfg.g, cfg.s))
    counted = ctx.bound is not None and total > _IN_PROCESS_MAX

    def survivors(value: float) -> int | None:
        # Counted halfway between `value` and its threshold, which a sweep
        # prunes against. Both gaps dwarf the float error between this
        # walk's bounds and the case12 walk's, so the partition of a
        # candidate pruned against the floor is not counted at the floor,
        # one not counted at a k-th scores below that k-th, and the greedy
        # partition, whose bound is the floor, is counted at the floor.
        return _partitions_reaching(ctx, (value + _threshold(value)) / 2) if counted else None

    pool: ProcessPoolExecutor | None = None

    def sweep(floor: float, count: int | None):
        nonlocal pool
        if cfg.workers == 1 or (total if count is None else count * per_partition) <= _IN_PROCESS_MAX:
            held = ctx.scored
            return (*_score_range(ctx, 0, total, k, floor), ctx.scored - held, "in-process")
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=cfg.workers, initializer=_worker_init, initargs=(ctx.patterns, cfg))
        chunk = max(1, -(-total // (cfg.workers * 64)))
        ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        futures = [pool.submit(_worker_score_range, lo, hi, k, floor) for lo, hi in ranges]
        ranks, scores, scored = [], [], 0
        for (lo, hi), fut in zip(ranges, futures):
            part_ranks, part_scores, part_scored = fut.result()
            ranks.append(np.asarray(part_ranks, dtype=np.int64))
            scores.append(np.asarray(part_scores))
            scored += part_scored
            logger.info("scored %d of ranks [%d, %d) of %d", part_scored, lo, hi, total)
        top = _top_k(np.concatenate(ranks), np.concatenate(scores), k)
        return (*top, scored, f"pool of {cfg.workers} workers")

    try:
        ranks, scores = _exact_top_k(sweep, survivors, floor, total, k)
    finally:
        if pool is not None:
            pool.shutdown()

    return [
        ScoredCandidate(candidate=candidate, log_score=float(score), rank=int(rank))
        for candidate, rank, score in zip(_unrank(cfg, ranks.tolist()), ranks, scores)
    ]


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
