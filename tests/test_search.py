import dataclasses
import functools
import hashlib
import importlib
import itertools
import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from latent_structure_lab.estimate import EstimatorConfig
from latent_structure_lab.experiment import ExperimentSpec, SearchSettings, _search_config, _searched_candidates
from latent_structure_lab.prob import CapacityError, Grouping, group_outcomes, kl_divergence
from latent_structure_lab.report import write_json
from latent_structure_lab.rng import RngState, derive_seed
from latent_structure_lab.search import (
    MODES,
    SCORERS,
    Candidate,
    SearchConfig,
    SearchSession,
    _TALLY_BLOCK,
    _per_pattern,
    _ScoreContext,
    _score_range,
    candidate_count,
    in_truth_orbit,
    search,
    search_result_jsonable,
    unrank_candidate,
)
from latent_structure_lab.simulate import (
    BitsConfig,
    build_bitvector_truth,
    dataset_digest,
    draw_bitvector,
    true_joint,
)
from oracles import (
    assert_enum_tables_match_oracle,
    candidate_rank,
    canonicalize_candidate,
    enumerate_candidates,
    fit_one_checkpoint,
    oracle_tuple_tally,
    oracle_unrank,
    oracle_walk,
    score_candidate_case1,
    score_candidate_marginal,
    score_candidate_paper,
)

search_module = importlib.import_module("latent_structure_lab.search")
experiment_module = importlib.import_module("latent_structure_lab.experiment")

CFG6 = SearchConfig(v=6, g=2, s=3, num_types=2, mode="case12")
CFG6_C1 = SearchConfig(v=6, g=2, s=3, num_types=1, mode="case1")
ENUMERATION_CONFIGS = [
    CFG6,
    CFG6_C1,
    SearchConfig(v=6, g=3, s=2, num_types=2, mode="case12"),
    SearchConfig(v=8, g=4, s=2, num_types=2, mode="case12"),
    SearchConfig(v=8, g=4, s=2, num_types=1, mode="case1"),
    SearchConfig(v=4, g=2, s=2, num_types=1, mode="case12"),
]


def draw_patterns(truth, seed, n):
    rng = RngState(seed)
    out = []
    for _ in range(n):
        p, rng = draw_bitvector(truth, rng)
        out.append(p)
    return out


def candidate_joint(patterns, candidate, seed=0):
    """The joint of ladder case c1 (a case1 candidate) or c12 (a case12 one,
    whose assignment starts the two-type EM) fitted to the patterns."""
    grouping, assignment = candidate.grouping, candidate.assignment
    case = "c1" if assignment is None else "c12"
    return fit_one_checkpoint(case, patterns, grouping.v, EstimatorConfig(), grouping, assignment, seed)


def random_patterns(rng, v, n):
    return [int(x) for x in rng.integers(0, 1 << v, size=n)]


def naive_paper_score(patterns, grouping, assignment, s):
    """Literal per-sample, per-slot plug-in evaluation (self-inclusive sums)."""
    outs = group_outcomes(np.asarray(patterns), grouping)
    n, g = outs.shape
    denom = (1 << s) + g * n
    total = 0.0
    for i in range(n):
        for j in range(g):
            matches = 0
            for k in range(n):
                for l in range(g):
                    if assignment[l] == assignment[j] and outs[k, l] == outs[i, j]:
                        matches += 1
            total += math.log((1 + matches) / denom)
    return total


def naive_case1_score(patterns, grouping, s):
    outs = group_outcomes(np.asarray(patterns), grouping)
    n, g = outs.shape
    denom = (1 << s) + n
    total = 0.0
    for i in range(n):
        for j in range(g):
            matches = int((outs[:, j] == outs[i, j]).sum())
            total += math.log((1 + matches) / denom)
    return total


def all_raw_candidates(v, g, s, with_assignment):
    for perm in itertools.permutations(range(v)):
        grouping = Grouping(tuple(tuple(perm[j * s : (j + 1) * s]) for j in range(g)))
        if with_assignment:
            for bits in range(1 << g):
                labels = tuple("ab"[(bits >> (g - 1 - j)) & 1] for j in range(g))
                yield Candidate(grouping, labels)
        else:
            yield Candidate(grouping, None)


def orbit_members(candidate, s):
    """Score-preserving symmetry orbit: label swap x per-type slot reordering."""
    labels = candidate.assignment
    for swap in (False, True):
        relabeled = tuple("b" if l == "a" else "a" for l in labels) if swap else labels
        for sigma_a in itertools.permutations(range(s)):
            for sigma_b in itertools.permutations(range(s)):
                groups = []
                for grp, lab in zip(candidate.grouping.slots, relabeled):
                    sigma = sigma_a if lab == "a" else sigma_b
                    groups.append(tuple(grp[i] for i in sigma))
                yield Candidate(Grouping(tuple(groups)), relabeled)


class TestCandidateCount:
    def test_full_scale(self):
        cfg = SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12")
        assert candidate_count(cfg) == 106_444_800

    def test_reduced_scale(self):
        assert candidate_count(CFG6) == 40

    def test_single_group_single_type(self):
        cfg = SearchConfig(v=3, g=1, s=3, num_types=1, mode="case12")
        assert candidate_count(cfg) == 1

    def test_case1(self):
        # set partitions: V! / (G! * S!**G)
        assert candidate_count(CFG6_C1) == 10
        assert candidate_count(SearchConfig(v=12, g=4, s=3, num_types=1, mode="case1")) == 15_400

    def test_overflow_guard(self):
        # 2^10 * 20! / (2 * 2!^2) is just above the 63-bit rank range
        with pytest.raises(CapacityError):
            candidate_count(SearchConfig(v=20, g=10, s=2, num_types=2, mode="case12"))


class TestEnumeration:
    @pytest.mark.parametrize("cfg", ENUMERATION_CONFIGS)
    def test_count_identity_uniqueness_canonical(self, cfg):
        seen = set()
        for rank, cand in enumerate(enumerate_candidates(cfg)):
            key = (cand.grouping.slots, cand.assignment)
            assert key not in seen
            seen.add(key)
            assert canonicalize_candidate(cfg, cand) == cand
            assert candidate_rank(cfg, cand) == rank
        assert len(seen) == candidate_count(cfg)

    def test_range_is_deterministic(self):
        a = list(enumerate_candidates(CFG6, 17, 18))
        b = list(enumerate_candidates(CFG6, 17, 18))
        assert a == b and len(a) == 1

    def test_disjoint_halves_partition_the_space(self):
        full = list(enumerate_candidates(CFG6))
        halves = list(enumerate_candidates(CFG6, 0, 20)) + list(enumerate_candidates(CFG6, 20, 40))
        assert halves == full

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_candidates(CFG6, 0, 41))

    def test_closure_of_raw_space(self):
        # canonicalizing every raw (perm, assignment) pair lands exactly on
        # the enumerated canonical set
        canonical = {(c.grouping.slots, c.assignment) for c in enumerate_candidates(CFG6)}
        images = set()
        for raw in all_raw_candidates(6, 2, 3, with_assignment=True):
            c = canonicalize_candidate(CFG6, raw)
            images.add((c.grouping.slots, c.assignment))
        assert images == canonical

    def test_case1_closure(self):
        canonical = {c.grouping.slots for c in enumerate_candidates(CFG6_C1)}
        images = {
            canonicalize_candidate(CFG6_C1, raw).grouping.slots
            for raw in all_raw_candidates(6, 2, 3, with_assignment=False)
        }
        assert images == canonical


class TestOneUnranker:
    """The library's table-walk unranker equals the scalar mixed-radix oracle."""

    @pytest.mark.parametrize(
        "cfg",
        ENUMERATION_CONFIGS
        + [
            SearchConfig(v=9, g=3, s=3, num_types=2, mode="case12"),
            SearchConfig(v=9, g=3, s=3, num_types=1, mode="case12"),
            SearchConfig(v=9, g=3, s=3, num_types=1, mode="case1"),
            SearchConfig(v=12, g=4, s=3, num_types=1, mode="case1"),
        ],
    )
    def test_every_rank_matches_oracle(self, cfg):
        for rank in range(candidate_count(cfg)):
            assert unrank_candidate(cfg, rank) == oracle_unrank(cfg, rank)

    def test_v12_case12_sample_matches_oracle(self):
        # per pattern: the first two ranks, both sides of the first prefix
        # boundary (last radix 6 or 1) and the last rank; plus a seeded sample
        cfg = SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12")
        per = _per_pattern(cfg)
        ranks = [
            base + offset
            for base in range(0, candidate_count(cfg), per)
            for offset in (0, 1, 5, 6, per - 1)
        ]
        ranks += np.random.default_rng(12).integers(candidate_count(cfg), size=20_000).tolist()
        for rank in ranks:
            assert unrank_candidate(cfg, rank) == oracle_unrank(cfg, rank)

    @pytest.mark.parametrize(
        "cfg",
        (
            CFG6,
            CFG6_C1,
            SearchConfig(v=6, g=3, s=2, num_types=2, mode="case12"),
            SearchConfig(v=6, g=3, s=2, num_types=1, mode="case1"),
            SearchConfig(v=9, g=3, s=3, num_types=2, mode="case12"),
            SearchConfig(v=9, g=3, s=3, num_types=1, mode="case1"),
            SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12"),
            SearchConfig(v=12, g=4, s=3, num_types=1, mode="case1"),
        ),
    )
    def test_one_batched_unrank_matches_oracle(self, cfg):
        # every rank at V=6; elsewhere the ends and an unsorted sample with
        # repeats, across assignment patterns
        total = candidate_count(cfg)
        if cfg.v == 6:
            ranks = list(range(total))
        else:
            ranks = [total - 1, 0, *np.random.default_rng(cfg.v).integers(total, size=2_000).tolist(), 0]
        assert search_module._unrank(cfg, ranks) == [oracle_unrank(cfg, rank) for rank in ranks]

    def test_out_of_range(self):
        for rank in (-1, candidate_count(CFG6)):
            with pytest.raises(ValueError):
                unrank_candidate(CFG6, rank)
            with pytest.raises(ValueError):
                search_module._unrank(CFG6, [0, rank])

    def test_capacity_guard_precedes_table_build(self):
        # 20P5 ordered 5-tuples x 32 cells = 59,535,360 tally cells
        cfg = SearchConfig(v=20, g=4, s=5, mode="case12")
        with pytest.raises(CapacityError, match=f"limit {search_module._MAX_TUPLE_TABLE}"):
            unrank_candidate(cfg, 0)
        assert (20, 4, 5, True) not in search_module._ENUM_TABLES

    def test_table_entry_guard_refuses_before_building(self, monkeypatch):
        # The tally table passes here (15P5 x 32 = 11,531,520 cells), but the
        # level-1 tables alone hold C(15,5) x (C(10,5) + 10P5) = 91,567,476 entries.
        assert search_module._table_entries(15, 3, 5, True) == 92_294_202

        def refuse_build(*args):
            raise AssertionError("the tables were built past the guard")

        monkeypatch.setattr(search_module, "_EnumTables", refuse_build)
        cfg = SearchConfig(v=15, g=3, s=5, mode="case12")
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"limit {search_module._MAX_TABLE_ENTRIES}"):
            unrank_candidate(cfg, 0)
        assert time.perf_counter() - start < 1.0
        assert (15, 3, 5, True) not in search_module._ENUM_TABLES

    @pytest.mark.parametrize(
        "geometry", ((6, 3, 2), (8, 4, 2), (9, 3, 3), (12, 4, 3), (12, 4, 2), (3, 1, 3))
    )
    @pytest.mark.parametrize("arrangements", (False, True))
    def test_table_entries_count_what_is_built(self, geometry, arrangements):
        tables = search_module._EnumTables(*geometry, arrangements)
        built = sum(tab_id.size for tab_id, _ in tables.comb + tables.arr)
        assert search_module._table_entries(*geometry, arrangements) == built
        assert built <= search_module._MAX_TABLE_ENTRIES

    def test_pool_search_builds_tables_once_in_parent(self, monkeypatch):
        built = []
        unranked_after = []
        pool_starts = []

        class CountingTables(search_module._EnumTables):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        class CountingPool(search_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pool_starts.append(len(built))
                super().__init__(*args, **kwargs)

        unrank = search_module._unrank

        def counting_unrank(cfg, ranks):
            unranked_after.append(len(built))
            return unrank(cfg, ranks)

        monkeypatch.setattr(search_module, "_ENUM_TABLES", {})
        monkeypatch.setattr(search_module, "_EnumTables", CountingTables)
        monkeypatch.setattr(search_module, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(search_module, "_unrank", counting_unrank)
        patterns = draw_patterns(build_bitvector_truth(BitsConfig(v=8, g=4, s=2), 5), 6, 200)
        cfg = SearchConfig(v=8, g=4, s=2, mode="case12", workers=2, top_k=7)
        results = search(patterns, cfg)
        # the tables exist before the pool starts, and the one unrank of the
        # top-k builds none
        assert built == [(8, 4, 2, True)]
        assert pool_starts == [1]
        assert unranked_after == [1]
        assert [r.candidate for r in results] == [oracle_unrank(cfg, r.rank) for r in results]


class TestEnumTablesMatchOracle:
    """The array-built tables equal the (state, digit) walk byte for byte."""

    @pytest.mark.parametrize(
        "geometry",
        ((3, 1, 3), (6, 2, 3), (6, 3, 2), (8, 2, 4), (8, 4, 2), (9, 3, 3), (10, 5, 2), (12, 4, 2), (12, 4, 3)),
    )
    @pytest.mark.parametrize("arrangements", (False, True))
    def test_tables_are_byte_identical(self, geometry, arrangements):
        assert_enum_tables_match_oracle(search_module._EnumTables(*geometry, arrangements), arrangements)


class TestPaperScorer:
    def test_one_sample_hand_example(self):
        # identity grouping, assignment (a,a,b,b), group outcomes (6,6,1,2)
        pattern = int("110110001010", 2)
        cfg = SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12")
        cand = Candidate(
            Grouping(((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))), ("a", "a", "b", "b")
        )
        want = math.log((3 / 12) ** 2 * (2 / 12) ** 2)
        assert score_candidate_paper([pattern], cand, cfg) == pytest.approx(want, abs=1e-12)

    def test_orbit_members_score_identically(self):
        rng = np.random.default_rng(42)
        patterns = random_patterns(rng, 6, 60)
        base = unrank_candidate(CFG6, 23)
        scores = {
            round(score_candidate_paper(patterns, member, CFG6), 9)
            for member in orbit_members(base, 3)
        }
        ref = score_candidate_paper(patterns, base, CFG6)
        for member in orbit_members(base, 3):
            assert score_candidate_paper(patterns, member, CFG6) == pytest.approx(ref, abs=1e-12)
        assert len(scores) == 1

    def test_fast_path_matches_naive_reimplementation(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            patterns = random_patterns(rng, 6, 40)
            cand = unrank_candidate(CFG6, int(rng.integers(40)))
            got = score_candidate_paper(patterns, cand, CFG6)
            want = naive_paper_score(patterns, cand.grouping, cand.assignment, 3)
            assert got == pytest.approx(want, abs=1e-9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            score_candidate_paper([], unrank_candidate(CFG6, 0), CFG6)


class TestCase1Scorer:
    def test_one_sample(self):
        pattern = int("110110001010", 2)
        cfg = SearchConfig(v=12, g=4, s=3, num_types=1, mode="case1")
        g = Grouping(((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)))
        assert score_candidate_case1([pattern], g, cfg) == pytest.approx(
            4 * math.log(2 / 9), abs=1e-12
        )

    def test_group_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        patterns = random_patterns(rng, 6, 50)
        g = Grouping(((4, 1, 0), (5, 2, 3)))
        swapped = Grouping(((5, 2, 3), (4, 1, 0)))
        a = score_candidate_case1(patterns, g, CFG6_C1)
        b = score_candidate_case1(patterns, swapped, CFG6_C1)
        assert a == pytest.approx(b, abs=1e-12)

    def test_fast_path_matches_naive(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            patterns = random_patterns(rng, 6, 40)
            cand = unrank_candidate(CFG6_C1, int(rng.integers(candidate_count(CFG6_C1))))
            got = score_candidate_case1(patterns, cand.grouping, CFG6_C1)
            want = naive_case1_score(patterns, cand.grouping, 3)
            assert got == pytest.approx(want, abs=1e-9)


class TestMarginalScorer:
    def test_matches_direct_dirichlet_multinomial(self):
        rng = np.random.default_rng(21)
        patterns = random_patterns(rng, 6, 30)
        cand = unrank_candidate(CFG6, 9)
        outs = group_outcomes(np.asarray(patterns), cand.grouping)
        want = 0.0
        for label in ("a", "b"):
            cols = [j for j, lab in enumerate(cand.assignment) if lab == label]
            if not cols:
                continue
            pooled = np.bincount(outs[:, cols].ravel(), minlength=8)
            total = int(pooled.sum())
            want += math.lgamma(8) - math.lgamma(8 + total)
            want += sum(math.lgamma(1 + int(c)) for c in pooled)
        got = score_candidate_marginal(patterns, cand, CFG6)
        assert got == pytest.approx(want, abs=1e-10)

    def test_orbit_invariance(self):
        rng = np.random.default_rng(31)
        patterns = random_patterns(rng, 6, 50)
        base = unrank_candidate(CFG6, 30)
        ref = score_candidate_marginal(patterns, base, CFG6)
        for member in orbit_members(base, 3):
            assert score_candidate_marginal(patterns, member, CFG6) == pytest.approx(
                ref, abs=1e-12
            )


class TestSearch:
    def test_exact_over_canonical_space(self):
        # search agrees with a naive argmax over the canonicalized raw space;
        # mathematically tied candidates (orbit duplicates) land at slightly
        # different naive floats, so compare against the naive tie-class
        rng = np.random.default_rng(17)
        for trial in range(20):
            truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), int(rng.integers(1 << 30)))
            patterns = draw_patterns(truth, int(rng.integers(1 << 30)), 60)
            naive = [
                naive_paper_score(patterns, c.grouping, c.assignment, 3)
                for c in enumerate_candidates(CFG6)
            ]
            best = max(naive)
            tie_class = {rank for rank, sc in enumerate(naive) if sc >= best - 1e-9}
            got = search(patterns, CFG6)[0]
            assert got.rank in tie_class
            assert got.log_score == pytest.approx(best, abs=1e-9)

    def test_worker_count_never_changes_output(self, pool_starts):
        # 40 candidates score in-process; 80,640 exceed the 65,536-candidate
        # in-process limit (not the 4,096-rank scoring batch) and use a pool,
        # unless the marginal scorer's bound leaves at most 65,536 of them to
        # score. At n = 1 it prunes nothing, and one pool serves the search.
        for v, g, s, scorer, n, pooled in (
            (6, 2, 3, "paper_plugin", 200, False),
            (8, 4, 2, "paper_plugin", 200, True),
            (8, 4, 2, "dirichlet_marginal", 200, False),
            (8, 4, 2, "dirichlet_marginal", 1, True),
        ):
            truth = build_bitvector_truth(BitsConfig(v=v, g=g, s=s), 5)
            patterns = draw_patterns(truth, 6, n)
            runs = {}
            for workers in (1, 2, 8):
                pool_starts.clear()
                cfg = SearchConfig(v=v, g=g, s=s, mode="case12", scorer=scorer, workers=workers, top_k=7)
                runs[workers] = [(x.rank, x.log_score) for x in search(patterns, cfg)]
                assert pool_starts == ([workers] if pooled and workers > 1 else [])
            assert runs[1] == runs[2] == runs[8]

    def test_single_sample_ties_break_by_rank(self):
        cfg = SearchConfig(v=6, g=2, s=3, mode="case12", top_k=40)
        results = search([0b101010], cfg)
        assert len(results) == 40
        scores = [r.log_score for r in results]
        ranks = [r.rank for r in results]
        for (s1, r1), (s2, r2) in zip(zip(scores, ranks), zip(scores[1:], ranks[1:])):
            assert s1 > s2 or (s1 == s2 and r1 < r2)

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            search([], CFG6)

    def test_marginal_scorer_recovers_separated_truth(self):
        hits = 0
        for seed in range(10):
            truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), derive_seed(900, seed))
            patterns = draw_patterns(truth, derive_seed(901, seed), 500)
            cfg = SearchConfig(
                v=6, g=2, s=3, mode="case12", scorer="dirichlet_marginal", top_k=1
            )
            top = search(patterns, cfg)[0]
            hits += in_truth_orbit(top.candidate, true_joint(truth))
        assert hits >= 9

    def test_case1_search_recovers_grouping(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 77)
        patterns = draw_patterns(truth, 78, 500)
        top = search(patterns, SearchConfig(v=6, g=2, s=3, num_types=1, mode="case1", top_k=1))[0]
        assert in_truth_orbit(top.candidate, true_joint(truth))


def case1_group_term(column, cell, scorer):
    """One group's case1 score from its outcome column, per sample."""
    n = len(column)
    tally = [int(t) for t in np.bincount(column, minlength=cell)]
    if scorer == "paper_plugin":
        return sum(t * (math.log1p(t) - math.log(cell + n)) for t in tally)
    return math.lgamma(cell) - math.lgamma(cell + n) + sum(math.lgamma(1 + t) for t in tally)


def partition_of(grouping):
    return frozenset(frozenset(grp) for grp in grouping.slots)


class TestCase1Partitions:
    """case1 hypotheses are set partitions: slot order is never scored."""

    def test_config_has_one_type(self):
        with pytest.raises(ValueError, match="num_types must be 1 in mode case1, got 2"):
            SearchConfig(v=6, g=2, s=3, num_types=2, mode="case1")

    @pytest.mark.parametrize("v", [6, 9])
    def test_exhaustive_oracle_over_ordered_groupings(self, v):
        # every ordered grouping (V!/G!: groups ordered by their smallest
        # variable, slots in any order) scored group by group
        s = 3
        g = v // s
        truth = build_bitvector_truth(BitsConfig(v=v, g=g, s=s), 40 + v)
        patterns = draw_patterns(truth, 41 + v, 200)
        shifts = v - 1 - np.arange(v)
        bits = (np.asarray(patterns)[:, None] >> shifts) & 1
        for scorer in SCORERS:
            term: dict[tuple[int, ...], float] = {}
            oracle = {}
            for perm in itertools.permutations(range(v)):
                groups = [perm[j * s : (j + 1) * s] for j in range(g)]
                mins = [min(grp) for grp in groups]
                if mins != sorted(mins):
                    continue
                for grp in groups:
                    if grp not in term:
                        column = bits[:, list(grp)] @ (1 << np.arange(s - 1, -1, -1))
                        term[grp] = case1_group_term(column, 1 << s, scorer)
                oracle[tuple(groups)] = sum(term[grp] for grp in groups)
            assert len(oracle) == math.factorial(v) // math.factorial(g)
            best = max(oracle.values())
            winners = {
                partition_of(Grouping(groups)) for groups, sc in oracle.items() if sc >= best - 1e-9
            }
            cfg = SearchConfig(v=v, g=g, s=s, num_types=1, mode="case1", scorer=scorer, top_k=1)
            top = search(patterns, cfg)[0]
            assert top.log_score == pytest.approx(best, abs=1e-9)
            assert winners == {partition_of(top.candidate.grouping)}

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_top_k_lists_distinct_partitions(self, scorer):
        truth = build_bitvector_truth(BitsConfig(v=9, g=3, s=3), 19)
        patterns = draw_patterns(truth, 20, 300)
        cfg = SearchConfig(v=9, g=3, s=3, num_types=1, mode="case1", scorer=scorer, top_k=50)
        results = search(patterns, cfg)
        assert len(results) == 50
        assert len({partition_of(r.candidate.grouping) for r in results}) == 50

    def test_within_group_relabelings_give_identical_joint(self):
        truth = build_bitvector_truth(BitsConfig(v=9, g=3, s=3), 23)
        patterns = draw_patterns(truth, 24, 300)
        cfg = SearchConfig(v=9, g=3, s=3, num_types=1, mode="case1", top_k=1)
        top = search(patterns, cfg)[0].candidate
        want = candidate_joint(patterns, top).weights.tobytes()
        orders = list(itertools.permutations(range(3)))
        for sigmas in itertools.product(orders, repeat=3):
            groups = tuple(
                tuple(grp[i] for i in sigma) for grp, sigma in zip(top.grouping.slots, sigmas)
            )
            relabeled = Candidate(Grouping(groups), None)
            est = candidate_joint(patterns, relabeled)
            assert est.weights.tobytes() == want


@functools.cache
def unranked_space(cfg):
    """Ordered-tuple ids and assignments of every candidate, by the scalar oracle unranker."""
    tuple_index = {tup: i for i, tup in enumerate(itertools.permutations(range(cfg.v), cfg.s))}
    cands = [oracle_unrank(cfg, rank) for rank in range(candidate_count(cfg))]
    ids = np.array([[tuple_index[grp] for grp in c.grouping.slots] for c in cands])
    return ids, [c.assignment for c in cands]


def gather_scores(ctx):
    """Reference case12 scorer over every rank: each candidate gathers all G tuple rows."""
    ids, assignments = unranked_space(dataclasses.replace(ctx.cfg, scorer=SCORERS[0]))
    return candidate_gather(ctx, ids, assignments)


@functools.cache
def unranked_batch(cfg, lo, hi):
    """Ordered-tuple ids and assignments of ranks [lo, hi), by the scalar oracle unranker."""
    tuple_index = {tup: i for i, tup in enumerate(itertools.permutations(range(cfg.v), cfg.s))}
    cands = [oracle_unrank(cfg, rank) for rank in range(lo, hi)]
    ids = np.array([[tuple_index[grp] for grp in c.grouping.slots] for c in cands])
    return ids, [c.assignment for c in cands]


def candidate_gather(ctx, ids, assignments):
    """Per-candidate case12 scores of candidates given by their tuple ids and labels.

    Both types' pooled tallies and terms are evaluated per candidate, in the
    order a's term, a's constant, b's term, b's constant.
    """
    cfg = ctx.cfg
    cell = 1 << cfg.s
    scores = np.zeros(len(assignments))
    for labels in set(assignments):
        rows = np.array([a == labels for a in assignments])
        part = np.zeros(int(rows.sum()))
        for label in ("a", "b"):
            cols = [j for j, lab in enumerate(labels) if lab == label]
            if not cols:
                continue
            pooled = ctx.tally[ids[rows][:, cols]].sum(axis=1)
            part += ctx.pool_term[pooled].sum(axis=1)
            if cfg.scorer != "paper_plugin":
                part += ctx.lgam[cell] - ctx.lgam[cell + len(cols) * ctx.n]
        scores[rows] = part
    return scores


def every_score(ctx, lo, hi):
    """The scores of ranks [lo, hi) from an unpruned `batches`, which yields each rank once, in order."""
    parts = list(ctx.batches(lo, hi))
    assert np.array_equal(np.concatenate([ranks for ranks, _ in parts]), np.arange(lo, hi))
    return np.concatenate([scores for _, scores in parts])


class TestPrefixScorer:
    """The per-prefix case12 scorer equals the per-candidate gather bit for bit."""

    @pytest.mark.parametrize("num_types", [1, 2])
    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("v, g, s", [(3, 3, 1), (4, 4, 1), (6, 2, 3), (8, 4, 2), (9, 3, 3)])
    def test_every_rank_matches_gather_oracle(self, v, g, s, scorer, num_types):
        # V=8 has last radix 2, V=9 has 6; a pattern whose last group is a
        # pin (all of V=6, and a..ab at V=8 and V=9) has last radix 1, and
        # S=1 has last radix 1 throughout, so its owner type pools two or
        # more prefix groups on a single leaf
        rng = np.random.default_rng(100 + v)
        patterns = random_patterns(rng, v, 120)
        cfg = SearchConfig(v=v, g=g, s=s, num_types=num_types, mode="case12", scorer=scorer)
        ctx = _ScoreContext(patterns, cfg)
        per_pattern = math.factorial(v) // math.factorial(s) ** num_types
        want = gather_scores(ctx)
        got = np.concatenate(
            [every_score(ctx, lo, lo + per_pattern) for lo in range(0, candidate_count(cfg), per_pattern)]
        )
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_v12_batches_match_gather_oracle(self, scorer):
        # per assignment pattern: a batch at its start, one that starts
        # mid-prefix, and one that starts mid-prefix and ends at its end
        cfg = SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12", scorer=scorer)
        ctx = _ScoreContext(random_patterns(np.random.default_rng(112), 12, 200), cfg)
        per_pattern = _per_pattern(cfg)
        batch = search_module._SCORE_BATCH
        for base in range(0, candidate_count(cfg), per_pattern):
            for lo in (base, base + per_pattern // 2 + 3, base + per_pattern - batch):
                assert lo == base or lo % 6 != 0
                ids, assignments = unranked_batch(dataclasses.replace(cfg, scorer=SCORERS[0]), lo, lo + batch)
                want = candidate_gather(ctx, ids, assignments)
                got = every_score(ctx, lo, lo + batch)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), lo

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_range_top_k_matches_oracle_under_ties(self, scorer):
        # one sample: every candidate's tallies are permutations of each
        # other, so most scores tie exactly and ranks decide the order
        cfg = SearchConfig(v=9, g=3, s=3, mode="case12", scorer=scorer)
        ctx = _ScoreContext([0b101100111], cfg)
        total = candidate_count(cfg)
        oracle = gather_scores(ctx)
        rng = np.random.default_rng(8)
        for _ in range(20):
            lo, hi = sorted(int(x) for x in rng.choice(np.arange(total // 6) * 6 + 1, 2, replace=False))
            hi += 4
            k = int(rng.integers(1, 60))
            ranks, scores = _score_range(ctx, lo, hi, k)
            order = np.lexsort((np.arange(lo, hi), -oracle[lo:hi]))[:k]
            assert np.array_equal(ranks, order + lo)
            assert np.array_equal(scores.view(np.int64), oracle[lo:hi][order].view(np.int64))


def walk_inputs(cfg):
    """(tables, radices) of every prefix walk of `cfg`: one per assignment
    pattern in case12, picked as `_levels` picks them, and the case1 one."""
    tables = search_module._enum_tables(cfg.v, cfg.g, cfg.s, arrangements=cfg.mode == "case12")
    if cfg.mode == "case1":
        yield tables.comb, search_module._case1_radices(cfg.v, cfg.g, cfg.s)[:-1]
        return
    for idx in range(candidate_count(cfg) // _per_pattern(cfg)):
        labels = search_module._pattern_from_index(idx, cfg.g, cfg.num_types)
        pins = search_module._pin_positions(labels, cfg.num_types)
        chosen = [tables.comb[j] if j in pins else tables.arr[j] for j in range(cfg.g)]
        radices = [tables.comb_radix[j] if j in pins else tables.arr_radix[j] for j in range(cfg.g)]
        yield chosen, radices[:-1]


def walk_ranges(radices, rng):
    """Prefix-rank ranges [lo, hi): the whole space when it is small; single
    ranks; ranges that start and end inside a last-level row; ranges across
    each level's boundaries."""
    total = math.prod(radices)
    if total <= 5000:
        yield 0, total
    for rank in (0, 1, total - 1, *rng.integers(total, size=5).tolist()):
        if rank < total:
            yield rank, rank + 1
    for _ in range(5):
        lo = int(rng.integers(total))
        yield lo, min(total, lo + int(rng.integers(1, 1500)))
    for j in range(len(radices)):
        place = math.prod(radices[j + 1 :])
        for edge in range(place, total, max(place, total // 4)):
            yield max(0, edge - 3), min(total, edge + place + 2)


WALK_CONFIGS = [
    SearchConfig(v=v, g=g, s=s, num_types=num_types, mode=mode)
    for v, g, s in ((3, 1, 3), (6, 2, 3), (6, 3, 2), (8, 4, 2), (9, 3, 3), (12, 4, 3))
    for num_types, mode in ((1, "case1"), (1, "case12"), (2, "case12"))
    if num_types <= g
]


class TestWalk:
    """The level-expanding walk equals the walk that divides every rank into digits."""

    @pytest.mark.parametrize("cfg", WALK_CONFIGS, ids=str)
    def test_ids_and_next_states_match_oracle(self, cfg):
        tables = search_module._enum_tables(cfg.v, cfg.g, cfg.s, arrangements=cfg.mode == "case12")
        rng = np.random.default_rng(cfg.v * 10 + cfg.g)
        for chosen, radices in walk_inputs(cfg):
            for lo, hi in walk_ranges(radices, rng):
                slices = list(tables._walk(chosen, radices, lo, hi))
                assert all(len(part[0]) for part in slices)
                ids, state, ranks = (np.concatenate(x) for x in zip(*slices))
                want_ids, want_state = oracle_walk(chosen, radices, lo, hi)
                assert np.array_equal(ranks, np.arange(lo, hi))
                assert ids.dtype == want_ids.dtype and ids.shape == want_ids.shape
                assert np.array_equal(ids, want_ids), (lo, hi)
                assert np.array_equal(state, want_state), (lo, hi)

    def test_case1_levels_are_wider_than_their_radix(self):
        # the walk must cut each case1 table row to the level's radix
        cfg = SearchConfig(v=12, g=4, s=3, num_types=1, mode="case1")
        (chosen, radices), = walk_inputs(cfg)
        assert all(tab_id.shape[1] > radix for (tab_id, _), radix in zip(chosen, radices))


def cell_stack(rng, shape):
    """Floats of both signs over many magnitudes, with exact zeros of both
    signs and some all-+0.0 rows: sums whose rounding depends on the order.
    No row is all -0.0 (see test_negative_zero_rows_agree_once_added_to_scores)."""
    mags = 10.0 ** rng.integers(-3, 17, size=shape)
    mags[rng.random(shape) < 0.01] = 1e250
    x = rng.choice((-1.0, 1.0), size=shape) * rng.random(shape) * mags
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    x[..., :2, :] = 0.0
    x[..., 0][np.signbit(x).all(axis=-1) & (x == 0).all(axis=-1)] = 0.0
    return x


class TestCellSum:
    """`_cell_sum` adds in numpy's order for a contiguous `.sum(axis=-1)`."""

    @pytest.mark.parametrize("s", range(1, 9))
    def test_equals_numpy_sum_bitwise(self, s):
        # S = 8 (V=8, G=1) is the most cells the capacity guards admit in case12
        cell = 1 << s
        rng = np.random.default_rng(s)
        for shape in ((6, 683, cell), (1, 4096, cell), (1, 3, cell)):
            size = math.prod(shape)
            # sliced from longer buffers, as score slices its reused ones
            terms = np.empty(size + 24)[:size].reshape(shape)
            terms[...] = cell_stack(rng, shape)
            scratch = np.empty(size + 24, dtype=np.int64).view(np.float64)
            got = search_module._cell_sum(terms, scratch)
            want = terms.sum(axis=-1)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), shape
            # the data tell orders apart: adding right to left, and from 8
            # cells on left to right, gives other bits (2 cells have one order)
            for other in [terms[..., ::-1]] * (s >= 2 and shape[1] > 3) + [terms] * (s >= 3 and shape[1] > 3):
                assert not np.array_equal(np.cumsum(other, axis=-1)[..., -1].view(np.int64), want.view(np.int64))

    def test_scratch_of_exactly_the_stack_size_suffices(self):
        for s in range(1, 9):
            shape = (2, 5, 1 << s)
            terms = cell_stack(np.random.default_rng(40 + s), shape)
            got = search_module._cell_sum(terms, np.empty(terms.size))
            assert np.array_equal(got.view(np.int64), terms.sum(axis=-1).view(np.int64))

    @pytest.mark.parametrize("s", (2, 3, 4))
    def test_negative_zero_rows_agree_once_added_to_scores(self, s):
        # numpy starts from +0.0; scores start at +0.0 too, which absorbs it
        terms = np.full((3, 1 << s), -0.0)
        got = search_module._cell_sum(terms, np.empty(terms.size))
        assert np.signbit(got).all() and not np.signbit(terms.sum(axis=-1)).any()
        assert np.array_equal((np.zeros(3) + got).view(np.int64), (np.zeros(3) + terms.sum(axis=-1)).view(np.int64))


class StubScores:
    """A score context over fixed scores, for `_score_range`: it prunes
    nothing, and cuts its batches at each assignment pattern's end and every
    `_SCORE_BATCH` ranks."""

    def __init__(self, cfg, scores):
        self.cfg = cfg
        self.scores = scores

    def batches(self, lo, hi, bar=None):
        span = _per_pattern(self.cfg)
        while lo < hi:
            stop = min(hi, (lo // span + 1) * span, lo + search_module._SCORE_BATCH)
            yield np.arange(lo, stop), self.scores[lo:stop].copy()
            lo = stop


class TestBatchSkip:
    """A batch that cannot enter the running top-k skips the merge."""

    # four assignment patterns of 10,080 ranks each; a range from 0 is cut
    # into the batches [0, 4096), [4096, 8192), [8192, 10080), [10080, 14176), ...
    CFG = SearchConfig(v=9, g=3, s=3, mode="case12")

    @pytest.fixture
    def merged(self, monkeypatch):
        """The end rank of each batch merged into the running top-k."""
        seen = []
        real = search_module._top_k

        def counting(ranks, scores, k):
            seen.append(int(ranks[-1]) + 1)
            return real(ranks, scores, k)

        monkeypatch.setattr(search_module, "_top_k", counting)
        return seen

    def scores(self, seed):
        return np.random.default_rng(seed).normal(size=candidate_count(self.CFG))

    def check(self, scores, lo, hi, k):
        """`_score_range` equals a lexsort of the whole range by (score desc, rank asc)."""
        ranks, got = _score_range(StubScores(self.CFG, scores), lo, hi, k)
        order = np.lexsort((np.arange(lo, hi), -scores[lo:hi]))[:k]
        assert np.array_equal(ranks, order + lo)
        assert np.array_equal(got.view(np.int64), scores[lo:hi][order].view(np.int64))

    def test_a_tie_with_the_kth_skips_and_a_better_score_enters(self, merged):
        k = 7
        scores = self.scores(3)
        scores[4096:] -= 10.0
        kth = np.sort(scores[:4096])[-k]
        scores[4096 + 17] = kth  # [4096, 8192): its best ties the k-th and loses on rank
        scores[8192 + 5] = kth + 1.0  # [8192, 10080): strictly better, so it enters
        self.check(scores, 0, 14176, k)  # [10080, 14176): all below the k-th
        assert merged == [4096, 10080]

    def test_a_nan_batch_merges(self, merged):
        scores = self.scores(4)
        scores[4096:] -= 10.0
        scores[4096 + 9] = np.nan  # the batch's max is NaN
        _score_range(StubScores(self.CFG, scores), 0, 8192, 7)
        assert merged == [4096, 8192]

    def test_a_nan_in_a_merged_batch_ranks_lowest(self, merged):
        # merging a 4,096-rank batch with one NaN into a full top-7 keeps 7
        scores = self.scores(6)
        scores[4096:] -= 10.0
        scores[4096 + 9] = np.nan
        self.check(scores, 0, 8192, 7)
        assert merged == [4096, 8192]
        # NaN only enters when fewer than k other scores are left, behind -inf
        few = np.full(candidate_count(self.CFG), np.nan)
        few[[3, 11]] = (-np.inf, 1.0)
        ranks, held = _score_range(StubScores(self.CFG, few), 0, 20, 4)
        assert ranks.tolist() == [11, 3, 0, 1] and held[:2].tolist() == [1.0, -np.inf]
        assert np.isnan(held[2:]).all()

    def test_a_nan_kth_merges(self, merged):
        # the first batch holds exactly k ranks, one of them NaN, which sorts last
        scores = self.scores(5)
        scores[10078] = np.nan
        scores[10080:] -= 10.0
        ranks, held = _score_range(StubScores(self.CFG, scores), 10077, 10080, 3)
        assert np.isnan(held[-1])
        _score_range(StubScores(self.CFG, scores), 10077, 14176, 3)
        assert merged == [10080, 10080, 14176]

    @pytest.mark.parametrize(
        "lo, hi, stops",
        ((0, 30, [30]), (4090, 4101, [4101]), (10075, 10090, [10080, 10090]), (40315, 40320, [40320])),
    )
    def test_k_larger_than_the_range(self, lo, hi, stops, merged):
        scores = self.scores(lo)
        scores[lo + 1] = scores[lo]  # a tie, broken by rank
        self.check(scores, lo, hi, 50)
        assert merged == stops


TALLY_GEOMETRIES = [(6, 2, 3), (8, 4, 2), (9, 3, 3), (12, 4, 3)]
TALLY_SIZES = [1, 7, 500]


class TestTupleTally:
    """The blocked (tuple, outcome) bincount equals one bincount per tuple."""

    @pytest.mark.parametrize("n", TALLY_SIZES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("v, g, s", TALLY_GEOMETRIES)
    def test_matches_per_tuple_oracle(self, v, g, s, mode, n):
        patterns = random_patterns(np.random.default_rng(1000 * v + n), v, n)
        cfg = SearchConfig(v=v, g=g, s=s, num_types=2 if mode == "case12" else 1, mode=mode)
        ctx = _ScoreContext(patterns, cfg)
        want = oracle_tuple_tally(patterns, ctx.tables.tuples, v)
        assert ctx.tally.dtype == want.dtype
        assert np.array_equal(ctx.tally, want)

    def test_grid_splits_tuple_blocks_unevenly(self):
        # V=12 at 500 samples: 1,320 ordered and 220 sorted tuples, in blocks
        # that leave a shorter last block
        v, g, s = TALLY_GEOMETRIES[-1]
        step = _TALLY_BLOCK // max(TALLY_SIZES)
        for arrangements in (True, False):
            tuples = len(search_module._enum_tables(v, g, s, arrangements).tuples)
            assert tuples > step and tuples % step != 0


def result_bits(results):
    return [(r.rank, r.log_score.hex()) for r in results]


class TestSearchSession:
    """Searches that share a session equal fresh searches, by rank and by score bits."""

    GRID = (1, 2, 5, 10, 11, 40, 120)

    @staticmethod
    def config(mode, scorer, top_k=5):
        return SearchConfig(
            v=9, g=3, s=3, num_types=2 if mode == "case12" else 1, mode=mode, scorer=scorer, top_k=top_k
        )

    @staticmethod
    def patterns(n, seed=17):
        return draw_patterns(build_bitvector_truth(BitsConfig(v=9, g=3, s=3), seed), seed + 1, n)

    @pytest.fixture
    def tallied(self, monkeypatch):
        """The number of patterns each tuple tally is built over."""
        sizes = []
        real = search_module._tuple_tally

        def counting(patterns, tuple_vars, v):
            sizes.append(len(patterns))
            return real(patterns, tuple_vars, v)

        monkeypatch.setattr(search_module, "_tuple_tally", counting)
        return sizes

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("mode", MODES)
    def test_every_checkpoint_equals_fresh_search(self, mode, scorer, tallied):
        cfg = self.config(mode, scorer)
        patterns = self.patterns(self.GRID[-1])
        session = SearchSession()
        for held, n in zip((0,) + self.GRID, self.GRID):
            tallied.clear()
            got = result_bits(search(patterns[:n], cfg, session))
            assert tallied == [n - held]
            assert got == result_bits(search(patterns[:n], cfg)), n

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("case", ("c1", "c12"))
    def test_run_schedule_with_first_checkpoint_fallback(self, case, scorer, monkeypatch):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=100,
            n_runs=1,
            base_seed=5,
            cases=(case,),
            checkpoints=(3, 20, 50, 70, 100),
            bits_config=BitsConfig(v=9, g=3, s=3),
            search=SearchSettings(checkpoints=(50, 100), scorer=scorer),
        )
        real_search = experiment_module.search
        searched = []

        def checked_search(patterns, cfg, session):
            results = real_search(patterns, cfg, session)
            assert result_bits(results) == result_bits(real_search(patterns, cfg))
            searched.append((len(patterns), results[0].candidate))
            return results

        monkeypatch.setattr(experiment_module, "search", checked_search)
        patterns = np.array(self.patterns(100))
        found = _searched_candidates(spec, case, patterns, spec.checkpoints)
        assert [n for n, _ in searched] == [3, 50, 100]
        first, at_50, at_100 = (candidate for _, candidate in searched)
        assert found == [first, first, at_50, at_50, at_100]
        assert first == search(patterns[:3], _search_config(spec, case))[0].candidate

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_dataset_that_does_not_extend_is_tallied_afresh(self, scorer, tallied):
        cfg = self.config("case12", scorer)
        base = self.patterns(80)
        flipped = list(base)
        flipped[10] ^= 0b100
        last_changed = base[:40]
        last_changed[-1] ^= 1
        for first, second in (
            (base[:40], flipped[:60]),  # longer, but an early pattern differs
            (base[:60], base[:30]),  # shorter
            (base[:40], last_changed),  # same length, last pattern differs
            (base[:40], base[:40]),  # the same dataset again
        ):
            session = SearchSession()
            search(first, cfg, session)
            tallied.clear()
            got = result_bits(search(second, cfg, session))
            assert tallied == [0 if second == first else len(second)]
            assert got == result_bits(search(second, cfg))

    def test_caller_changing_its_array_is_seen(self):
        cfg = self.config("case12", "dirichlet_marginal")
        patterns = np.array(self.patterns(60))
        session = SearchSession()
        search(patterns[:40], cfg, session)
        patterns[5] ^= 0b11
        assert result_bits(search(patterns, cfg, session)) == result_bits(search(patterns, cfg))

    def test_another_config_gets_its_own_tables(self):
        patterns = self.patterns(50)
        session = SearchSession()
        for mode, scorer in itertools.product(MODES, SCORERS):
            cfg = self.config(mode, scorer)
            assert result_bits(search(patterns, cfg, session)) == result_bits(search(patterns, cfg))


BOUND_SIZES = (1, 5, 30, 300)


def separated_patterns(v, g, s, n, seed=40):
    """n patterns of a truth with well separated types, so that the bound prunes at large n."""
    truth = build_bitvector_truth(BitsConfig(v=v, g=g, s=s, min_separation=0.6), seed + v)
    return draw_patterns(truth, seed + v + 1, n)


def partition_keys(cfg, ids):
    """Per candidate (a row of ordered-tuple ids), its set partition: the
    groups' variable sets as bit masks, sorted."""
    masks = np.array([sum(1 << x for x in tup) for tup in itertools.permutations(range(cfg.v), cfg.s)])
    return np.sort(masks[ids], axis=1)


def set_partitions(pool, s):
    """Every partition of `pool` into sorted s-subsets."""
    if not pool:
        yield ()
        return
    first, rest = pool[0], pool[1:]
    for others in itertools.combinations(rest, s - 1):
        left = tuple(x for x in rest if x not in others)
        for tail in set_partitions(left, s):
            yield ((first, *others), *tail)


def best_rest_oracle(tables, maxll):
    """Per level j, per state: the largest sum of maxll over the S-partitions of the
    state's unused variables, by brute force. Level j's states are the sets of
    V - j*S variables in reverse lexicographic order (`_EnumTables`)."""
    v, g, s = tables.v, tables.g, tables.s
    index = {tup: i for i, tup in enumerate(tables.tuples)}
    return [
        np.array([
            max(sum(maxll[index[grp]] for grp in part) for part in set_partitions(unused, s))
            for unused in list(itertools.combinations(range(v), v - j * s))[::-1]
        ])
        for j in range(g)
    ]


class TestBranchAndBound:
    """The dirichlet_marginal case12 search prunes with a valid bound and stays exact."""

    V9 = SearchConfig(v=9, g=3, s=3, mode="case12", scorer="dirichlet_marginal")

    @pytest.mark.parametrize("n", BOUND_SIZES)
    def test_bound_terms_match_their_definition(self, n):
        ctx = _ScoreContext(separated_patterns(9, 3, 3, n), self.V9)
        for row, maxll, gap in zip(ctx.tally, ctx.bound.maxll, ctx.bound.gap):
            want_maxll = sum(int(c) * math.log(int(c) / n) for c in row if c)
            want_ml = math.lgamma(8) - math.lgamma(8 + n) + sum(math.lgamma(int(c) + 1) for c in row)
            assert maxll == pytest.approx(want_maxll, rel=1e-12, abs=1e-12)
            assert gap == pytest.approx(want_ml - want_maxll, rel=1e-9, abs=1e-9)
            assert gap <= 0.0

    @pytest.mark.parametrize("num_types", (1, 2))
    @pytest.mark.parametrize("n", BOUND_SIZES)
    def test_bound_is_at_least_every_v9_score(self, n, num_types):
        cfg = dataclasses.replace(self.V9, num_types=num_types)
        ctx = _ScoreContext(separated_patterns(9, 3, 3, n), cfg)
        ids, _ = unranked_space(dataclasses.replace(cfg, scorer=SCORERS[0]))
        bound = ctx.bound.maxll[ids].sum(axis=1) + ctx.bound.gap[ids].max(axis=1)
        assert (gather_scores(ctx) < bound).all()

    @pytest.mark.parametrize("v, g, s", ((9, 3, 3), (8, 4, 2)))
    def test_best_rest_and_floor(self, v, g, s):
        cfg = SearchConfig(v=v, g=g, s=s, mode="case12", scorer="dirichlet_marginal")
        ctx = _ScoreContext(separated_patterns(v, g, s, 60), cfg)
        want = best_rest_oracle(ctx.tables, ctx.bound.maxll)
        for got_level, want_level in zip(ctx.bound.rest, want, strict=True):
            assert got_level == pytest.approx(want_level, rel=1e-12)
        # the floor is the full bound of one partition of the largest sum of maxLL
        partitions = list(set_partitions(tuple(range(v)), s))
        index = {tup: i for i, tup in enumerate(ctx.tables.tuples)}
        ids = np.array([[index[grp] for grp in part] for part in partitions])
        sums = ctx.bound.maxll[ids].sum(axis=1)
        best = ids[np.isclose(sums, sums.max(), rtol=1e-12)]
        fulls = sums.max() + ctx.bound.gap[best].max(axis=1)
        assert np.isclose(fulls, ctx.bound.floor, rtol=1e-12).any()

    @pytest.mark.parametrize("v, g, s", ((9, 3, 3), (8, 4, 2)))
    def test_walk_keeps_exactly_the_rows_whose_bound_reaches_the_threshold(self, v, g, s):
        # integer terms add exactly in any order, so some bounds equal the
        # threshold, and those rows are kept
        tables = search_module._enum_tables(v, g, s, arrangements=True)
        rng = np.random.default_rng(v)
        per_set = {}
        for tup in tables.tuples:
            per_set.setdefault(frozenset(tup), (-float(rng.integers(0, 30)), -float(rng.integers(0, 6))))
        maxll = np.array([per_set[frozenset(tup)][0] for tup in tables.tuples])
        gap = np.array([per_set[frozenset(tup)][1] for tup in tables.tuples])
        last = tables.comb[g - 1][0][:, 0]
        bound = search_module._Bound(maxll, gap, best_rest_oracle(tables, maxll), gap[last], 0.0)
        cfg = SearchConfig(v=v, g=g, s=s, mode="case12", scorer="dirichlet_marginal")
        for chosen, radices in walk_inputs(cfg):
            total = math.prod(radices)
            ids, state = oracle_walk(chosen, radices, 0, total)
            full = maxll[ids].sum(axis=1) + maxll[last[state]]
            full += np.maximum(gap[ids].max(axis=1), gap[last[state]])
            values = np.unique(full)
            lo, hi = total // 7, total - total // 5
            for threshold in values[:: max(1, len(values) // 6)]:
                for start, stop in ((0, total), (lo, hi)):
                    slices = list(tables._walk(chosen, radices, start, stop, (bound, lambda: threshold)))
                    got = np.concatenate([part[2] for part in slices]) if slices else np.empty(0, int)
                    want = start + np.flatnonzero(full[start:stop] >= threshold)
                    assert np.array_equal(got, want), (threshold, start, stop)

    def test_threshold_margin(self):
        threshold = search_module._threshold
        for value in (-3000.0, -0.25, 0.0, 0.5, 2e6):
            assert value - threshold(value) == pytest.approx(1e-9 * max(1.0, abs(value)), rel=1e-6)
        for value in (math.nan, -math.inf, math.inf):
            assert threshold(value) == -math.inf

    @pytest.mark.parametrize("top_k", (1, 10))
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("n", BOUND_SIZES)
    @pytest.mark.parametrize("num_types", (1, 2))
    @pytest.mark.parametrize("v, g, s", ((6, 2, 3), (8, 4, 2), (9, 3, 3)))
    def test_top_k_equals_the_exhaustive_oracle(self, v, g, s, num_types, n, workers, top_k, pool_starts):
        cfg = SearchConfig(
            v=v, g=g, s=s, num_types=num_types, mode="case12", scorer="dirichlet_marginal",
            workers=workers, top_k=top_k,
        )
        patterns = separated_patterns(v, g, s, n)
        oracle = gather_scores(_ScoreContext(patterns, dataclasses.replace(cfg, workers=1, top_k=10)))
        order = np.lexsort((np.arange(len(oracle)), -oracle))[:top_k]
        assert result_bits(search(patterns, cfg)) == [(int(r), float(oracle[r]).hex()) for r in order]
        if (v, num_types, n, workers) == (8, 2, 1, 2):
            # one sample prunes none of V=8's 80,640 two-type candidates, so
            # two workers score them in a pool
            assert pool_starts == [2]

    def test_session_over_growing_checkpoints(self):
        # the checkpoints and top-1 of a c12 curve: every one equals a fresh
        # search and the exhaustive oracle
        cfg = SearchConfig(v=9, g=3, s=3, mode="case12", scorer="dirichlet_marginal", workers=2, top_k=1)
        patterns = separated_patterns(9, 3, 3, 300, seed=33)
        session = SearchSession()
        for n in range(10, 301, 10):
            got = result_bits(search(patterns[:n], cfg, session))
            assert got == result_bits(search(patterns[:n], cfg)), n
            oracle = gather_scores(_ScoreContext(patterns[:n], self.V9))
            best = int(np.argmax(oracle))
            assert got == [(best, float(oracle[best]).hex())], n

    PASS_LINE = re.compile(
        r"pass (\d): floor (\S+), surviving partitions (\d+|not counted), (in-process|pool of \d+ workers), "
        r"scored (\d+) of (\d+) candidates, pruned (\d+)$"
    )
    SKIP_LINE = re.compile(
        r"pass 2 skipped: at pass 1's k-th (\S+) as many partitions survive as at its floor, (\d+)$"
    )

    def passes(self, caplog, patterns, cfg):
        """Per pass line: (pass, floor, surviving partitions or None, where, scored, of, pruned);
        per skip line: ("skipped", k-th, surviving partitions)."""
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="latent_structure_lab.search"):
            search(patterns, cfg)
        out = []
        for record in caplog.records:
            if m := self.PASS_LINE.match(record.getMessage()):
                count = None if m[3] == "not counted" else int(m[3])
                out.append((int(m[1]), float(m[2]), count, m[4], int(m[5]), int(m[6]), int(m[7])))
            elif m := self.SKIP_LINE.match(record.getMessage()):
                out.append(("skipped", float(m[1]), int(m[2])))
        return out

    def test_search_logs_each_pass(self, caplog):
        patterns = separated_patterns(9, 3, 3, 300)
        total = candidate_count(self.V9)
        # the first pass's k-th score is below its floor, so a top-k member
        # may have been pruned, and a second pass runs from that k-th; a
        # space of at most 65,536 candidates is scored in-process uncounted
        passes = self.passes(caplog, patterns, self.V9)
        assert [(p[0], p[2], p[3]) for p in passes] == [(1, None, "in-process"), (2, None, "in-process")]
        assert passes[0][1] == _ScoreContext(patterns, self.V9).bound.floor > passes[1][1]
        assert all(scored + pruned == count == total for *_, scored, count, pruned in passes)
        assert passes[1][6] > total // 2
        # one sample: a first pass that prunes nothing is exact
        passes = self.passes(caplog, patterns[:1], self.V9)
        assert [(p[0], p[4], p[6]) for p in passes] == [(1, total, 0)]
        # the exhaustive scorer runs one pass that prunes nothing
        paper = dataclasses.replace(self.V9, scorer="paper_plugin")
        assert self.passes(caplog, patterns, paper) == [(1, -math.inf, None, "in-process", total, total, 0)]

    V8 = SearchConfig(v=8, g=4, s=2, mode="case12", scorer="dirichlet_marginal", workers=2)

    def test_counted_search_logs_survivors_and_where_each_pass_ran(self, caplog, pool_starts, monkeypatch):
        # 80,640 candidates: 105 partitions of 768 candidates each
        total = candidate_count(self.V8)
        # one sample: every partition survives, and the one pass runs in a pool
        passes = self.passes(caplog, separated_patterns(8, 4, 2, 1), self.V8)
        assert [p[2:] for p in passes] == [(105, "pool of 2 workers", total, total, 0)]
        # pass 1 scores the one partition that survives in-process; at its
        # k-th every partition survives, so pass 2 starts the pool
        pool_starts.clear()
        patterns = separated_patterns(8, 4, 2, 100, seed=41)
        passes = self.passes(caplog, patterns, self.V8)
        assert [p[2:5] for p in passes] == [(1, "in-process", 768), (105, "pool of 2 workers", total)]
        assert pool_starts == [2]
        # with no candidates allowed in-process, one pool serves both passes
        pool_starts.clear()
        with monkeypatch.context() as patched:
            patched.setattr(search_module, "_IN_PROCESS_MAX", 0)
            passes = self.passes(caplog, patterns, self.V8)
        assert [p[2:4] for p in passes] == [(1, "pool of 2 workers"), (105, "pool of 2 workers")]
        assert pool_starts == [2]
        # as many partitions survive at pass 1's k-th as at its floor, so
        # pass 1 is exact and pass 2 is skipped
        pool_starts.clear()
        patterns = separated_patterns(8, 4, 2, 100)
        passes = self.passes(caplog, patterns, self.V8)
        assert [p[0] for p in passes] == [1, "skipped"]
        assert passes[0][2:5] == (1, "in-process", 768)
        assert passes[1][1] < search_module._threshold(passes[0][1]) and passes[1][2] == 1
        assert pool_starts == []
        oracle = gather_scores(_ScoreContext(patterns, self.V8))
        order = np.lexsort((np.arange(len(oracle)), -oracle))[: self.V8.top_k]
        assert result_bits(search(patterns, self.V8)) == [(int(r), float(oracle[r]).hex()) for r in order]

    @pytest.mark.parametrize("num_types", (1, 2))
    @pytest.mark.parametrize("v, g, s", ((6, 2, 3), (8, 4, 2), (9, 3, 3)))
    def test_every_partition_has_the_same_number_of_candidates(self, v, g, s, num_types):
        cfg = SearchConfig(v=v, g=g, s=s, num_types=num_types, mode="case12")
        ids, _ = unranked_space(cfg)
        partitions, per = np.unique(partition_keys(cfg, ids), axis=0, return_counts=True)
        assert len(partitions) == len(list(set_partitions(tuple(range(v)), s)))
        assert set(per.tolist()) == {candidate_count(cfg) // len(partitions)}

    @pytest.mark.parametrize("num_types", (1, 2))
    @pytest.mark.parametrize("n", (5, 30, 300))
    @pytest.mark.parametrize("v, g, s", ((8, 4, 2), (9, 3, 3)))
    def test_partitions_reaching_a_threshold_price_the_candidates_that_reach_it(self, v, g, s, n, num_types):
        cfg = SearchConfig(v=v, g=g, s=s, num_types=num_types, mode="case12", scorer="dirichlet_marginal")
        ctx = _ScoreContext(separated_patterns(v, g, s, n), cfg)
        ids, _ = unranked_space(dataclasses.replace(cfg, scorer=SCORERS[0]))
        bound = ctx.bound.maxll[ids].sum(axis=1) + ctx.bound.gap[ids].max(axis=1)
        per = candidate_count(cfg) // len(list(set_partitions(tuple(range(v)), s)))
        # thresholds between bounds that differ by more than float error
        values = np.unique(bound)
        wide = np.flatnonzero(np.diff(values) > 1e-6 * np.maximum(1.0, np.abs(values[1:])))
        cuts = (values[wide] + values[wide + 1]) / 2
        thresholds = [-math.inf, values[0] - 1.0, *cuts[:: max(1, len(cuts) // 8)], values[-1] + 1.0]
        for threshold in thresholds:
            count = search_module._partitions_reaching(ctx, threshold)
            assert count * per == np.count_nonzero(bound >= threshold), threshold


class TestSearchMemory:
    def test_in_process_search_peak_traced_allocation(self):
        """One in-process V=9 case12 search scores 4,096 ranks per batch. A
        warm-up search first builds the process-wide enumeration tables."""
        cfg = SearchConfig(v=9, g=3, s=3, mode="case12", scorer="dirichlet_marginal", workers=2, top_k=1)
        patterns = draw_patterns(build_bitvector_truth(BitsConfig(v=9, g=3, s=3), 90), 91, 300)
        search(patterns, cfg)
        tracemalloc.start()
        try:
            search(patterns, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)


class TestEnumTablesMemory:
    @pytest.mark.parametrize("arrangements, limit_mib", ((True, 4.0), (False, 1.5)))
    def test_fresh_v12_build_peak_traced_allocation(self, arrangements, limit_mib):
        """A fresh V=12, G=4, S=3 build, after a small warm-up build. The
        tables themselves take 2.0 MiB (case12) and 0.29 MiB (case1)."""
        search_module._EnumTables(6, 2, 3, arrangements)
        tracemalloc.start()
        try:
            search_module._EnumTables(12, 4, 3, arrangements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * (1 << 20)


class TestEstimateFromCandidate:
    def test_truth_orbit_estimate_converges(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 123)
        patterns = draw_patterns(truth, 124, 5000)
        cfg = SearchConfig(v=6, g=2, s=3, mode="case12", scorer="dirichlet_marginal", top_k=1)
        top = search(patterns, cfg)[0]
        est = candidate_joint(patterns, top.candidate, seed=1)
        assert kl_divergence(true_joint(truth), est) < 0.02

    def test_single_repeated_sample_concentrates(self):
        cand = unrank_candidate(CFG6, 20)  # identity grouping, labels (a, b)
        assert cand.assignment == ("a", "b")
        est = candidate_joint([0b111000] * 20, cand, seed=0)
        # each type sees one outcome 20 times: per-group weight (20+1)/(20+8)
        assert est.weights[0b111000] == pytest.approx((21 / 28) ** 2, abs=1e-9)

    def test_case1_and_case12_agree_when_types_coincide(self):
        u = tuple(np.arange(1, 9) / 36.0)
        truth = build_bitvector_truth(
            BitsConfig(v=6, g=2, s=3, type_dists=(u, u), min_separation=0.0), 9
        )
        patterns = draw_patterns(truth, 10, 2000)
        g = truth.hidden_grouping
        joint = true_joint(truth)
        est1 = candidate_joint(patterns, Candidate(g, None), seed=3)
        est12 = candidate_joint(patterns, Candidate(g, ("a", "b")), seed=3)
        assert abs(kl_divergence(joint, est1) - kl_divergence(joint, est12)) < 1e-3


class TestScalingLaw:
    def test_cost_roughly_linear_in_samples(self):
        rng = np.random.default_rng(2)
        cand = unrank_candidate(CFG6, 13)

        def cost(patterns, reps=30):
            start = time.perf_counter()
            for _ in range(reps):
                score_candidate_paper(patterns, cand, CFG6)
            return (time.perf_counter() - start) / reps

        small = random_patterns(rng, 6, 2000)
        big = small * 2
        cost(small)  # warm up
        ratio = cost(big) / cost(small)
        assert ratio < 3.0


class TestResultSerialization:
    def test_jsonable_shape(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 1)
        patterns = draw_patterns(truth, 2, 50)
        results = search(patterns, SearchConfig(v=6, g=2, s=3, mode="case12", top_k=3))
        payload = search_result_jsonable(CFG6, 0xDEADBEEF, results)
        assert payload["data_digest"] == "0x00000000deadbeef"
        assert len(payload["top_k"]) == 3
        entry = payload["top_k"][0]
        flat = sorted(v for grp in entry["grouping"] for v in grp)
        assert flat == list(range(1, 7))
        assert set(entry) == {"rank", "log_score", "grouping", "assignment"}


class TestGoldenDigests:
    """sha256 of the top-k result file, pinned across scorer and unranker changes."""

    GOLDEN = {
        (8, "paper_plugin"): "618ef44c3ac9018cbfd9eb501c30bcb9d1165750aa6dc6ec6bba2816d0ad2729",
        (8, "dirichlet_marginal"): "bcc1ae4f472f1d3d9db756ea5e01c7458efef87756b940b2d6d1229084b88498",
        (9, "paper_plugin"): "67a2f130e7e9473d27e7f84b169473ea890bcbed4120d21f085c535f78f6928c",
        (9, "dirichlet_marginal"): "bced9299fe9801aa562c64048c96d206d784306194df8631407207da140492c3",
    }
    GOLDEN_CASE1 = {
        (9, "paper_plugin"): "280f77ecdcf72b1f03c77f91bde38d71cc162769e6ce1dacb89758acf4e1e632",
        (9, "dirichlet_marginal"): "89a0a642227f7b921c08ea68ba8e31baf5b40c6389b076dad0fb22b197c1e91d",
        (12, "paper_plugin"): "8310a1b020f528755530b109781f66c30dffa5cdc2146d067e0699fc01d76053",
        (12, "dirichlet_marginal"): "5bbe75a2c3e94c2931ca5fa730b2770a19a0a6c4e7c60c4b69d414cf0e7cfa75",
    }

    @pytest.mark.parametrize("v, scorer", sorted(GOLDEN_CASE1))
    def test_case1_result_bytes(self, tmp_path, v, scorer):
        truth = build_bitvector_truth(BitsConfig(v=v, g=v // 3, s=3), 70 + v)
        patterns = draw_patterns(truth, 71 + v, 300)
        cfg = SearchConfig(v=v, g=v // 3, s=3, num_types=1, mode="case1", scorer=scorer, top_k=10)
        path = tmp_path / "topk.json"
        write_json(path, search_result_jsonable(cfg, dataset_digest(patterns, v), search(patterns, cfg)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_CASE1[(v, scorer)]

    @pytest.mark.parametrize("v, scorer", sorted(GOLDEN))
    def test_case12_result_bytes(self, tmp_path, v, scorer):
        g, s = (4, 2) if v == 8 else (3, 3)
        truth = build_bitvector_truth(BitsConfig(v=v, g=g, s=s), 60 + v)
        patterns = draw_patterns(truth, 61 + v, 300)
        cfg = SearchConfig(v=v, g=g, s=s, mode="case12", scorer=scorer, top_k=10)
        path = tmp_path / "topk.json"
        write_json(path, search_result_jsonable(cfg, dataset_digest(patterns, v), search(patterns, cfg)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[(v, scorer)]


class TestOrbitMembership:
    def test_truth_is_in_its_own_orbit(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 55)
        joint = true_joint(truth)
        cand = Candidate(truth.hidden_grouping, truth.assignment)
        assert in_truth_orbit(cand, joint)

    def test_label_swap_and_reorder_stay_in_orbit(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 55)
        joint = true_joint(truth)
        base = Candidate(truth.hidden_grouping, truth.assignment)
        for member in orbit_members(base, 3):
            assert in_truth_orbit(member, joint)

    def test_wrong_partition_is_out(self):
        truth = build_bitvector_truth(
            BitsConfig(v=6, g=2, s=3, grouping=((0, 1, 2), (3, 4, 5))), 55
        )
        joint = true_joint(truth)
        wrong = Candidate(Grouping(((0, 1, 3), (2, 4, 5))), ("a", "b"))
        assert not in_truth_orbit(wrong, joint)

    def test_wrong_type_pairing_is_out(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 55)
        joint = true_joint(truth)
        pooled = Candidate(truth.hidden_grouping, ("a", "a"))
        assert not in_truth_orbit(pooled, joint)
