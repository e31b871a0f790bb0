import itertools
import math
import time

import numpy as np
import pytest

from latent_structure_lab.estimate import EstimatorConfig
from latent_structure_lab.prob import CapacityError, Grouping, group_outcomes, kl_divergence
from latent_structure_lab.rng import RngState, derive_seed
from latent_structure_lab.search import (
    SCORERS,
    Candidate,
    SearchConfig,
    candidate_count,
    candidate_rank,
    canonicalize_candidate,
    enumerate_candidates,
    estimate_from_candidate,
    in_truth_orbit,
    score_candidate_case1,
    score_candidate_marginal,
    score_candidate_paper,
    search,
    search_result_jsonable,
    unrank_candidate,
)
from latent_structure_lab.simulate import (
    BitsConfig,
    build_bitvector_truth,
    draw_bitvector,
    true_joint,
)

CFG6 = SearchConfig(v=6, g=2, s=3, num_types=2, mode="case12")
CFG6_C1 = SearchConfig(v=6, g=2, s=3, num_types=1, mode="case1")


def draw_patterns(truth, seed, n):
    rng = RngState(seed)
    out = []
    for _ in range(n):
        p, rng = draw_bitvector(truth, rng)
        out.append(p)
    return out


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
    @pytest.mark.parametrize(
        "cfg",
        [
            CFG6,
            CFG6_C1,
            SearchConfig(v=6, g=3, s=2, num_types=2, mode="case12"),
            SearchConfig(v=8, g=4, s=2, num_types=2, mode="case12"),
            SearchConfig(v=8, g=4, s=2, num_types=1, mode="case1"),
            SearchConfig(v=4, g=2, s=2, num_types=1, mode="case12"),
        ],
    )
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

    def test_worker_count_never_changes_output(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 5)
        patterns = draw_patterns(truth, 6, 200)
        runs = {}
        for workers in (1, 2, 8):
            cfg = SearchConfig(v=6, g=2, s=3, mode="case12", workers=workers, top_k=7)
            runs[workers] = [(s.rank, s.log_score) for s in search(patterns, cfg)]
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
        want = estimate_from_candidate(patterns, top, EstimatorConfig()).weights.tobytes()
        orders = list(itertools.permutations(range(3)))
        for sigmas in itertools.product(orders, repeat=3):
            groups = tuple(
                tuple(grp[i] for i in sigma) for grp, sigma in zip(top.grouping.slots, sigmas)
            )
            relabeled = Candidate(Grouping(groups), None)
            est = estimate_from_candidate(patterns, relabeled, EstimatorConfig())
            assert est.weights.tobytes() == want


class TestEstimateFromCandidate:
    def test_truth_orbit_estimate_converges(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 123)
        patterns = draw_patterns(truth, 124, 5000)
        cfg = SearchConfig(v=6, g=2, s=3, mode="case12", scorer="dirichlet_marginal", top_k=1)
        top = search(patterns, cfg)[0]
        est = estimate_from_candidate(patterns, top.candidate, EstimatorConfig(), seed=1)
        assert kl_divergence(true_joint(truth), est) < 0.02

    def test_single_repeated_sample_concentrates(self):
        cand = unrank_candidate(CFG6, 20)  # identity grouping, labels (a, b)
        assert cand.assignment == ("a", "b")
        est = estimate_from_candidate([0b111000] * 20, cand, EstimatorConfig(), seed=0)
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
        est1 = estimate_from_candidate(patterns, Candidate(g, None), EstimatorConfig(), seed=3)
        est12 = estimate_from_candidate(
            patterns, Candidate(g, ("a", "b")), EstimatorConfig(), seed=3
        )
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
