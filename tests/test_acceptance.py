"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5 and 6 share one set of structure-recovery runs through a module
fixture. The full-scale throughput benchmark and lock-in bound
are opt-in (LSL_RUN_EXPENSIVE=1, see test_fullscale.py): a single full
case12 sweep is a workstation-scale job, not a test-suite one.
"""

import contextlib
import itertools
import math
import statistics

import numpy as np
import pytest

from latent_structure_lab.estimate import EstimatorConfig
from latent_structure_lab.experiment import (
    ExperimentSpec,
    SearchSettings,
    independent_bits_floor,
    run_bitvectors,
    run_four_urns,
)
from latent_structure_lab.pipeline import run_experiment
from latent_structure_lab.prob import (
    Categorical,
    Grouping,
    joint_from_grouping,
    kl_divergence,
)
from latent_structure_lab.rng import RngState, derive_seed
from latent_structure_lab.search import (
    Candidate,
    SearchConfig,
    candidate_count,
    in_truth_orbit,
    search,
    unrank_candidate,
)
from latent_structure_lab.simulate import (
    BitsConfig,
    build_bitvector_truth,
    draw_bitvector,
    true_joint,
)
from oracles import (
    canonicalize_candidate,
    em_objective_path,
    enumerate_candidates,
    score_candidate_case1,
    score_candidate_paper,
)

RECOVERY_SEEDS = 50
RECOVERY_CHECKPOINTS = tuple(range(100, 501, 50))
RECOVERY_TRUTH = BitsConfig(v=6, g=2, s=3, min_separation=0.6)
# The verbatim plug-in score is superadditive under type pooling (n*ln(1+n)
# in a shared denominator), so it never strictly prefers a two-type split;
# structure recovery runs under the provided marginal-likelihood scorer flag.
RECOVERY_SCORER = "dirichlet_marginal"


@contextlib.contextmanager
def _criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise


def _report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


def draw_patterns(truth, seed, n):
    rng = RngState(seed)
    out = []
    for _ in range(n):
        p, rng = draw_bitvector(truth, rng)
        out.append(p)
    return out


def test_criterion_1_candidate_space_size():
    with _criterion(1, "candidate-space size"):
        full = SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12")
        assert candidate_count(full) == 106_444_800

        reduced = SearchConfig(v=6, g=2, s=3, num_types=2, mode="case12")
        enumerated = {(c.grouping.slots, c.assignment) for c in enumerate_candidates(reduced)}
        assert len(enumerated) == 40

        # brute-force oracle: canonicalize every raw (perm, assignment) pair
        # and deduplicate the images
        images = set()
        for perm in itertools.permutations(range(6)):
            grouping = Grouping((perm[0:3], perm[3:6]))
            for bits in range(4):
                labels = tuple("ab"[(bits >> (1 - j)) & 1] for j in range(2))
                c = canonicalize_candidate(reduced, Candidate(grouping, labels))
                images.add((c.grouping.slots, c.assignment))
        assert images == enumerated
    _report(1, "count(V=12)=106,444,800; V=6 enumeration == 40-orbit dedup oracle")


def test_criterion_2_plugin_score_hand_example():
    with _criterion(2, "Eq-2 verbatim hand check"):
        pattern = int("110110001010", 2)  # group outcomes (6, 6, 1, 2)
        cfg = SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12")
        cand = Candidate(
            Grouping(((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))), ("a", "a", "b", "b")
        )
        got = score_candidate_paper([pattern], cand, cfg)
        want = math.log((3 / 12) ** 2 * (2 / 12) ** 2)
        assert abs(got - want) < 1e-12
    _report(2, f"|D|=1 plug-in score matches ln[(3/12)^2 (2/12)^2] ({got:.12f})")


def test_criterion_3_four_urns_transfer():
    with _criterion(3, "four-urns transfer orderings"):
        spec = ExperimentSpec(
            kind="four_urns",
            n_samples=1000,
            n_runs=200,
            base_seed=20260808,
            checkpoints=(1000,),
        )
        res = run_four_urns(spec)
        raw_total = res.avg_raw.values[0]
        ours_total = res.avg_ours.values[0]
        raw_u1 = res.avg_raw.per_unit[0].values[0]
        ours_u1 = res.avg_ours.per_unit[0].values[0]
        raw_u3 = res.avg_raw.per_unit[2].values[0]
        ours_u3 = res.avg_ours.per_unit[2].values[0]
        assert ours_total < raw_total
        assert ours_u1 < 0.5 * raw_u1
        assert ours_u3 <= 1.02 * raw_u3
    _report(
        3,
        f"200 runs @1000: total {ours_total:.4f}<{raw_total:.4f}; "
        f"urn1 {ours_u1:.4f}<0.5*{raw_u1:.4f}; urn3 {ours_u3:.4f}<=1.02*{raw_u3:.4f}",
    )


def test_criterion_4_case0_expressiveness_floor():
    with _criterion(4, "Case-0 expressiveness floor"):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=5000,
            n_runs=1,
            base_seed=11,
            cases=("c0", "c13"),
            checkpoints=(5000,),
            bits_config=BitsConfig(v=12, g=4, s=3),
        )
        res = run_bitvectors(spec)
        truth = res.runs[0].truth
        floor = independent_bits_floor(truth)
        assert floor > 0.1  # the drawn truth has intra-group dependence
        c0 = res.runs[0].curves["c0"].values[0]
        c13 = res.runs[0].curves["c13"].values[0]
        assert abs(c0 - floor) < 0.05
        assert floor > c13
    _report(
        4, f"|c0@5000 - floor| = {abs(c0 - floor):.4f} < 0.05; floor {floor:.3f} > c13 {c13:.4f}"
    )


@pytest.fixture(scope="module")
def recovery_runs():
    runs = []
    for s in range(RECOVERY_SEEDS):
        inner_base = derive_seed(20260805, s)
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=500,
            n_runs=1,
            base_seed=inner_base,
            cases=("c123", "c12"),
            checkpoints=RECOVERY_CHECKPOINTS,
            bits_config=RECOVERY_TRUTH,
            search=SearchSettings(scorer=RECOVERY_SCORER),
        )
        run = run_bitvectors(spec).runs[0]
        joint = true_joint(run.truth)
        run_seed = derive_seed(inner_base, 0)
        patterns = draw_patterns(run.truth, derive_seed(run_seed, 2), 500)
        cfg = SearchConfig(
            v=6, g=2, s=3, num_types=2, mode="case12", scorer=RECOVERY_SCORER, top_k=1
        )
        orbit = {
            n: in_truth_orbit(search(patterns[:n], cfg)[0].candidate, joint)
            for n in RECOVERY_CHECKPOINTS
        }
        lock = None
        for i, n in enumerate(RECOVERY_CHECKPOINTS):
            if all(orbit[m] for m in RECOVERY_CHECKPOINTS[i:]):
                lock = n
                break
        runs.append((lock, dict(run.curves["c12"].points), dict(run.curves["c123"].points)))
    return runs


def test_criterion_5_structure_recovery(recovery_runs):
    with _criterion(5, "structure recovery and c12/c123 agreement"):
        locked = [lock for lock, _, _ in recovery_runs if lock is not None]
        assert len(locked) >= 0.9 * RECOVERY_SEEDS
        worst = 0.0
        for lock, k12, k123 in recovery_runs:
            if lock is None:
                continue
            for n in RECOVERY_CHECKPOINTS:
                if n >= lock:
                    worst = max(worst, abs(k12[n] - k123[n]))
        assert worst < 1e-9
    _report(
        5,
        f"{len(locked)}/{RECOVERY_SEEDS} seeds locked by 500 samples "
        f"(scorer={RECOVERY_SCORER}); max post-lock |KL12-KL123| = {worst:.2e} < 1e-9",
    )


def test_criterion_6_lock_in_sample_count(recovery_runs):
    with _criterion(6, "lock-in sample count"):
        locked = [lock for lock, _, _ in recovery_runs if lock is not None]
        assert len(locked) >= 0.9 * RECOVERY_SEEDS
        median = statistics.median(locked)
        assert median <= 300
    _report(6, f"median truth-orbit lock-in = {median:.0f} samples <= 300 over 50 seeds")


def test_criterion_7_determinism(tmp_path):
    with _criterion(7, "byte-identical outputs"):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=120,
            n_runs=2,
            base_seed=31,
            cases=("c0", "c13", "c1"),
            checkpoints=(60, 120),
            bits_config=BitsConfig(v=6, g=2, s=3),
        )
        outputs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            run_experiment(spec, out)
            outputs.append(
                tuple((out / name).read_bytes() for name in ("curves.csv", "fig_cases.svg"))
            )
        assert outputs[0] == outputs[1]

        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 7)
        patterns = draw_patterns(truth, 8, 300)
        per_worker = []
        for workers in (1, 8):
            cfg = SearchConfig(v=6, g=2, s=3, mode="case12", workers=workers, top_k=10)
            per_worker.append([(r.rank, r.log_score) for r in search(patterns, cfg)])
        assert per_worker[0] == per_worker[1]

        streams = [draw_patterns(truth, 99, 500) for _ in range(2)]
        assert streams[0] == streams[1]
    _report(7, "experiment outputs, search top-k (workers 1 vs 8), and sampling are identical")


def test_criterion_8_numerical_invariants():
    with _criterion(8, "numerical invariant suite"):
        rng = np.random.default_rng(20260807)

        # KL nonnegativity and identity of indiscernibles
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            p = Categorical.normalized(rng.exponential(size=k))
            q = Categorical.normalized(rng.exponential(size=k))
            assert kl_divergence(p, q) >= -1e-12
            assert kl_divergence(p, p) == 0.0

        # EM objective trace monotonicity
        cfg = EstimatorConfig()
        for _ in range(100):
            n_units = int(rng.integers(2, 6))
            k = int(rng.integers(2, 9))
            counts = rng.integers(0, 40, size=(n_units, k)).astype(float)
            path = em_objective_path(counts, cfg, rng.random((n_units, 2)), 8)
            assert np.all(np.diff(path) >= -1e-8)

        # grouped-KL decomposition identity
        for _ in range(100):
            grouping = Grouping(tuple(map(tuple, rng.permutation(12).reshape(4, 3))))
            truths = [Categorical.normalized(rng.exponential(size=8)) for _ in range(4)]
            models = [Categorical.normalized(rng.exponential(size=8)) for _ in range(4)]
            whole = kl_divergence(
                joint_from_grouping(grouping, truths), joint_from_grouping(grouping, models)
            )
            parts = sum(kl_divergence(t, m) for t, m in zip(truths, models))
            assert abs(whole - parts) < 1e-9

        # fast tally-based scorers vs the naive per-sample reimplementation
        from latent_structure_lab.prob import group_outcomes

        cfg6 = SearchConfig(v=6, g=2, s=3, num_types=2, mode="case12")
        cfg6_c1 = SearchConfig(v=6, g=2, s=3, num_types=1, mode="case1")
        for trial in range(20):
            patterns = [int(x) for x in rng.integers(0, 64, size=40)]
            cand = unrank_candidate(cfg6, int(rng.integers(40)))
            outs = group_outcomes(np.asarray(patterns), cand.grouping)
            n, g = outs.shape
            naive = 0.0
            for i in range(n):
                for j in range(g):
                    matches = 0
                    for kk in range(n):
                        for ll in range(g):
                            if (
                                cand.assignment[ll] == cand.assignment[j]
                                and outs[kk, ll] == outs[i, j]
                            ):
                                matches += 1
                    naive += math.log((1 + matches) / (8 + g * n))
            assert abs(score_candidate_paper(patterns, cand, cfg6) - naive) < 1e-9

            naive1 = 0.0
            for i in range(n):
                for j in range(g):
                    matches = int((outs[:, j] == outs[i, j]).sum())
                    naive1 += math.log((1 + matches) / (8 + n))
            assert abs(score_candidate_case1(patterns, cand.grouping, cfg6_c1) - naive1) < 1e-9
    _report(8, "KL, EM-trace, decomposition, and scorer fast/slow invariants hold")
