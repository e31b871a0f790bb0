import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from latent_structure_lab import estimate as estimate_module
from latent_structure_lab.estimate import (
    EstimatorConfig,
    assignment_responsibilities,
    bit_case_joint,
    em_two_type_many,
    fit_bit_case,
    independent_bits_estimate,
    mixture_rows,
)
from latent_structure_lab.prob import (
    CapacityError,
    Categorical,
    Grouping,
    TallyVector,
    dirichlet_mean_rows,
    group_outcomes,
    joint_from_independent_bits,
    kl_divergence,
    kl_divergence_rows,
)
from latent_structure_lab.rng import RngState, derive_seed, derive_seeds, next_unit
from latent_structure_lab.simulate import BitsConfig, build_bitvector_truth, draw_bitvector
import oracles
from oracles import (
    em_fit,
    em_objective_path,
    log_likelihood,
    oracle_bit_case_joint,
    oracle_dirichlet_mean,
    oracle_per_unit_mixture,
)

CFG = EstimatorConfig()


def brute_force_two_type(counts, pseudocount=1.0):
    """Oracle: best hard assignment by complete-data likelihood, then one M-step."""
    best = None
    for labels in itertools.product((0, 1), repeat=len(counts)):
        mask = np.array(labels) == 1
        pooled = [TallyVector(counts[~mask].sum(axis=0)), TallyVector(counts[mask].sum(axis=0))]
        qs = [oracle_dirichlet_mean(p, pseudocount) for p in pooled]
        ll = sum(
            math.log(0.5) + log_likelihood(TallyVector(row), qs[lab]) for lab, row in zip(labels, counts)
        )
        if best is None or ll > best[0]:
            best = (ll, labels, qs)
    return best


def _oracle_objective_and_resp(counts, q_a, q_b, pseudocount):
    log_qa = np.log(q_a.weights)
    log_qb = np.log(q_b.weights)
    ll = np.stack([counts @ log_qa, counts @ log_qb], axis=1)  # (N, 2)
    peak = ll.max(axis=1)
    shifted = np.exp(ll - peak[:, None])
    norm = shifted.sum(axis=1)
    obs = float(np.sum(peak + np.log(0.5 * norm)))
    objective = obs + pseudocount * float(log_qa.sum() + log_qb.sum())
    return objective, shifted / norm[:, None]


def _oracle_m_step(counts, resp, pseudocount):
    pooled_a = TallyVector(resp[:, 0] @ counts)
    pooled_b = TallyVector(resp[:, 1] @ counts)
    return oracle_dirichlet_mean(pooled_a, pseudocount), oracle_dirichlet_mean(pooled_b, pseudocount)


def _oracle_run(counts, q_a, q_b, cfg):
    trace = []
    prev = None
    resp = None
    objective = -math.inf
    for _ in range(cfg.em_max_iters):
        objective, resp = _oracle_objective_and_resp(counts, q_a, q_b, cfg.pseudocount)
        trace.append(objective)
        if prev is not None and abs(objective - prev) < cfg.em_tol:
            break
        prev = objective
        q_a, q_b = _oracle_m_step(counts, resp, cfg.pseudocount)
    else:
        # Ran out of iterations after an M-step; sync responsibilities.
        objective, resp = _oracle_objective_and_resp(counts, q_a, q_b, cfg.pseudocount)
        trace.append(objective)
    return q_a, q_b, resp, objective, len(trace), trace


def _oracle_perturbed(pooled, noise, rng):
    factors = []
    for _ in range(pooled.k):
        u, rng = next_unit(rng)
        factors.append(1.0 + noise * (2.0 * u - 1.0))
    return Categorical.normalized(pooled.weights * np.asarray(factors)), rng


def oracle_em_two_type(counts, cfg, seed, init_responsibilities=None):
    """Oracle: the object-based, one-restart-at-a-time two-type EM over the
    rows of an (N, K) count matrix.

    Returns (q_a, q_b, responsibilities, objective, iterations, trace) of
    the first restart with the strictly largest final objective, then the
    final objective and the iteration count of every restart.
    """
    pooled = oracle_dirichlet_mean(TallyVector(counts.sum(axis=0)), cfg.pseudocount)
    starts = []
    if init_responsibilities is not None:
        resp = np.asarray(init_responsibilities, dtype=np.float64)
        starts.append(_oracle_m_step(counts, resp, cfg.pseudocount))
    else:
        rng = RngState(seed)
        for _ in range(cfg.em_restarts):
            q_a, rng = _oracle_perturbed(pooled, cfg.em_init_noise, rng)
            q_b, rng = _oracle_perturbed(pooled, cfg.em_init_noise, rng)
            starts.append((q_a, q_b))
    best = None
    runs = []
    for q_a0, q_b0 in starts:
        run = _oracle_run(counts, q_a0, q_b0, cfg)
        runs.append(run)
        if best is None or run[3] > best[3]:
            best = run
    return (*best, [run[3] for run in runs], [run[4] for run in runs])


def em_one(counts, seed, cfg=CFG):
    """em_two_type_many on one (N, K) dataset: its (q_a, q_b, responsibilities)."""
    q, resp = em_two_type_many(np.asarray(counts, dtype=np.float64)[None], cfg, [seed])
    return q[0, 0], q[0, 1], resp[0]


def draw_patterns(truth, seed, n):
    rng = RngState(seed)
    out = []
    for _ in range(n):
        p, rng = draw_bitvector(truth, rng)
        out.append(p)
    return out


class TestRawTallyEstimate:
    """The raw estimate: each unit's own Dirichlet mean (prob.dirichlet_mean_rows)."""

    def test_all_zero_tallies(self):
        np.testing.assert_allclose(dirichlet_mean_rows(np.zeros((4, 8)), CFG.pseudocount), 0.125)

    def test_single_urn_formula(self):
        est = dirichlet_mean_rows(np.array([[10.0] + [0.0] * 7]), CFG.pseudocount)[0]
        np.testing.assert_allclose(est, [11 / 18] + [1 / 18] * 7)


class TestEmTwoType:
    """Two-type EM on one dataset, through em_two_type_many or the em_fit helper."""

    def test_recovers_hard_split(self):
        counts = np.array([[100.0, 0.0], [0.0, 100.0]])
        q_a, q_b, resp = em_one(counts, seed=13)
        oracle_ll, oracle_labels, oracle_qs = brute_force_two_type(counts)
        assert oracle_labels in ((0, 1), (1, 0))
        # hard split up to the a/b label swap
        split = max(resp[0, 0], resp[0, 1])
        assert split > 1 - 1e-6
        assert abs(resp[0, 0] - resp[1, 0]) > 1 - 1e-6
        for q in (q_a, q_b):
            assert q.max() >= 0.98
        # mixture estimates agree with the oracle's per-unit types
        mix = mixture_rows(resp, q_a, q_b)
        for i, unit_mix in enumerate(mix):
            want = oracle_qs[oracle_labels[i]].weights
            np.testing.assert_allclose(unit_mix, want, atol=1e-6)

    def test_identical_tallies_collapse_to_symmetric_point(self):
        # With every unit identical the symmetric fixed point attracts: both
        # types converge to the smoothed mean of half the pooled tallies.
        q_a, q_b, _ = em_one(np.tile([30.0, 10.0], (4, 1)), seed=3)
        assert np.abs(q_a - q_b).max() < 1e-6
        half = dirichlet_mean_rows(np.array([60.0, 20.0]), 1.0)
        assert np.abs(q_a - half).max() < 1e-6

    def test_single_unit_mixture_equals_pooled_mean(self):
        counts = np.array([[100.0, 0.0]])
        q_a, q_b, resp = em_one(counts, seed=2)
        mix = mixture_rows(resp, q_a, q_b)[0]
        pooled = dirichlet_mean_rows(counts[0], 1.0)
        assert np.abs(mix - pooled).max() < 1e-9

    def test_requires_data(self):
        for counts in (np.zeros((1, 0, 8)), np.zeros((1, 4, 0))):
            with pytest.raises(ValueError):
                em_two_type_many(counts, CFG, [1])

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 30, (4, 8)).astype(float)
        for a, b in zip(em_one(counts, seed=55), em_one(counts, seed=55)):
            np.testing.assert_array_equal(bits(a), bits(b))

    def test_trace_monotone_and_rows_normalized(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n_units = int(rng.integers(2, 6))
            k = int(rng.integers(2, 9))
            counts = rng.integers(0, 40, size=(n_units, k)).astype(float)
            path = em_objective_path(counts, CFG, rng.random((n_units, 2)), 8)
            assert np.all(np.diff(path) >= -1e-8)
            resp = em_one(counts, seed=int(rng.integers(1 << 30)))[2]
            np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 25, (4, 6)).astype(float)
        result = em_fit(counts, CFG, seed=1)
        obj, _ = _oracle_objective_and_resp(counts, result.q_a, result.q_b, CFG.pseudocount)
        swapped_obj, _ = _oracle_objective_and_resp(
            counts, result.q_b, result.q_a, CFG.pseudocount
        )
        assert abs(obj - swapped_obj) <= 1e-12

        q_a, q_b, resp = result.q_a.weights, result.q_b.weights, result.responsibilities
        mix = mixture_rows(resp, q_a, q_b)
        swapped = mixture_rows(resp[:, ::-1], q_b, q_a)
        assert np.abs(mix - swapped).max() <= 1e-12

    @pytest.mark.parametrize("restarts", (1, 3, 7))
    def test_restart_objectives_spread(self, restarts):
        rng = np.random.default_rng(restarts)
        counts = rng.integers(0, 30, (5, 8)).astype(float)
        result = em_fit(counts, EstimatorConfig(em_restarts=restarts), seed=9)
        assert len(result.restart_objectives) == restarts
        assert max(result.restart_objectives) == result.log_likelihood
        init = assignment_responsibilities("ababa")
        seeded = em_fit(counts, CFG, seed=9, init_responsibilities=init)
        assert seeded.restart_objectives == (seeded.log_likelihood,)

    @pytest.mark.parametrize("noise", (1.0, 1.5, -0.01, math.nan))
    def test_rejects_init_noise_outside_unit_interval(self, noise):
        with pytest.raises(ValueError, match="em_init_noise"):
            EstimatorConfig(em_init_noise=noise)

    def test_accepts_init_noise_in_unit_interval(self):
        for noise in (0.0, 0.5, 0.999):
            assert EstimatorConfig(em_init_noise=noise).em_init_noise == noise

    @pytest.mark.parametrize(
        "bad",
        (
            [[1.0, 0.0], [-0.5, 1.5]],
            [[1.0, 0.0], [math.nan, 1.0]],
            [[1.0, 0.0], [math.inf, 0.0]],
        ),
    )
    def test_rejects_bad_init_responsibilities_at_entry(self, bad):
        # The unit with the bad row has no counts, so no pooled tally goes
        # negative: the check must look at the rows themselves.
        counts = np.array([[[5.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            em_two_type_many(counts, CFG, init_responsibilities=np.array([bad]))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_matches_oracle(counts, cfg, seed, init=None):
    """The library EM (em_fit) equals the oracle bit for bit; returns per-restart iterations."""
    result = em_fit(counts, cfg, seed, init_responsibilities=init)
    q_a, q_b, resp, objective, iterations, _, finals, restart_iters = oracle_em_two_type(
        counts, cfg, seed, init
    )
    np.testing.assert_array_equal(bits(result.q_a.weights), bits(q_a.weights))
    np.testing.assert_array_equal(bits(result.q_b.weights), bits(q_b.weights))
    np.testing.assert_array_equal(bits(result.responsibilities), bits(resp))
    assert bits(result.log_likelihood) == bits(objective)
    assert result.iterations == iterations
    np.testing.assert_array_equal(bits(result.restart_objectives), bits(finals))
    assert result.restart_iterations == tuple(restart_iters)
    return restart_iters


class TestEmMatchesOracle:
    """The batched EM reproduces the one-restart-at-a-time EM bit for bit."""

    @pytest.mark.parametrize("n_units", (1, 2, 3, 4, 6, 9, 16))
    @pytest.mark.parametrize("k", (2, 8, 64))
    def test_grid(self, n_units, k):
        rng = np.random.default_rng(1000 * n_units + k)
        staggered = 0
        for max_iters in (1, 2, 3, 7, 500):
            for _ in range(3):
                scale = int(rng.choice((3, 30, 300)))
                counts = rng.integers(0, scale, size=(n_units, k)).astype(float)
                cfg = EstimatorConfig(
                    em_max_iters=max_iters, em_restarts=int(rng.integers(1, 8))
                )
                iters = assert_matches_oracle(counts, cfg, int(rng.integers(1 << 40)))
                staggered += len(set(iters)) > 1
                soft = rng.random((n_units, 2))
                assert_matches_oracle(counts, cfg, 0, init=soft)
                hard = assignment_responsibilities(rng.choice(("a", "b"), n_units))
                assert_matches_oracle(counts, cfg, 0, init=hard)
        if n_units > 1:
            assert staggered > 0

    def test_restarts_stop_at_different_iterations(self):
        rng = np.random.default_rng(77)
        counts = rng.integers(0, 40, size=(5, 8)).astype(float)
        iters = assert_matches_oracle(counts, EstimatorConfig(em_restarts=7), seed=3)
        assert len(set(iters)) > 1

    def test_single_iteration_adds_tail_e_step(self):
        rng = np.random.default_rng(78)
        counts = rng.integers(0, 40, size=(4, 8)).astype(float)
        iters = assert_matches_oracle(counts, EstimatorConfig(em_max_iters=1), seed=4)
        assert iters == [2] * 5

    def test_strided_init_responsibilities(self):
        rng = np.random.default_rng(79)
        counts = rng.integers(0, 40, size=(6, 8)).astype(float)
        init = np.asfortranarray(rng.random((6, 2)))
        assert_matches_oracle(counts, CFG, 0, init=init)
        assert_matches_oracle(counts, CFG, 0, init=rng.random((6, 4))[:, ::2])
        # The public entry point takes strided rows too.
        q, resp = em_two_type_many(counts[None], CFG, init_responsibilities=init[None])
        assert_winners_equal(q[0], resp[0], em_fit(counts, CFG, 0, init_responsibilities=init))


def assert_bits_equal_but_nan_sign(got, want):
    """Equal bits, except that a NaN may carry the other sign bit: np.maximum
    and .max return the NaN of 0 * -inf with opposite signs. Curves write
    either as nan, and a NaN objective ranks the same either way."""
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    np.testing.assert_array_equal(bits(np.where(nan, np.nan, got)), bits(np.where(nan, np.nan, want)))


class TestEmPassMatchesReductions:
    """The E-step's elementwise max and sum over the 2 types give the bits of .max/.sum."""

    @staticmethod
    def rows(n_units, k, seed):
        """(A, N, K) counts and (A, 2, K) types: random rows, rows with all-zero
        units, rows whose two types tie exactly on some or all units, and
        rows with a zero type weight (log -inf, and NaN where a count of 0
        meets it)."""
        rng = np.random.default_rng(seed)
        scales = (2, 3, 30, 300, 5000, 9, 40, 40, 40)
        counts = np.stack([rng.integers(0, scale, size=(n_units, k)) for scale in scales]).astype(float)
        counts[3, : (n_units + 1) // 2] = 0.0  # some units empty
        counts[4] = 0.0  # every unit empty
        q = rng.random((len(counts), 2, k)) ** 3 + 1e-300
        q /= q.sum(axis=2, keepdims=True)
        q[1, 1] = q[1, 0]  # equal types: every unit ties
        half = (k + 1) // 2
        q[5, 1] = np.concatenate([q[5, 0, :half], q[5, 0, half:][::-1]])  # equal on the first cells only
        counts[5, 0, half:] = 0.0  # so unit 0, counted there only, ties
        q[6:, :, 0] = (0.0, 0.5), (0.5, 0.0), (0.0, 0.0)  # NaN in type a; -inf in b; -inf in both
        counts[6, :, 0] = 0.0
        counts[7:, :, 0] = 1.0
        return counts, q

    @pytest.mark.parametrize("n_units", (1, 2, 3, 4, 7, 8, 9, 16))
    @pytest.mark.parametrize("k", (1, 2, 3, 7, 8, 9, 16, 64, 129))
    def test_e_step_equals_reductions_bitwise(self, n_units, k):
        counts, q = self.rows(n_units, k, 7919 * n_units + k)
        with np.errstate(all="ignore"):
            obj, resp = estimate_module._em_e_step(counts, q, 0.5)
            want_obj, want_resp = oracles.oracle_em_e_step(counts, q, 0.5)
            ll = np.einsum("ank,atk->ant", counts[:6], np.log(q[:6]))
        assert (ll[1, :, 0] == ll[1, :, 1]).all() and ll[5, 0, 0] == ll[5, 0, 1]
        assert np.isnan(obj[6]) and np.isnan(obj[8]) and np.isfinite(obj[:6]).all()
        assert_bits_equal_but_nan_sign(obj, want_obj)
        assert_bits_equal_but_nan_sign(resp, want_resp)


def assert_winners_equal(q, resp, want):
    """em_two_type_many's winner arrays for one dataset equal an EmFit bit for bit."""
    np.testing.assert_array_equal(bits(q[0]), bits(want.q_a.weights))
    np.testing.assert_array_equal(bits(q[1]), bits(want.q_b.weights))
    np.testing.assert_array_equal(bits(resp), bits(want.responsibilities))


class TestEmManyMatchesSingleCalls:
    """em_two_type_many's winners equal one single-dataset EM per dataset, across pool refills."""

    @pytest.mark.parametrize("max_iters", (1, 2, 500))
    @pytest.mark.parametrize("restarts", (1, 3, 5, 7))
    def test_datasets_crossing_batches(self, max_iters, restarts, small_em_pool):
        rng = np.random.default_rng(100 * max_iters + restarts)
        n_sets = 3 * small_em_pool + 2
        counts = rng.integers(0, 40, size=(n_sets, 4, 8)).astype(float)
        counts[::4] *= rng.random(8)  # fractional tallies too
        counts[1] = 0.0  # a dataset with no samples
        seeds = [int(x) for x in rng.integers(0, 1 << 62, size=n_sets)]
        cfg = EstimatorConfig(em_max_iters=max_iters, em_restarts=restarts)
        q, resp = em_two_type_many(counts, cfg, seeds)
        assert q.shape == (n_sets, 2, 8) and resp.shape == (n_sets, 4, 2)
        for c in range(n_sets):
            assert_winners_equal(q[c], resp[c], em_fit(counts[c], cfg, seeds[c]))

    @pytest.mark.parametrize("max_iters", (1, 2, 500))
    def test_init_responsibilities_crossing_batches(self, max_iters, small_em_pool):
        rng = np.random.default_rng(31 + max_iters)
        n_sets = 3 * small_em_pool + 2
        counts = rng.integers(0, 30, size=(n_sets, 4, 8)).astype(float)
        init = rng.random((n_sets, 4, 2))
        init[::3] = assignment_responsibilities(("a", "b", "b", "a"))
        cfg = EstimatorConfig(em_max_iters=max_iters)
        q, resp = em_two_type_many(counts, cfg, init_responsibilities=init)
        for c in range(n_sets):
            assert_winners_equal(q[c], resp[c], em_fit(counts[c], cfg, 0, init_responsibilities=init[c]))

    @pytest.mark.parametrize("init", (np.ones((2, 4, 3)), np.ones((1, 4, 2)), -np.ones((2, 4, 2))))
    def test_rejects_bad_init_responsibilities(self, init):
        with pytest.raises(ValueError, match="init_responsibilities"):
            em_two_type_many(np.ones((2, 4, 8)), CFG, init_responsibilities=init)

    def test_array_seeds_equal_seed_lists(self):
        # the uint64 seeds that derive_seeds gives start the restarts as the
        # list of scalar derive_seed values does, and as scalar draws do
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 30, size=(6, 4, 8)).astype(float)
        for base in (5, 2**64 - 3):
            seeds = derive_seeds(base, np.arange(1000, 1006))
            listed = [derive_seed(base, i) for i in range(1000, 1006)]
            starts = estimate_module._restart_starts(counts, CFG, seeds)
            np.testing.assert_array_equal(bits(starts), bits(estimate_module._restart_starts(counts, CFG, listed)))
            for c, seed in enumerate(listed):
                pooled = oracle_dirichlet_mean(TallyVector(counts[c].sum(axis=0)), CFG.pseudocount)
                state = RngState(seed)
                for r in range(CFG.em_restarts):
                    for t in range(2):
                        want, state = _oracle_perturbed(pooled, CFG.em_init_noise, state)
                        np.testing.assert_array_equal(bits(starts[c * CFG.em_restarts + r, t]), bits(want.weights))
            for got, want in zip(em_two_type_many(counts, CFG, seeds), em_two_type_many(counts, CFG, listed)):
                np.testing.assert_array_equal(bits(got), bits(want))

    def test_seed_lists_wrap_modulo_2_to_64(self):
        counts = np.random.default_rng(9).integers(0, 30, size=(2, 4, 8)).astype(float)
        wrapped = em_two_type_many(counts, CFG, np.array([2**64 - 1, 2**64 - 7], dtype=np.uint64))
        for got, want in zip(em_two_type_many(counts, CFG, [-1, -7]), wrapped):
            np.testing.assert_array_equal(bits(got), bits(want))

    def test_row_cap_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 60, size=(23, 5, 4)).astype(float)
        seeds = list(range(23))
        batched = em_two_type_many(counts, CFG, seeds)
        monkeypatch.setattr(estimate_module, "_EM_POOL_ROWS", 1)
        for got, want in zip(batched, em_two_type_many(counts, CFG, seeds)):
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("split", (False, True))
    @pytest.mark.parametrize("ahead", (False, True))
    def test_tied_restarts_keep_the_first(self, monkeypatch, request, split, ahead):
        # Restart 2 starts from restart 0 with its types swapped. The EM is
        # symmetric in the types, so their objectives are bit-equal, and
        # np.argmax in em_fit picks restart 0 where they are largest. With
        # `ahead`, restart 2 starts from restart 0's first M-step instead,
        # so it reaches the same objective one step before restart 0 does.
        real_starts = estimate_module._restart_starts

        def swapped_starts(counts, cfg, seeds):
            starts = real_starts(counts, cfg, seeds).reshape(len(seeds), cfg.em_restarts, 2, -1)
            first = starts[:, 0]
            if ahead:
                one_step = replace(cfg, em_max_iters=1)
                first = estimate_module._em_pool(counts, 1, lambda lo, hi: first[lo:hi], one_step)[0]
            starts[:, 2] = first[:, ::-1]
            return starts.reshape(-1, 2, counts.shape[2])

        monkeypatch.setattr(estimate_module, "_restart_starts", swapped_starts)
        monkeypatch.setattr(oracles, "_restart_starts", swapped_starts)
        if split:  # a dataset's restarts 0 and 2 enter in different refills
            request.getfixturevalue("small_em_pool")
        rng = np.random.default_rng(12)
        counts = rng.integers(0, 40, size=(30, 4, 8)).astype(float)
        seeds = list(range(30))
        q, resp = em_two_type_many(counts, CFG, seeds)
        ties = 0
        for c in range(len(counts)):
            fit = em_fit(counts[c], CFG, seeds[c])
            objectives = np.array(fit.restart_objectives)
            assert bits(objectives[0]) == bits(objectives[2])
            if objectives[0] == objectives.max():
                ties += 1
                assert fit.restart_iterations[2] == fit.restart_iterations[0] - ahead
            assert_winners_equal(q[c], resp[c], fit)
        assert ties >= 5

    def test_nan_objectives_keep_the_first_restart(self):
        # Finite counts whose pooled sums overflow give NaN objectives; like
        # np.argmax, the winner is then the first restart with a NaN.
        counts = np.array([[[1e308, 1e308], [1.0, 0.0]], [[3.0, 1.0], [0.0, 2.0]]])
        with np.errstate(all="ignore"):
            q, resp = em_two_type_many(counts, CFG, [3, 4])
            for c in range(len(counts)):
                starts = estimate_module._restart_starts(counts[c : c + 1], CFG, [3 + c])
                rows = np.repeat(counts[c : c + 1], len(starts), axis=0)
                q_rows, resp_rows, objectives, _ = estimate_module._em_pool(
                    rows, 1, lambda lo, hi: starts[lo:hi], CFG
                )
                best = int(np.argmax(objectives))
                assert np.isnan(objectives).all() == (c == 0)
                np.testing.assert_array_equal(bits(q[c]), bits(q_rows[best]))
                np.testing.assert_array_equal(bits(resp[c]), bits(resp_rows[best]))

    def test_no_datasets(self):
        q, resp = em_two_type_many(np.zeros((0, 4, 8)), CFG, [])
        assert q.shape == (0, 2, 8) and resp.shape == (0, 4, 2)

    @pytest.mark.parametrize(
        "counts, seeds",
        (
            (np.ones((2, 4)), [0, 1]),
            (np.ones((2, 0, 8)), [0, 1]),
            (np.ones((2, 4, 8)), [0]),
            (-np.ones((1, 4, 8)), [0]),
            (np.full((1, 4, 8), np.nan), [0]),
        ),
    )
    def test_rejects_bad_input_at_call(self, counts, seeds):
        with pytest.raises(ValueError):
            em_two_type_many(counts, CFG, seeds)

class TestPerUnitMixture:
    """mixture_rows reads per-unit estimates out of an EM winner."""

    def _result(self):
        return em_fit(np.array([[50.0, 0.0], [0.0, 50.0]]), CFG, seed=4)

    def test_pure_responsibility_returns_type(self):
        result = self._result()
        mix = mixture_rows(result.responsibilities, result.q_a.weights, result.q_b.weights)
        lead = result.q_a if result.responsibilities[0, 0] > 0.5 else result.q_b
        np.testing.assert_allclose(mix[0], lead.weights, atol=1e-12)

    def test_even_responsibility_averages(self):
        result = self._result()
        mix = mixture_rows(np.array([[0.5, 0.5]]), result.q_a.weights, result.q_b.weights)[0]
        np.testing.assert_allclose(
            mix, 0.5 * (result.q_a.weights + result.q_b.weights), atol=1e-15
        )

    def test_hard_readout(self):
        result = self._result()
        hard = mixture_rows(result.responsibilities, result.q_a.weights, result.q_b.weights, hard=True)
        assert all(
            np.array_equal(h, (result.q_a if r[0] >= r[1] else result.q_b).weights)
            for h, r in zip(hard, result.responsibilities)
        )

    @pytest.mark.parametrize("hard", [False, True])
    def test_rows_match_oracle_bits(self, hard):
        rng = np.random.default_rng(21)
        results = []
        for seed in range(5):
            counts = rng.integers(0, 30, size=(4, 8)).astype(np.float64)
            results.append(em_fit(counts, CFG, seed))
        resp = np.stack([r.responsibilities for r in results])
        q_a = np.stack([r.q_a.weights for r in results])
        q_b = np.stack([r.q_b.weights for r in results])
        got = mixture_rows(resp, q_a, q_b, hard)
        for c, result in enumerate(results):
            want = np.stack([q.weights for q in oracle_per_unit_mixture(result, hard)])
            assert got[c].view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_hard_ties_go_to_type_a(self):
        q_a, q_b = np.full(2, 0.5), np.array([0.25, 0.75])
        got = mixture_rows(np.array([[0.5, 0.5], [0.25, 0.75]]), q_a, q_b, hard=True)
        assert got.tolist() == [q_a.tolist(), q_b.tolist()]


class TestIndependentBits:
    def test_prior_mean(self):
        assert independent_bits_estimate([], 1, CFG).tolist() == [0.5]

    def test_formula(self):
        # Variable 0 is the most significant bit: 3 of 4 patterns set it, 1 sets variable 1.
        assert independent_bits_estimate([0b10, 0b11, 0b10, 0b00], 2, CFG).tolist() == [4 / 6, 2 / 6]
        assert independent_bits_estimate([1] * 999 + [0], 1, CFG)[0] == pytest.approx(1000 / 1002)


class TestBitCaseJoint:
    """bit_case_joint fits each ladder case as its one-checkpoint oracle does, bit for bit."""

    GROUPING = Grouping(((0, 3, 4), (5, 1, 2)))

    def _patterns(self):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 17)
        return draw_patterns(truth, 4, 90)

    def test_cases_match_their_estimators(self):
        patterns, g = self._patterns(), self.GROUPING
        c0 = joint_from_independent_bits(independent_bits_estimate(patterns, 6, CFG))
        assert bits(bit_case_joint("c0", patterns, 6, CFG).weights).tolist() == bits(c0.weights).tolist()
        for case in ("c0", "c0p", "c13", "c1", "c123", "c12"):
            assignment = ("b", "a") if case == "c12" else None
            got = bit_case_joint(case, patterns, 6, CFG, g, assignment, seed=5)
            want = oracle_bit_case_joint(case, patterns, 6, CFG, g, assignment, seed=5)
            assert bits(got.weights).tolist() == bits(want.weights).tolist(), case

    @pytest.mark.parametrize(
        "case, grouping, assignment",
        (
            ("c2", None, None),
            ("c13", None, None),
            ("c12", GROUPING, None),
            ("c123", GROUPING, ("a", "b")),
        ),
        ids=("unknown_case", "no_grouping", "c12_without_assignment", "assignment_off_c12"),
    )
    def test_rejects_missing_or_extra_structure(self, case, grouping, assignment):
        with pytest.raises(ValueError, match=case):
            bit_case_joint(case, [0, 63], 6, CFG, grouping, assignment)


class TestBitPatternValidation:
    """Patterns outside [0, 2**V) and groupings of another width are refused by name."""

    GROUPING = Grouping(((0, 1, 2), (3, 4, 5)))

    def test_c0p_rejects_pattern_too_wide(self):
        with pytest.raises(ValueError, match=r"bit pattern 7 outside \[0, 2\*\*2\)"):
            bit_case_joint("c0p", [0, 7, 3], 2, CFG)

    def test_c0_rejects_high_bits(self):
        with pytest.raises(ValueError, match="bit pattern 64 outside"):
            bit_case_joint("c0", [1, 64], 6, CFG)

    def test_c13_rejects_negative_pattern(self):
        with pytest.raises(ValueError, match="bit pattern -1 outside"):
            bit_case_joint("c13", [3, -1], 6, CFG, self.GROUPING)

    def test_rejects_grouping_of_other_width(self):
        with pytest.raises(ValueError, match="grouping covers 6 variables, not v=9"):
            bit_case_joint("c123", [0, 511], 9, CFG, self.GROUPING)

    def test_batched_form_checks_every_pattern_and_grouping(self):
        groupings = [self.GROUPING, Grouping.identity(9, 3)]
        with pytest.raises(ValueError, match="bit pattern 99 outside"):
            fit_bit_case("c1", [0, 1, 99], [2, 3], 6, CFG, groupings[:1] * 2)
        with pytest.raises(ValueError, match="grouping covers 9 variables, not v=6"):
            fit_bit_case("c1", [0, 1, 2], [2, 3], 6, CFG, groupings)
        with pytest.raises(ValueError, match="one grouping per checkpoint, got 1 for 2"):
            fit_bit_case("c1", [0, 1, 2], [2, 3], 6, CFG, groupings[:1])


class TestFitBitCase:
    """Each checkpoint's row of the batched fit is the one-checkpoint fit of its prefix."""

    GROUPINGS = (Grouping(((0, 3, 4), (5, 1, 2))), Grouping(((2, 1, 0), (3, 4, 5))))

    @pytest.mark.parametrize("case", ("c0", "c0p", "c13", "c123", "c1", "c12"))
    def test_rows_equal_one_checkpoint_fits(self, case):
        truth = build_bitvector_truth(BitsConfig(v=6, g=2, s=3), 3)
        patterns = draw_patterns(truth, 9, 40)
        checkpoints = [0, 1, 5, 6, 7, 8, 9, 20, 40]
        groupings = [self.GROUPINGS[c >= 4] for c in range(len(checkpoints))]
        assignments = [("a", "b") if c % 2 else ("b", "b") for c in range(len(checkpoints))]
        seeds = list(range(100, 100 + len(checkpoints)))
        fit = fit_bit_case(
            case, patterns, checkpoints, 6, CFG, groupings, assignments if case == "c12" else None, seeds
        )
        chunks = fit.chunks(3)
        assert [lo for lo, _ in chunks] == ([0, 3, 6] if case in ("c0", "c0p") else [0, 3, 4, 7])
        rows = np.concatenate([fit.joints(lo, hi) for lo, hi in chunks])
        for c, n in enumerate(checkpoints):
            assignment = assignments[c] if case == "c12" else None
            want = bit_case_joint(case, patterns[:n], 6, CFG, groupings[c], assignment, seeds[c])
            np.testing.assert_array_equal(bits(rows[c]), bits(want.weights))

    def test_no_checkpoints(self):
        fit = fit_bit_case("c123", [1, 2], [], 6, CFG, [], None, [])
        assert fit.chunks(4) == []

    @pytest.mark.parametrize("checkpoints", ([2, 2], [3, 1], [-1], [4]))
    def test_rejects_bad_checkpoints(self, checkpoints):
        with pytest.raises(ValueError, match="checkpoints"):
            fit_bit_case("c0", [1, 2, 3], checkpoints, 6, CFG)


class TestJointDirichlet:
    """Case c0p: one Dirichlet-smoothed bin per pattern."""

    def test_delegates_to_dirichlet_mean(self):
        patterns = [0, 0, 0, 1]
        np.testing.assert_array_equal(
            bit_case_joint("c0p", patterns, 2, CFG).weights,
            dirichlet_mean_rows(np.array([3.0, 1.0, 0.0, 0.0]), 1.0),
        )

    @pytest.mark.parametrize("v", (0, 21))
    def test_rejects_joint_outside_capacity(self, v):
        with pytest.raises(CapacityError, match="ladder joints need 1 <= v <= 20"):
            fit_bit_case("c0p", [0], [1], v, CFG)


class TestGroupedKnownEstimate:
    """The known-grouping cases: c13 smooths each group alone, c123 pools groups by type."""

    def test_repeated_pattern_concentrates(self):
        g = Grouping(((0, 1, 2), (3, 4, 5)))
        dists = fit_bit_case("c13", [0b110001] * 50, [50], 6, CFG, [g]).factors[0]
        # each group saw one outcome 50 times: weight (n+1)/(n+8) at S=3
        assert dists[0, 0b110] == pytest.approx(51 / 58)
        assert dists[1, 0b001] == pytest.approx(51 / 58)

    def test_true_grouping_close_to_truth(self):
        truth = build_bitvector_truth(BitsConfig(), 1001)
        patterns = draw_patterns(truth, 7, 5000)
        dists = fit_bit_case("c13", patterns, [5000], 12, CFG, [truth.hidden_grouping]).factors[0]
        total = sum(
            float(kl_divergence_rows(truth.group_dist(j), dists[j])) for j in range(4)
        )
        assert total < 0.02

    def test_share_types_pairs_groups(self):
        truth = build_bitvector_truth(BitsConfig(), 321)  # assignment (a, b, a, b)
        outcomes = group_outcomes(draw_patterns(truth, 8, 500), truth.hidden_grouping)
        counts = np.stack([np.bincount(outcomes[:, j], minlength=8) for j in range(4)])
        resp = em_one(counts, seed=5)[2]
        lead = resp.argmax(axis=1)
        assert lead[0] == lead[2] and lead[1] == lead[3] and lead[0] != lead[1]
        assert resp.max(axis=1).min() >= 0.99

    def test_init_assignment_responsibilities(self):
        resp = assignment_responsibilities(("a", "b", "a"))
        np.testing.assert_array_equal(resp, [[1, 0], [0, 1], [1, 0]])


class TestConsistency:
    def test_more_samples_help_every_sharing_estimator(self):
        # mean KL at 1000 samples must beat mean KL at 100, averaged over seeds
        deltas = {c: [0.0, 0.0] for c in ("c0p", "c13", "c123", "c1", "c12")}
        cfg = BitsConfig(v=6, g=2, s=3)
        from latent_structure_lab.search import SearchConfig, search
        from latent_structure_lab.simulate import true_joint

        cfg_c1 = SearchConfig(v=6, g=2, s=3, num_types=1, mode="case1", top_k=1)
        cfg_c12 = SearchConfig(
            v=6, g=2, s=3, num_types=2, mode="case12", scorer="dirichlet_marginal", top_k=1
        )
        for seed in range(100):
            truth = build_bitvector_truth(cfg, derive_seed(31337, seed))
            joint = true_joint(truth)
            patterns = draw_patterns(truth, seed, 1000)
            for idx, n in enumerate((100, 1000)):
                head = patterns[:n]
                for case in ("c0p", "c13", "c123"):
                    est = bit_case_joint(case, head, 6, CFG, truth.hidden_grouping, seed=seed)
                    deltas[case][idx] += kl_divergence(joint, est)
                for case, scfg in (("c1", cfg_c1), ("c12", cfg_c12)):
                    best = search(head, scfg)[0].candidate
                    est = bit_case_joint(case, head, 6, CFG, best.grouping, best.assignment, seed=seed)
                    deltas[case][idx] += kl_divergence(joint, est)
        for case, (at_100, at_1000) in deltas.items():
            assert at_1000 < at_100, case

    def test_more_samples_help_urn_estimators(self):
        from latent_structure_lab.experiment import ExperimentSpec, run_four_urns

        spec = ExperimentSpec(
            kind="four_urns", n_samples=1000, n_runs=100, base_seed=606, checkpoints=(100, 1000)
        )
        res = run_four_urns(spec)
        assert res.avg_raw.values[1] < res.avg_raw.values[0]
        assert res.avg_ours.values[1] < res.avg_ours.values[0]
