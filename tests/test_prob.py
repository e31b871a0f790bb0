import math

import numpy as np
import pytest

from latent_structure_lab.prob import (
    CapacityError,
    Categorical,
    Grouping,
    TallyVector,
    group_outcomes,
    joint_from_grouping,
    joint_from_grouping_rows,
    joint_from_independent_bits,
    joint_from_independent_bits_rows,
    dirichlet_mean_rows,
    kl_divergence,
    kl_divergence_rows,
    total_variation,
)
from oracles import (
    log_likelihood,
    oracle_dirichlet_mean,
    oracle_joint_from_grouping,
    oracle_kl_divergence,
)


def random_categorical(rng, k):
    return Categorical.normalized(rng.exponential(size=k))


class TestCategorical:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Categorical(np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Categorical(np.array([0.5, 0.4]))

    def test_uniform(self):
        u = Categorical.uniform(8)
        assert u.k == 8
        np.testing.assert_allclose(u.weights, 0.125)

    def test_weights_are_read_only(self):
        c = Categorical.uniform(4)
        with pytest.raises(ValueError):
            c.weights[0] = 0.9


class TestGrouping:
    def test_rejects_partial_cover(self):
        with pytest.raises(ValueError):
            Grouping(((0, 1), (1, 2)))

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError):
            Grouping(((0, 1, 2), (3,)))

    def test_dims(self):
        g = Grouping(((4, 0, 10), (1, 7, 11), (3, 6, 2), (9, 5, 8)))
        assert (g.v, g.g, g.s) == (12, 4, 3)


class TestKlDivergence:
    def test_identity_case(self):
        p = Categorical(np.array([0.25, 0.25, 0.25, 0.25]))
        assert kl_divergence(p, p) == 0.0

    def test_single_nonzero_term(self):
        p = Categorical(np.array([1.0, 0.0]))
        q = Categorical(np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-15)

    def test_direct_evaluation(self):
        # frozen from a direct evaluation of the definition sum
        p = Categorical(np.array([0.75, 0.25]))
        q = Categorical(np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(0.13081203594113697, abs=1e-12)

    def test_unsupported_mass_is_infinite(self):
        p = Categorical(np.array([0.5, 0.5]))
        q = Categorical(np.array([1.0, 0.0]))
        assert kl_divergence(p, q) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(Categorical.uniform(2), Categorical.uniform(3))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            p = random_categorical(rng, k)
            q = random_categorical(rng, k)
            assert kl_divergence(p, q) >= -1e-12
            assert kl_divergence(p, p) == 0.0


def random_rows(rng, n, k):
    rows = rng.exponential(size=(n, k))
    return rows / rows.sum(axis=1, keepdims=True)


class TestKlDivergenceRows:
    """The array KL against the scalar oracle, bit for bit."""

    @pytest.mark.parametrize("k", [8, 4096])
    def test_matches_oracle_bits(self, k):
        rng = np.random.default_rng(k)
        sparse = rng.exponential(size=k)
        sparse[rng.random(k) < 0.25] = 0.0
        q = random_rows(rng, 40, k)
        q[3, rng.integers(k)] = 0.0
        q[3] /= q[3].sum()
        # Strided layouts too: the (checkpoints, urns, colors) readout passes views.
        layouts = (q, np.asfortranarray(q), np.stack([q, q[::-1]], axis=1)[:, 0])
        for p in (Categorical(random_rows(rng, 1, k)[0]), Categorical.normalized(sparse)):
            want = np.array([oracle_kl_divergence(p, Categorical(row)) for row in q])
            for rows in layouts:
                got = kl_divergence_rows(p, rows)
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
            one = [kl_divergence(p, Categorical(row)) for row in q]
            assert np.array(one).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(5)
        p = Categorical(random_rows(rng, 1, 8)[0])
        q = random_rows(rng, 12, 8)
        got = kl_divergence_rows(p, q.reshape(3, 4, 8))
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == kl_divergence_rows(p, q).tolist()

    def test_equal_rows_give_exact_zero(self):
        p = Categorical(random_rows(np.random.default_rng(6), 1, 8)[0])
        assert kl_divergence_rows(p, np.stack([p.weights] * 3)).tolist() == [0.0] * 3

    def test_unsupported_mass_is_infinite_per_row(self):
        p = Categorical(np.array([0.5, 0.5, 0.0]))
        q = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])
        got = kl_divergence_rows(p, q)
        assert got[0] == 0.0 and got[1] == math.inf
        assert got[2] == oracle_kl_divergence(p, Categorical(q[2]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([np.nan, 0.5, 0.5], "sum to 1"),
            ([0.75, 0.5, -0.25], "nonnegative"),
            ([0.5, 0.25, 0.125], "sum to 1"),
        ],
    )
    def test_bad_rows_raise_like_categorical(self, bad, message):
        p = Categorical.uniform(3)
        with pytest.raises(ValueError, match=message) as categorical:
            Categorical(np.array(bad))
        q = np.array([[0.25, 0.25, 0.5], bad])
        with pytest.raises(ValueError, match=message) as rows:
            kl_divergence_rows(p, q)
        assert str(rows.value) == str(categorical.value)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            kl_divergence_rows(Categorical.uniform(2), np.full((4, 3), 1 / 3))


class TestLogLikelihood:
    def test_empty_counts(self):
        assert log_likelihood(TallyVector(np.zeros(5)), Categorical.uniform(5)) == 0.0

    def test_uniform_q(self):
        t = TallyVector(np.array([2.0, 1.0]))
        assert log_likelihood(t, Categorical.uniform(2)) == pytest.approx(
            -2.0794415416798357, abs=1e-12
        )

    def test_direct_evaluation(self):
        # frozen from a direct evaluation of the sum
        t = TallyVector(np.array([3.0, 1.0]))
        q = Categorical(np.array([0.75, 0.25]))
        assert log_likelihood(t, q) == pytest.approx(-2.249340578475233, abs=1e-12)

    def test_data_on_zero_is_minus_infinity(self):
        t = TallyVector(np.array([0.0, 1.0]))
        q = Categorical(np.array([1.0, 0.0]))
        assert log_likelihood(t, q) == -math.inf


class TestDirichletMean:
    def test_empty_data_gives_prior_mean(self):
        np.testing.assert_allclose(dirichlet_mean_rows(np.zeros(8), 1.0), 0.125)

    def test_formula(self):
        np.testing.assert_allclose(dirichlet_mean_rows(np.array([3.0, 1.0]), 1.0), [4 / 6, 2 / 6])

    def test_formula_k8(self):
        est = dirichlet_mean_rows(np.array([15.0, 1, 0, 0, 0, 0, 0, 0]), 1.0)
        np.testing.assert_allclose(est, [16 / 24] + [2 / 24] + [1 / 24] * 6)

    def test_requires_positive_pseudocount(self):
        with pytest.raises(ValueError):
            dirichlet_mean_rows(np.zeros(4), 0.0)

    def test_converges_to_empirical(self):
        p = Categorical(np.array([0.5, 0.3, 0.15, 0.05]))
        previous = math.inf
        for n in (10, 100, 1000, 10000, 100000):
            counts = np.round(n * p.weights)
            kl = kl_divergence(p, Categorical(dirichlet_mean_rows(counts, 1.0)))
            assert kl < previous
            previous = kl
        assert previous < 1e-6


    def test_rows_match_oracle_bits(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 40, size=(6, 4, 8)).astype(np.float64)
        counts[0, 0] = 0.0
        counts[1, 2, :] = rng.random(8) * 3.0  # fractional, as responsibility-weighted tallies are
        got = dirichlet_mean_rows(counts, 0.5)
        for index in np.ndindex(counts.shape[:2]):
            want = oracle_dirichlet_mean(TallyVector(counts[index]), 0.5).weights
            assert got[index].view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_rows_require_positive_pseudocount(self):
        with pytest.raises(ValueError):
            dirichlet_mean_rows(np.zeros((2, 4)), 0.0)


class TestJointFromIndependentBits:
    def test_fair_bits(self):
        joint = joint_from_independent_bits([0.5, 0.5])
        np.testing.assert_allclose(joint.weights, 0.25)

    def test_deterministic_bits(self):
        joint = joint_from_independent_bits([1.0, 0.0])
        # pattern 10 (var0 set, var1 clear) carries all mass
        np.testing.assert_allclose(joint.weights, [0.0, 0.0, 1.0, 0.0])

    def test_product_evaluation(self):
        joint = joint_from_independent_bits([0.75, 0.25, 0.5])
        assert joint.weights[0b101] == pytest.approx(0.28125, abs=1e-15)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            joint_from_independent_bits([0.5] * 21)

    def test_rows_equal_kron_oracle(self):
        probs = np.random.default_rng(8).uniform(size=(5, 7))
        got = joint_from_independent_bits_rows(probs)
        for row, bits in zip(got, probs):
            want = np.ones(1)
            for p in bits:
                want = np.kron(want, np.array([1.0 - p, p]))
            np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            joint_from_independent_bits_rows(probs + 1.0)

    @pytest.mark.parametrize("v", range(1, 13))
    def test_bits_equal_kron_oracle(self, v):
        rng = np.random.default_rng(v)
        for probs in (rng.uniform(size=v), rng.choice((0.0, 1.0, 0.5, 1 / 3), size=v)):
            want = np.ones(1)
            for p in probs:
                want = np.kron(want, np.array([1.0 - p, p]))
            got = joint_from_independent_bits(probs).weights
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestJointFromGrouping:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
    def test_equals_gather_oracle_bit_for_bit(self, s):
        rng = np.random.default_rng(40 + s)
        for v in range(max(2, s), 13, s):
            for _ in range(20):
                g = Grouping(tuple(map(tuple, rng.permutation(v).reshape(v // s, s))))
                dists = [random_categorical(rng, 1 << s) for _ in range(v // s)]
                got = joint_from_grouping(g, dists).weights
                want = oracle_joint_from_grouping(g, [d.weights for d in dists])
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_rows_equal_gather_oracle(self):
        rng = np.random.default_rng(3)
        g = Grouping(((4, 0, 2), (5, 3, 1)))
        dists = rng.exponential(size=(7, 2, 8))
        dists /= dists.sum(axis=2, keepdims=True)
        got = joint_from_grouping_rows(g, dists)
        assert got.shape == (7, 64)
        for row, weights in zip(got, dists):
            want = oracle_joint_from_grouping(g, weights)
            np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))
        assert joint_from_grouping_rows(g, dists[:0]).shape == (0, 64)
        with pytest.raises(ValueError, match=r"shape \(C, 2, 8\)"):
            joint_from_grouping_rows(g, dists[:, :, :4])

    def test_rejects_mismatched_distributions(self):
        g = Grouping(((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="expected 2 group distributions"):
            joint_from_grouping(g, [Categorical.uniform(4)])
        with pytest.raises(ValueError, match="must have 4 outcomes"):
            joint_from_grouping(g, [Categorical.uniform(4), Categorical.uniform(2)])
        with pytest.raises(CapacityError):
            joint_from_grouping(Grouping.identity(21, 3), [Categorical.uniform(8)] * 7)

    def test_single_group_is_the_joint(self):
        dist = Categorical(np.array([0.1, 0.2, 0.3, 0.4]))
        joint = joint_from_grouping(Grouping(((0, 1),)), [dist])
        np.testing.assert_allclose(joint.weights, dist.weights)

    def test_slot_scatter(self):
        g = Grouping(((1,), (0,)))
        dists = [Categorical(np.array([0.9, 0.1])), Categorical(np.array([0.6, 0.4]))]
        joint = joint_from_grouping(g, dists)
        # var0=1, var1=0 -> pattern 10: group0 (var1) outcome 0, group1 (var0) outcome 1
        assert joint.weights[0b10] == pytest.approx(0.36, abs=1e-15)

    def test_uniform_groups_give_uniform_joint(self):
        g = Grouping(((2, 0), (3, 1)))
        joint = joint_from_grouping(g, [Categorical.uniform(4)] * 2)
        np.testing.assert_allclose(joint.weights, 1 / 16)

    def test_matches_independent_bits_with_single_slots(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = int(rng.integers(1, 8))
            probs = rng.uniform(size=v)
            order = rng.permutation(v)
            g = Grouping(tuple((int(i),) for i in order))
            dists = [
                Categorical(np.array([1 - probs[i], probs[i]])) for i in order
            ]
            a = joint_from_independent_bits(probs)
            b = joint_from_grouping(g, dists)
            np.testing.assert_allclose(a.weights, b.weights, atol=1e-14)

    def test_kl_decomposes_over_shared_grouping(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            g = Grouping(tuple(map(tuple, rng.permutation(12).reshape(4, 3))))
            truth = [random_categorical(rng, 8) for _ in range(4)]
            model = [random_categorical(rng, 8) for _ in range(4)]
            whole = kl_divergence(joint_from_grouping(g, truth), joint_from_grouping(g, model))
            parts = sum(kl_divergence(t, m) for t, m in zip(truth, model))
            assert whole == pytest.approx(parts, abs=1e-9)


def test_group_outcomes_msb_convention():
    # ordered bits (1, 1, 0) denote outcome 6
    g = Grouping(((0, 1, 2),))
    pattern = 0b110
    assert group_outcomes([pattern], g)[0, 0] == 6


def test_total_variation():
    a = Categorical(np.array([1.0, 0.0]))
    b = Categorical(np.array([0.0, 1.0]))
    assert total_variation(a, b) == 1.0
    assert total_variation(a, a) == 0.0
