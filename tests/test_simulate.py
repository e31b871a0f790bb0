import json

import numpy as np
import pytest

from latent_structure_lab.prob import (
    Categorical,
    Grouping,
    dirichlet_mean_rows,
    kl_divergence,
)
from latent_structure_lab.rng import RngState, next_unit
from latent_structure_lab.simulate import (
    BitsConfig,
    BitVectorTruth,
    ConfigError,
    DatasetParseError,
    UrnConfig,
    UrnTruth,
    build_bitvector_truth,
    build_urn_truth,
    dataset_digest,
    draw_bitvector,
    draw_bitvectors,
    draw_urn_samples,
    fnv1a64,
    pattern_to_bitstring,
    read_bits_dataset,
    read_model,
    read_urn_dataset,
    total_variation,
    true_joint,
    write_bits_dataset,
    write_model,
    write_urn_dataset,
)
from oracles import oracle_draw_urn_sample

# chi-square critical values at alpha=0.001 (upper tail), frozen constants
CHI2_999_DF7 = 24.321886347856854
CHI2_999_DF4095 = 4380.3707325952455

POINT_MASS_6 = tuple(1.0 if i == 6 else 0.0 for i in range(8))
DISJOINT_A = (0.5, 0.3, 0.15, 0.05, 0.0, 0.0, 0.0, 0.0)
DISJOINT_B = (0.0, 0.0, 0.0, 0.0, 0.05, 0.15, 0.3, 0.5)


class TestBuildUrnTruth:
    def test_explicit_passthrough(self):
        pa = (1.0,) + (0.0,) * 7
        pb = (0.0, 1.0) + (0.0,) * 6
        cfg = UrnConfig(type_dists=(pa, pb))
        truth = build_urn_truth(cfg, 1)
        np.testing.assert_array_equal(truth.type_dists[0].weights, pa)
        np.testing.assert_array_equal(truth.type_dists[1].weights, pb)
        assert truth.assignment == ("a", "b", "a", "b")
        np.testing.assert_array_equal(truth.urn_weights.weights, (0.025, 0.325, 0.325, 0.325))

    def test_deterministic_in_seed(self):
        cfg = UrnConfig()
        t1 = build_urn_truth(cfg, 424242)
        t2 = build_urn_truth(cfg, 424242)
        np.testing.assert_array_equal(t1.type_dists[0].weights, t2.type_dists[0].weights)
        np.testing.assert_array_equal(t1.type_dists[1].weights, t2.type_dists[1].weights)

    def test_random_truths_respect_separation(self):
        cfg = UrnConfig(min_separation=0.3)
        for seed in range(1000):
            truth = build_urn_truth(cfg, seed)
            assert total_variation(*truth.type_dists) >= 0.3

    def test_unsatisfiable_separation(self):
        with pytest.raises(ConfigError):
            build_urn_truth(UrnConfig(min_separation=1.0, max_retries=50), 3)

    def test_explicit_below_separation_rejected(self):
        u = (0.125,) * 8
        with pytest.raises(ConfigError):
            build_urn_truth(UrnConfig(type_dists=(u, u)), 1)


class TestDrawUrnSample:
    """draw_urn_samples' (urn, color) rows; TestStreamDraws ties them to scalar draws."""

    def test_degenerate_weights(self):
        cfg = UrnConfig(urn_weights=(1.0, 0.0, 0.0, 0.0))
        truth = build_urn_truth(cfg, 9)
        rows, _ = draw_urn_samples(truth, RngState(17), 200)
        assert (rows[:, 0] == 0).all()

    def test_deterministic_color(self):
        cfg = UrnConfig(
            type_dists=((1.0,) + (0.0,) * 7, (0.0, 1.0) + (0.0,) * 6),
            assignment=("a", "a", "a", "a"),
        )
        truth = build_urn_truth(cfg, 9)
        rows, _ = draw_urn_samples(truth, RngState(3), 100)
        assert (rows[:, 1] == 0).all()

    def test_exactly_two_advances(self):
        truth = build_urn_truth(UrnConfig(), 4)
        rng = RngState(88)
        _, after = draw_urn_samples(truth, rng, 1)
        _, expected = next_unit(rng)
        _, expected = next_unit(expected)
        assert after == expected

    def test_urn1_rate_within_binomial_band(self):
        # 3-sigma band around mean 250 for p=0.025 over 10,000 draws
        truth = build_urn_truth(UrnConfig(), 31)
        rows, _ = draw_urn_samples(truth, RngState(771), 10000)
        assert 207 <= int((rows[:, 0] == 0).sum()) <= 293

    def test_conditional_frequencies_converge(self):
        truth = build_urn_truth(UrnConfig(), 5150)
        rows, _ = draw_urn_samples(truth, RngState(62), 50000)
        counts = np.zeros((4, 8))
        np.add.at(counts, (rows[:, 0], rows[:, 1]), 1.0)
        for urn in (1, 2, 3):  # the frequently sampled urns
            est = Categorical(dirichlet_mean_rows(counts[urn], 1.0))
            assert kl_divergence(truth.urn_dist(urn), est) < 0.01


class TestBuildBitVectorTruth:
    def test_explicit_grouping_stored_verbatim(self):
        grouping = ((4, 0, 10), (1, 7, 11), (3, 6, 2), (9, 5, 8))
        truth = build_bitvector_truth(BitsConfig(grouping=grouping), 2)
        assert truth.hidden_grouping.slots == grouping

    def test_deterministic(self):
        t1 = build_bitvector_truth(BitsConfig(), 11)
        t2 = build_bitvector_truth(BitsConfig(), 11)
        assert t1.hidden_grouping == t2.hidden_grouping
        np.testing.assert_array_equal(t1.type_dists[0].weights, t2.type_dists[0].weights)

    def test_random_groupings_cover_every_index(self):
        for seed in range(1000):
            truth = build_bitvector_truth(BitsConfig(), seed)
            flat = sorted(i for grp in truth.hidden_grouping.slots for i in grp)
            assert flat == list(range(12))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            build_bitvector_truth(BitsConfig(v=12, g=4, s=2), 1)

    def test_default_assignment_alternates(self):
        truth = build_bitvector_truth(BitsConfig(), 123)
        assert truth.assignment == ("a", "b", "a", "b")


class TestDrawBitVector:
    def test_point_mass_outcome_six(self):
        # outcome 6 reads (1, 1, 0): first two listed slots set, third clear
        truth = build_bitvector_truth(
            BitsConfig(type_dists=(POINT_MASS_6, POINT_MASS_6), min_separation=0.0), 21
        )
        rng = RngState(5)
        pattern, rng = draw_bitvector(truth, rng)
        v = truth.v
        for grp in truth.hidden_grouping.slots:
            bits = [(pattern >> (v - 1 - var)) & 1 for var in grp]
            assert bits == [1, 1, 0]

    def test_one_advance_per_group(self):
        truth = build_bitvector_truth(BitsConfig(), 3)
        rng = RngState(14)
        _, after = draw_bitvector(truth, rng)
        expected = rng
        for _ in range(4):
            _, expected = next_unit(expected)
        assert after == expected

    def test_determinism(self):
        truth = build_bitvector_truth(BitsConfig(), 3)
        a, _ = draw_bitvector(truth, RngState(9))
        b, _ = draw_bitvector(truth, RngState(9))
        assert a == b

    def test_uniform_types_give_uniform_patterns(self):
        u = (0.125,) * 8
        truth = build_bitvector_truth(BitsConfig(type_dists=(u, u), min_separation=0.0), 8)
        rng = RngState(123)
        counts = np.zeros(1 << 12)
        n = 40960
        for _ in range(n):
            p, rng = draw_bitvector(truth, rng)
            counts[p] += 1
        expected = n / (1 << 12)
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < CHI2_999_DF4095

    def test_group_marginals_match_type_distribution(self):
        truth = build_bitvector_truth(BitsConfig(), 77)
        rng = RngState(31)
        n = 40960
        v = truth.v
        counts = np.zeros((4, 8))
        for _ in range(n):
            p, rng = draw_bitvector(truth, rng)
            for j, grp in enumerate(truth.hidden_grouping.slots):
                out = 0
                for var in grp:
                    out = (out << 1) | ((p >> (v - 1 - var)) & 1)
                counts[j, out] += 1
        for j in range(4):
            expected = n * truth.group_dist(j).weights
            stat = float(((counts[j] - expected) ** 2 / expected).sum())
            assert stat < CHI2_999_DF7


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
UNIT_MAX = 1.0 - 2.0**-53  # the largest unit draw: all 53 kept bits set
# Float cumulative sum 1 - 2**-53: a UNIT_MAX draw passes every bin and takes
# the clipped last index in both draw_index and the stream draws.
SHORT8 = (0.3,) + (0.1,) * 7


def _undo_xorshift(y: int, k: int) -> int:
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def seed_with_unit_at(step: int, unit: float = UNIT_MAX) -> RngState:
    """A state whose step-th unit draw (1-based) is `unit`, a multiple of
    2**-53: splitmix64's output mix is a bijection, so it is undone for an
    output whose top 53 bits encode the unit."""
    z = _undo_xorshift(int(unit * 2**53) << 11, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & _MASK64
    z = _undo_xorshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & _MASK64
    z = _undo_xorshift(z, 30)
    return RngState((z - step * _GOLDEN) & _MASK64)


def scalar_urn_rows(truth, rng, n):
    rows = []
    for _ in range(n):
        sample, rng = oracle_draw_urn_sample(truth, rng)
        rows.append(list(sample))
    return rows, rng


def scalar_patterns(truth, rng, n):
    out = []
    for _ in range(n):
        pattern, rng = draw_bitvector(truth, rng)
        out.append(pattern)
    return out, rng


class TestStreamDraws:
    """draw_urn_samples / draw_bitvectors equal n scalar draws, state included."""

    @pytest.mark.parametrize("truth_seed", range(4))
    @pytest.mark.parametrize("n", (0, 1, 5, 700))
    def test_urn_samples_equal_scalar_draws(self, truth_seed, n):
        truth = build_urn_truth(UrnConfig(), truth_seed)
        rng = RngState(2**64 - 7 + truth_seed)
        rows, after = draw_urn_samples(truth, rng, n)
        want, want_after = scalar_urn_rows(truth, rng, n)
        assert rows.shape == (n, 2)
        assert rows.tolist() == want
        assert after == want_after

    @pytest.mark.parametrize(
        "cfg",
        (
            BitsConfig(),
            BitsConfig(v=9, g=3, s=3),
            BitsConfig(v=6, g=3, s=2),
            BitsConfig(v=63, g=21, s=3),
            BitsConfig(v=64, g=16, s=4),
        ),
    )
    @pytest.mark.parametrize("n", (0, 1, 400))
    def test_bitvectors_equal_scalar_draws(self, cfg, n):
        truth = build_bitvector_truth(cfg, 5)
        rng = RngState(31 * n + cfg.v)
        patterns, after = draw_bitvectors(truth, rng, n)
        want, want_after = scalar_patterns(truth, rng, n)
        assert patterns.shape == (n,)
        assert patterns.tolist() == want
        assert after == want_after

    @pytest.mark.parametrize("unit", (UNIT_MAX, 0.5, 0.0))
    def test_seed_with_unit_at(self, unit):
        for step in (1, 2, 3):
            rng = seed_with_unit_at(step, unit)
            for _ in range(step):
                u, rng = next_unit(rng)
            assert u == unit
        assert np.cumsum(SHORT8)[-1] <= UNIT_MAX

    @pytest.mark.parametrize("step", (1, 2))
    def test_unit_on_a_bin_edge_takes_the_next_bin(self, step):
        # u == 0.5 == the first cumulative weight: `u < acc` fails there
        half = Categorical(np.array([0.5, 0.5]))
        truth = UrnTruth(type_dists=(half, half), assignment=("a", "a"), urn_weights=half)
        rng = seed_with_unit_at(step, 0.5)
        rows, after = draw_urn_samples(truth, rng, 10)
        want, want_after = scalar_urn_rows(truth, rng, 10)
        assert want[0][step - 1] == 1
        assert rows.tolist() == want and after == want_after

    @pytest.mark.parametrize("step", (1, 2))
    def test_urn_clip_branch(self, step):
        # step 1 is the first urn draw, step 2 the first color draw
        short = Categorical(np.array(SHORT8))
        truth = UrnTruth(type_dists=(short, short), assignment=("a",) * 8, urn_weights=short)
        rng = seed_with_unit_at(step)
        rows, after = draw_urn_samples(truth, rng, 40)
        want, want_after = scalar_urn_rows(truth, rng, 40)
        assert want[0][step - 1] == 7
        assert rows.tolist() == want and after == want_after

    def test_bitvector_clip_branch(self):
        short = Categorical(np.array(SHORT8))
        truth = BitVectorTruth(Grouping(((4, 0, 2), (1, 5, 3))), (short, short), ("a", "b"))
        rng = seed_with_unit_at(2)  # the second group's first draw
        patterns, after = draw_bitvectors(truth, rng, 40)
        want, want_after = scalar_patterns(truth, rng, 40)
        assert [(want[0] >> (5 - var)) & 1 for var in (1, 5, 3)] == [1, 1, 1]
        assert patterns.tolist() == want and after == want_after


class TestTrueJoint:
    def test_single_group_identity(self):
        dist = tuple(np.arange(1, 9) / 36.0)
        truth = BitVectorTruth(
            hidden_grouping=Grouping(((0, 1, 2),)),
            type_dists=(Categorical(np.array(dist)), Categorical(np.array(dist))),
            assignment=("a",),
        )
        np.testing.assert_allclose(true_joint(truth).weights, dist)

    def test_full_scale_normalization(self):
        truth = build_bitvector_truth(BitsConfig(), 6)
        assert abs(float(true_joint(truth).weights.sum()) - 1.0) <= 1e-12


class TestDatasetFiles:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_urn_dataset(path, np.empty((0, 2), dtype=np.int64))
        assert path.read_text() == ""
        got = read_urn_dataset(path)
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_urn_round_trip_and_one_based_labels(self, tmp_path):
        path = tmp_path / "urns.jsonl"
        rows = np.array([[0, 4], [1, 2], [0, 6]])
        write_urn_dataset(path, rows)
        assert path.read_text().splitlines()[0] == '{"color":5,"urn":1}'
        got = read_urn_dataset(path)
        assert got.dtype == np.int64 and got.tolist() == rows.tolist()

    def test_drawn_urn_rows_round_trip(self, tmp_path):
        truth = build_urn_truth(UrnConfig(), 8)
        rows, _ = draw_urn_samples(truth, RngState(3), 500)
        path = tmp_path / "urns.jsonl"
        write_urn_dataset(path, rows)
        np.testing.assert_array_equal(read_urn_dataset(path), rows)

    def test_one_based_file_reads_as_zero_based_rows(self, tmp_path):
        path = tmp_path / "urns.jsonl"
        path.write_text('{"urn":1,"color":8}\n\n{"color":1,"urn":4}\n')
        assert read_urn_dataset(path).tolist() == [[0, 7], [3, 0]]

    @pytest.mark.parametrize(
        "line",
        ['{"urn":0,"color":3}', '{"urn":2,"color":0}', '{"urn":-1,"color":3}', '{"urn":2}',
         '{"urn":"x","color":1}', '[1, 2]', "not json", '{"urn":1e400,"color":1}',
         '{"urn":99999999999999999999,"color":1}'],
        ids=["zero_urn", "zero_color", "negative_urn", "no_color", "string_urn", "list", "not_json",
             "infinite_urn", "past_int64"],
    )
    def test_malformed_urn_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "urns.jsonl"
        path.write_text('{"urn":1,"color":1}\n\n' + line + "\n")
        with pytest.raises(DatasetParseError, match=f"{path.name}:3: malformed urn sample"):
            read_urn_dataset(path)

    def test_bits_round_trip(self, tmp_path):
        truth = build_bitvector_truth(BitsConfig(), 15)
        rng = RngState(1)
        patterns = []
        for _ in range(10000):
            p, rng = draw_bitvector(truth, rng)
            patterns.append(p)
        path = tmp_path / "bits.jsonl"
        write_bits_dataset(path, patterns, truth.v)
        got, v = read_bits_dataset(path)
        assert got == patterns and v == truth.v

    def test_bits_line_is_msb_first(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_bits_dataset(path, [0b100000000001], 12)
        assert json.loads(path.read_text()) == {"bits": "100000000001"}

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"bits":"0101"}\nnot json\n')
        with pytest.raises(DatasetParseError, match=":2:"):
            read_bits_dataset(path)

    def test_mixed_width_rejected(self, tmp_path):
        path = tmp_path / "widths.jsonl"
        path.write_text('{"bits":"0101"}\n{"bits":"010"}\n')
        with pytest.raises(DatasetParseError, match=":2:"):
            read_bits_dataset(path)

    def test_blank_lines_count_toward_line_numbers(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"bits":"0101"}\n\n  \n{"bits":"0110"}\n\n{"bits":"010"}\n')
        with pytest.raises(DatasetParseError, match=r":6: bit width 3 != 4"):
            read_bits_dataset(path)
        path.write_text('{"bits":"0101"}\n\n{"bits":"01x1"}\n')
        with pytest.raises(DatasetParseError, match=":3: malformed bit vector"):
            read_bits_dataset(path)


class TestModelFiles:
    def test_urn_model_round_trip(self, tmp_path):
        truth = build_urn_truth(UrnConfig(), 2024)
        path = tmp_path / "m.json"
        write_model(path, truth)
        back = read_model(path)
        np.testing.assert_array_equal(back.urn_weights.weights, truth.urn_weights.weights)
        np.testing.assert_array_equal(back.type_dists[0].weights, truth.type_dists[0].weights)
        assert back.assignment == truth.assignment

    def test_bits_model_round_trip_one_based_grouping(self, tmp_path):
        truth = build_bitvector_truth(BitsConfig(), 4)
        path = tmp_path / "m.json"
        write_model(path, truth)
        payload = json.loads(path.read_text())
        flat = [var for grp in payload["grouping"] for var in grp]
        assert sorted(flat) == list(range(1, 13))
        back = read_model(path)
        assert back.hidden_grouping == truth.hidden_grouping

    def test_byte_identical_writes(self, tmp_path):
        truth = build_bitvector_truth(BitsConfig(), 4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_model(a, truth)
        write_model(b, truth)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 1, "kind": "poem", "type_dists": [], "assignment": []}')
        with pytest.raises(DatasetParseError):
            read_model(path)


class TestDigest:
    def test_fnv1a_known_values(self):
        # standard FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_dataset_digest_changes_with_data(self):
        a = dataset_digest([0b0101, 0b1010], 4)
        b = dataset_digest([0b0101, 0b1011], 4)
        assert a != b
        assert dataset_digest([0b0101, 0b1010], 4) == a


def test_pattern_to_bitstring():
    assert pattern_to_bitstring(6, 3) == "110"
    assert pattern_to_bitstring(1, 4) == "0001"
