import hashlib
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latent_structure_lab.experiment import (
    ExpensiveSearchError,
    ExperimentSpec,
    KlCurve,
    SearchSettings,
    average_curves,
    check_search_cost,
    default_checkpoints,
    independent_bits_floor,
    run_bitvectors,
    run_four_urns,
    spec_from_jsonable,
    spec_to_jsonable,
    _four_urns_single_run,
    _bitvectors_single_run,
    _truth_seed,
)
from latent_structure_lab import experiment as experiment_module
from latent_structure_lab.estimate import BIT_CASES, EstimatorConfig
from latent_structure_lab.pipeline import run_experiment
from latent_structure_lab.prob import kl_divergence, Categorical, TallyVector
from latent_structure_lab.rng import derive_seed
from latent_structure_lab.simulate import (
    BitsConfig,
    UrnConfig,
    build_bitvector_truth,
    build_urn_truth,
)
from oracles import oracle_bitvectors_single_run, oracle_four_urns_single_run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads  # noqa: E402


class TestKlCurve:
    def test_rejects_unordered_checkpoints(self):
        for samples in ((10, 10), (10, 9)):
            with pytest.raises(ValueError, match="strictly increasing"):
                KlCurve("x", samples, (0.5, 0.4))

    def test_rejects_arrays_of_other_shapes(self):
        for samples, values in (((1, 2), (0.5,)), (((1, 2),), ((0.5, 0.25),)), (1, 0.5)):
            with pytest.raises(ValueError, match="1-d of one length"):
                KlCurve("x", samples, values)

    def test_accessors(self):
        c = KlCurve("x", (1, 2), (0.5, 0.25))
        assert c.samples.dtype == np.int64 and c.samples.tolist() == [1, 2]
        assert c.values.dtype == np.float64 and c.values.tolist() == [0.5, 0.25]
        assert c.points == ((1, 0.5), (2, 0.25))
        assert all(type(n) is int and type(v) is float for n, v in c.points)

    def test_arrays_are_read_only_copies(self):
        samples, values = np.array([1, 2]), np.array([0.5, 0.25])
        c = KlCurve("x", samples, values)
        samples[0], values[0] = 0, 9.0
        assert c.samples.tolist() == [1, 2] and c.values.tolist() == [0.5, 0.25]
        with pytest.raises(ValueError):
            c.values[0] = 1.0


class TestDefaultCheckpoints:
    def test_dense_early_grid(self):
        cps = default_checkpoints(2500)
        assert cps[:100] == tuple(range(1, 101))
        assert 110 in cps and 1000 in cps and 1100 in cps
        assert cps[-1] == 2500

    def test_small_n(self):
        assert default_checkpoints(5) == (1, 2, 3, 4, 5)
        assert default_checkpoints(0) == ()

    def test_off_grid_tail_included(self):
        assert default_checkpoints(1234)[-1] == 1234


class TestAverageCurves:
    def test_single_curve_identity(self):
        c = KlCurve("x", (1, 2), (0.5, 0.25))
        avg = average_curves([c])
        assert avg.samples.tolist() == [1, 2] and avg.values.tolist() == [0.5, 0.25]

    def test_two_constant_curves(self):
        a = KlCurve("x", (1, 2), (0.2, 0.2))
        b = KlCurve("x", (1, 2), (0.4, 0.4))
        np.testing.assert_allclose(average_curves([a, b]).values, (0.3, 0.3), rtol=0, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        a = KlCurve("x", (1,), (0.2,))
        for other in ((2,), (1, 2)):
            b = KlCurve("x", other, (0.4,) * len(other))
            with pytest.raises(ValueError, match="identical checkpoint grid"):
                average_curves([a, b])

    def test_infinity_propagates(self):
        a = KlCurve("x", (1,), (math.inf,))
        b = KlCurve("x", (1,), (0.4,))
        assert average_curves([a, b]).values[0] == math.inf

    def test_equals_mean_of_the_stacked_values_bitwise(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(size=(24, 5)) * np.exp(rng.normal(size=(24, 5)) * 5)
        subs = [[KlCurve(f"urn{u}", (1, 5, 9, 12, 40), row * u) for u in (1, 2)] for row in values]
        avg = average_curves([KlCurve("x", (1, 5, 9, 12, 40), row, sub) for row, sub in zip(values, subs)])
        for got, scale in ((avg, 1), (avg.per_unit[0], 1), (avg.per_unit[1], 2)):
            want = np.array([(row * scale).tolist() for row in values]).mean(axis=0)
            assert got.values.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_matches_streaming_mean_oracle(self):
        rng = np.random.default_rng(10)
        curves = [KlCurve("x", (1, 5, 9), row) for row in rng.uniform(size=(100, 3))]
        avg = average_curves(curves)
        for i in range(3):
            mean = 0.0
            for k, c in enumerate(curves, start=1):
                mean += (c.values[i] - mean) / k
            assert avg.values[i] == pytest.approx(mean, abs=1e-12)


class TestFourUrns:
    def test_zero_samples_start_at_prior(self):
        spec = ExperimentSpec(kind="four_urns", n_samples=0, n_runs=1, base_seed=3)
        res = run_four_urns(spec)
        run = res.runs[0]
        assert run.raw.samples.tolist() == [0]
        want = sum(
            kl_divergence(run.truth.urn_dist(i), Categorical.uniform(8)) for i in range(4)
        )
        assert run.raw.values[0] == pytest.approx(want, abs=1e-12)
        assert run.ours.values[0] == pytest.approx(want, abs=1e-9)

    def test_equal_types_make_raw_and_ours_agree(self):
        # With P_a = P_b the two estimators converge to equal total KL, but
        # only once the rarely drawn urn has fed the raw estimator: its raw
        # KL alone is ~3.5/(0.025 n), so the 0.01 band needs n of ~20k.
        dist_a = tuple(np.arange(1, 9) / 36.0)
        spec = ExperimentSpec(
            kind="four_urns",
            n_samples=20000,
            n_runs=5,
            base_seed=17,
            checkpoints=(20000,),
            urn_config=UrnConfig(type_dists=(dist_a, dist_a), min_separation=0.0),
        )
        res = run_four_urns(spec)
        assert abs(res.avg_raw.values[0] - res.avg_ours.values[0]) < 0.01

    def test_transfer_beats_raw_at_1000(self):
        spec = ExperimentSpec(
            kind="four_urns", n_samples=1000, n_runs=50, base_seed=2026, checkpoints=(1000,)
        )
        res = run_four_urns(spec)
        assert res.avg_ours.values[0] < res.avg_raw.values[0]

    def test_runs_reproducible_in_isolation(self):
        spec = ExperimentSpec(
            kind="four_urns", n_samples=150, n_runs=4, base_seed=99, checkpoints=(75, 150)
        )
        res = run_four_urns(spec)
        alone = _four_urns_single_run(spec, 2)
        assert alone.raw.points == res.runs[2].raw.points
        assert alone.ours.points == res.runs[2].ours.points
        assert alone.urn1_samples == res.runs[2].urn1_samples

    def test_fixed_truth_mode(self):
        spec = ExperimentSpec(
            kind="four_urns",
            n_samples=50,
            n_runs=3,
            base_seed=7,
            checkpoints=(50,),
            resample_truth=False,
        )
        res = run_four_urns(spec)
        w0 = res.runs[0].truth.type_dists[0].weights
        for run in res.runs[1:]:
            np.testing.assert_array_equal(run.truth.type_dists[0].weights, w0)

    def test_urn1_markers_recorded(self):
        spec = ExperimentSpec(
            kind="four_urns", n_samples=400, n_runs=1, base_seed=5, checkpoints=(400,)
        )
        run = run_four_urns(spec).runs[0]
        assert all(1 <= t <= 400 for t in run.urn1_samples)
        assert len(run.urn1_samples) < 50

    def test_raw_total_kl_near_monotone_when_averaged(self):
        grid = tuple(range(50, 501, 10))
        spec = ExperimentSpec(
            kind="four_urns", n_samples=500, n_runs=100, base_seed=31, checkpoints=grid
        )
        res = run_four_urns(spec)
        values = np.asarray(res.avg_raw.values)
        upticks = (np.diff(values) > 0).sum()
        assert upticks <= math.ceil(0.02 * (len(values) - 1))


def curve_bits(curve):
    """A curve's samples and KL values, the values as int64 bit patterns."""
    if curve is None:
        return None
    values = curve.values.view(np.int64).tolist()
    subs = None if curve.per_unit is None else [curve_bits(c) for c in curve.per_unit]
    return curve.label, curve.samples.tolist(), values, subs


class TestFourUrnsMatchesStreamingOracle:
    """Array draws plus pooled EM equal the sample-at-a-time run bit for bit."""

    CASES = {
        "no_samples": dict(n_samples=0),
        "hard_readout": dict(n_samples=300, emit_hard_readout=True),
        "one_iteration": dict(n_samples=120, estimator=EstimatorConfig(em_max_iters=1)),
        "two_iterations": dict(
            n_samples=120, estimator=EstimatorConfig(em_max_iters=2, em_restarts=3)
        ),
        "sparse_grid": dict(n_samples=500, checkpoints=(1, 2, 7, 100, 333, 500)),
        "fixed_truth": dict(n_samples=90, resample_truth=False, emit_hard_readout=True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_runs_equal_oracle(self, case, small_em_pool):
        # The rows of different runs share passes of the small pool.
        spec = ExperimentSpec(kind="four_urns", n_runs=3, base_seed=404, **self.CASES[case])
        for run_index, got in enumerate(run_four_urns(spec).runs):
            want = oracle_four_urns_single_run(spec, run_index)
            assert got.truth.assignment == want.truth.assignment
            for name in ("raw", "ours", "ours_hard"):
                assert curve_bits(getattr(got, name)) == curve_bits(getattr(want, name))
            assert got.urn1_samples == want.urn1_samples

    def test_grid_crosses_em_batches(self, small_em_pool):
        spec = ExperimentSpec(kind="four_urns", n_samples=400, n_runs=1, base_seed=8)
        assert len(default_checkpoints(400)) * spec.estimator.em_restarts > 20 * small_em_pool
        got = _four_urns_single_run(spec, 0)
        want = oracle_four_urns_single_run(spec, 0)
        assert curve_bits(got.ours) == curve_bits(want.ours)
        assert curve_bits(got.raw) == curve_bits(want.raw)

    def test_checkpoints_must_increase(self):
        for cps in ((5, 3), (4, 4)):
            with pytest.raises(ValueError, match="strictly increasing"):
                ExperimentSpec(kind="four_urns", n_samples=10, n_runs=1, base_seed=0, checkpoints=cps)


class TestFourUrnsReadoutWork:
    """The checkpoint readout runs on arrays; only EM winners become objects."""

    def test_builds_no_tally_and_two_categoricals_per_checkpoint(self, monkeypatch):
        built = {"TallyVector": 0, "Categorical": 0}
        for cls in (TallyVector, Categorical):
            original = cls.__post_init__

            def counted(self, original=original, name=cls.__name__):
                built[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        spec = ExperimentSpec(kind="four_urns", n_samples=1000, n_runs=1, base_seed=1)
        build_urn_truth(spec.urn_config, _truth_seed(spec, derive_seed(spec.base_seed, 0)))
        truth_built, built["Categorical"] = built["Categorical"], 0
        _four_urns_single_run(spec, 0)
        n_checkpoints = len(default_checkpoints(spec.n_samples))
        assert built["TallyVector"] == 0
        assert built["Categorical"] <= truth_built + 2 * n_checkpoints

    @pytest.mark.parametrize("hard", (False, True))
    def test_builds_one_curve_per_readout_and_urn(self, monkeypatch, hard):
        # a total and n_urns sub-curves per readout of each run, and as many
        # for each averaged readout
        built = []
        original = KlCurve.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(KlCurve, "__init__", counted)
        spec = ExperimentSpec(kind="four_urns", n_samples=300, n_runs=3, base_seed=1, emit_hard_readout=hard)
        run_four_urns(spec)
        readouts = 3 if hard else 2
        assert len(built) == (spec.n_runs + 1) * readouts * (1 + spec.urn_config.n_urns)


class TestSpecFieldTypes:
    """ExperimentSpec checks field types when built directly, not only from a spec file."""

    BASE = dict(kind="four_urns", n_samples=20, n_runs=1, base_seed=1)

    def test_rejects_non_integral_checkpoints(self):
        with pytest.raises(ValueError, match="checkpoints must be integers, got 2.5"):
            ExperimentSpec(**self.BASE, checkpoints=(2.5, 10.9))

    def test_rejects_bool_checkpoints(self):
        with pytest.raises(ValueError, match="checkpoints must be integers, got True"):
            ExperimentSpec(**self.BASE, checkpoints=(True, 10))

    def test_rejects_string_resample_truth(self):
        with pytest.raises(ValueError, match="resample_truth must be a bool, got 'false'"):
            ExperimentSpec(**self.BASE, resample_truth="false")

    def test_rejects_int_emit_hard_readout(self):
        with pytest.raises(ValueError, match="emit_hard_readout must be a bool, got 1"):
            ExperimentSpec(**self.BASE, emit_hard_readout=1)

    def test_accepts_numpy_integers_and_bools(self):
        spec = ExperimentSpec(
            **self.BASE, checkpoints=(np.int64(2), np.int32(10)), resample_truth=np.bool_(False)
        )
        assert spec.checkpoints == (2, 10) and type(spec.checkpoints[0]) is int
        assert spec.resample_truth is False

    @pytest.mark.parametrize("kind", ("four_urns", "bit_vectors"))
    def test_rejects_empty_checkpoints(self, kind):
        with pytest.raises(ValueError, match=r"checkpoints \[\]: must list one or more"):
            ExperimentSpec(**{**self.BASE, "kind": kind}, checkpoints=())

    def test_null_or_missing_checkpoints_keep_default_grid(self):
        for payload in (self.BASE, {**self.BASE, "checkpoints": None}):
            spec = spec_from_jsonable(payload)
            assert spec.checkpoints is None
            assert tuple(run_four_urns(spec).avg_raw.samples.tolist()) == default_checkpoints(20)


class TestBitVectors:
    def test_c0_reaches_floor_on_independent_truth(self):
        # per-bit product truth: every group distribution factorizes
        probs = (0.8, 0.3, 0.6)
        cell = []
        for o in range(8):
            w = 1.0
            for pos, p in enumerate(probs):
                w *= p if (o >> (2 - pos)) & 1 else 1 - p
            cell.append(w)
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=5000,
            n_runs=1,
            base_seed=8,
            cases=("c0",),
            checkpoints=(5000,),
            bits_config=BitsConfig(
                v=6, g=2, s=3, type_dists=(tuple(cell), tuple(cell)), min_separation=0.0
            ),
        )
        res = run_bitvectors(spec)
        assert res.runs[0].curves["c0"].values[0] < 0.02

    def test_c13_matches_c1_after_lock(self):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=600,
            n_runs=3,
            base_seed=404,
            cases=("c13", "c1"),
            checkpoints=(300, 400, 500, 600),
            bits_config=BitsConfig(v=6, g=2, s=3),
        )
        res = run_bitvectors(spec)
        for run in res.runs:
            k1 = dict(run.curves["c1"].points)
            k13 = dict(run.curves["c13"].points)
            # once case1 locks the grouping its curve equals the known-grouping case
            assert abs(k1[600] - k13[600]) < 1e-9

    def test_c0_plateaus_after_200_samples(self):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=2000,
            n_runs=10,
            base_seed=11,
            cases=("c0",),
            checkpoints=tuple(range(100, 2001, 100)),
            bits_config=BitsConfig(v=12, g=4, s=3),
        )
        res = run_bitvectors(spec)
        values = np.asarray(res.averaged["c0"].values)
        deltas = np.abs(np.diff(values))
        assert deltas[1:].max() < 0.01  # change per 100 samples beyond sample 200
        for run in res.runs:
            assert independent_bits_floor(run.truth) > 0.0

    def test_c0p_much_worse_than_c13_at_200(self):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=200,
            n_runs=100,
            base_seed=55,
            cases=("c0p", "c13"),
            checkpoints=(200,),
            bits_config=BitsConfig(v=12, g=4, s=3),
        )
        res = run_bitvectors(spec)
        ratio = res.averaged["c0p"].values[0] / res.averaged["c13"].values[0]
        assert ratio >= 3.0

    def test_shared_stream_across_cases(self):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=100,
            n_runs=2,
            base_seed=66,
            cases=("c0", "c13"),
            checkpoints=(100,),
            bits_config=BitsConfig(v=6, g=2, s=3),
        )
        res1 = run_bitvectors(spec)
        solo = _bitvectors_single_run(spec, 1)
        for case in ("c0", "c13"):
            assert solo.curves[case].points == res1.runs[1].curves[case].points

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                kind="bit_vectors", n_samples=10, n_runs=1, base_seed=1, cases=("c9",)
            )

    def test_expensive_gate(self):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=100,
            n_runs=1,
            base_seed=1,
            cases=("c12",),
            checkpoints=(100,),
            bits_config=BitsConfig(v=12, g=4, s=3),
        )
        with pytest.raises(ExpensiveSearchError, match="candidates"):
            check_search_cost(spec, allow_expensive=False)
        check_search_cost(spec, allow_expensive=True)
        small = ExperimentSpec(
            kind="bit_vectors",
            n_samples=100,
            n_runs=1,
            base_seed=1,
            cases=("c12",),
            checkpoints=(100,),
            bits_config=BitsConfig(v=6, g=2, s=3),
        )
        check_search_cost(small, allow_expensive=False)

    def test_expensive_refusal_states_upper_bounds(self):
        # a pruned search scores fewer candidates than the guard prices
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=100,
            n_runs=100,
            base_seed=1,
            cases=("c12",),
            checkpoints=(100,),
            bits_config=BitsConfig(v=12, g=4, s=3),
        )
        with pytest.raises(ExpensiveSearchError) as refused:
            check_search_cost(spec, allow_expensive=False)
        assert str(refused.value) == (
            "case c12 would search 106,444,800 candidates at 1 checkpoints over 100 run(s) "
            "(at most ~10,644,480,000 scorings, at most 0.2 worker-hours); "
            "pass allow_expensive to run it anyway"
        )


class TestBitVectorsMatchOracle:
    """The batched ladder equals one fit per (case, checkpoint) bit for bit,
    across segments, joint chunks and EM batches."""

    SMALL = BitsConfig(v=6, g=2, s=3)
    CASES = {
        # 102 checkpoints, c1 and c12 searched at each: many 4-row chunks,
        # c123 EM batches of 16 checkpoints and c12 EM batches of 80 rows.
        "all_cases": dict(n_samples=120, cases=BIT_CASES),
        # Segments cut at 1 (no candidate yet), 30 and 90; the last
        # checkpoint is not n_samples.
        "sparse_tail": dict(
            n_samples=100,
            cases=BIT_CASES,
            checkpoints=(1, 2, 3, 7, 30, 31, 32, 33, 34, 90),
            search=SearchSettings(checkpoints=(30, 90)),
        ),
        "search_fallback": dict(
            n_samples=100, cases=("c1", "c12", "c0p"), search=SearchSettings(checkpoints=(50, 100))
        ),
        "short_em": dict(
            n_samples=60, cases=("c123", "c12"), estimator=EstimatorConfig(em_max_iters=2, em_restarts=3)
        ),
    }

    @staticmethod
    def assert_runs_equal(spec):
        for run_index in range(spec.n_runs):
            got = _bitvectors_single_run(spec, run_index)
            want = oracle_bitvectors_single_run(spec, run_index)
            assert list(got.curves) == list(spec.cases)
            for case in spec.cases:
                assert curve_bits(got.curves[case]) == curve_bits(want.curves[case]), case

    def test_all_cases_grid_crosses_chunks_and_em_batches(self, small_em_pool):
        n_checkpoints = len(default_checkpoints(self.CASES["all_cases"]["n_samples"]))
        assert n_checkpoints > 10 * small_em_pool
        assert n_checkpoints > experiment_module._JOINT_ROWS
        spec = ExperimentSpec(
            kind="bit_vectors", n_runs=2, base_seed=606, bits_config=self.SMALL, **self.CASES["all_cases"]
        )
        self.assert_runs_equal(spec)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_runs_equal_oracle(self, case):
        spec = ExperimentSpec(
            kind="bit_vectors", n_runs=2, base_seed=606, bits_config=self.SMALL, **self.CASES[case]
        )
        self.assert_runs_equal(spec)

    @pytest.mark.parametrize("workload", ("bits_ladder_v12", "c12_many_small"))
    def test_benchmark_specs_equal_oracle(self, workload):
        self.assert_runs_equal(spec_from_jsonable(workloads.experiment_spec(workload, workloads.GOLDEN_SEED)))

    def test_first_checkpoint_search_fallback(self, monkeypatch):
        searched = []
        real_search = experiment_module.search

        def counting_search(patterns, cfg, session):
            searched.append(len(patterns))
            return real_search(patterns, cfg, session)

        monkeypatch.setattr(experiment_module, "search", counting_search)
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=100,
            n_runs=1,
            base_seed=606,
            cases=("c1",),
            bits_config=self.SMALL,
            search=SearchSettings(checkpoints=(50, 100)),
        )
        run_bitvectors(spec)
        assert searched == [1, 50, 100]


class TestBitVectorsMemory:
    def test_ladder_peak_traced_allocation(self):
        """The 2**V joints are built a few checkpoints at a time. A warm-up run
        first builds the process-wide search tables, which are not per run."""
        spec = spec_from_jsonable(workloads.experiment_spec("bits_ladder_v12", workloads.GOLDEN_SEED))
        run_bitvectors(spec)
        tracemalloc.start()
        try:
            run_bitvectors(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestFourUrnsMemory:
    def test_urns_peak_traced_allocation(self):
        """A warm four-urns run holds every run's checkpoint counts and EM
        winners at once, freed before its curves are built, and at most
        _EM_POOL_ROWS EM rows; the bound leaves room for about 2 MiB more
        than that, what the urns_em benchmark's 5% peak RSS bound allows."""
        spec = spec_from_jsonable(workloads.experiment_spec("urns_em", workloads.GOLDEN_SEED))
        run_four_urns(spec)
        tracemalloc.start()
        try:
            run_four_urns(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 << 20


class TestIndependentBitsFloor:
    def test_zero_for_independent_truth(self):
        probs = (0.9, 0.2, 0.5)
        cell = []
        for o in range(8):
            w = 1.0
            for pos, p in enumerate(probs):
                w *= p if (o >> (2 - pos)) & 1 else 1 - p
            cell.append(w)
        truth = build_bitvector_truth(
            BitsConfig(v=6, g=2, s=3, type_dists=(tuple(cell), tuple(cell)), min_separation=0.0),
            4,
        )
        assert independent_bits_floor(truth) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_dependent_truth(self):
        truth = build_bitvector_truth(BitsConfig(v=12, g=4, s=3), 11)
        assert independent_bits_floor(truth) > 0.1


class TestSpecJson:
    def test_round_trip(self):
        spec = ExperimentSpec(
            kind="bit_vectors",
            n_samples=100,
            n_runs=2,
            base_seed=5,
            cases=("c0", "c13"),
            checkpoints=(50, 100),
            bits_config=BitsConfig(v=6, g=2, s=3, grouping=((5, 1, 0), (2, 4, 3))),
            search=SearchSettings(workers=2, scorer="dirichlet_marginal"),
        )
        back = spec_from_jsonable(spec_to_jsonable(spec))
        assert back == spec

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="wibble"):
            spec_from_jsonable(
                {"kind": "four_urns", "n_samples": 1, "n_runs": 1, "base_seed": 0, "wibble": 2}
            )

    def test_unknown_truth_key_named(self):
        with pytest.raises(ValueError, match="truth"):
            spec_from_jsonable(
                {
                    "kind": "four_urns",
                    "n_samples": 1,
                    "n_runs": 1,
                    "base_seed": 0,
                    "truth": {"flavor": "grape"},
                }
            )

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="base_seed"):
            spec_from_jsonable({"kind": "four_urns", "n_samples": 1, "n_runs": 1})

    @pytest.mark.parametrize(
        "search, named",
        [
            ({"scorer": "bogus"}, "scorer must be one of ('paper_plugin', 'dirichlet_marginal'), got 'bogus'"),
            ({"scorer": "marginal"}, "scorer must be one of"),
            ({"workers": 0}, "workers must be >= 1, got 0"),
            ({"workers": -3}, "workers must be >= 1, got -3"),
            ({"scorer": "bogus", "workers": 0}, "scorer must be one of"),
        ],
        ids=["unknown_scorer", "cli_scorer_name", "zero_workers", "negative_workers", "both"],
    )
    def test_bad_search_settings_refused_when_built(self, search, named):
        payload = {
            "kind": "bit_vectors", "n_samples": 20, "n_runs": 1, "base_seed": 0,
            "cases": ["c0", "c1"], "truth": {"v": 6, "g": 2, "s": 3}, "search": search,
        }
        with pytest.raises(ValueError, match=re.escape(f"spec field 'search': {named}")):
            spec_from_jsonable(payload)
        with pytest.raises(ValueError, match=re.escape(named)):
            SearchSettings(**search)


def _workload_spec(workload: str, base_seed: int) -> dict:
    """The experiment workload specs of benchmarks/workloads.py, inlined."""
    if workload == "urns_em":
        return {"kind": "four_urns", "n_samples": 1000, "n_runs": 24, "base_seed": base_seed}
    base = {"n_runs": 1, "base_seed": base_seed}
    if workload == "bits_ladder_v12":
        return {
            "kind": "bit_vectors",
            "n_samples": 500,
            **base,
            "cases": ["c0", "c0p", "c13", "c123", "c1"],
            "truth": {"v": 12, "g": 4, "s": 3},
            "search": {"checkpoints": [100, 500], "workers": 1, "scorer": "dirichlet_marginal"},
        }
    return {
        "kind": "bit_vectors",
        "n_samples": 300,
        **base,
        "cases": ["c123", "c12"],
        "checkpoints": list(range(10, 301, 10)),
        "truth": {"v": 9, "g": 3, "s": 3, "min_separation": 0.6},
        "search": {"workers": 2, "scorer": "dirichlet_marginal"},
    }


class TestSpecCodec:
    """spec_to_jsonable output, pinned before the codec was derived from the
    config dataclasses: sha256 of its sort_keys JSON, with the since-removed
    search.expensive_threshold key dropped."""

    PINNED = {
        "urns_em/1": (
            _workload_spec("urns_em", 191193218290803),
            "e7e8263f48e0a14106e9fb7328bd3a0d529e9674634ecc440642dfaf76583098",
        ),
        "urns_em/2": (
            _workload_spec("urns_em", 17720988402034),
            "ddac9ae4cc2969289d191a60659543ca6ba7af440862147193b1446230744f91",
        ),
        "bits_ladder_v12/1": (
            _workload_spec("bits_ladder_v12", 241293674805990),
            "b2c1ceb5c905c5759cc28e31d705de0d137d0fc26e204ace0705b8c65556cd83",
        ),
        "bits_ladder_v12/2": (
            _workload_spec("bits_ladder_v12", 175060379144434),
            "1555c067be2017d63db47cfa2eaa139e194bcfa2c2007cd7a267f00efdaabe14",
        ),
        "c12_many_small/1": (
            _workload_spec("c12_many_small", 105167848496722),
            "73c1e4941a26a21945cc2eda08e8c031cf8f28894c21850b88dd8fa613808fa8",
        ),
        "c12_many_small/2": (
            _workload_spec("c12_many_small", 130639831491257),
            "35740bfb5ce96b688d03af1ac9fbd61da894527d3db33ced8f43cc7fd271f121",
        ),
        # Every field set; pseudocount is an integer in a float field.
        "four_urns_full": (
            {
                "kind": "four_urns",
                "n_samples": 300,
                "n_runs": 3,
                "base_seed": 99,
                "cases": ["c0", "c13"],
                "checkpoints": [10, 100, 300],
                "resample_truth": False,
                "emit_hard_readout": True,
                "truth": {
                    "n_urns": 3,
                    "n_colors": 4,
                    "urn_weights": [0.2, 0.3, 0.5],
                    "assignment": ["a", "b", "b"],
                    "type_dists": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.25, 0.125, 0.125]],
                    "min_separation": 0.1,
                    "max_retries": 50,
                },
                "estimator": {
                    "pseudocount": 2,
                    "em_tol": 1e-6,
                    "em_max_iters": 200,
                    "em_restarts": 3,
                    "em_init_noise": 0.1,
                },
                "search": {"checkpoints": [100, 300], "workers": 2, "scorer": "dirichlet_marginal"},
            },
            "bd480aaf2ae5d15cef317bd0401b5a8f4b1bacb5d2cdb98920428b582702471b",
        ),
        # A 1-based grouping, written back 1-based.
        "bits_grouping": (
            {
                "kind": "bit_vectors",
                "n_samples": 50,
                "n_runs": 1,
                "base_seed": 3,
                "cases": ["c13", "c1"],
                "checkpoints": [10, 50],
                "truth": {
                    "v": 6,
                    "g": 2,
                    "s": 3,
                    "assignment": ["a", "b"],
                    "type_dists": [[0.125] * 8, [0.5] + [0.0625] * 6 + [0.1875]],
                    "grouping": [[6, 2, 1], [3, 5, 4]],
                    "min_separation": 0.2,
                    "max_retries": 10,
                },
            },
            "f1447b68e8709393ac4e49b0dd1bd1a7e0eeef466d61ec91014e714b1d795517",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_json(self, name):
        payload, digest = self.PINNED[name]
        spec = spec_from_jsonable(payload)
        text = json.dumps(spec_to_jsonable(spec), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert spec_from_jsonable(json.loads(text)) == spec

    def test_grouping_is_zero_based_in_memory(self):
        spec = spec_from_jsonable(self.PINNED["bits_grouping"][0])
        assert spec.bits_config.grouping == ((5, 1, 0), (2, 4, 3))

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"An experiment spec is JSON.*?```json\n(.*?)```", readme, re.S)
        spec = spec_from_jsonable(json.loads(example.group(1)))
        assert spec.kind == "bit_vectors" and spec.search.scorer == "dirichlet_marginal"


class TestGoldenCurveDigests:
    """sha256 of curves.csv for one small spec of each kind, pinned across EM changes.

    The bit_vectors spec runs the two-type EM both from noisy restarts
    (c123) and from a searched assignment (c12, via init_assignment).
    """

    SPECS = {
        "four_urns": (
            {"kind": "four_urns", "n_samples": 200, "n_runs": 2, "base_seed": 2024},
            "7555cb857dcb048b2c03cf2a6fa98006b2c6fc27fa1ea88f453fcbe6a19f5025",
        ),
        "bit_vectors": (
            {
                "kind": "bit_vectors",
                "n_samples": 120,
                "n_runs": 1,
                "base_seed": 77,
                "cases": ["c123", "c12"],
                "checkpoints": [5, 20, 60, 120],
                "truth": {"v": 9, "g": 3, "s": 3, "min_separation": 0.6},
                "search": {"workers": 1, "scorer": "dirichlet_marginal"},
            },
            "d105649565c8ddf3a1335555a1c7b472eb143180adfe0a1017af9c652ef6b3c7",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_curves_csv_bytes(self, tmp_path, kind):
        payload, digest = self.SPECS[kind]
        run_experiment(spec_from_jsonable(payload), tmp_path)
        assert hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest() == digest
