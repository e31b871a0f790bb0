import hashlib
import json

import pytest

from latent_structure_lab import cli
from latent_structure_lab.cli import main

@pytest.fixture()
def bits_setup(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v": 6, "g": 2, "s": 3}))
    model = tmp_path / "model.json"
    data = tmp_path / "data.jsonl"
    assert main(["gen-model", "--kind", "bits", "--config", str(cfg), "--seed", "3", "--out", str(model)]) == 0
    assert main(["sample", "--model", str(model), "--n", "120", "--seed", "9", "--out", str(data)]) == 0
    return model, data


class TestGenModel:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-model", "--kind", "urns", "--seed", "12", "--out", str(a)]) == 0
        assert main(["gen-model", "--kind", "urns", "--seed", "12", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"flavor": "grape"}')
        rc = main(["gen-model", "--kind", "urns", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.parametrize(
        "kind, config, field",
        [
            ("bits", {"v": 6.0}, "'config.v'"),
            ("bits", {"grouping": [[1, 2, 3], [4, 5, "6"]]}, "'config.grouping[1][2]'"),
            ("urns", {"urn_weights": [0.5, True]}, "'config.urn_weights[1]'"),
            ("urns", {"assignment": "abab"}, "'config.assignment'"),
        ],
        ids=["float_int", "string_in_grouping", "bool_float", "string_tuple"],
    )
    def test_ill_typed_config_exits_2(self, tmp_path, capsys, kind, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["gen-model", "--kind", kind, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestSample:
    def test_deterministic_dataset(self, bits_setup, tmp_path):
        model, data = bits_setup
        again = tmp_path / "again.jsonl"
        assert main(["sample", "--model", str(model), "--n", "120", "--seed", "9", "--out", str(again)]) == 0
        assert again.read_bytes() == data.read_bytes()


    # sha256 of `lsl sample` datasets of 3000 samples, pinned before the
    # stream draws replaced the sample-at-a-time loop.
    PINNED = {
        "urns": (
            None,
            "7",
            "21",
            "ca44aa48562ed1d189a8b662cf1d6980f0b84a5864f84ea8c011d48e06f68fde",
        ),
        "bits": (
            {"v": 12, "g": 4, "s": 3},
            "11",
            "22",
            "c18d2d41d9ad4fcd78a234a5865dc8eb188132c65f92ae9b3d8e4552f88dfc32",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_pinned_dataset_digest(self, tmp_path, kind):
        config, model_seed, sample_seed, digest = self.PINNED[kind]
        model, data = tmp_path / "model.json", tmp_path / "data.jsonl"
        argv = ["gen-model", "--kind", kind, "--seed", model_seed, "--out", str(model)]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 0
        argv = ["sample", "--model", str(model), "--n", "3000", "--seed", sample_seed, "--out", str(data)]
        assert main(argv) == 0
        assert hashlib.sha256(data.read_bytes()).hexdigest() == digest

    def test_negative_count_exits_2(self, bits_setup, tmp_path, capsys):
        model, _ = bits_setup
        out = tmp_path / "neg.jsonl"
        assert main(["sample", "--model", str(model), "--n", "-1", "--seed", "1", "--out", str(out)]) == 2
        assert "--n" in capsys.readouterr().err


class TestEstimate:
    def test_c13_with_model_prints_kl(self, bits_setup, tmp_path, capsys):
        model, data = bits_setup
        out = tmp_path / "est.json"
        rc = main(["estimate", "--case", "c13", "--data", str(data), "--model", str(model), "--out", str(out)])
        assert rc == 0
        assert "KL joint:" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert len(payload["joint"]) == 64

    def test_c0_to_stdout(self, bits_setup, capsys):
        _, data = bits_setup
        rc = main(["estimate", "--case", "c0", "--data", str(data)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "c0" and len(payload["bit_probs"]) == 6

    def test_unknown_case_exits_2(self, bits_setup, capsys):
        _, data = bits_setup
        assert main(["estimate", "--case", "zig", "--data", str(data)]) == 2
        assert "zig" in capsys.readouterr().err

    def test_c13_without_model_exits_2(self, bits_setup):
        _, data = bits_setup
        assert main(["estimate", "--case", "c13", "--data", str(data)]) == 2

    def test_malformed_data_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"bits":"0101"}\n{"nope":1}\n')
        assert main(["estimate", "--case", "c0", "--data", str(bad)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_urn_raw_estimate(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        data = tmp_path / "d.jsonl"
        assert main(["gen-model", "--kind", "urns", "--seed", "4", "--out", str(model)]) == 0
        assert main(["sample", "--model", str(model), "--n", "200", "--seed", "5", "--out", str(data)]) == 0
        rc = main(["estimate", "--case", "raw", "--data", str(data), "--model", str(model)])
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert len(payload["estimates"]) == 4
        assert "KL total:" in captured.err

    @pytest.mark.parametrize("case", ("c0", "c0p", "c13", "c123", "c1", "c12"))
    def test_bit_case_is_fitted_once(self, bits_setup, monkeypatch, capsys, case):
        calls = []
        fit = cli.fit_bit_case
        monkeypatch.setattr(cli, "fit_bit_case", lambda *args: calls.append(args[0]) or fit(*args))
        model, data = bits_setup
        assert main(["estimate", "--case", case, "--data", str(data), "--model", str(model)]) == 0
        assert calls == [case]
        capsys.readouterr()

    def test_first_urn_row_outside_the_model_is_named(self, tmp_path, capsys):
        model, data = tmp_path / "m.json", tmp_path / "d.jsonl"
        assert main(["gen-model", "--kind", "urns", "--seed", "4", "--out", str(model)]) == 0
        data.write_text('{"urn":4,"color":8}\n{"urn":2,"color":9}\n{"urn":5,"color":1}\n')
        assert main(["estimate", "--case", "raw", "--data", str(data), "--model", str(model)]) == 2
        assert "data: sample (2, 9) outside model range" in capsys.readouterr().err

    # sha256 of the `--out` JSON of every case id with --model and --seed 7:
    # urn cases on 200 samples of urns model seed 4 (sample seed 5), bit
    # cases on the bits_setup data (V=6, G=2, S=3, 120 samples).
    PINNED_ESTIMATES = {
        "raw": "7d07a7c317b16a7840481fb900bcc68da9c3c8408c2f356cd612c6299ab2133d",
        "ours": "375009863f8239529d46dabfbc1146b3439019dad7774a666379460fd06ef7bd",
        "c0": "e4e3838d5146ea133cef7614f525a59a8fd3bb818fbbf2b6f6825f66cca3bd1f",
        "c0p": "02d9e2458e11daa1ea48c74449641da130964fa8f3d57874467534fd3d7bf250",
        "c13": "bc2581c7b34af6ba6951758e344468dc2404ae8e0a4550ea098666ac37212985",
        "c123": "a99fa80587988460c9f87bf75054aa834001383ac9872632621e41baf2ae6a31",
        "c1": "f507c9c8bde907734b6d0e513bac7290da1de648a42f517be9f57e4c292f0949",
        "c12": "c547a8abe80f9e0fccdb9cb3428dfda8d898621495b48ca2be5a86cf8be2aa35",
    }

    # The KL report each of those runs prints to stderr.
    PINNED_KL_REPORTS = {
        "raw": (
            "KL urn 1: 0.289900\nKL urn 2: 0.051118\nKL urn 3: 0.034412\n"
            "KL urn 4: 0.055428\nKL total: 0.430857\n"
        ),
        "ours": (
            "KL urn 1: 0.026869\nKL urn 2: 0.021195\nKL urn 3: 0.022360\n"
            "KL urn 4: 0.021195\nKL total: 0.091619\n"
        ),
        "c0": "KL joint: 0.358837\n",
        "c0p": "KL joint: 0.147622\n",
        "c13": "KL joint: 0.041581\n",
        "c123": "KL joint: 0.041581\n",
        "c1": "KL joint: 0.041581\n",
        "c12": "KL joint: 0.041581\n",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_ESTIMATES))
    def test_pinned_output_bytes(self, bits_setup, tmp_path, capsys, case):
        if case in ("raw", "ours"):
            model, data = tmp_path / "urns.json", tmp_path / "urns.jsonl"
            assert main(["gen-model", "--kind", "urns", "--seed", "4", "--out", str(model)]) == 0
            assert main(["sample", "--model", str(model), "--n", "200", "--seed", "5", "--out", str(data)]) == 0
        else:
            model, data = bits_setup
        out = tmp_path / "est.json"
        argv = ["estimate", "--case", case, "--data", str(data), "--model", str(model), "--seed", "7"]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_ESTIMATES[case]
        assert capsys.readouterr().err == self.PINNED_KL_REPORTS[case]


class TestSearchCommand:
    def test_search_result_file(self, bits_setup, tmp_path):
        _, data = bits_setup
        out = tmp_path / "result.json"
        rc = main([
            "search", "--data", str(data), "--v", "6", "--g", "2", "--s", "3",
            "--types", "2", "--mode", "case12", "--workers", "2", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["mode"] == "case12"
        assert len(payload["top_k"]) == 10
        assert payload["data_digest"].startswith("0x")

    def test_workers_do_not_change_bytes(self, bits_setup, tmp_path):
        _, data = bits_setup
        outs = []
        for workers in ("1", "8"):
            out = tmp_path / f"r{workers}.json"
            rc = main([
                "search", "--data", str(data), "--v", "6", "--g", "2", "--s", "3",
                "--workers", workers, "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_case1_types_follow_mode(self, bits_setup, tmp_path):
        _, data = bits_setup
        out = tmp_path / "c1.json"
        argv = ["search", "--data", str(data), "--v", "6", "--g", "2", "--s", "3", "--mode", "case1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["num_types"] == 1

    def test_case1_with_two_types_exits_2(self, bits_setup, capsys):
        _, data = bits_setup
        argv = ["search", "--data", str(data), "--v", "6", "--g", "2", "--s", "3", "--mode", "case1"]
        assert main(argv + ["--types", "2"]) == 2
        assert "num_types must be 1 in mode case1" in capsys.readouterr().err

    def test_wrong_width_exits_2(self, bits_setup):
        _, data = bits_setup
        assert main(["search", "--data", str(data), "--v", "12", "--g", "4", "--s", "3"]) == 2

    def test_env_var_default_workers(self, bits_setup, tmp_path, monkeypatch):
        _, data = bits_setup
        monkeypatch.setenv("LSL_WORKERS", "2")
        out = tmp_path / "env.json"
        rc = main(["search", "--data", str(data), "--v", "6", "--g", "2", "--s", "3", "--out", str(out)])
        assert rc == 0
        ref = tmp_path / "ref.json"
        monkeypatch.delenv("LSL_WORKERS")
        assert main(["search", "--data", str(data), "--v", "6", "--g", "2", "--s", "3", "--out", str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()


class TestExperimentCommand:
    def test_four_urns_outputs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "four_urns", "n_samples": 60, "n_runs": 2, "base_seed": 10,
            "checkpoints": [30, 60],
        }))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["curves.csv", "fig_per_urn.svg", "fig_totals.svg", "manifest.json"]
        assert len((out_dir / "curves.csv").read_text().splitlines()) > 5
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["spec_digest"].startswith("0x")
        assert len(manifest["run_seeds"]) == 2

    def test_expensive_refused_without_flag(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "bit_vectors", "n_samples": 50, "n_runs": 1, "base_seed": 1,
            "cases": ["c12"], "checkpoints": [50],
            "truth": {"v": 12, "g": 4, "s": 3},
        }))
        rc = main(["experiment", "--spec", str(spec), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "allow_expensive" in capsys.readouterr().err

    def test_bits_experiment_and_plot(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "bit_vectors", "n_samples": 80, "n_runs": 2, "base_seed": 12,
            "cases": ["c0", "c13", "c1"], "checkpoints": [40, 80],
            "truth": {"v": 6, "g": 2, "s": 3},
        }))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
        svg = tmp_path / "replot.svg"
        assert main(["plot", "--csv", str(out_dir / "curves.csv"), "--out", str(svg), "--log-y"]) == 0
        assert svg.read_text().startswith("<svg ")

    URNS = {"kind": "four_urns", "n_samples": 20, "n_runs": 1, "base_seed": 1}
    BITS = {
        "kind": "bit_vectors", "n_samples": 200, "n_runs": 1, "base_seed": 1,
        "cases": ["c1"], "truth": {"v": 6, "g": 2, "s": 3},
    }

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({**URNS, "estimator": {"em_restarts": 2.5}}, "'estimator.em_restarts'"),
            ({**URNS, "search": {"workers": 2.0}}, "'search.workers'"),
            ({**URNS, "n_samples": 20.7}, "'n_samples'"),
            ({**URNS, "resample_truth": "false"}, "'resample_truth'"),
            ({**URNS, "search": {"expensive_threshold": 5}}, "'search.expensive_threshold'"),
            ({**BITS, "search": {"checkpoints": [105, 155]}}, "search.checkpoints [105, 155]"),
            ({**BITS, "search": {"checkpoints": [0, -4, 999]}}, "search.checkpoints [0, -4, 999]"),
            ({**BITS, "search": {"checkpoints": []}}, "search.checkpoints []"),
            ({**URNS, "checkpoints": []}, "spec: checkpoints []"),
            ({**BITS, "checkpoints": []}, "spec: checkpoints []"),
        ],
        ids=["float_int", "float_workers", "float_samples", "string_bool", "removed_threshold",
             "off_grid_checkpoints", "out_of_range_checkpoints", "empty_checkpoints",
             "empty_urn_curve_checkpoints", "empty_bit_curve_checkpoints"],
    )
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, spec, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["experiment", "--spec", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["plot", "--nope"]) == 2
        capsys.readouterr()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        csv.write_text("case,run,samples,kl,urn\nx,0,1,0.5,\n")
        rc = main(["plot", "--csv", str(csv), "--out", str(tmp_path / "missing" / "x.svg")])
        assert rc == 1
        capsys.readouterr()
