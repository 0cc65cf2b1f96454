import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from ptwide.activations import LINEAR
from ptwide.cli import main as cli_main
from ptwide.embedding import EmbeddingSpec
from ptwide.errors import InvalidConfigError
from ptwide.harness import (PRESETS, SUMMARY_COLUMNS, ConcentrationConfig, DatasetConfig,
                            ExperimentConfig, GramConfig, parse_experiment_config, rate_fit,
                            run_experiment, run_single)
from ptwide.harness import test_error as eval_error
from ptwide.model import OURS, ModelConfig, Parameters
from ptwide.embedding import EmbeddingWeights
from ptwide.train import TrainConfig, run_training


class TestRateFit:
    def test_geometric_series(self):
        steps = list(range(30))
        losses = [0.9 ** t for t in steps]
        slope, r2 = rate_fit(steps, losses)
        assert abs(slope - math.log(0.9)) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_constant_series(self):
        slope, r2 = rate_fit([0, 1, 2], [0.5, 0.5, 0.5])
        assert abs(slope) < 1e-12 and r2 == 1.0

    def test_window_stops_at_floor(self):
        steps = [0, 1, 2, 3]
        losses = [1.0, 0.1, 1e-12, 1e-13]  # last two below the fit floor
        slope, _ = rate_fit(steps, losses)
        assert abs(slope - math.log(0.1)) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(InvalidConfigError):
            rate_fit([0], [1.0])
        with pytest.raises(InvalidConfigError):
            rate_fit([0, 1], [1e-12, 1e-13])

    def test_scalar_model_slope(self):
        # one linear neuron on one point: residual contracts by a fixed
        # factor, so the fitted slope is exactly its squared log
        x, delta = 0.7, 0.4
        cfg = ModelConfig(embedding=EmbeddingSpec(kind="identity", d=1, D=1),
                          activation=LINEAR, scaling=OURS, m=1)
        params = Parameters(W=np.array([[0.3]]), c=np.array([1.0]),
                            embedding_weights=EmbeddingWeights(), c_hat=1.0)
        trace = run_training(cfg, TrainConfig(steps=40, delta=delta,
                                              record_eta=False),
                             np.array([[x]]), np.array([1.0]), init=params)
        slope, r2 = rate_fit(trace.steps, trace.losses)
        expected = 2.0 * math.log(abs(1.0 - delta * x * x))
        assert abs(slope - expected) < 1e-6
        assert r2 > 1.0 - 1e-9


class TestTestError:
    def test_mse_default(self):
        assert eval_error(np.array([1.0, 3.0]), np.array([1.0, 1.0]),
                          "random_label") == 2.0

    def test_perfect_sign_classification(self):
        assert eval_error(np.array([0.3, -2.0]), np.array([1.0, -1.0]),
                          "wei") == 0.0

    def test_zero_output_counts_as_error(self):
        assert eval_error(np.zeros(4), np.ones(4), "wei") == 1.0

    def test_partial_sign_error(self):
        f = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, 1.0, 1.0])
        assert eval_error(f, y, "wei") == 0.5


class TestConfigParsing:
    def _base(self, **over):
        raw = {"experiment": "exp1", "n_list": [10], "seeds": [1],
               "m": 16, "steps": 10}
        raw.update(over)
        return raw

    def test_defaults_filled(self):
        cfg = parse_experiment_config(self._base())
        assert cfg.dataset == "random_label"
        assert cfg.activation == "tanh"
        assert cfg.embedding == "identity"
        assert cfg.d == 20

    def test_defaults_are_the_dataclass_and_preset_defaults(self):
        for experiment in ("exp1", "exp2", "exp3"):
            cfg = parse_experiment_config({"experiment": experiment,
                                           "n_list": [4], "seeds": [1]})
            assert cfg == ExperimentConfig(experiment=experiment, n_list=[4], seeds=[1],
                                           **PRESETS[experiment])

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_experiment_config(self._base(learning_rate=0.1))

    def test_integral_floats_read_as_integers(self):
        cfg = parse_experiment_config(self._base(m=16.0, n_list=[10.0], steps=1e1))
        assert (cfg.m, cfg.n_list, cfg.steps) == (16, [10], 10)
        assert all(type(v) is int for v in (cfg.m, cfg.n_list[0], cfg.steps))

    def test_real_keys_read_as_floats(self):
        cfg = parse_experiment_config(self._base(delta=1, c_hat="0.5"))
        assert (cfg.delta, cfg.c_hat) == (1.0, 0.5)
        assert type(cfg.delta) is float and type(cfg.c_hat) is float

    def test_empty_seeds_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_experiment_config(self._base(seeds=[]))

    def test_empty_n_list_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_experiment_config(self._base(n_list=[]))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_experiment_config(self._base(experiment="exp9"))
        with pytest.raises(InvalidConfigError):
            parse_experiment_config(self._base(experiment="diag_sweep"))

    def test_custom_requires_dataset(self):
        with pytest.raises(InvalidConfigError):
            parse_experiment_config({"experiment": "custom", "n_list": [5],
                                     "seeds": [1]})

    def test_exp3_width_tying(self):
        raw = self._base(experiment="exp3", m=64, D=32)
        with pytest.raises(InvalidConfigError):
            parse_experiment_config(raw)
        cfg = parse_experiment_config(self._base(experiment="exp3", m=64, D=64))
        assert cfg.D == 64


@pytest.fixture(scope="module")
def small_cfg():
    return parse_experiment_config({
        "experiment": "exp1", "d": 6, "n_list": [4], "m": 16,
        "seeds": [1, 2], "scalings": ["ours"], "steps": 50,
        "delta": 0.5, "record_every": 5, "n_test": 20,
    })


class TestRunExperiment:
    def test_written_config_parses_back(self, small_cfg, tmp_path):
        run_experiment(small_cfg, out_dir=str(tmp_path))
        written = json.loads((tmp_path / "config.json").read_text())
        assert parse_experiment_config(written) == small_cfg

    def test_summary_shape_and_artifacts(self, small_cfg, tmp_path):
        out = tmp_path / "runs"
        rows = run_experiment(small_cfg, out_dir=str(out))
        assert len(rows) == 2  # 1 scaling x 1 n x 2 seeds
        for row in rows:
            assert list(row) == SUMMARY_COLUMNS
            assert math.isfinite(row["final_loss"])
        names = os.listdir(out)
        assert "summary.csv" in names and "config.json" in names
        assert any(n.startswith("trace_") for n in names)
        assert any(n.startswith("snaps_") for n in names)
        assert any(n.startswith("features_") for n in names)
        assert any(n.startswith("mean_") for n in names)

    def test_rerun_bit_identical(self, small_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(small_cfg, out_dir=str(out1))
        run_experiment(small_cfg, out_dir=str(out2))
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_single_cell_independent_of_grid(self, small_cfg):
        lone = run_single(small_cfg, "ours", 4, 1)
        solo_cfg = parse_experiment_config({
            "experiment": "exp1", "d": 6, "n_list": [4], "m": 16,
            "seeds": [1], "scalings": ["ours"], "steps": 50,
            "delta": 0.5, "record_every": 5, "n_test": 20,
        })
        again = run_single(solo_cfg, "ours", 4, 1)
        assert lone.row == again.row

    def test_probe_scatter_rows(self, small_cfg, tmp_path):
        out = tmp_path / "runs"
        run_experiment(small_cfg, out_dir=str(out))
        scatter = [n for n in os.listdir(out) if n.startswith("features_")][0]
        lines = (out / scatter).read_text().strip().splitlines()
        assert lines[0] == "step,neuron,h_train,h_test"
        # m neurons at each of the three default snapshot steps
        assert len(lines) == 1 + 3 * small_cfg.m


VERB_SCHEMAS = {"gen-data": DatasetConfig, "gram": GramConfig,
                "concentration": ConcentrationConfig}


class TestCli:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_gen_data(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "gen.json",
                          {"dataset": "wei", "n": 10, "d": 3, "seed": 1})
        rc = cli_main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "wei_train.csv").exists()

    def test_gram(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "gram.json",
                          {"dataset": "random_label", "n": 5, "d": 8,
                           "seed": 2, "embedding": "identity"})
        rc = cli_main(["gram", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "gram.json").read_text())
        assert payload["kind"] == "g0" and payload["n"] == 5

    def test_experiment(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "exp.json",
                          {"experiment": "exp1", "d": 6, "n_list": [4],
                           "m": 8, "seeds": [3], "steps": 20, "delta": 0.5,
                           "record_every": 5, "n_test": 10})
        rc = cli_main(["experiment", "--config", cfg,
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "summary.csv").exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "bad.json",
                          {"dataset": "wei", "n": 5, "d": 3, "bogus": 1})
        rc = cli_main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_negative_n_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "bad.json", {"dataset": "wei", "n": -3, "d": 5})
        rc = cli_main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"dataset": "wei", "n": 5,')
        rc = cli_main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("verb, payload", [
        ("gram", {"mc_samples": "abc"}),
        ("concentration", {"D_list": [16, 32], "mc_samples": "x"}),
        ("concentration", {}),
        ("gram", {"activation": "leaky_relu(x)"}),
        ("gram", {"seed": -1}),
        ("gen-data", {"n": 10.5}),
        ("gram", {"mc_samples": True}),
        ("gram", {"embedding": "deep_random", "depth": 2, "mc_samples": 2000}),
        ("gram", {"D": 64, "mc_samples": 2000}),
        ("gram", {"embedding": "identity", "D": 999, "depth": 7}),
        ("gram", {"embedding": "identity", "D": 3}),
        ("gram", {"embedding": "quadratic", "D": 9}),
        ("gram", {"D": 64}),
        ("gram", {"embedding": "random_feature", "D": 64, "depth": 3}),
        ("gram", {"depth": 3}),
    ], ids=["gram-mc_samples-type", "concentration-mc_samples-type",
            "concentration-missing-D_list", "gram-leaky-slope", "gram-negative-seed",
            "gen-data-fractional-n", "gram-bool-mc_samples", "gram-mc_samples-with-embedding",
            "gram-mc_samples-with-D", "gram-identity-with-D-and-depth",
            "gram-identity-with-its-own-D", "gram-quadratic-with-D", "gram-default-with-D",
            "gram-random_feature-with-depth", "gram-default-with-depth"])
    def test_bad_gram_and_concentration_config_exits_2(self, tmp_path, capsys,
                                                       verb, payload):
        cfg = self._write(tmp_path / "bad.json",
                          {"dataset": "wei", "n": 10, "d": 3, **payload})
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["experiment", "train"])
    @pytest.mark.parametrize("payload", [
        {"m": "x"}, {"seeds": 1}, {"delta": "fast"}, {"snapshot_steps": ["a"]},
        {"n_list": [4.9]}, {"m": 8.7}, {"seeds": [True]}, {"steps": 5.5},
        {"delta": True}, {"c_hat": False}, {"delta": float("nan")},
        {"c_hat": float("inf")}, {"delta": "-inf"}, {"scalings": []},
        {"scalings": ["ours", "bogus"]}, {"output_dir": "runs"},
        {"scalings": ["ours", "mf"]}, {"m": 7, "scalings": ["ours", "ntk"]},
        {"n_list": [4, -1]}, {"seeds": [1, -1]},
        {"D": 6}, {"depth": 3}, {"experiment": "exp2", "d": 3, "D": 9},
        {"experiment": "exp3", "d": 3, "depth": 4},
        {"snapshot_steps": [0, 500, -3]}, {"snapshot_steps": [6]},
        {"snapshot_steps": [-1]},
    ], ids=["m-type", "seeds-not-list", "delta-type", "snapshot-steps-type",
            "n_list-fractional", "m-fractional", "seeds-bool", "steps-fractional",
            "delta-bool", "c_hat-bool", "delta-nan", "c_hat-inf", "delta-minus-inf-string",
            "scalings-empty", "scalings-unknown-second", "output_dir-not-a-key",
            "mf-second-with-D-not-m", "ntk-second-with-odd-m", "n_list-negative-second",
            "seeds-negative-second", "identity-with-D", "identity-with-depth",
            "quadratic-with-D", "random_feature-with-depth", "snapshot-steps-outside",
            "snapshot-step-past-steps", "snapshot-step-negative"])
    def test_bad_experiment_config_exits_2(self, tmp_path, capsys, verb, payload):
        cfg = self._write(tmp_path / "bad.json",
                          {"experiment": "exp1", "d": 6, "n_list": [4], "m": 8,
                           "seeds": [1], "steps": 5, **payload})
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()  # rejected before any cell ran

    @pytest.mark.parametrize("verb, key", [(verb, f.name) for verb, cls in VERB_SCHEMAS.items()
                                           for f in fields(cls)])
    def test_every_key_rejects_a_value_of_the_wrong_type(self, tmp_path, capsys, verb, key):
        # A string key gets a list, any other key a boolean; each is one error line.
        kind = {f.name: f.type for f in fields(VERB_SCHEMAS[verb])}[key]
        payload = {"dataset": "wei", "n": 10, "d": 3}
        if verb == "concentration":
            payload["D_list"] = [16, 32]
        payload[key] = ["wei"] if "str" in kind else True
        cfg = self._write(tmp_path / "bad.json", payload)
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert f"config key {key!r}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["train", "experiment", "gram", "concentration",
                                      "gen-data"])
    @pytest.mark.parametrize("content", [None, "null", "5", '"abc"', "[]"],
                             ids=["missing-file", "null", "number", "string", "list"])
    def test_unreadable_or_non_object_config_exits_2(self, tmp_path, capsys, verb,
                                                     content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        rc = cli_main([verb, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "unknown config keys" not in err

    def test_concentration_seed_override(self, tmp_path, capsys):
        # --seed sets the probe's seed too, not only the dataset's
        outs = []
        for seed in (1, 2):
            cfg = self._write(tmp_path / f"conc{seed}.json",
                              {"dataset": "random_label", "n": 6, "d": 4,
                               "seed": seed, "D_list": [64, 256], "trials": 3,
                               "mc_samples": 2000})
            out = tmp_path / f"o{seed}"
            rc = cli_main(["concentration", "--config", cfg, "--out", str(out),
                           "--seed", "1"])
            assert rc == 0
            outs.append((out / "concentration.csv").read_text())
        assert outs[0] == outs[1]

    def test_gram_mc_at_exp3_size(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "gram.json",
                          {"dataset": "wei", "n": 200, "d": 50, "seed": 1,
                           "mc_samples": 20_000})
        rc = cli_main(["gram", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "gram.json").read_text())
        assert payload["kind"] == "limit_mc" and payload["n"] == 200

    def test_seed_override(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "gen.json",
                          {"dataset": "random_label", "n": 5, "d": 2, "seed": 1})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli_main(["gen-data", "--config", cfg, "--out", str(out1)])
        cli_main(["gen-data", "--config", cfg, "--out", str(out2), "--seed", "9"])
        a = (out1 / "random_label_train.csv").read_text()
        b = (out2 / "random_label_train.csv").read_text()
        assert a != b
