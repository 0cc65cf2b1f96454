import csv
import ctypes
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest

import ptwide
from ptwide.activations import LINEAR, get_activation
from ptwide.cli import main as cli_main
from ptwide.embedding import EmbeddingSpec
from ptwide.errors import InvalidConfigError
from ptwide.harness import (PRESETS, SUMMARY_COLUMNS, ConcentrationConfig, DatasetConfig,
                            ExperimentConfig, GramConfig, cells, parse,
                            parse_experiment_config, rate_fit, run_experiment, run_single)
from ptwide.datasets import test_error as eval_error
from ptwide.model import MF, NTK, OURS, ModelConfig
from ptwide.numkernel import fmt
from ptwide.train import TrainConfig, run_training
from conftest import traced_peak


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):     # no handle on the process's own symbols
        return False


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
        # one linear neuron on one point: the residual contracts by the
        # fixed factor 1 - delta c^2 x^2 whatever the drawn w, so the fitted
        # slope is exactly its squared log
        x, delta = 0.7, 0.4
        cfg = ModelConfig(embedding=EmbeddingSpec(kind="identity", d=1, D=1),
                          activation=LINEAR, scaling=OURS, m=1, c_hat=1.5)
        trace = run_training(cfg, TrainConfig(steps=40, delta=delta,
                                              record_eta=False),
                             np.array([[x]]), np.array([1.0]))
        slope, r2 = rate_fit(trace.steps, trace.losses)
        expected = 2.0 * math.log(abs(1.0 - delta * cfg.c_hat ** 2 * x * x))
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

    def test_each_kind_has_its_metric(self):
        f, y = np.array([1.0, -1.0]), np.array([1.0, 1.0])
        assert eval_error(f, y, "random_label") == eval_error(f, y, "quadratic_teacher") == 2.0
        assert eval_error(f, y, "wei") == 0.5

    @pytest.mark.parametrize("kind", ["Wei", "mnist", ""])
    def test_unknown_kind_rejected(self, kind):
        # an unknown kind is not scored as MSE, as the CLI's generate would reject it
        with pytest.raises(InvalidConfigError, match=re.escape(f"unknown dataset kind {kind!r}")):
            eval_error([1.0, -1.0], [1.0, 1.0], kind)


# A valid config of each schema, with every required key.
SCHEMAS = {
    DatasetConfig: {"dataset": "wei", "n": 10, "d": 3},
    GramConfig: {"dataset": "wei", "n": 10, "d": 3},
    ConcentrationConfig: {"dataset": "wei", "n": 10, "d": 3, "D_list": [16, 32]},
    ExperimentConfig: {"n_list": [4], "seeds": [1], "dataset": "wei", "embedding": "identity",
                       "activation": "relu", "d": 3},
}

# A cheap grid whose one cell fails the lemma-1 monitor and passes the PL monitor.
LEMMA1_FAILS = {"experiment": "exp1", "d": 3, "n_list": [4], "m": 8, "seeds": [3],
                "steps": 20, "delta": 2.0, "record_every": 1, "n_test": 5}


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
        assert (cfg.m, cfg.n_list, cfg.steps) == (16, (10,), 10)
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

    @pytest.mark.parametrize("cls, key", [(cls, f.name) for cls in SCHEMAS
                                          for f in fields(cls)])
    def test_null_means_not_given_exactly_where_the_annotation_admits_none(self, cls, key):
        kind = {f.name: f.type for f in fields(cls)}[key]
        raw = {**SCHEMAS[cls], key: None}
        if "| None" in kind:
            assert getattr(parse(cls, raw), key) is None
        else:
            with pytest.raises(InvalidConfigError, match=f"config key {key!r}"):
                parse(cls, raw)

    def test_exp3_width_tying(self):
        raw = self._base(experiment="exp3", m=64, D=32)
        with pytest.raises(InvalidConfigError):
            parse_experiment_config(raw)
        cfg = parse_experiment_config(self._base(experiment="exp3", m=64, D=64))
        assert cfg.D == 64


# A valid grid built directly, without parse, and each fault of its axes
# with what its error names.
DIRECT = dict(experiment="exp1", n_list=[6], seeds=[1], dataset="random_label",
              embedding="identity", activation="tanh", d=6, m=8, steps=5, n_test=5)
EXP3 = dict(experiment="exp3", dataset="wei", embedding="random_feature", activation="relu")


class TestExperimentConfigChecksItself:
    @pytest.mark.parametrize("over, named", [
        ({"n_list": [6, 6]}, "n_list repeats"), ({"seeds": [1, 1]}, "seeds repeats"),
        ({"scalings": ["ours", "ours"]}, "scalings repeats"),
        ({"n_list": []}, "n_list must be non-empty"), ({"seeds": []}, "seeds must be non-empty"),
        ({"scalings": []}, "scalings must be non-empty"),
        ({"n_test": 0}, "n_test must be >= 1"), ({**EXP3, "D": 16}, "exp3 requires D == m"),
        ({"scalings": ["ours", "bogus"]}, "unknown scaling variant 'bogus'"),
        ({"n_list": [6, 0]}, "n and d must be >= 1"), ({"D": 7}, "identity embedding takes no D"),
        ({"experiment": "exp9"}, "unknown experiment 'exp9'"),
    ], ids=["n_list-repeated", "seeds-repeated", "scalings-repeated", "n_list-empty",
            "seeds-empty", "scalings-empty", "n_test-zero", "exp3-D-not-m",
            "scaling-unknown", "n-zero-second", "identity-with-D", "experiment-unknown"])
    def test_direct_build_rejects_a_bad_grid(self, over, named):
        with pytest.raises(InvalidConfigError, match=named):
            ExperimentConfig(**{**DIRECT, **over})

    def test_direct_build_of_a_good_grid(self):
        assert ExperimentConfig(**DIRECT) == parse_experiment_config(DIRECT)
        assert ExperimentConfig(**{**DIRECT, **EXP3, "D": 8}).D == 8

    def test_replace_checks_again(self):
        cfg = ExperimentConfig(**DIRECT)
        assert replace(cfg, seeds=[7]).seeds == (7,)
        with pytest.raises(InvalidConfigError, match="seeds repeats a value"):
            replace(cfg, seeds=[1, 1])
        with pytest.raises(InvalidConfigError, match="n_test must be >= 1"):
            replace(cfg, n_test=0)

    def test_caller_lists_are_copied(self):
        # a checked grid holds tuples, so the caller's lists cannot change it
        kw = {**DIRECT, "n_list": [6], "seeds": [1], "scalings": ["ours"],
              "snapshot_steps": [0, 5]}
        cfg = ExperimentConfig(**kw)
        before = list(cells(cfg))
        for key in ("n_list", "seeds", "scalings", "snapshot_steps"):
            kw[key].append(kw[key][-1])
            assert isinstance(getattr(cfg, key), tuple)
        assert list(cells(cfg)) == before == [("ours", 6, 1)]
        assert cfg.snapshot_steps == (0, 5)
        for changed in (replace(cfg, n_list=[6, 7]),
                        parse_experiment_config({**DIRECT, "n_list": [6, 7]})):
            assert changed.n_list == (6, 7) and isinstance(changed.seeds, tuple)

    def test_concentration_D_list_is_copied(self):
        D_list = [16, 32]
        cfg = ConcentrationConfig(dataset="wei", n=10, d=3, D_list=D_list)
        D_list.insert(0, 64)
        assert cfg.D_list == (16, 32)
        assert parse(ConcentrationConfig, SCHEMAS[ConcentrationConfig]).D_list == (16, 32)

    def test_bad_grid_writes_nothing(self, tmp_path):
        # the grid is rejected when it is built, so run_experiment never starts
        with pytest.raises(InvalidConfigError):
            run_experiment(ExperimentConfig(**{**DIRECT, "n_list": [6, 6]}), str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cls", [DatasetConfig, GramConfig, ConcentrationConfig,
                                     ExperimentConfig])
    def test_fields_cannot_be_assigned(self, cls):
        cfg = parse(cls, SCHEMAS[cls])
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))


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
        assert lone.trace.final_params is None  # read by pl_monitor, then dropped

    @pytest.mark.parametrize("scaling", ["ours", "ntk", "mf"])
    def test_cell_holds_one_W(self, scaling):
        # a cell draws W inside run_training and keeps only the final one,
        # so at m = D = 512 and a small n its peak is one (m, D) W and a
        # block of the final W's product, within 1.75 W (two Ws used to be
        # live at once: the cell's initial W and the final W)
        m = 512
        cfg = parse_experiment_config({
            "experiment": "exp3", "n_list": [20], "m": m, "seeds": [1],
            "scalings": [scaling], "steps": 3, "record_every": 1, "n_test": 20})
        run_single(cfg, scaling, 20, 1)    # the first call imports modules, which are traced
        result, peak = traced_peak(run_single, cfg, scaling, 20, 1)
        assert math.isfinite(result.row["final_loss"])
        assert peak <= 1.75 * m * m * 8

    def test_probe_scatter_rows(self, small_cfg, tmp_path):
        out = tmp_path / "runs"
        run_experiment(small_cfg, out_dir=str(out))
        scatter = [n for n in os.listdir(out) if n.startswith("features_")][0]
        lines = (out / scatter).read_text().strip().splitlines()
        assert lines[0] == "step,neuron,h_train,h_test"
        # m neurons at each of the three default snapshot steps
        assert len(lines) == 1 + 3 * small_cfg.m

    def test_features_h_train_is_the_snapshot_column(self, tmp_path):
        # h_train is read from the loop's own H, so at every snapshot step of
        # every cell it parses back to the bits of the snapshot's H[:, 0]
        cfg = parse_experiment_config({
            "experiment": "exp1", "d": 6, "n_list": [4, 8], "m": 32,
            "seeds": [1, 2], "scalings": ["ours", "ntk"], "steps": 40,
            "delta": 0.5, "record_every": 5, "n_test": 20})
        run_experiment(cfg, out_dir=str(tmp_path))
        for scaling, n, seed in cells(cfg):
            tag = f"exp1_{scaling}_n{n}_m32_s{seed}"
            with open(tmp_path / f"features_{tag}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert sorted({int(r["step"]) for r in rows}) == [0, 20, 40]
            with np.load(tmp_path / f"snaps_{tag}.npz") as snaps:
                for step in (0, 20, 40):
                    h = np.array([float(r["h_train"]) for r in rows if int(r["step"]) == step])
                    assert h.tobytes() == snaps[f"H_{step}"][:, 0].tobytes()


VERB_SCHEMAS = {"gen-data": DatasetConfig, "gram": GramConfig,
                "concentration": ConcentrationConfig}
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_configs_parse():
    # Each `cat > NAME.json <<'JSON'` block of the README is read as a config
    # of the verb that the next line runs on NAME.json, which for a grid checks
    # its cells too, so an example that goes stale fails here in milliseconds.
    text = README.read_text()
    examples = re.findall(r"cat > (\S+) <<'JSON'\n(.*?)\nJSON\nptwide (\S+) --config \1 ",
                          text, re.DOTALL)
    assert examples and len(examples) == text.count("<<'JSON'")
    for _, body, verb in examples:
        raw = json.loads(body)
        if verb in ("train", "experiment"):
            parse_experiment_config(raw)
        else:
            parse(VERB_SCHEMAS[verb], raw)


def test_readme_key_table_is_the_dataclasses():
    # The README's table of each verb's keys copies the config schema, so each
    # row must name exactly its dataclass's fields, the required ones (no
    # default) in the middle column, and each default that reads as JSON must
    # be the field's default where that is not None, a JSON list read as a tuple.
    schemas = {**VERB_SCHEMAS, "train": ExperimentConfig, "experiment": ExperimentConfig}
    rows = re.findall(r"^\| (`.*?`) \| (.*?) \| (.*?) \|$", README.read_text(), re.MULTILINE)
    columns = {}            # verb -> (required keys cell, optional keys cell)
    for verbs, *cols in rows:
        cols = [re.sub(r"as `([\w-]+)`", lambda m, i=i: columns[m[1]][i], cell)
                  for i, cell in enumerate(cols)]
        columns.update((verb, cols) for verb in re.findall(r"`([\w-]+)`", verbs))
    assert set(columns) == set(schemas)
    for verb, (required, optional) in columns.items():
        given = {f.name: f for f in fields(schemas[verb])}
        required = re.findall(r"`(\w+)`", required)
        defaults = dict(re.findall(r"`(\w+)` \(([^)]*)\)", optional))
        assert set(re.findall(r"`(\w+)`", optional)) == set(defaults), verb
        assert sorted([*required, *defaults]) == sorted(given), verb
        assert {k for k, f in given.items()
                if f.default is MISSING and f.default_factory is MISSING} == set(required), verb
        for key, written in defaults.items():
            f = given[key]
            default = f.default_factory() if f.default is MISSING else f.default
            try:
                value = json.loads(written)
            except ValueError:
                continue        # d, m, "0, off", "0, steps // 2, steps"
            if default is not None:
                value = tuple(value) if isinstance(value, list) else value  # as parse reads it
                assert (value, type(value)) == (default, type(default)), (verb, key)


def test_readme_scaling_table_and_activations_are_the_code():
    # README's scaling table and model.py's docstring table copy the exponents
    # (p, q, lr) of OURS, NTK and MF; README's list of activations names
    # exactly what get_activation parses, the leaky_relu family by its slope.
    text = README.read_text()
    want = {s.name: (s.output_exponent, s.hidden_exponent, s.lr_exponent)
            for s in (OURS, NTK, MF)}
    readme_rows = re.findall(r"^\| (\w+) *\|" + r" *([\d/]+) *\|" * 3, text, re.MULTILINE)
    doc_rows = re.findall(r"^ +(\w+)" + r" +([\d/]+)" * 3 + "$", ptwide.model.__doc__, re.MULTILINE)
    for rows in (readme_rows, doc_rows):
        assert {name: tuple(float(Fraction(v)) for v in row) for name, *row in rows} == want
    sentence = re.search(r"Activations: (.*?)\.\n", text, re.DOTALL)[1]
    names = re.findall(r"`([^`]+)`", sentence)
    assert sorted(n for n in names if n != "leaky_relu(slope)") == sorted(ptwide.activations._BY_NAME)
    assert "leaky_relu(slope)" in names
    for name in names:
        get_activation(name.replace("slope", "0.5"))     # raises on a name it cannot parse


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    # The ```python blocks under README's "Library use" run as written, one
    # after another in one namespace (the second uses the first's import),
    # from an empty working directory, so an example that calls an option
    # the library no longer has fails here.
    section = README.read_text().split("\n## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    with open(tmp_path / "runs" / "summary.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(printed) == 2 + len(cells) and len(cells) == 2     # exp1 runs ours


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

    def test_exp2_quadratic_teacher(self, tmp_path, capsys):
        # the exp2 preset end to end: quadratic teacher, quadratic embedding
        cfg = self._write(tmp_path / "exp2.json",
                          {"experiment": "exp2", "d": 3, "n_list": [6], "m": 8,
                           "seeds": [1], "scalings": ["ours", "ntk"], "steps": 20,
                           "record_every": 5, "n_test": 5})
        out = tmp_path / "o"
        rc = cli_main(["experiment", "--config", cfg, "--out", str(out)])
        assert rc == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scaling"] for r in rows] == ["ours", "ntk"]
        for row in rows:
            with open(out / f"trace_exp2_{row['scaling']}_n6_m8_s1.csv") as fh:
                first = next(csv.DictReader(fh))
            assert first["step"] == "0"
            final = float(row["final_loss"])
            assert math.isfinite(final) and final < float(first["loss"])

    @pytest.mark.parametrize("key", ["embedding", "D", "depth"])
    def test_gram_null_key_is_not_given(self, tmp_path, capsys, key):
        base = {"dataset": "random_label", "n": 5, "d": 4, "seed": 2}
        outs = []
        for payload in (base, {**base, key: None}):
            out = tmp_path / f"o{len(outs)}"
            cfg = self._write(tmp_path / "gram.json", payload)
            assert cli_main(["gram", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "gram.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("verb", ["experiment", "train"])
    def test_failed_monitor_exits_1_unless_no_strict(self, tmp_path, capsys, verb):
        cfg = self._write(tmp_path / "exp.json", LEMMA1_FAILS)
        strict, lax = tmp_path / "strict", tmp_path / "lax"
        assert cli_main([verb, "--config", cfg, "--out", str(strict)]) == 1
        assert cli_main([verb, "--config", cfg, "--out", str(lax), "--no-strict"]) == 0
        with open(strict / "summary.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["lemma1_pass"], row["pl_pass"]) == ("False", "True")
        names = sorted(os.listdir(strict))
        assert names == sorted(os.listdir(lax))
        for name in names:
            assert (strict / name).read_bytes() == (lax / name).read_bytes()

    def test_train_writes_its_cell(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "exp.json", LEMMA1_FAILS)
        out = tmp_path / "o"
        cli_main(["train", "--config", cfg, "--out", str(out), "--no-strict"])
        assert sorted(os.listdir(out)) == ["snapshots.npz", "summary.csv", "trace.csv"]
        cell = run_single(parse_experiment_config(LEMMA1_FAILS), "ours", 4, 3)
        with open(out / "summary.csv") as fh:
            assert list(csv.reader(fh)) == [SUMMARY_COLUMNS,
                                            [fmt(cell.row[c]) for c in SUMMARY_COLUMNS]]
        with open(out / "trace.csv") as fh:
            trace = list(csv.DictReader(fh))
        assert [int(r["step"]) for r in trace] == cell.trace.steps == list(range(21))
        assert [r["loss"] for r in trace] == [fmt(v) for v in cell.trace.losses]
        assert [r["test_error"] for r in trace] == [fmt(v) for v in cell.trace.test_errors]
        with np.load(out / "snapshots.npz") as snaps:
            assert sorted(snaps.files) == ["H_0", "H_10", "H_20", "f_0", "f_10", "f_20"]
            for step, (H, f) in cell.trace.snapshots.items():
                np.testing.assert_array_equal(snaps[f"H_{step}"], H)
                np.testing.assert_array_equal(snaps[f"f_{step}"], f)

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_grid_peak_is_its_largest_cell(self, tmp_path):
        # under the CLI's fixed mmap threshold, a second cell of the same
        # shape adds (almost) nothing to the peak RSS: freed (m, n) and
        # (m, n_test) arrays go back to the system, not to heap holes
        src = os.path.dirname(os.path.dirname(ptwide.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        script = ("import resource, sys\n"
                  "from ptwide.cli import main\n"
                  "main(sys.argv[1:])\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        peaks = []
        for scalings in (["ours"], ["ours", "ntk"]):
            cfg = self._write(tmp_path / "grid.json",
                              {"experiment": "exp3", "n_list": [200], "m": 1024,
                               "seeds": [1], "scalings": scalings, "steps": 10,
                               "record_every": 10, "n_test": 500})
            done = subprocess.run([sys.executable, "-c", script, "experiment", "--config",
                                   cfg, "--out", str(tmp_path / "o"), "--no-strict"],
                                  env=env, capture_output=True, text=True, check=True)
            peaks.append(int(done.stdout.split()[-1]))         # KiB on Linux
        assert peaks[1] <= peaks[0] + 2 * 1024

    @pytest.mark.parametrize("verb", ["gram", "concentration", "gen-data"])
    def test_no_strict_only_where_monitors_run(self, tmp_path, capsys, verb):
        cfg = self._write(tmp_path / "c.json", {"dataset": "wei", "n": 10, "d": 3})
        with pytest.raises(SystemExit) as exc:
            cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o"), "--no-strict"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-strict" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        ("concentration", {"D_list": []}),
        ("concentration", {"D_list": [64, 64]}),
        ("concentration", {"D_list": [0, 5]}),
        ("concentration", {"D_list": [16, 32], "trials": 2}),
        ("concentration", {"D_list": [16, 32], "mc_samples": 999}),
        ("gram", {"mc_samples": 999}),
        ("gen-data", {"split": "a/b"}),
        ("gen-data", {"split": "a\0b"}),
        ("gen-data", {"split": ""}),
    ], ids=["gram-mc_samples-type", "concentration-mc_samples-type",
            "concentration-missing-D_list", "gram-leaky-slope", "gram-negative-seed",
            "gen-data-fractional-n", "gram-bool-mc_samples", "gram-mc_samples-with-embedding",
            "gram-mc_samples-with-D", "gram-identity-with-D-and-depth",
            "gram-identity-with-its-own-D", "gram-quadratic-with-D", "gram-default-with-D",
            "gram-random_feature-with-depth", "gram-default-with-depth",
            "concentration-D_list-empty", "concentration-D_list-repeated",
            "concentration-D_list-zero", "concentration-trials-2",
            "concentration-mc_samples-999", "gram-mc_samples-999", "gen-data-split-path",
            "gen-data-split-nul", "gen-data-split-empty"])
    def test_bad_gram_and_concentration_config_exits_2(self, tmp_path, capsys,
                                                       verb, payload):
        cfg = self._write(tmp_path / "bad.json",
                          {"dataset": "wei", "n": 10, "d": 3, **payload})
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb, payload", [
        ("train", LEMMA1_FAILS), ("experiment", LEMMA1_FAILS),
        ("gram", {"dataset": "wei", "n": 10, "d": 3}),
        ("gram", {"dataset": "wei", "n": 10, "d": 3, "mc_samples": 2000}),
        ("concentration", {"dataset": "wei", "n": 10, "d": 3, "D_list": [16, 32],
                           "trials": 3, "mc_samples": 2000}),
        ("gen-data", {"dataset": "wei", "n": 10, "d": 3}),
    ], ids=["train", "experiment", "gram", "gram-mc", "concentration", "gen-data"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch, verb, payload):
        def compute_nothing(*args, **kwargs):
            raise AssertionError("work ran before --out was created")
        for name in ("ptwide.harness.run_single", "ptwide.cli.gram",
                     "ptwide.cli.gram_limit_mc", "ptwide.diagnostics.gram_limit_mc"):
            monkeypatch.setattr(name, compute_nothing)
        out = tmp_path / "o"
        out.write_text("a file")
        cfg = self._write(tmp_path / "c.json", payload)
        rc = cli_main([verb, "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert len(err.strip().splitlines()) == 1
        assert out.read_text() == "a file"

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
        {"snapshot_steps": [-1]}, {"n_list": [6, 6]}, {"seeds": [1, 2, 1]},
        {"scalings": ["ours", "ntk", "ours"]}, {"n_test": 0}, {"n_test": -5},
    ], ids=["m-type", "seeds-not-list", "delta-type", "snapshot-steps-type",
            "n_list-fractional", "m-fractional", "seeds-bool", "steps-fractional",
            "delta-bool", "c_hat-bool", "delta-nan", "c_hat-inf", "delta-minus-inf-string",
            "scalings-empty", "scalings-unknown-second", "output_dir-not-a-key",
            "mf-second-with-D-not-m", "ntk-second-with-odd-m", "n_list-negative-second",
            "seeds-negative-second", "identity-with-D", "identity-with-depth",
            "quadratic-with-D", "random_feature-with-depth", "snapshot-steps-outside",
            "snapshot-step-past-steps", "snapshot-step-negative", "n_list-repeated",
            "seeds-repeated", "scalings-repeated", "n_test-zero", "n_test-negative"])
    def test_bad_experiment_config_exits_2(self, tmp_path, capsys, verb, payload):
        cfg = self._write(tmp_path / "bad.json",
                          {"experiment": "exp1", "d": 6, "n_list": [4], "m": 8,
                           "seeds": [1], "steps": 5, **payload})
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()  # rejected before any cell ran

    @pytest.mark.parametrize("verb, cls", [*VERB_SCHEMAS.items(),
                                           ("experiment", ExperimentConfig),
                                           ("train", ExperimentConfig)])
    def test_unknown_dataset_kind_exits_2(self, tmp_path, capsys, verb, cls):
        cfg = self._write(tmp_path / "bad.json", {**SCHEMAS[cls], "dataset": "mnist"})
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown dataset kind 'mnist'\n"
        assert not (tmp_path / "o").exists()

    def test_n_test_below_one_names_n_test(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "bad.json",
                          {"experiment": "exp1", "d": 6, "n_list": [4], "m": 8,
                           "seeds": [1], "steps": 5, "n_test": 0})
        assert cli_main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: n_test must be >= 1, not 0\n"

    @pytest.mark.parametrize("verb, payload, flags, named", [
        ("gen-data", {"seed": -1}, [], "config key 'seed'"),
        ("gen-data", {"teacher_seed": -1}, [], "config key 'teacher_seed'"),
        ("concentration", {"D_list": [16, 32], "seed": -1}, [], "config key 'seed'"),
        ("gram", {"embedding_seed": -1}, [], "config key 'embedding_seed'"),
        ("gram", {"embedding_seed": -1, "mc_samples": 2000}, [],
         "config key 'embedding_seed'"),
        ("gen-data", {}, ["--seed", "-3"], "--seed"),
        ("experiment", {"teacher_seed": -1}, [], "config key 'teacher_seed'"),
        ("experiment", {"seeds": [-2]}, [], "config key 'seeds'"),
        ("train", {}, ["--seed", "-3"], "--seed"),
    ], ids=["gen-data-seed", "gen-data-teacher_seed", "concentration-seed",
            "gram-embedding_seed", "gram-mc-embedding_seed", "gen-data-seed-flag",
            "experiment-teacher_seed", "experiment-seeds", "train-seed-flag"])
    def test_negative_seed_names_its_key(self, tmp_path, capsys, verb, payload, flags, named):
        base = ({"experiment": "exp1", "d": 6, "n_list": [4], "m": 8, "seeds": [1],
                 "steps": 5} if verb in ("train", "experiment")
                else {"dataset": "quadratic_teacher", "n": 10, "d": 3})
        cfg = self._write(tmp_path / "bad.json", {**base, **payload})
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert named in err and "must be >= 0" in err
        assert not (tmp_path / "o").exists()

    def test_failed_allocation_exits_2(self, tmp_path, capsys, monkeypatch):
        # a stand-in for a D too large to allocate; a real one could wake the OOM killer
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 610. GiB")
        monkeypatch.setattr("ptwide.cli.concentration_probe", too_large)
        cfg = self._write(tmp_path / "c.json", {"dataset": "wei", "n": 10, "d": 3,
                                                "D_list": [4_096_000_000]})
        rc = cli_main(["concentration", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: Unable to allocate 610. GiB\n"

    EXP1 = {"experiment": "exp1", "d": 3, "n_list": [4], "seeds": [1]}
    DATA = {"dataset": "random_label", "n": 4, "d": 3}

    @pytest.mark.parametrize("verb, payload", [
        ("gen-data", {"dataset": "random_label", "n": 3_000_000_000, "d": 3_000_000_000}),
        ("gen-data", {"dataset": "random_label", "n": 2 ** 63, "d": 3}),
        ("experiment", {**EXP1, "m": 10 ** 18}),
        ("experiment", {**EXP1, "m": 2 ** 63}),
        ("gram", {**DATA, "embedding": "random_feature", "D": 10 ** 18}),
        ("concentration", {**DATA, "D_list": [10 ** 18], "mc_samples": 1000}),
    ], ids=["gen-data-too-big", "gen-data-past-dimension", "experiment-m-too-big",
            "experiment-m-past-dimension", "gram-D", "concentration-D"])
    def test_size_numpy_cannot_represent_exits_2(self, tmp_path, capsys, verb, payload):
        # numpy refuses these shapes before it allocates anything
        cfg = self._write(tmp_path / "c.json", payload)
        rc = cli_main([verb, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_other_value_error_keeps_its_traceback(self, tmp_path, monkeypatch):
        def bug(*args, **kwargs):
            raise ValueError("boom")
        monkeypatch.setattr("ptwide.cli.concentration_probe", bug)
        cfg = self._write(tmp_path / "c.json", {**self.DATA, "D_list": [4]})
        with pytest.raises(ValueError, match="boom"):
            cli_main(["concentration", "--config", cfg, "--out", str(tmp_path / "o")])

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

    def test_every_csv_has_crlf_rows_and_fmt_floats(self, tmp_path, capsys):
        exp = self._write(tmp_path / "exp.json",
                          {"experiment": "exp1", "d": 4, "n_list": [4], "m": 8,
                           "seeds": [1, 2], "steps": 10, "record_every": 5, "n_test": 6})
        gen = self._write(tmp_path / "gen.json", {"dataset": "wei", "n": 5, "d": 3})
        conc = self._write(tmp_path / "conc.json",
                           {"dataset": "random_label", "n": 4, "d": 3, "D_list": [16, 32],
                            "trials": 3, "mc_samples": 2000})
        runs = {"experiment": [exp, "--no-strict"], "train": [exp, "--no-strict"],
                "gen-data": [gen], "concentration": [conc]}
        for verb, (cfg, *flags) in runs.items():
            assert cli_main([verb, "--config", cfg, "--out", str(tmp_path / verb), *flags]) == 0
        written = sorted(tmp_path.glob("*/*.csv"))
        assert {p.parent.name for p in written} == set(runs)
        for path in written:
            lines = path.read_bytes().decode().split("\r\n")
            assert lines[-1] == "" and not any("\n" in ln or "\r" in ln for ln in lines), path
            for value in ",".join(lines[1:-1]).split(","):
                try:
                    parsed = float(value)
                except ValueError:
                    continue  # "", "na", "True", "False"
                assert fmt(parsed) == value, (path, value)

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

    @pytest.mark.parametrize("verb", ["train", "experiment"])
    def test_seed_flag_writes_the_one_seed_grid(self, tmp_path, capsys, verb):
        # --seed 7 prints and writes the bytes of the same config with "seeds": [7]
        base = {"experiment": "exp1", "d": 6, "n_list": [4, 5], "m": 8, "seeds": [1, 2],
                "scalings": ["ours", "ntk"], "steps": 10, "record_every": 5, "n_test": 5}
        runs = {"flag": (base, ["--seed", "7"]), "config": ({**base, "seeds": [7]}, [])}
        stdout = {}
        for name, (payload, flags) in runs.items():
            cfg = self._write(tmp_path / f"{name}.json", payload)
            assert cli_main([verb, "--config", cfg, "--out", str(tmp_path / name), *flags]) == 0
            stdout[name] = capsys.readouterr().out
        assert stdout["flag"] == stdout["config"]
        names = sorted(os.listdir(tmp_path / "flag"))
        assert names == sorted(os.listdir(tmp_path / "config")) and "summary.csv" in names
        for name in names:
            assert (tmp_path / "flag" / name).read_bytes() == \
                (tmp_path / "config" / name).read_bytes(), name

    def test_seed_override(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "gen.json",
                          {"dataset": "random_label", "n": 5, "d": 2, "seed": 1})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli_main(["gen-data", "--config", cfg, "--out", str(out1)])
        cli_main(["gen-data", "--config", cfg, "--out", str(out2), "--seed", "9"])
        a = (out1 / "random_label_train.csv").read_text()
        b = (out2 / "random_label_train.csv").read_text()
        assert a != b
