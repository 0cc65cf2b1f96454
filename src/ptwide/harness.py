"""Config-driven reproduction of the three experiments and custom grids.

Executes a grid of (n, seed, scaling) runs, evaluates the rate fit and the
inequality monitors per run, and writes CSV/JSON artifacts: a per-run trace,
a fixed-schema summary table, seed-averaged curves, and the hidden-feature
scatter data for two probe inputs at steps {0, mid, final}.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import datasets
from .activations import get_activation
from .diagnostics import gram, lemma1_monitor, pl_monitor, theory_constants
from .embedding import EmbeddingSpec
from .errors import InvalidConfigError
from .model import ModelConfig, get_scaling, init_params
from .numkernel import fmt
from .train import TrainConfig, TrainingTrace, run_training, snapshots_to_npz, trace_to_csv

SUMMARY_COLUMNS = ["experiment", "scaling", "n", "m", "seed", "final_loss",
                   "test_error", "rate_slope", "rate_r2", "lemma1_pass", "pl_pass"]

RATE_FLOOR = 1e-8


def parse(cls, raw):
    """The dataclass ``cls`` from the JSON object ``raw``, each key read with the
    cast on its field; any fault is an InvalidConfigError (exit 2)."""
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config must be a JSON object, not {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        if f.name in raw:
            try:
                values[f.name] = f.metadata["cast"](raw[f.name])
            except (TypeError, ValueError):
                raise InvalidConfigError(f"config key {f.name!r} has an invalid value "
                                         f"{raw[f.name]!r}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise InvalidConfigError(f"config is missing required key {f.name!r}")
    return cls(**values)


def text(value) -> str:
    """The cast for a string config value: only a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def integer(value) -> int:
    """The cast for an integer config value: ``int``, but a boolean or a
    number with a fractional part is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def real(value) -> float:
    """The cast for a real config value: ``float``, but a boolean or a
    non-finite number (NaN, inf) is rejected."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def list_of(cast):
    """A cast for a JSON list whose every item goes through ``cast``."""
    def convert(value) -> list:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return [cast(v) for v in value]
    return convert


def _optional(cast):
    return lambda value: None if value is None else cast(value)


def _key(cast, **default):
    """A config key read with ``cast``; ``default`` is ``field``'s default(_factory)."""
    return field(metadata={"cast": cast}, **default)


@dataclass
class DatasetConfig:
    """``gen-data``: one split of a dataset."""
    dataset: str = _key(text)
    n: int = _key(integer)
    d: int = _key(integer)
    seed: int = _key(integer, default=0)
    split: str = _key(text, default="train")
    teacher_seed: int = _key(integer, default=999)


@dataclass(kw_only=True)
class GramConfig(DatasetConfig):
    """``gram``: an embedding's Gram spectrum, or with ``mc_samples`` a Monte-Carlo
    estimate of its infinite-width limit, drawn from ``embedding_seed``, which
    has no ``embedding``, ``D`` or ``depth`` (None: identity, d and 0)."""
    activation: str = _key(text, default="relu")
    embedding: str | None = _key(text, default=None)
    D: int | None = _key(integer, default=None)
    depth: int | None = _key(integer, default=None)
    embedding_seed: int = _key(integer, default=0)
    mc_samples: int = _key(integer, default=0)

    def __post_init__(self):
        if self.mc_samples and (self.embedding, self.D, self.depth) != (None, None, None):
            raise InvalidConfigError("mc_samples takes no embedding, D or depth")


@dataclass(kw_only=True)
class ConcentrationConfig(DatasetConfig):
    """``concentration``: random-feature Grams against a Monte-Carlo limit."""
    D_list: list[int] = _key(list_of(integer))
    activation: str = _key(text, default="relu")
    trials: int = _key(integer, default=5)
    mc_samples: int = _key(integer, default=1_000_000)


# Each experiment's defaults for the keys that have none on ExperimentConfig.
PRESETS = {
    "exp1": {"dataset": "random_label", "embedding": "identity", "activation": "tanh", "d": 20},
    "exp2": {"dataset": "quadratic_teacher", "embedding": "quadratic", "activation": "relu",
             "d": 30},
    "exp3": {"dataset": "wei", "embedding": "random_feature", "activation": "relu", "d": 50},
    "custom": {"embedding": "identity", "activation": "tanh"},
}


@dataclass
class ExperimentConfig:
    """``train`` and ``experiment``: a (scalings x n_list x seeds) grid. A key with
    no default on its field or in its experiment's row of PRESETS is required."""
    n_list: list[int] = _key(list_of(integer))
    seeds: list[int] = _key(list_of(integer))
    dataset: str = _key(text)
    embedding: str = _key(text)
    activation: str = _key(text)
    d: int = _key(integer)
    experiment: str = _key(text, default="custom")
    scalings: list[str] = _key(list_of(text), default_factory=lambda: ["ours"])
    m: int = _key(integer, default=1024)
    D: int | None = _key(_optional(integer), default=None)
    depth: int = _key(integer, default=0)
    c_hat: float = _key(real, default=1.0)
    steps: int = _key(integer, default=1000)
    delta: float = _key(real, default=1.0)
    record_every: int = _key(integer, default=10)
    snapshot_steps: list[int] | None = _key(_optional(list_of(integer)), default=None)
    n_test: int = _key(integer, default=500)
    teacher_seed: int = _key(integer, default=999)


def parse_experiment_config(raw) -> ExperimentConfig:
    """``parse`` with the experiment's row of PRESETS under ``raw``, then grid checks."""
    if isinstance(raw, dict):
        experiment = raw.get("experiment", ExperimentConfig.experiment)
        if not (isinstance(experiment, str) and experiment in PRESETS):
            raise InvalidConfigError(f"unknown experiment {experiment!r}")
        raw = {**PRESETS[experiment], **raw}
    cfg = parse(ExperimentConfig, raw)
    for key in ("n_list", "seeds", "scalings"):
        if not getattr(cfg, key):
            raise InvalidConfigError(f"{key} must be non-empty")
    for name in cfg.scalings:
        get_scaling(name)
    if cfg.experiment == "exp3" and cfg.D not in (None, cfg.m):
        raise InvalidConfigError("exp3 requires D == m")
    return cfg


def rate_fit(steps, losses) -> tuple[float, float]:
    """(slope per step, r^2) of a least-squares line through log-loss, over the
    window from step 0 up to the first loss below 1e-8 or not positive."""
    w_steps, w_losses = [], []
    for s, lv in zip(steps, losses):
        if lv <= 0 or lv < RATE_FLOOR:
            break
        w_steps.append(s)
        w_losses.append(lv)
    if len(w_steps) < 2:
        raise InvalidConfigError("rate_fit needs at least 2 positive loss points")
    t = np.asarray(w_steps, dtype=np.float64)
    logl = np.log(np.asarray(w_losses))
    slope, intercept = np.polyfit(t, logl, 1)
    resid = logl - (slope * t + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((logl - logl.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def test_error(f_vals: np.ndarray, y: np.ndarray, kind: str) -> float:
    """Mean squared error, except for wei the 0-1 sign error, under which
    sign(0) always counts as an error."""
    f_vals = np.asarray(f_vals, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if kind == "wei":
        correct = ((f_vals > 0) & (y > 0)) | ((f_vals < 0) & (y < 0))
        return float(1.0 - correct.mean())
    return float(np.mean((f_vals - y) ** 2))


def generate(kind: str, n: int, d: int, seed: int, split: str,
             teacher_seed: int) -> datasets.Dataset:
    """The ``split`` draw of ``n`` points of the ``kind`` dataset in R^d."""
    if kind == "random_label":
        return datasets.gen_random_label(n, d, seed, split)
    if kind == "quadratic_teacher":
        return datasets.gen_quadratic_teacher(n, d, teacher_seed, seed, split)
    if kind == "wei":
        return datasets.gen_wei(n, d, seed, split)
    raise InvalidConfigError(f"unknown dataset kind {kind!r}")


def embedding_spec(kind: str, d: int, D: int | None, depth: int, activation,
                   seed: int, default_D: int) -> EmbeddingSpec:
    """The ``kind`` embedding of R^d. ``D`` (None: ``default_D``) sizes the
    random kinds only: identity has D = d and quadratic D = d^2. ``depth`` is
    deep_random's alone. A D given to a fixed-D kind, or a nonzero depth
    given to another kind, is rejected rather than ignored."""
    fixed_D = {"identity": d, "quadratic": d * d}
    if kind in fixed_D and D is not None:
        raise InvalidConfigError(f"the {kind} embedding takes no D (its D is {fixed_D[kind]})")
    spec = EmbeddingSpec(kind=kind, d=d, D=fixed_D.get(kind, default_D if D is None else D),
                         depth=depth, activation=activation, seed=seed)
    if depth and kind != "deep_random":
        raise InvalidConfigError(f"the {kind} embedding takes no depth (deep_random only)")
    return spec


@dataclass
class RunResult:
    row: dict
    trace: TrainingTrace


def _cell(cfg: ExperimentConfig, scaling_name: str, n: int, seed: int):
    """One cell's model and train configs and data, drawing no weights."""
    activation = get_activation(cfg.activation)
    spec = embedding_spec(cfg.embedding, cfg.d, cfg.D, cfg.depth, activation, seed,
                          default_D=cfg.m)
    model_cfg = ModelConfig(embedding=spec, activation=activation, m=cfg.m, c_hat=cfg.c_hat,
                            scaling=get_scaling(scaling_name), seed=seed)
    snaps = cfg.snapshot_steps
    if snaps is None:
        snaps = sorted({0, cfg.steps // 2, cfg.steps})
    tc = TrainConfig(steps=cfg.steps, delta=cfg.delta, record_every=cfg.record_every,
                     snapshot_steps=tuple(snaps))
    train_data = generate(cfg.dataset, n, cfg.d, seed, "train", cfg.teacher_seed)
    test_data = generate(cfg.dataset, cfg.n_test, cfg.d, seed, "test", cfg.teacher_seed)
    return model_cfg, tc, train_data, test_data


def check_grid(cfg: ExperimentConfig) -> None:
    """Raise the InvalidConfigError of the first bad cell, if any."""
    for cell in itertools.product(cfg.scalings, cfg.n_list, cfg.seeds):
        _cell(cfg, *cell)


def run_single(cfg: ExperimentConfig, scaling_name: str, n: int, seed: int) -> RunResult:
    """One grid cell: generate data, train, evaluate monitors and rate fit."""
    model_cfg, tc, train_data, test_data = _cell(cfg, scaling_name, n, seed)
    probe = np.vstack([train_data.X[0], test_data.X[0]])

    params = init_params(model_cfg)
    gram_report = gram(model_cfg.embedding, params.embedding_weights, train_data.X)

    metric = lambda f, t: test_error(f, t, cfg.dataset)
    trace = run_training(model_cfg, tc, train_data.X, train_data.y,
                         test_X=test_data.X, test_y=test_data.y,
                         test_metric=metric, init=params, probe_X=probe)

    row = {"experiment": cfg.experiment, "scaling": scaling_name, "n": n,
           "m": cfg.m, "seed": seed}
    if trace.diverged or not trace.losses:
        nan = float("nan")
        row.update(final_loss=nan, test_error=nan, rate_slope=nan, rate_r2=nan,
                   lemma1_pass="na", pl_pass="na")
        return RunResult(row=row, trace=trace)

    constants = theory_constants(model_cfg.activation.active_region,
                                 gram_report.g_min, gram_report.g_max,
                                 gram_report.lambda_min, gram_report.lambda_max,
                                 model_cfg.activation.k_deriv, cfg.c_hat)
    lemma1_pass = ("na" if constants.degenerate
                   else lemma1_monitor(trace, constants, cfg.c_hat).passed)
    pl = pl_monitor(model_cfg, trace.final_params, train_data.X, train_data.y,
                    gram_report)
    try:
        slope, r2 = rate_fit(trace.steps, trace.losses)
    except InvalidConfigError:
        slope, r2 = float("nan"), float("nan")
    row.update(final_loss=trace.losses[-1],
               test_error=trace.test_errors[-1] if trace.test_errors else float("nan"),
               rate_slope=slope, rate_r2=r2, lemma1_pass=lemma1_pass, pl_pass=pl.passed)
    return RunResult(row=row, trace=trace)


def write_summary(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([fmt(row[c]) for c in SUMMARY_COLUMNS])


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> list[dict]:
    """Check every cell, then run them all, write all artifacts to ``out_dir``
    and return the summary rows. A diverged cell is recorded in its row and
    the grid continues. Reruns of a config give bit-identical outputs."""
    check_grid(cfg)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    curves: dict[tuple, list[TrainingTrace]] = {}

    for scaling_name, n, seed in itertools.product(cfg.scalings, cfg.n_list, cfg.seeds):
        result = run_single(cfg, scaling_name, n, seed)
        rows.append(result.row)
        tag = f"{cfg.experiment}_{scaling_name}_n{n}_m{cfg.m}_s{seed}"
        trace_to_csv(result.trace, os.path.join(out_dir, f"trace_{tag}.csv"))
        if result.trace.snapshots:
            snapshots_to_npz(result.trace, os.path.join(out_dir, f"snaps_{tag}.npz"))
        _write_probe_scatter(result.trace, os.path.join(out_dir, f"features_{tag}.csv"))
        # The mean curves need only these fields. A finished cell's whole
        # trace (snapshots, final W) is dropped before the next cell runs.
        t = result.trace
        curves.setdefault((scaling_name, n), []).append(TrainingTrace(
            steps=t.steps, losses=t.losses, test_errors=t.test_errors, diverged=t.diverged))
        del result, t

    write_summary(rows, os.path.join(out_dir, "summary.csv"))
    for (scaling_name, n), traces in curves.items():
        _write_mean_curve(traces, os.path.join(
            out_dir, f"mean_{cfg.experiment}_{scaling_name}_n{n}_m{cfg.m}.csv"))
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg.__dict__, fh, indent=2, sort_keys=True)
    return rows


def _write_probe_scatter(trace: TrainingTrace, path) -> None:
    """Per-neuron (h_i(x_train), h_i(x_test)) pairs at the snapshot steps."""
    if not trace.probe_snapshots:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "neuron", "h_train", "h_test"])
        for step in sorted(trace.probe_snapshots):
            H_p = trace.probe_snapshots[step]
            for i in range(H_p.shape[0]):
                writer.writerow([step, i, fmt(H_p[i, 0]), fmt(H_p[i, 1])])


def _write_mean_curve(traces: list[TrainingTrace], path) -> None:
    """Seed-averaged loss (and test error) at each recorded step."""
    usable = [t for t in traces if not t.diverged]
    if not usable:
        return
    min_len = min(len(t.steps) for t in usable)
    steps = usable[0].steps[:min_len]
    loss = np.mean([t.losses[:min_len] for t in usable], axis=0)
    te = (np.mean([t.test_errors[:min_len] for t in usable], axis=0)
          if all(t.test_errors for t in usable) else None)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_loss", "mean_test_error"])
        for i, s in enumerate(steps):
            writer.writerow([s, fmt(loss[i]), fmt(te[i]) if te is not None else ""])
