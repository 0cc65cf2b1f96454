"""Config-driven reproduction of the three experiments and custom grids.

Executes a grid of (n, seed, scaling) runs, evaluates the rate fit and the
inequality monitors per run, and writes CSV/JSON artifacts: a per-run trace,
a fixed-schema summary table, seed-averaged curves, and at each snapshot step
the hidden features h_i of the first training point (h_train, the snapshot's
H[:, 0]) and of the first test point.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import datasets
from .activations import get_activation
from .diagnostics import (MonitorResult, check_concentration, check_mc_samples, gram,
                          lemma1_monitor, pl_monitor, theory_constants)
from .embedding import FIXED_D, EmbeddingSpec
from .errors import InvalidConfigError
# init_params is not called here, but bench/tracing.py wraps it under this name.
from .model import ModelConfig, get_scaling, init_params  # noqa: F401
from .numkernel import write_csv
from .train import TrainConfig, TrainingTrace, run_training, snapshots_to_npz, trace_to_csv

SUMMARY_COLUMNS = ["experiment", "scaling", "n", "m", "seed", "final_loss",
                   "test_error", "rate_slope", "rate_r2", "lemma1_pass", "pl_pass"]

RATE_FLOOR = 1e-8
Seed = typing.NewType("Seed", int)   # the annotation of a config key that seeds a stream


def parse(cls, raw):
    """The dataclass ``cls`` from the JSON object ``raw``, each key read with the
    cast of its field's annotation; any fault is an InvalidConfigError (exit 2)."""
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config must be a JSON object, not {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in raw:
            try:
                values[f.name] = cast_for(hints[f.name])(raw[f.name])
            except (TypeError, ValueError) as exc:
                raise InvalidConfigError(f"config key {f.name!r} has an invalid value "
                                         f"{raw[f.name]!r}: {exc}") from None
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


def seed_value(value) -> int:
    """The cast for a ``Seed`` config value: ``integer``, but never negative."""
    value = integer(value)
    if value < 0:
        raise ValueError("a seed must be >= 0")
    return value


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


def cast_for(hint):
    """The cast for a config field annotated ``hint``: ``str``, ``int``, ``Seed``,
    ``float``, ``list[T]``, or ``T | None``, under which null means the key was not given."""
    args = typing.get_args(hint)
    if type(None) in args:
        cast = cast_for(*(a for a in args if a is not type(None)))
        return lambda value: None if value is None else cast(value)
    if typing.get_origin(hint) is list:
        return list_of(cast_for(*args))
    return {str: text, int: integer, Seed: seed_value, float: real}[hint]


@dataclass
class DatasetConfig:
    """``gen-data``: one split of a dataset."""
    dataset: str
    n: int
    d: int
    seed: Seed = 0
    split: str = "train"
    teacher_seed: Seed = 999


@dataclass(kw_only=True)
class GramConfig(DatasetConfig):
    """``gram``: an embedding's Gram spectrum, or with ``mc_samples`` a Monte-Carlo
    estimate of its infinite-width limit, drawn from ``embedding_seed``, which
    has no ``embedding``, ``D`` or ``depth`` (None: identity, d and 0)."""
    activation: str = "relu"
    embedding: str | None = None
    D: int | None = None
    depth: int | None = None
    embedding_seed: Seed = 0
    mc_samples: int = 0

    def __post_init__(self):
        if self.mc_samples:
            if (self.embedding, self.D, self.depth) != (None, None, None):
                raise InvalidConfigError("mc_samples takes no embedding, D or depth")
            check_mc_samples(self.mc_samples)


@dataclass(kw_only=True)
class ConcentrationConfig(DatasetConfig):
    """``concentration``: random-feature Grams against a Monte-Carlo limit."""
    D_list: list[int]
    activation: str = "relu"
    trials: int = 5
    mc_samples: int = 1_000_000

    def __post_init__(self):
        check_concentration(self.D_list, self.trials)
        check_mc_samples(self.mc_samples)


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
    n_list: list[int]
    seeds: list[Seed]
    dataset: str
    embedding: str
    activation: str
    d: int
    experiment: str = "custom"
    scalings: list[str] = field(default_factory=lambda: ["ours"])
    m: int = 1024
    D: int | None = None
    depth: int = 0
    c_hat: float = 1.0
    steps: int = 1000
    delta: float = 1.0
    record_every: int = 10
    snapshot_steps: list[int] | None = None
    n_test: int = 500
    teacher_seed: Seed = 999


def parse_experiment_config(raw) -> ExperimentConfig:
    """``parse`` with the experiment's row of PRESETS under ``raw``, then grid checks."""
    if isinstance(raw, dict):
        experiment = raw.get("experiment", ExperimentConfig.experiment)
        if not (isinstance(experiment, str) and experiment in PRESETS):
            raise InvalidConfigError(f"unknown experiment {experiment!r}")
        raw = {**PRESETS[experiment], **raw}
    cfg = parse(ExperimentConfig, raw)
    for key in ("n_list", "seeds", "scalings"):
        values = getattr(cfg, key)
        if not values:
            raise InvalidConfigError(f"{key} must be non-empty")
        if len(set(values)) != len(values):
            raise InvalidConfigError(f"{key} repeats a value: {values}")
    if cfg.n_test < 1:
        raise InvalidConfigError(f"n_test must be >= 1, not {cfg.n_test}")
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
        if lv < RATE_FLOOR:
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
    """The ``kind`` embedding of R^d. ``D`` (None: ``default_D``) sizes the random kinds
    only: a D given to a kind in FIXED_D is an error (EmbeddingSpec rejects a stray depth)."""
    if kind in FIXED_D and D is not None:
        raise InvalidConfigError(f"the {kind} embedding takes no D (its D is {FIXED_D[kind](d)})")
    D = FIXED_D[kind](d) if kind in FIXED_D else (default_D if D is None else D)
    return EmbeddingSpec(kind=kind, d=d, D=D, depth=depth, activation=activation, seed=seed)


@dataclass
class RunResult:
    row: dict
    trace: TrainingTrace
    lemma1: MonitorResult | None = None  # None: the cell diverged or its Gram is degenerate


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


def cells(cfg: ExperimentConfig):
    """The grid's (scaling, n, seed) cells, in the order a grid runs them."""
    return itertools.product(cfg.scalings, cfg.n_list, cfg.seeds)


def check_grid(cfg: ExperimentConfig) -> None:
    """Raise the InvalidConfigError of the first bad cell, if any."""
    for cell in cells(cfg):
        _cell(cfg, *cell)


def make_out_dir(path) -> None:
    """Create the output directory ``path``; one that cannot be made is an
    InvalidConfigError (exit 2), not a failed monitor."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"cannot create output directory {path}: "
                                 f"{exc.strerror}") from None


def run_single(cfg: ExperimentConfig, scaling_name: str, n: int, seed: int) -> RunResult:
    """One grid cell: generate data, train, evaluate monitors and rate fit."""
    model_cfg, tc, train_data, test_data = _cell(cfg, scaling_name, n, seed)

    metric = lambda f, t: test_error(f, t, cfg.dataset)
    trace = run_training(model_cfg, tc, train_data.X, train_data.y,
                         test_X=test_data.X, test_y=test_data.y, test_metric=metric)
    final_params, trace.final_params = trace.final_params, None  # no caller reads it
    gram_report = gram(model_cfg.embedding, final_params.embedding_weights, train_data.X)

    row = {"experiment": cfg.experiment, "scaling": scaling_name, "n": n,
           "m": cfg.m, "seed": seed}
    if trace.diverged:
        nan = float("nan")
        row.update(final_loss=nan, test_error=nan, rate_slope=nan, rate_r2=nan,
                   lemma1_pass="na", pl_pass="na")
        return RunResult(row=row, trace=trace)

    constants = theory_constants(model_cfg.activation.active_region,
                                 gram_report.g_min, gram_report.g_max,
                                 gram_report.lambda_min, gram_report.lambda_max,
                                 model_cfg.activation.k_deriv, cfg.c_hat)
    lemma1 = None if constants.degenerate else lemma1_monitor(trace, constants, cfg.c_hat)
    pl = pl_monitor(model_cfg, final_params, train_data.X, train_data.y, gram_report)
    try:
        slope, r2 = rate_fit(trace.steps, trace.losses)
    except InvalidConfigError:
        slope, r2 = float("nan"), float("nan")
    row.update(final_loss=trace.losses[-1], test_error=trace.test_errors[-1],
               rate_slope=slope, rate_r2=r2,
               lemma1_pass="na" if lemma1 is None else lemma1.passed, pl_pass=pl.passed)
    return RunResult(row=row, trace=trace, lemma1=lemma1)


def write_summary(rows: list[dict], path) -> None:
    write_csv(path, SUMMARY_COLUMNS, ([row[c] for c in SUMMARY_COLUMNS] for row in rows))


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> list[dict]:
    """Check every cell, then run them all, write all artifacts to ``out_dir``
    and return the summary rows. A diverged cell is recorded in its row and
    the grid continues. Reruns of a config give bit-identical outputs."""
    check_grid(cfg)
    make_out_dir(out_dir)
    rows = []
    curves: dict[tuple, list[TrainingTrace]] = {}

    for scaling_name, n, seed in cells(cfg):
        result = run_single(cfg, scaling_name, n, seed)
        rows.append(result.row)
        tag = f"{cfg.experiment}_{scaling_name}_n{n}_m{cfg.m}_s{seed}"
        trace_to_csv(result.trace, os.path.join(out_dir, f"trace_{tag}.csv"))
        if result.trace.snapshots:
            snapshots_to_npz(result.trace, os.path.join(out_dir, f"snaps_{tag}.npz"))
        _write_probe_scatter(result.trace, os.path.join(out_dir, f"features_{tag}.csv"))
        # Keep what the mean curves read; drop the rest before the next cell.
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
    write_csv(path, ["step", "neuron", "h_train", "h_test"],
              ((step, i, *h) for step, H_p in sorted(trace.probe_snapshots.items())
               for i, h in enumerate(H_p)))


def _write_mean_curve(traces: list[TrainingTrace], path) -> None:
    """Seed-averaged loss and test error at each recorded step of the cells
    that did not diverge, which all record the same steps."""
    usable = [t for t in traces if not t.diverged]
    if not usable:
        return
    loss = np.mean([t.losses for t in usable], axis=0)
    te = np.mean([t.test_errors for t in usable], axis=0)
    write_csv(path, ["step", "mean_loss", "mean_test_error"],
              zip(usable[0].steps, loss, te))
