"""Config-driven reproduction of the three experiments and diagnostic sweeps.

Executes a grid of (n, seed, scaling) runs, evaluates the rate fit and the
inequality monitors per run, and writes CSV/JSON artifacts: a per-run trace,
a fixed-schema summary table, seed-averaged curves, and the hidden-feature
scatter data for two probe inputs at steps {0, mid, final}.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import datasets
from .activations import get_activation
from .diagnostics import gram, lemma1_monitor, pl_monitor, theory_constants
from .embedding import EmbeddingSpec
from .errors import InvalidConfigError
from .model import ModelConfig, get_scaling, init_params
from .train import TrainConfig, TrainingTrace, run_training, snapshots_to_npz, trace_to_csv

SUMMARY_COLUMNS = ["experiment", "scaling", "n", "m", "seed", "final_loss",
                   "test_error", "rate_slope", "rate_r2", "lemma1_pass", "pl_pass"]

RATE_FLOOR = 1e-8

_ALLOWED_KEYS = {
    "experiment", "dataset", "n_list", "d", "m", "D", "depth", "seeds",
    "scalings", "activation", "embedding", "c_hat", "steps", "delta",
    "record_every", "snapshot_steps", "n_test", "teacher_seed", "output_dir",
}

_EXPERIMENT_DEFAULTS = {
    # (dataset, embedding, activation, d)
    "exp1": ("random_label", "identity", "tanh", 20),
    "exp2": ("quadratic_teacher", "quadratic", "relu", 30),
    "exp3": ("wei", "random_feature", "relu", 50),
}

@dataclass
class ExperimentConfig:
    experiment: str
    dataset: str
    n_list: list[int]
    d: int
    m: int
    seeds: list[int]
    scalings: list[str]
    activation: str
    embedding: str
    D: int | None = None
    depth: int = 0
    c_hat: float = 1.0
    steps: int = 1000
    delta: float = 1.0
    record_every: int = 10
    snapshot_steps: list[int] | None = None
    n_test: int = 500
    teacher_seed: int = 999
    output_dir: str = "runs"


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Validate a JSON config document; unknown keys are rejected."""
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    experiment = raw.get("experiment", "custom")
    if experiment not in ("exp1", "exp2", "exp3", "diag_sweep", "custom"):
        raise InvalidConfigError(f"unknown experiment {experiment!r}")
    defaults = _EXPERIMENT_DEFAULTS.get(experiment)
    dataset = raw.get("dataset", defaults[0] if defaults else None)
    embedding = raw.get("embedding", defaults[1] if defaults else "identity")
    activation = raw.get("activation", defaults[2] if defaults else "tanh")
    d = raw.get("d", defaults[3] if defaults else None)
    if dataset is None or d is None:
        raise InvalidConfigError("custom experiments must specify dataset and d")
    cfg = ExperimentConfig(
        experiment=experiment, dataset=dataset,
        n_list=list(raw.get("n_list", [])), d=int(d), m=int(raw.get("m", 1024)),
        seeds=list(raw.get("seeds", [])), scalings=list(raw.get("scalings", ["ours"])),
        activation=activation, embedding=embedding,
        D=raw.get("D"), depth=int(raw.get("depth", 0)),
        c_hat=float(raw.get("c_hat", 1.0)),
        steps=int(raw.get("steps", 1000)), delta=float(raw.get("delta", 1.0)),
        record_every=int(raw.get("record_every", 10)),
        snapshot_steps=raw.get("snapshot_steps"),
        n_test=int(raw.get("n_test", 500)),
        teacher_seed=int(raw.get("teacher_seed", 999)),
        output_dir=raw.get("output_dir", "runs"),
    )
    if not cfg.n_list:
        raise InvalidConfigError("n_list must be non-empty")
    if not cfg.seeds:
        raise InvalidConfigError("seeds must be non-empty")
    if cfg.experiment == "exp3" and cfg.D not in (None, cfg.m):
        raise InvalidConfigError("exp3 requires D == m")
    return cfg


def rate_fit(steps, losses) -> tuple[float, float]:
    """Least-squares slope of log-loss per step over the decaying window.

    The window runs from step 0 until the loss first drops below 1e-8 or a
    non-positive value appears; returns (slope_per_step, r_squared).
    """
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
    """Mean squared error, except 0-1 sign error for the wei dataset.

    sign(0) is always counted as an error under the 0-1 convention.
    """
    f_vals = np.asarray(f_vals, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if kind == "wei":
        correct = ((f_vals > 0) & (y > 0)) | ((f_vals < 0) & (y < 0))
        return float(1.0 - correct.mean())
    return float(np.mean((f_vals - y) ** 2))


def _generate(kind: str, n: int, d: int, seed: int, split: str,
              teacher_seed: int) -> datasets.Dataset:
    if kind == "random_label":
        return datasets.gen_random_label(n, d, seed, split)
    if kind == "quadratic_teacher":
        return datasets.gen_quadratic_teacher(n, d, teacher_seed, seed, split)
    if kind == "wei":
        return datasets.gen_wei(n, d, seed, split)
    raise InvalidConfigError(f"unknown dataset kind {kind!r}")


def _embedding_spec(cfg: ExperimentConfig, activation, seed: int) -> EmbeddingSpec:
    kind = cfg.embedding
    if kind == "identity":
        return EmbeddingSpec(kind="identity", d=cfg.d, D=cfg.d)
    if kind == "quadratic":
        return EmbeddingSpec(kind="quadratic", d=cfg.d, D=cfg.d * cfg.d)
    D = cfg.D if cfg.D is not None else cfg.m
    if kind == "random_feature":
        return EmbeddingSpec(kind="random_feature", d=cfg.d, D=D,
                             activation=activation, seed=seed)
    if kind == "deep_random":
        return EmbeddingSpec(kind="deep_random", d=cfg.d, D=D, depth=cfg.depth,
                             activation=activation, seed=seed)
    raise InvalidConfigError(f"unknown embedding kind {kind!r}")


@dataclass
class RunResult:
    row: dict
    trace: TrainingTrace


@dataclass
class RunArtifact:
    config: ExperimentConfig
    summary: list[dict] = field(default_factory=list)
    out_dir: str = ""
    traces: dict[tuple, TrainingTrace] = field(default_factory=dict)


def run_single(cfg: ExperimentConfig, scaling_name: str, n: int, seed: int,
               keep_snapshots: bool = True) -> RunResult:
    """One grid cell: generate data, train, evaluate monitors and rate fit."""
    activation = get_activation(cfg.activation)
    scaling = get_scaling(scaling_name)
    spec = _embedding_spec(cfg, activation, seed)
    model_cfg = ModelConfig(embedding=spec, activation=activation,
                            scaling=scaling, m=cfg.m, c_hat=cfg.c_hat, seed=seed)
    train_data = _generate(cfg.dataset, n, cfg.d, seed, "train", cfg.teacher_seed)
    test_data = _generate(cfg.dataset, cfg.n_test, cfg.d, seed, "test", cfg.teacher_seed)

    snaps = cfg.snapshot_steps
    if snaps is None:
        snaps = sorted({0, cfg.steps // 2, cfg.steps})
    probe = np.vstack([train_data.X[0], test_data.X[0]])

    params = init_params(model_cfg)
    gram_report = gram(spec, params.embedding_weights, train_data.X)

    tc = TrainConfig(steps=cfg.steps, delta=cfg.delta,
                     record_every=cfg.record_every,
                     snapshot_steps=tuple(snaps) if keep_snapshots else ())
    metric = lambda f, t: test_error(f, t, cfg.dataset)
    trace = run_training(model_cfg, tc, train_data.X, train_data.y,
                         test_X=test_data.X, test_y=test_data.y,
                         test_metric=metric, init=params,
                         probe_X=probe if keep_snapshots else None)

    constants = theory_constants(activation.active_region,
                                 gram_report.g_min, gram_report.g_max,
                                 gram_report.lambda_min, gram_report.lambda_max,
                                 activation.k_deriv, cfg.c_hat)
    if trace.diverged or not trace.losses:
        row = {"experiment": cfg.experiment, "scaling": scaling_name, "n": n,
               "m": cfg.m, "seed": seed, "final_loss": float("nan"),
               "test_error": float("nan"), "rate_slope": float("nan"),
               "rate_r2": float("nan"), "lemma1_pass": "na", "pl_pass": "na"}
        return RunResult(row=row, trace=trace)

    if constants.degenerate:
        lemma1_pass = "na"
    else:
        lemma1_pass = lemma1_monitor(trace, constants, cfg.c_hat).passed
    pl = pl_monitor(model_cfg, trace.final_params, train_data.X, train_data.y,
                    gram_report)
    try:
        slope, r2 = rate_fit(trace.steps, trace.losses)
    except InvalidConfigError:
        slope, r2 = float("nan"), float("nan")
    row = {
        "experiment": cfg.experiment,
        "scaling": scaling_name,
        "n": n,
        "m": cfg.m,
        "seed": seed,
        "final_loss": trace.losses[-1],
        "test_error": trace.test_errors[-1] if trace.test_errors else float("nan"),
        "rate_slope": slope,
        "rate_r2": r2,
        "lemma1_pass": lemma1_pass,
        "pl_pass": pl.passed,
    }
    return RunResult(row=row, trace=trace)


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_summary(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in SUMMARY_COLUMNS])


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   keep_traces: bool = False) -> RunArtifact:
    """Execute the full (n x seeds x scalings) grid and write all artifacts.

    Individual-run divergence is recorded in its summary row; the grid
    continues. Outputs are bit-identical across reruns of the same config.
    """
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    artifact = RunArtifact(config=cfg, out_dir=out_dir)
    curves: dict[tuple, list[TrainingTrace]] = {}

    for scaling_name in cfg.scalings:
        for n in cfg.n_list:
            for seed in cfg.seeds:
                result = run_single(cfg, scaling_name, n, seed)
                artifact.summary.append(result.row)
                key = (scaling_name, n, seed)
                if keep_traces:
                    artifact.traces[key] = result.trace
                tag = f"{cfg.experiment}_{scaling_name}_n{n}_m{cfg.m}_s{seed}"
                trace_to_csv(result.trace, os.path.join(out_dir, f"trace_{tag}.csv"))
                if result.trace.snapshots:
                    snapshots_to_npz(result.trace, os.path.join(out_dir, f"snaps_{tag}.npz"))
                _write_probe_scatter(result.trace, os.path.join(out_dir, f"features_{tag}.csv"))
                curves.setdefault((scaling_name, n), []).append(result.trace)

    write_summary(artifact.summary, os.path.join(out_dir, "summary.csv"))
    for (scaling_name, n), traces in curves.items():
        _write_mean_curve(traces, os.path.join(
            out_dir, f"mean_{cfg.experiment}_{scaling_name}_n{n}_m{cfg.m}.csv"))
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg.__dict__, fh, indent=2, sort_keys=True)
    return artifact


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
                writer.writerow([step, i, "%.17g" % H_p[i, 0], "%.17g" % H_p[i, 1]])


def _write_mean_curve(traces: list[TrainingTrace], path) -> None:
    """Seed-averaged loss (and test error) at each recorded step."""
    usable = [t for t in traces if not t.diverged]
    if not usable:
        return
    min_len = min(len(t.steps) for t in usable)
    steps = usable[0].steps[:min_len]
    loss = np.mean([t.losses[:min_len] for t in usable], axis=0)
    has_test = all(t.test_errors for t in usable)
    te = (np.mean([t.test_errors[:min_len] for t in usable], axis=0)
          if has_test else None)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_loss", "mean_test_error"])
        for i, s in enumerate(steps):
            writer.writerow([s, "%.17g" % loss[i],
                             "%.17g" % te[i] if te is not None else ""])
