"""Command-line interface.

Verbs: train, experiment, gram, concentration, gen-data. Each takes a JSON
config via --config and an output directory via --out; --seed overrides the
config seed(s). Exit code is 0 iff all inequality monitors pass (or
--no-strict is given). Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import datasets, harness
from .activations import get_activation
from .diagnostics import concentration_probe, gram, gram_limit_mc
from .embedding import EmbeddingSpec, build_embedding
from .errors import InvalidConfigError, PtwideError


def _load_config(path: str, allowed: set[str]) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config {path} is not valid JSON: {exc}") from None
    unknown = set(raw) - allowed
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


_REQUIRED = object()


def _field(raw: dict, key: str, cast, default=_REQUIRED):
    """``cast(raw[key])``, or ``default`` if absent; a missing required key
    or a value ``cast`` rejects is an InvalidConfigError (exit 2)."""
    if key not in raw and default is _REQUIRED:
        raise InvalidConfigError(f"config is missing required key {key!r}")
    if key not in raw:
        return default
    try:
        return cast(raw[key])
    except (TypeError, ValueError):
        raise InvalidConfigError(f"config key {key!r} has an invalid value "
                                 f"{raw[key]!r}") from None


def _int_list(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return [int(v) for v in value]


def _dataset_from_config(raw: dict, seed_override: int | None):
    seed = seed_override if seed_override is not None else _field(raw, "seed", int, 0)
    return harness._generate(_field(raw, "dataset", str), _field(raw, "n", int),
                             _field(raw, "d", int), seed,
                             _field(raw, "split", str, "train"),
                             _field(raw, "teacher_seed", int, 999))


def cmd_experiment(args) -> int:
    raw = _load_config(args.config, harness._ALLOWED_KEYS)
    cfg = harness.parse_experiment_config(raw)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    artifact = harness.run_experiment(cfg, out_dir=args.out)
    ok = True
    for row in artifact.summary:
        print(",".join(harness._fmt(row[c]) for c in harness.SUMMARY_COLUMNS))
        if row["lemma1_pass"] is False or row["pl_pass"] is False:
            ok = False
    return 0 if ok or args.no_strict else 1


def cmd_train(args) -> int:
    raw = _load_config(args.config, harness._ALLOWED_KEYS)
    cfg = harness.parse_experiment_config(raw)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    result = harness.run_single(cfg, cfg.scalings[0], cfg.n_list[0], cfg.seeds[0])
    os.makedirs(args.out, exist_ok=True)
    from .train import snapshots_to_npz, trace_to_csv
    trace_to_csv(result.trace, os.path.join(args.out, "trace.csv"))
    if result.trace.snapshots:
        snapshots_to_npz(result.trace, os.path.join(args.out, "snapshots.npz"))
    harness.write_summary([result.row], os.path.join(args.out, "summary.csv"))
    for col in harness.SUMMARY_COLUMNS:
        print(f"{col}: {harness._fmt(result.row[col])}")
    ok = result.row["lemma1_pass"] is not False and result.row["pl_pass"] is not False
    return 0 if ok or args.no_strict else 1


_GRAM_KEYS = {"dataset", "n", "d", "seed", "split", "teacher_seed",
              "embedding", "D", "depth", "activation", "embedding_seed",
              "mc_samples"}


def cmd_gram(args) -> int:
    raw = _load_config(args.config, _GRAM_KEYS)
    data = _dataset_from_config(raw, args.seed)
    activation = get_activation(_field(raw, "activation", str, "relu"))
    kind = _field(raw, "embedding", str, "identity")
    d = data.X.shape[1]
    mc_samples = _field(raw, "mc_samples", int, 0)
    embedding_seed = _field(raw, "embedding_seed", int, 0)
    if mc_samples:
        report = gram_limit_mc(activation, data.X, mc_samples, embedding_seed)
    else:
        if kind == "identity":
            spec = EmbeddingSpec(kind="identity", d=d, D=d)
        elif kind == "quadratic":
            spec = EmbeddingSpec(kind="quadratic", d=d, D=d * d)
        else:
            spec = EmbeddingSpec(kind=kind, d=d, D=_field(raw, "D", int, d),
                                 depth=_field(raw, "depth", int, 0),
                                 activation=activation, seed=embedding_seed)
        report = gram(spec, build_embedding(spec), data.X)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "gram.json")
    with open(out_path, "w") as fh:
        fh.write(report.to_json(dataset=raw["dataset"], seed=data.seed))
    print(f"lambda_min: {harness._fmt(report.lambda_min)}")
    print(f"lambda_max: {harness._fmt(report.lambda_max)}")
    print(f"g_min: {harness._fmt(report.g_min)}")
    print(f"g_max: {harness._fmt(report.g_max)}")
    print(f"wrote {out_path}")
    return 0


_CONC_KEYS = {"dataset", "n", "d", "seed", "split", "teacher_seed",
              "activation", "D_list", "trials", "mc_samples"}


def cmd_concentration(args) -> int:
    raw = _load_config(args.config, _CONC_KEYS)
    data = _dataset_from_config(raw, args.seed)
    activation = get_activation(_field(raw, "activation", str, "relu"))
    rows = concentration_probe(activation, data.X, _field(raw, "D_list", _int_list),
                               _field(raw, "trials", int, 5),
                               _field(raw, "seed", int, 0),
                               reference_samples=_field(raw, "mc_samples", int, 1_000_000))
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "concentration.csv")
    with open(out_path, "w") as fh:
        fh.write("D,median_spectral_deviation\n")
        for D, dev in rows:
            fh.write(f"{D},{harness._fmt(dev)}\n")
            print(f"D={D}: {harness._fmt(dev)}")
    print(f"wrote {out_path}")
    return 0


_GEN_KEYS = {"dataset", "n", "d", "seed", "split", "teacher_seed"}


def cmd_gen_data(args) -> int:
    raw = _load_config(args.config, _GEN_KEYS)
    data = _dataset_from_config(raw, args.seed)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{data.kind}_{data.split}.csv")
    datasets.to_csv(data, out_path)
    print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ptwide")
    sub = parser.add_subparsers(dest="verb", required=True)
    handlers = {
        "train": cmd_train,
        "experiment": cmd_experiment,
        "gram": cmd_gram,
        "concentration": cmd_concentration,
        "gen-data": cmd_gen_data,
    }
    for verb in handlers:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--no-strict", action="store_true")
    args = parser.parse_args(argv)
    try:
        return handlers[args.verb](args)
    except PtwideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
