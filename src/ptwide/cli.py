"""Command-line interface.

Verbs: train, experiment, gram, concentration, gen-data. Each takes a JSON
config via --config and an output directory via --out; --seed overrides the
config seed(s). Exit code is 0 iff all inequality monitors pass (or
--no-strict is given), 1 if one fails, and 2 on a bad config. Floats are
printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import datasets, harness
from .activations import get_activation
from .diagnostics import concentration_probe, gram, gram_limit_mc
from .embedding import build_embedding
from .errors import InvalidConfigError, PtwideError
from .harness import config_field, fmt, integer, list_of
from .train import snapshots_to_npz, trace_to_csv


def _load_config(path: str, allowed: set[str]) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidConfigError(f"config {path} is not valid JSON: {exc}") from None
    return harness.check_keys(raw, allowed)


_DATASET_KEYS = {"dataset", "n", "d", "seed", "split", "teacher_seed"}


def _dataset_from_config(raw: dict, seed_override: int | None):
    seed = (seed_override if seed_override is not None
            else config_field(raw, "seed", integer, 0))
    return harness.generate(config_field(raw, "dataset", str),
                            config_field(raw, "n", integer),
                            config_field(raw, "d", integer), seed,
                            config_field(raw, "split", str, "train"),
                            config_field(raw, "teacher_seed", integer, 999))


def _experiment_config(args) -> harness.ExperimentConfig:
    cfg = harness.parse_experiment_config(_load_config(args.config, harness.CONFIG_KEYS))
    if args.seed is not None:
        cfg.seeds = [args.seed]
    return cfg


def cmd_experiment(args) -> int:
    rows = harness.run_experiment(_experiment_config(args), args.out)
    ok = True
    for row in rows:
        print(",".join(fmt(row[c]) for c in harness.SUMMARY_COLUMNS))
        if row["lemma1_pass"] is False or row["pl_pass"] is False:
            ok = False
    return 0 if ok or args.no_strict else 1


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    result = harness.run_single(cfg, cfg.scalings[0], cfg.n_list[0], cfg.seeds[0])
    os.makedirs(args.out, exist_ok=True)
    trace_to_csv(result.trace, os.path.join(args.out, "trace.csv"))
    if result.trace.snapshots:
        snapshots_to_npz(result.trace, os.path.join(args.out, "snapshots.npz"))
    harness.write_summary([result.row], os.path.join(args.out, "summary.csv"))
    for col in harness.SUMMARY_COLUMNS:
        print(f"{col}: {fmt(result.row[col])}")
    ok = result.row["lemma1_pass"] is not False and result.row["pl_pass"] is not False
    return 0 if ok or args.no_strict else 1


_GRAM_KEYS = _DATASET_KEYS | {"embedding", "D", "depth", "activation", "embedding_seed",
                              "mc_samples"}


def cmd_gram(args) -> int:
    raw = _load_config(args.config, _GRAM_KEYS)
    data = _dataset_from_config(raw, args.seed)
    activation = get_activation(config_field(raw, "activation", str, "relu"))
    d = data.X.shape[1]
    mc_samples = config_field(raw, "mc_samples", integer, 0)
    embedding_seed = config_field(raw, "embedding_seed", integer, 0)
    if mc_samples:
        report = gram_limit_mc(activation, data.X, mc_samples, embedding_seed)
    else:
        spec = harness.embedding_spec(config_field(raw, "embedding", str, "identity"), d,
                                      config_field(raw, "D", integer, d),
                                      config_field(raw, "depth", integer, 0),
                                      activation, embedding_seed)
        report = gram(spec, build_embedding(spec), data.X)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "gram.json")
    with open(out_path, "w") as fh:
        fh.write(report.to_json(dataset=raw["dataset"], seed=data.seed))
    for key in ("lambda_min", "lambda_max", "g_min", "g_max"):
        print(f"{key}: {fmt(getattr(report, key))}")
    print(f"wrote {out_path}")
    return 0


_CONC_KEYS = _DATASET_KEYS | {"activation", "D_list", "trials", "mc_samples"}


def cmd_concentration(args) -> int:
    raw = _load_config(args.config, _CONC_KEYS)
    data = _dataset_from_config(raw, args.seed)
    activation = get_activation(config_field(raw, "activation", str, "relu"))
    rows = concentration_probe(
        activation, data.X, config_field(raw, "D_list", list_of(integer)),
        config_field(raw, "trials", integer, 5), data.seed,
        reference_samples=config_field(raw, "mc_samples", integer, 1_000_000))
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "concentration.csv")
    with open(out_path, "w") as fh:
        fh.write("D,median_spectral_deviation\n")
        for D, dev in rows:
            fh.write(f"{D},{fmt(dev)}\n")
            print(f"D={D}: {fmt(dev)}")
    print(f"wrote {out_path}")
    return 0


def cmd_gen_data(args) -> int:
    raw = _load_config(args.config, _DATASET_KEYS)
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
