"""Command-line interface.

Verbs: train, experiment, gram, concentration, gen-data. Each takes a JSON
config via --config and an output directory via --out; --seed overrides the
config seed(s). Exit code is 0 iff all inequality monitors pass (or
train/experiment get --no-strict), 1 if one fails, and 2 on a bad config,
found before --out is made and any work starts, or on an allocation that
fails. Floats are printed, and written to CSV by ``numkernel.write_csv``,
in ``%.17g``.

Under glibc, ``main`` fixes malloc's mmap threshold at its documented
default of 128 KiB. Left dynamic, glibc raises the threshold to the size of
each large block that is freed (up to 32 MiB), so that from the second grid
cell on the (m, n) arrays come from the heap, and the holes they leave stay
resident: a grid's peak RSS then depends on its allocation history and not
on its arrays. Library callers keep their allocator as it is.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

from . import datasets, harness
from .activations import get_activation
from .diagnostics import concentration_probe, gram, gram_limit_mc
from .embedding import build_embedding
from .errors import InvalidConfigError, PtwideError
from .numkernel import fmt, write_csv
from .train import snapshots_to_npz, trace_to_csv


def _config(cls, args):
    """The --config document read as harness dataclass ``cls``, --seed over its seed(s)."""
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {args.config}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidConfigError(f"config {args.config} is not valid JSON: {exc}") from None
    if cls is harness.ExperimentConfig:
        cfg = harness.parse_experiment_config(raw)
        cfg.seeds = cfg.seeds if args.seed is None else [args.seed]
    else:
        cfg = harness.parse(cls, raw)
        cfg.seed = cfg.seed if args.seed is None else args.seed
    return cfg


def _dataset(cls, args):
    """A dataset verb's config and the dataset it names."""
    cfg = _config(cls, args)
    return cfg, harness.generate(cfg.dataset, cfg.n, cfg.d, cfg.seed, cfg.split,
                                 cfg.teacher_seed)


def _exit_code(rows: list[dict], args) -> int:
    ok = all(row["lemma1_pass"] is not False and row["pl_pass"] is not False for row in rows)
    return 0 if ok or args.no_strict else 1


def cmd_experiment(args) -> int:
    rows = harness.run_experiment(_config(harness.ExperimentConfig, args), args.out)
    for row in rows:
        print(",".join(fmt(row[c]) for c in harness.SUMMARY_COLUMNS))
    return _exit_code(rows, args)


def cmd_train(args) -> int:
    cfg = _config(harness.ExperimentConfig, args)
    harness.check_grid(cfg)  # the cells train leaves out must be valid too
    harness.make_out_dir(args.out)
    result = harness.run_single(cfg, cfg.scalings[0], cfg.n_list[0], cfg.seeds[0])
    trace_to_csv(result.trace, os.path.join(args.out, "trace.csv"))
    if result.trace.snapshots:
        snapshots_to_npz(result.trace, os.path.join(args.out, "snapshots.npz"))
    harness.write_summary([result.row], os.path.join(args.out, "summary.csv"))
    for col in harness.SUMMARY_COLUMNS:
        print(f"{col}: {fmt(result.row[col])}")
    return _exit_code([result.row], args)


def cmd_gram(args) -> int:
    cfg, data = _dataset(harness.GramConfig, args)
    activation = get_activation(cfg.activation)
    spec = None if cfg.mc_samples else harness.embedding_spec(
        cfg.embedding or "identity", cfg.d, cfg.D, cfg.depth or 0, activation,
        cfg.embedding_seed, default_D=cfg.d)
    harness.make_out_dir(args.out)
    report = (gram(spec, build_embedding(spec), data.X) if spec is not None else
              gram_limit_mc(activation, data.X, cfg.mc_samples, cfg.embedding_seed))
    out_path = os.path.join(args.out, "gram.json")
    with open(out_path, "w") as fh:
        fh.write(report.to_json(dataset=cfg.dataset, seed=data.seed))
    for key in ("lambda_min", "lambda_max", "g_min", "g_max"):
        print(f"{key}: {fmt(getattr(report, key))}")
    print(f"wrote {out_path}")
    return 0


def cmd_concentration(args) -> int:
    cfg, data = _dataset(harness.ConcentrationConfig, args)
    activation = get_activation(cfg.activation)
    harness.make_out_dir(args.out)
    rows = concentration_probe(activation, data.X, cfg.D_list, cfg.trials, data.seed,
                               reference_samples=cfg.mc_samples)
    out_path = os.path.join(args.out, "concentration.csv")
    write_csv(out_path, ["D", "median_spectral_deviation"], rows)
    for D, dev in rows:
        print(f"D={D}: {fmt(dev)}")
    print(f"wrote {out_path}")
    return 0


def cmd_gen_data(args) -> int:
    _, data = _dataset(harness.DatasetConfig, args)
    name = f"{data.kind}_{data.split}.csv"
    if not data.split or "\0" in data.split or os.path.basename(name) != name:
        raise InvalidConfigError(f"split {data.split!r} is not a plain file-name component")
    harness.make_out_dir(args.out)
    out_path = os.path.join(args.out, name)
    datasets.to_csv(data, out_path)
    print(f"wrote {out_path}")
    return 0


M_MMAP_THRESHOLD = -3      # mallopt's parameter number in glibc's malloc.h
MMAP_THRESHOLD = 128 * 1024


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold, which turns its dynamic adjustment off;
    without glibc's ``mallopt`` (another C library) do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ptwide")
    sub = parser.add_subparsers(dest="verb", required=True)
    handlers = {"train": cmd_train, "experiment": cmd_experiment, "gram": cmd_gram,
                "concentration": cmd_concentration, "gen-data": cmd_gen_data}
    for verb in handlers:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        if verb in ("train", "experiment"):  # the verbs that run monitors
            p.add_argument("--no-strict", action="store_true")
    args = parser.parse_args(argv)
    _pin_mmap_threshold()
    try:
        return handlers[args.verb](args)
    except PtwideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:      # sizes too large for this machine, not a failed monitor
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
