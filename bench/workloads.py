"""The three benchmark workloads, their inputs and their result checks.

Each workload builds its inputs from the workload seed (``setup``), runs one
iteration through ptwide's public entry points (``run``), and turns the
iteration's output into check values (``results``): floats and monitor
outcomes compared with the stored reference for the default seed, flags that
must be True for every seed, and a digest that must repeat bit for bit within
one run.

Monitor outcomes (``lemma1_pass``, ``pl_pass``) are results of the
experiment, not checks of the benchmark: at this commit the lemma-1 monitor
fails on the exp3 preset for some seeds (3, 5, 6 and 9 of 1-13, in all
three scalings). They must match the reference at the default seed and are
reported, not counted as failures, at other seeds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

import ptwide
import ptwide.cli
import ptwide.diagnostics

# Reference values are compared within this relative tolerance: the last bits
# of a result differ across OpenBLAS core types, but a change of 1e-6 relative
# is a change of result.
RTOL = 1e-7
ABS_FLOOR = 1e-300


def _digest_files(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _write_config(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


# --- exp3_grid: `ptwide experiment` with preset exp3 ----------------------

EXP3_SCALINGS = ("ours", "ntk", "mf")
EXP3_N, EXP3_D, EXP3_M, EXP3_STEPS = 200, 50, 1024, 1000


class Exp3Grid:
    name = "exp3_grid"
    expected_spans = (
        "cli.main", "harness.run_single", "harness.write_outputs",
        "datasets.gen", "model.init_params", "model.forward",
        "embedding.build_embedding", "embedding.embed_batch",
        "numkernel.gaussian_matrix", "numkernel.sym_eig_extremes",
        "diagnostics.gram", "diagnostics.active_fraction",
        "diagnostics.lemma1_monitor", "diagnostics.pl_monitor",
        "train.run_training", "train.trace_to_csv", "train.snapshots_to_npz",
    )

    def setup(self, seed: int, workdir: str) -> dict:
        config = {"experiment": "exp3", "n_list": [EXP3_N], "m": EXP3_M,
                  "seeds": [seed], "scalings": list(EXP3_SCALINGS),
                  "steps": EXP3_STEPS, "delta": 1.0, "record_every": 10,
                  "n_test": 500}
        out = os.path.join(workdir, "out")
        path = _write_config(workdir, "exp3.json", config)
        return {"seed": seed, "out": out,
                "argv": ["experiment", "--config", path, "--out", out]}

    def run(self, inputs: dict):
        return ptwide.cli.main(inputs["argv"])

    def results(self, inputs: dict, exit_code) -> dict:
        out, seed = inputs["out"], inputs["seed"]
        y = ptwide.gen_wei(EXP3_N, EXP3_D, seed).y
        values, flags, monitors = {}, {}, {}
        with open(os.path.join(out, "summary.csv")) as fh:
            rows = {r["scaling"]: r for r in csv.DictReader(fh)}
        flags["all_cells"] = sorted(rows) == sorted(EXP3_SCALINGS)
        for sc, row in rows.items():
            tag = f"exp3_{sc}_n{EXP3_N}_m{EXP3_M}_s{seed}"
            final = float(row["final_loss"])
            for key in ("final_loss", "test_error", "rate_slope", "rate_r2"):
                values[f"{sc}.{key}"] = float(row[key])
            monitors[f"{sc}.lemma1_pass"] = row["lemma1_pass"] == "True"
            monitors[f"{sc}.pl_pass"] = row["pl_pass"] == "True"
            # Independent of the summary: the loss of the final snapshot's f.
            with np.load(os.path.join(out, f"snaps_{tag}.npz")) as snaps:
                r = snaps[f"f_{EXP3_STEPS}"] - y
            flags[f"{sc}.loss_matches_snapshot"] = math.isclose(
                0.5 * float(r @ r), final, rel_tol=1e-12)
            with open(os.path.join(out, f"trace_{tag}.csv")) as fh:
                first = next(csv.DictReader(fh))
            flags[f"{sc}.loss_decreased"] = final < float(first["loss"])
            flags[f"{sc}.rate_negative"] = float(row["rate_slope"]) < 0
            te = float(row["test_error"])
            flags[f"{sc}.test_error_valid"] = 0.0 <= te <= 1.0
        # The CLI's contract: exit 0 iff every monitor passed, else 1.
        flags["exit_code_matches_monitors"] = exit_code == (0 if all(monitors.values()) else 1)
        return {"values": values, "flags": flags, "monitors": monitors,
                "digest": _digest_files(out)}

    def initial_h(self, inputs: dict):
        seed = inputs["seed"]
        spec = ptwide.EmbeddingSpec(kind="random_feature", d=EXP3_D, D=EXP3_M,
                                    activation=ptwide.RELU, seed=seed)
        cfg = ptwide.ModelConfig(embedding=spec, activation=ptwide.RELU,
                                 scaling=ptwide.OURS, m=EXP3_M, seed=seed)
        X = ptwide.gen_wei(EXP3_N, EXP3_D, seed).X
        return ptwide.RELU, ptwide.forward(cfg, ptwide.init_params(cfg), X).H


# --- exp1_long: the README's library path at the crit4 sizes ---------------

class Exp1Long:
    name = "exp1_long"
    expected_spans = (
        "train.run_training", "model.init_params", "embedding.build_embedding",
        "embedding.embed_batch", "numkernel.gaussian_matrix",
        "diagnostics.active_fraction",
    )

    def setup(self, seed: int, workdir: str) -> dict:
        data = ptwide.gen_random_label(20, 20, seed=seed)
        cfg = ptwide.ModelConfig(
            embedding=ptwide.EmbeddingSpec(kind="identity", d=20, D=20),
            activation=ptwide.TANH, scaling=ptwide.OURS, m=1024, seed=seed)
        tc = ptwide.TrainConfig(steps=20000, delta=0.05, record_every=100,
                                record_eta=True, snapshot_steps=(0, 10000, 20000))
        return {"seed": seed, "data": data, "cfg": cfg, "tc": tc}

    def run(self, inputs: dict):
        data = inputs["data"]
        return ptwide.run_training(inputs["cfg"], inputs["tc"], data.X, data.y)

    def results(self, inputs: dict, trace) -> dict:
        cfg, data = inputs["cfg"], inputs["data"]
        params = trace.final_params
        rep = ptwide.gram(cfg.embedding, params.embedding_weights, data.X)
        constants = ptwide.theory_constants(
            cfg.activation.active_region, rep.g_min, rep.g_max,
            rep.lambda_min, rep.lambda_max, cfg.activation.k_deriv, cfg.c_hat)
        slope, r2 = ptwide.rate_fit(trace.steps, trace.losses)
        final = trace.losses[-1]
        # Independent of the H-space loop: the explicit forward pass on the
        # reconstructed final W.
        r = ptwide.forward(cfg, params, data.X, data.y).residual
        values = {"final_loss": final, "rate_slope": slope, "rate_r2": r2,
                  "eta_tilde0": trace.eta_tilde0, "eta_min_final": trace.eta_min[-1],
                  "monotone_violations": float(len(trace.monotone_violations))}
        monitors = {
            "lemma1_pass": ptwide.lemma1_monitor(trace, constants, cfg.c_hat).passed,
            "pl_pass": ptwide.pl_monitor(cfg, params, data.X, data.y, rep).passed,
        }
        flags = {
            "not_diverged": not trace.diverged,
            "loss_matches_forward": math.isclose(0.5 * float(r @ r), final,
                                                 rel_tol=1e-7, abs_tol=1e-12 * trace.losses[0]),
            "loss_decreased": final < trace.losses[0],
            "rate_negative": slope < 0,
        }
        h = hashlib.sha256()
        for arr in (trace.losses, trace.eta_min, params.W, *trace.snapshots[20000]):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return {"values": values, "flags": flags, "monitors": monitors,
                "digest": h.hexdigest()}

    def initial_h(self, inputs: dict):
        cfg, data = inputs["cfg"], inputs["data"]
        return cfg.activation, ptwide.forward(cfg, ptwide.init_params(cfg), data.X).H


# --- gram_mc: `ptwide concentration` with a 1M-sample Gram limit -----------

GRAM_D_LIST = (256, 1024, 4096)


def relu_gram_limit(X: np.ndarray) -> np.ndarray:
    """Closed-form E[relu(z.x_a/sqrt d) relu(z.x_b/sqrt d)] (arc-cosine kernel)."""
    d = X.shape[1]
    norms = np.linalg.norm(X, axis=1) / math.sqrt(d)
    cos = np.clip((X @ X.T) / d / np.outer(norms, norms), -1.0, 1.0)
    theta = np.arccos(cos)
    return np.outer(norms, norms) * (np.sin(theta) + (np.pi - theta) * cos) / (2 * np.pi)


class GramMC:
    name = "gram_mc"
    expected_spans = (
        "cli.main", "datasets.gen", "diagnostics.concentration_probe",
        "diagnostics.gram_limit_mc", "diagnostics.gram", "embedding.build_embedding",
        "embedding.embed_batch", "numkernel.gaussian_matrix",
        "numkernel.sym_eig_extremes",
    )

    def setup(self, seed: int, workdir: str) -> dict:
        config = {"dataset": "random_label", "n": 20, "d": 20, "seed": seed,
                  "activation": "relu", "D_list": list(GRAM_D_LIST), "trials": 5,
                  "mc_samples": 1_000_000}
        out = os.path.join(workdir, "out")
        path = _write_config(workdir, "conc.json", config)
        return {"seed": seed, "out": out,
                "argv": ["concentration", "--config", path, "--out", out]}

    def run(self, inputs: dict):
        # Result tap: keep the G-limit report the CLI computes and discards.
        # One extra Python call per iteration; no timing is recorded here.
        reports = []
        mc = ptwide.diagnostics.gram_limit_mc

        def tap(*args, **kwargs):
            reports.append(mc(*args, **kwargs))
            return reports[-1]

        ptwide.diagnostics.gram_limit_mc = tap
        try:
            exit_code = ptwide.cli.main(inputs["argv"])
        finally:
            ptwide.diagnostics.gram_limit_mc = mc
        return exit_code, reports

    def results(self, inputs: dict, raw) -> dict:
        exit_code, reports = raw
        out, seed = inputs["out"], inputs["seed"]
        with open(os.path.join(out, "concentration.csv")) as fh:
            devs = {int(r["D"]): float(r["median_spectral_deviation"])
                    for r in csv.DictReader(fh)}
        values = {f"deviation.D{D}": dev for D, dev in devs.items()}
        flags = {"exit_ok": exit_code == 0, "one_limit": len(reports) == 1,
                 "all_widths": sorted(devs) == list(GRAM_D_LIST)}
        h = hashlib.sha256(_digest_files(out).encode())
        if flags["one_limit"]:
            rep = reports[0]
            for key in ("lambda_min", "lambda_max", "g_min", "g_max"):
                values[f"limit.{key}"] = getattr(rep, key)
            X = ptwide.gen_random_label(20, 20, seed).X
            err = np.abs(rep.G - relu_gram_limit(X))
            flags["limit_matches_closed_form"] = bool(np.all(err <= 6 * rep.stderr + 1e-12))
            h.update(rep.G.tobytes())
        widths = [devs[D] for D in sorted(devs)]
        flags["deviation_decreases"] = all(a > b > 0 for a, b in zip(widths, widths[1:]))
        return {"values": values, "flags": flags, "monitors": {}, "digest": h.hexdigest()}

    def initial_h(self, inputs: dict):
        return None


WORKLOADS = {w.name: w for w in (Exp3Grid(), Exp1Long(), GramMC())}


def check(result: dict, reference: dict | None) -> tuple[list[str], float]:
    """Problems found in one iteration's result, and the largest relative
    deviation from the reference (0 when there is no reference).

    Flags must hold for every seed; values and monitor outcomes are compared
    only when a reference is given.
    """
    problems = [f"flag {k} is False" for k, ok in sorted(result["flags"].items()) if not ok]
    max_rel = 0.0
    if reference is not None:
        for key, ref in sorted(reference["values"].items()):
            got = result["values"].get(key)
            if got is None:
                problems.append(f"value {key} is missing")
                continue
            rel = abs(got - ref) / max(abs(ref), ABS_FLOOR)
            max_rel = max(max_rel, rel)
            if not rel <= RTOL:
                problems.append(f"{key}={got!r} differs from reference {ref!r} "
                                f"by {rel:.3g} relative (tolerance {RTOL:g})")
        for key in sorted(set(reference["flags"]) - set(result["flags"])):
            problems.append(f"flag {key} is missing")
        for key, ref in sorted(reference["monitors"].items()):
            got = result["monitors"].get(key)
            if got != ref:
                problems.append(f"monitor {key} is {got}, reference {ref}")
    return problems, max_rel
