"""ptwide benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exp3_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One caller runs iterations back to back,
each in a fresh worker process (``worker.py``) with BLAS pinned to one
thread. ``--trace 0`` reports the end-to-end metrics from untraced
iterations; ``--trace 1`` alternates traced and untraced iterations and
reports the per-layer metrics. Every iteration's result is checked. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``bench/README.md``.
"""

import os

# Pinned before any process of the benchmark loads numpy; workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOAD_NAMES = ("exp3_grid", "exp1_long", "gram_mc")

# Every run must end within 180 s; no worker is given longer than this.
RUN_LIMIT_S = 170.0
MIN_ITERATIONS = 3
SETUP_SAMPLES = 12

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "cli.main.s": "s",
    "harness.run_single.s": "s",
    "harness.write_outputs.s": "s",
    "harness.output_bytes": "bytes",
    "train.run_training.s": "s",
    "train.gd_steps": "count",
    "train.step_us": "us",
    "train.loop_gflop": "GFLOP",
    "train.gflops": "GFLOP/s",
    "train.snapshots_to_npz.s": "s",
    "train.trace_to_csv.s": "s",
    "train.npz_bytes": "bytes",
    "activations.fn_us": "us",
    "activations.deriv_us": "us",
    "activations.bytes_per_call": "bytes",
    "diagnostics.active_fraction.s": "s",
    "diagnostics.active_fraction.calls": "count",
    "diagnostics.gram_limit_mc.s": "s",
    "diagnostics.mc_samples_per_s": "1/s",
    "diagnostics.gram_limit_mc.peak_mb": "MiB",
    "diagnostics.concentration_probe.s": "s",
    "diagnostics.gram.s": "s",
    "diagnostics.pl_monitor.s": "s",
    "diagnostics.lemma1_monitor.s": "s",
    "embedding.build_embedding.s": "s",
    "embedding.embed_batch.s": "s",
    "embedding.embed_batch.calls": "count",
    "numkernel.sym_eig_extremes.s": "s",
    "numkernel.sym_eig_extremes.calls": "count",
    "numkernel.gaussian_matrix.s": "s",
    "model.init_params.s": "s",
    "model.forward.s": "s",
    "datasets.gen.s": "s",
    "bench.traced_run_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.untraced_remainder_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed iteration)."""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Session:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.deadline = deadline
        self.count = 0
        self.env = {
            **{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            "PYTHONPATH": os.path.join(ROOT, "src"),
        }

    def worker(self, mode: str) -> tuple[int, dict | None, str]:
        self.count += 1
        workdir = os.path.join(self.workdir, f"{mode}-{self.count}")
        timeout = max(self.deadline - time.monotonic(), 1.0)
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--workdir", workdir]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode == 3:
            raise BenchError(proc.stderr.strip())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode, None, proc.stderr.strip()[-2000:]
        return 0, json.loads(lines[-1]), ""


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "ptwide", "__init__.py")):
        raise BenchError(f"no ptwide source under {os.path.join(ROOT, 'src')}")
    started = time.monotonic()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    session = Session(args.workload, args.seed, workdir, started + RUN_LIMIT_S)
    try:
        # Warm-up: fills the page cache and writes bytecode; not a sample.
        code, warm, err = session.worker("setup")
        if warm is None:
            raise BenchError(f"set-up failed (exit {code}): {err}")
        setups = []
        for _ in range(SETUP_SAMPLES):
            code, out, err = session.worker("setup")
            if out is None:
                raise BenchError(f"set-up failed (exit {code}): {err}")
            setups.append(out["setup_s"])

        measure_start = time.monotonic()
        iterations = []   # (mode, exit code, worker output, stderr)
        longest = 0.0
        while len(iterations) < MIN_ITERATIONS or (
                time.monotonic() - measure_start < args.seconds
                and time.monotonic() + 2 * longest < session.deadline):
            mode = "trace" if args.trace and len(iterations) % 2 == 0 else "run"
            t = time.monotonic()
            iterations.append((mode, *session.worker(mode)))
            longest = max(longest, time.monotonic() - t)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    failed, max_rel, digest, notes, violations = 0, 0.0, None, [], set()
    for i, (mode, code, out, err) in enumerate(iterations):
        problems = [f"worker exited with {code}: {err}"] if out is None else list(out["problems"])
        if out is not None:
            violations.update(k for k, ok in out["result"]["monitors"].items() if not ok)
            setups.append(out["setup_s"])
            max_rel = max(max_rel, out["max_rel_dev"])
            digest = digest or out["result"]["digest"]
            if out["result"]["digest"] != digest:
                problems.append("result is not bit-identical to the first iteration")
        if problems:
            failed += 1
            notes.extend(f"iteration {i} ({mode}): {p}" for p in problems)
    done = [(mode, out) for mode, _, out, _ in iterations if out is not None]
    untraced = [out for mode, out in done if mode == "run"]
    traced = [out for mode, out in done if mode == "trace"]
    if not untraced or (args.trace and not traced):
        raise BenchError("too few iterations finished:\n" + "\n".join(notes))
    run_s = statistics.median(o["run_s"] for o in untraced)

    if args.trace:
        metrics = {name: statistics.median(o["layers"][name] for o in traced)
                   for name in PER_LAYER if name in traced[0]["layers"]}
        metrics["bench.trace_overhead_s"] = metrics["bench.traced_run_s"] - run_s
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setups), "run_s": run_s,
                   "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in untraced)}
        units = END_TO_END
    if set(metrics) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    return {
        "env": {**warm["env"], "git_commit": git_commit(), "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "iterations": len(iterations),
        "run_s_samples": [o["run_s"] for o in untraced],
        "setup_samples": len(setups),
        "has_reference": done[0][1]["has_reference"],
        "max_rel_dev": max_rel,
        "notes": notes,
        "monitor_violations": sorted(violations),
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        report = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print("environment: " + json.dumps(report["env"], sort_keys=True))
    print(f"iterations: {report['iterations']}  set-up samples: {report['setup_samples']}  "
          f"untraced run_s samples: {', '.join('%.4f' % s for s in report['run_s_samples'])}")
    for name, m in report["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if args.trace:
        remainder = report["metrics"]["bench.untraced_remainder_s"]["value"]
        traced_s = report["metrics"]["bench.traced_run_s"]["value"]
        print(f"untraced remainder: {100 * remainder / traced_s:.3g}% of the traced run_s")
    print(f"failed_frac: {report['failed'] / report['attempted']:.3g} "
          f"({report['failed']} of {report['attempted']})")
    if report["has_reference"]:
        print(f"largest relative deviation from the reference: {report['max_rel_dev']:.3g}")
    else:
        print(f"no reference values for seed {args.seed}; "
              "checked flags and bit-identical repeats only")
    if report["monitor_violations"]:
        print("monitors that failed (a result of the program, counted as a failure "
              "only where the reference says it passes): "
              + ", ".join(report["monitor_violations"]))
    for note in report["notes"]:
        print("FAILED " + note)
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
