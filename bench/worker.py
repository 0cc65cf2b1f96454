"""One benchmark process: set up a workload, optionally run one iteration.

Started by ``run.py`` as a fresh process per sample, so that set-up time is
paid in full and peak RSS belongs to this workload alone. Prints one JSON
object as the last line of its standard output.

    python3 bench/worker.py --workload exp1_long --seed 1 --mode run --workdir DIR

Modes: ``setup`` (import and build inputs only, plus the environment),
``run`` (one untraced iteration) and ``trace`` (one traced iteration and the
per-layer numbers). Exit code 3 means the trace is incomplete.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

# Set-up time starts here: importing numpy and ptwide, then building inputs.
T_START = time.perf_counter()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, check, output_bytes  # noqa: E402

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Spans whose self time is reported as "<span>.s", and those whose call count
# is reported as "<span>.calls".
TIMED_SPANS = (
    "cli.main", "harness.run_single", "harness.write_outputs",
    "train.run_training", "train.snapshots_to_npz", "train.trace_to_csv",
    "diagnostics.active_fraction", "diagnostics.gram_limit_mc",
    "diagnostics.concentration_probe", "diagnostics.gram",
    "diagnostics.pl_monitor", "diagnostics.lemma1_monitor",
    "embedding.build_embedding", "embedding.embed_batch",
    "numkernel.sym_eig_extremes", "numkernel.gaussian_matrix",
    "model.init_params", "model.forward", "datasets.gen",
)
COUNTED_SPANS = ("diagnostics.active_fraction", "embedding.embed_batch",
                 "numkernel.sym_eig_extremes")


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": "unknown",
        "blas_threads": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    # The wheel's OpenBLAS reports the kernel set it picked at run time.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol, key, restype in (("scipy_openblas_get_corename64_", "blas_core", ctypes.c_char_p),
                                     ("scipy_openblas_get_num_threads64_", "blas_threads", ctypes.c_int)):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                env[key] = value.decode() if isinstance(value, bytes) else value
    return env


def per_call_us(fn, H, blocks: int = 7) -> float:
    """Median wall time of one call, from blocks of back-to-back calls of ~20 ms."""
    fn(H)
    k = 1
    while True:
        t = time.perf_counter()
        for _ in range(k):
            fn(H)
        if time.perf_counter() - t >= 0.02:
            break
        k *= 2
    samples = []
    for _ in range(blocks):
        t = time.perf_counter()
        for _ in range(k):
            fn(H)
        samples.append((time.perf_counter() - t) / k)
    return statistics.median(samples) * 1e6


def layer_metrics(workload, inputs, tracer, run_s: float, out_bytes: int) -> dict:
    self_s, calls = tracing.self_times(tracer.spans)
    missing = [s for s in workload.expected_spans if not calls.get(s)]
    if missing:
        raise tracing.TraceError(f"expected spans never fired on {workload.name}: {missing}")
    k = tracer.counters
    m = {f"{s}.s": self_s.get(s, 0.0) for s in TIMED_SPANS}
    m.update({f"{s}.calls": calls.get(s, 0) for s in COUNTED_SPANS})
    train_s, gd_steps = m["train.run_training.s"], k["train.gd_steps"]
    m["train.gd_steps"] = gd_steps
    m["train.step_us"] = train_s / gd_steps * 1e6 if gd_steps else 0.0
    m["train.loop_gflop"] = k["train.loop_flop"] / 1e9
    m["train.gflops"] = m["train.loop_gflop"] / train_s if train_s else 0.0
    m["train.npz_bytes"] = k["train.npz_bytes"]
    m["harness.output_bytes"] = out_bytes
    mc_s = m["diagnostics.gram_limit_mc.s"]
    m["diagnostics.mc_samples_per_s"] = k["diagnostics.mc_samples"] / mc_s if mc_s else 0.0
    m["diagnostics.gram_limit_mc.peak_mb"] = tracer.peaks["diagnostics.gram_limit_mc"] / 2**20
    act = workload.initial_h(inputs)
    if act is None:
        m["activations.fn_us"] = m["activations.deriv_us"] = m["activations.bytes_per_call"] = 0.0
    else:
        spec, H = act
        m["activations.fn_us"] = per_call_us(spec.fn, H)
        m["activations.deriv_us"] = per_call_us(spec.deriv, H)
        m["activations.bytes_per_call"] = 2 * H.nbytes   # read H, write the result
    m["bench.traced_run_s"] = run_s
    m["bench.untraced_remainder_s"] = run_s - sum(self_s.values())
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    inputs = workload.setup(args.seed, args.workdir)
    out = {"setup_s": time.perf_counter() - T_START}
    if args.mode == "setup":
        out["env"] = environment()
        print(json.dumps(out))
        return 0

    tracer = tracing.Tracer()
    if args.mode == "trace":
        tracer.install()
    try:
        t = time.perf_counter()
        raw = workload.run(inputs)
        run_s = time.perf_counter() - t
    finally:
        tracer.uninstall()
    out["run_s"] = run_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out_dir = inputs.get("out")
    out_bytes = output_bytes(out_dir) if out_dir else 0
    if args.mode == "trace":
        out["layers"] = layer_metrics(workload, inputs, tracer, run_s, out_bytes)

    result = workload.results(inputs, raw)
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    ref = reference["workloads"][args.workload] if args.seed == reference["seed"] else None
    out["problems"], out["max_rel_dev"] = check(result, ref)
    out["has_reference"] = ref is not None
    out["result"] = result
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        sys.exit(3)
