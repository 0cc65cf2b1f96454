"""Full-batch gradient descent on W with scaling-dependent step size.

``run_training`` evolves the pre-activation matrix H directly through the
n x n kernel matrix of the (fixed) embedding instead of re-multiplying
W by Phi every step; the two are the same recursion written in different
bases, and a cross-check against the explicit forward/grad/step path is
part of the test suite. W itself is reconstructed at the end from the
accumulated per-neuron signals.

Each step works in four m x n buffers allocated once per run: H, the
signal sum Pacc, sigma(H) and sigma'(H). sigma'(H) is scaled in place by
the residual and by c into the signal P, one GEMM writes P @ K into the
sigma(H) buffer (dead once the step's output f is formed), H and Pacc are
updated in place, and one activation pass writes the next step's sigma(H)
and sigma'(H) together. The arithmetic is the same, in the same order, as
building P and P @ K as fresh arrays. The step and test-set buffers are
released before the (m, D) final W is built, so that W does not add to
the loop's peak memory.

A neuron's row of H changes only through the residual r, so the rows
split into independent blocks within a step. When the step product is
large (m n^2 >= 2**23, so a fork/join costs under a tenth of it), the
update runs on two row blocks split at m // 2, the second on a helper
thread; smaller steps run on one block. The record-step test evaluation
splits by columns instead: each test point's H_t column and output f_t
depend on its own column of Ktest alone, and under OpenBLAS a product
split by rows changed in the last bit while one split by columns at a
multiple of 8 (and not much past the middle) matched the whole product
bit for bit. So when m n n_test >= 2**23, the columns of H_t and Ktest
split at 8 (n_test // 16) and the second block runs on the helper; both
blocks end before the step's update touches Pacc. Everything else that
mixes rows or columns stays whole on the calling thread: f = beta c @
sigma(H), the loss and its checks, the test metric, the active
fractions and snapshots.

The second block of each split goes to the helper of ``ptwide.helper``,
whose thread starts only when some split exists, the process may run on
two CPUs and BLAS runs one thread. Without the thread the second block runs
on the caller, just before the first; the blocks share no output, so
results do not depend on the CPU or BLAS thread count. The test blocks
apply sigma in place, in H_t, so a record step allocates no (m, n_test)
temporary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diagnostics import active_fraction, shrink_interval
from .embedding import embed_batch
from .errors import InvalidConfigError, NumericError
from .helper import Helper
from .model import ForwardState, ModelConfig, Parameters, init_params
from .numkernel import fmt

DIVERGENCE_THRESHOLD = 1e12
# Smallest m n^2 (the multiply-adds of one step's P @ K) that runs on two row
# blocks: about 0.4 ms of GEMM at one BLAS thread, against a fork/join of a
# few tens of microseconds. The test evaluation's m n n_test uses it too.
TWO_BLOCK_MIN_MN2 = 2 ** 23


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    delta: float = 1.0
    record_every: int = 1
    snapshot_steps: tuple[int, ...] = ()
    record_eta: bool = True

    def __post_init__(self):
        if self.steps < 0:
            raise InvalidConfigError("steps must be >= 0")
        if self.delta <= 0:
            raise InvalidConfigError("delta must be positive")
        if self.record_every < 1:
            raise InvalidConfigError("record_every must be >= 1")
        outside = [s for s in self.snapshot_steps if not 0 <= s <= self.steps]
        if outside:
            raise InvalidConfigError(f"snapshot_steps {outside} lie outside "
                                     f"[0, steps = {self.steps}]")


@dataclass
class TrainingTrace:
    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    eta_min: list[float] = field(default_factory=list)
    test_errors: list[float] = field(default_factory=list)
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    probe_snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    eta_tilde0: float = float("nan")
    c_hat: float = float("nan")
    monotone_violations: list[int] = field(default_factory=list)
    diverged: bool = False
    final_params: Parameters | None = None


def loss(f_vals: np.ndarray, y: np.ndarray) -> float:
    """Empirical squared loss 1/2 sum (f_a - y_a)^2."""
    r = np.asarray(f_vals, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return 0.5 * float(r @ r)


def grad_W(config: ModelConfig, params: Parameters, X: np.ndarray,
           y: np.ndarray, state: ForwardState) -> np.ndarray:
    """Gradient of the loss with respect to W at the given forward state."""
    r = state.f - np.asarray(y, dtype=np.float64)
    Phi = embed_batch(config.embedding, params.embedding_weights, X)
    pref = (config.m ** (-config.scaling.output_exponent)
            * config.D ** (-config.scaling.hidden_exponent))
    P = params.c[:, None] * config.activation.deriv(state.H) * r[None, :]
    grad = pref * (P @ Phi)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient")
    return grad


def gd_step(config: ModelConfig, params: Parameters, grad: np.ndarray,
            delta: float) -> Parameters:
    """One update W <- W - m^lr * delta * grad; c and embedding untouched."""
    if grad.shape != params.W.shape:
        raise InvalidConfigError(f"grad shape {grad.shape} != W shape {params.W.shape}")
    step = config.m ** config.scaling.lr_exponent * delta
    return Parameters(W=params.W - step * grad, c=params.c,
                      embedding_weights=params.embedding_weights, c_hat=params.c_hat)


def run_training(config: ModelConfig, train_config: TrainConfig,
                 X: np.ndarray, y: np.ndarray,
                 test_X: np.ndarray | None = None,
                 test_y: np.ndarray | None = None,
                 test_metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
                 init: Parameters | None = None,
                 probe_X: np.ndarray | None = None) -> TrainingTrace:
    """Train by full-batch GD and record losses, active fractions, snapshots.

    Divergence (loss above 1e12 or non-finite values) aborts with a partial
    trace flagged ``diverged``. Per-step loss increases are recorded in
    ``monotone_violations`` but are not fatal.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    has_test = test_X is not None
    if has_test:
        if test_y is None:
            raise InvalidConfigError("test_X is given without test_y")
        test_y = np.asarray(test_y, dtype=np.float64)
        if test_y.shape != (len(test_X),):
            raise InvalidConfigError(f"test_y has shape {test_y.shape}, "
                                     f"expected ({len(test_X)},)")
    params = init if init is not None else init_params(config)

    sigma, value_and_deriv = config.activation.fn, config.activation.value_and_deriv
    m, D = config.m, config.D
    beta = m ** (-config.scaling.output_exponent)
    alpha = D ** (-config.scaling.hidden_exponent)
    lam = m ** config.scaling.lr_exponent
    delta = train_config.delta

    Phi = embed_batch(config.embedding, params.embedding_weights, X)      # (n, D)
    H = params.W @ Phi.T                                                  # (m, n)
    H *= alpha
    # Kernel of the H-space recursion: H <- H - P (lam d beta a^2 Phi Phi^T)
    Kmat = (lam * delta * beta * alpha * alpha) * (Phi @ Phi.T)
    c = params.c
    n = H.shape[1]

    test_blocks = []
    if has_test:
        Phi_t = embed_batch(config.embedding, params.embedding_weights, test_X)
        H_test0 = params.W @ Phi_t.T
        H_test0 *= alpha
        Ktest = (lam * delta * beta * alpha * alpha) * (Phi @ Phi_t.T)
        del Phi_t
        if test_metric is None:
            test_metric = lambda f, t: float(np.mean((f - t) ** 2))
        H_t = np.empty_like(H_test0)
        n_test = H_t.shape[1]
        f_t = np.empty(n_test)
        split = 8 * (n_test // 16)     # a multiple of 8 at or below the middle
        cols = ((0, split, n_test) if split and m * n * n_test >= TWO_BLOCK_MIN_MN2
                else (0, n_test))
        test_blocks = [(H_t[:, lo:hi], H_test0[:, lo:hi], Ktest[:, lo:hi], f_t[lo:hi])
                       for lo, hi in zip(cols, cols[1:])]

    has_probe = probe_X is not None
    if has_probe:
        Phi_p = embed_batch(config.embedding, params.embedding_weights, probe_X)
        H_probe0 = alpha * (params.W @ Phi_p.T)
        Kprobe = (lam * delta * beta * alpha * alpha) * (Phi @ Phi_p.T)

    trace = TrainingTrace(c_hat=params.c_hat)
    Pacc = np.zeros_like(H)
    sig, P = np.empty_like(H), np.empty_like(H)
    prev_loss = None
    snapshot_set = set(train_config.snapshot_steps)

    bounds = (0, m // 2, m) if m * n * n >= TWO_BLOCK_MIN_MN2 else (0, m)
    blocks = [(H[lo:hi], sig[lo:hi], P[lo:hi], Pacc[lo:hi], c[lo:hi, None])
              for lo, hi in zip(bounds, bounds[1:])]

    def advance(block, r: np.ndarray) -> None:
        """This step's update of one row block, then its next sigma, sigma'.
        sig_b holds P @ K until value_and_deriv writes the next sigma."""
        H_b, sig_b, P_b, Pacc_b, c_b = block
        P_b *= r
        P_b *= c_b
        np.matmul(P_b, Kmat, out=sig_b)
        H_b -= sig_b
        Pacc_b += P_b
        value_and_deriv(H_b, sig_b, P_b)

    def evaluate(block, step: int) -> None:
        """One column block of the test set's H_t and outputs f_t."""
        H_t_b, H_test0_b, Ktest_b, f_t_b = block
        if step == 0:
            H_t_b[...] = H_test0_b
        else:
            np.matmul(Pacc, Ktest_b, out=H_t_b)
            np.subtract(H_test0_b, H_t_b, out=H_t_b)
        f_t_b[...] = beta * (c @ sigma(H_t_b, out=H_t_b))

    def record(step: int, f: np.ndarray, lval: float) -> None:
        trace.steps.append(step)
        trace.losses.append(lval)
        if train_config.record_eta:
            _, mn = active_fraction(H, config.activation.active_region)
            trace.eta_min.append(mn)
        if has_test:
            in_blocks(evaluate, test_blocks, step)
            trace.test_errors.append(test_metric(f_t, test_y))

    def snapshot(step: int, f: np.ndarray) -> None:
        trace.snapshots[step] = (H.copy(), f.copy())
        if has_probe:
            H_p = H_probe0 if step == 0 else H_probe0 - Pacc @ Kprobe
            trace.probe_snapshots[step] = H_p

    def in_blocks(fn, fn_blocks, arg) -> None:
        """fn(block, arg) for each block: with two blocks, the second goes to
        the helper while the caller runs the first (one fork/join)."""
        if len(fn_blocks) == 2:
            helper.submit(fn, fn_blocks[1], arg)
        fn(fn_blocks[0], arg)
        helper.wait()

    with Helper(max(len(blocks), len(test_blocks)) == 2) as helper:
        value_and_deriv(H, sig, P)
        for step in range(train_config.steps + 1):
            f = beta * (c @ sig)
            r = f - y
            lval = 0.5 * float(r @ r)
            if not np.isfinite(lval) or lval > DIVERGENCE_THRESHOLD:
                trace.diverged = True
                break
            if step == 0:
                _, trace.eta_tilde0 = active_fraction(
                    H, shrink_interval(config.activation.active_region))
            if prev_loss is not None and lval > prev_loss:
                trace.monotone_violations.append(step)
            prev_loss = lval
            if step % train_config.record_every == 0 or step == train_config.steps:
                record(step, f, lval)
            if step in snapshot_set:
                snapshot(step, f)
            if step == train_config.steps:
                break
            in_blocks(advance, blocks, r)

    # W - scale * (Pacc @ Phi) needs only Pacc and Phi: drop the step and
    # test-set buffers (the blocks hold views of them) before the (m, D)
    # W_final exists, and build it in one array, with no (m, D) temporary.
    H = sig = P = blocks = test_blocks = H_t = H_test0 = Ktest = None
    W_final = Pacc @ Phi
    W_final *= lam * delta * beta * alpha
    np.subtract(params.W, W_final, out=W_final)
    trace.final_params = Parameters(W=W_final, c=c,
                                    embedding_weights=params.embedding_weights,
                                    c_hat=params.c_hat)
    return trace


def trace_to_csv(trace: TrainingTrace, path) -> None:
    """One row per recorded step: step, loss, eta_min, test_error."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "eta_min", "test_error"])
        for i, step in enumerate(trace.steps):
            eta = fmt(trace.eta_min[i]) if trace.eta_min else ""
            te = fmt(trace.test_errors[i]) if trace.test_errors else ""
            writer.writerow([step, fmt(trace.losses[i]), eta, te])


def snapshots_to_npz(trace: TrainingTrace, path) -> None:
    """Sidecar binary with the recorded (H, f) feature snapshots.

    Stored uncompressed: zlib shrinks float64 snapshots by only ~4% and
    made writing them about 40 times slower.
    """
    arrays = {}
    for step, (H, f) in trace.snapshots.items():
        arrays[f"H_{step}"] = H
        arrays[f"f_{step}"] = f
    np.savez(path, **arrays)
