"""Full-batch gradient descent on W with scaling-dependent step size.

``run_training`` evolves the pre-activation matrix H directly through the
n x n kernel matrix of the (fixed) embedding instead of re-multiplying
W by Phi every step; the two are the same recursion written in different
bases. The explicit forward / grad_W / gd_step path is the test oracle,
kept in ``tests/oracle.py`` and not in the library. W itself is
reconstructed at the end from the accumulated per-neuron signals.

Each step works in four m x n buffers allocated once per run: H, the
signal sum Pacc, sigma(H) and sigma'(H). sigma'(H) is scaled in place by
the residual and by c into the signal P, one GEMM writes P @ K into the
sigma(H) buffer (dead once the step's output f is formed), H and Pacc are
updated in place, and one activation pass writes the next step's sigma(H)
and sigma'(H) together. The arithmetic is the same, in the same order, as
building P and P @ K as fresh arrays.

The scalings by r and by c would broadcast along rows, and at short rows
numpy runs one n-element inner loop per row of such a broadcast (at
m = 1024, n = 20 and one BLAS thread the two took 49 of a 203 us step). So
a run keeps an (m, n) copy of c and scales each row block by its rows of
it, and it scales by r through a view of R_ROWS = 16 rows to a line,
against r tiled 16 times in a buffer refreshed each step (a block whose
rows 16 does not divide takes one row to a line). Each product has the same
two factors in the same order, r first, so the bits are those of the row
broadcasts.

A neuron's row of H changes only through the residual r, so the rows
split into independent blocks within a step. When the step product is
large (m n^2 >= 2**23, so a fork/join costs under a tenth of it), the
update runs on two row blocks split at m // 2, the second on a helper
thread; smaller steps run on one block. The record-step test evaluation
splits by columns instead: each test point's H_t column and output f_t
depend on its own column of Ktest alone, and under OpenBLAS a product
split by rows changed in the last bit while one split by columns at a
multiple of 8 (and not much past the middle) matched the whole product
bit for bit. So when m n n_test >= 2**23, the test columns split at
8 (n_test // 16) and the second half runs on the helper; both halves end
before the step's update touches Pacc. Everything else that mixes rows or
columns stays whole on the calling thread: f = beta c @ sigma(H), the
loss and its checks, the test metric, the active fractions and snapshots.

The second block of each split goes to the helper of ``ptwide.helper``,
whose thread starts only when some split exists, the process may run on
two CPUs and BLAS runs one thread. Without the thread the second block runs
on the caller, just before the first; the blocks share no output, so
results do not depend on the CPU or BLAS thread count.

A record step allocates no (m, n) or (m, n_test) array. Each test half is
evaluated TEST_TILE columns at a time, from H_test0 and Ktest, through one
(m, TEST_TILE) buffer per half that holds a tile's H_t and then sigma(H_t)
in place (the last, narrower tile uses a prefix of it), so there is no
(m, n_test) H_t. The tile width is fixed, because it can move the last bits
of f_t: at exp3's shape (m = 1024, n = 200, column halves of 248 and 252)
the tiles of 64 give other bits than one product per half, as OpenBLAS's
product over the 252 columns is not bit-equal to that over its tiles.
f_t does not depend on the helper or on the CPU or BLAS thread count.

Memory is the live arrays of one of a run's three phases, and a run never
holds two (m, D) arrays; the (m, D) W is live only in the first and last.
- The start. W (drawn by ``init_params``) and the embeddings Phi (n, D)
  and Phi_t (n_test, D) form Ktest, then H_test0 = alpha W Phi_t^T. Phi and
  the embedding weights are dropped before H_test0 exists (once Phi_t is
  dropped, ``build_embedding`` draws the weights again, with the same bits),
  and the training set is embedded again for H (one more embed, only with a
  test set). Kmat is formed from that Phi after H, and each kernel is
  scaled in place. So the start holds W, Phi_t, H_test0 and Ktest, the
  least that whole products allow, and binds at D = m with n_test > n
  (exp3's shape). W and Phi are dropped before the step and test-tile
  buffers exist.
- The loop: O(m (n + n_test)) and no (m, D) array. No snapshot copies H at
  step 0, and the snapshot of the final step keeps H itself.
- The final W. The step and test-set buffers and Kmat are released, Phi is
  embedded again and W drawn a second time from the same stream by
  ``model.init_weights``, the W-only draw that ``init_params`` makes, so it
  has the same bits. The step-0 snapshot is built from it by the same
  ``model.preactivations`` as the initial H, and W then becomes the final W
  in place, W_BLOCK_BYTES of Pacc @ Phi at a time: t = Pacc @ Phi[:, a:b],
  t *= scale, W[:, a:b] -= t. At m = 1024 a block is 16 columns (128 KiB),
  so this phase holds W, Phi, Pacc and the snapshots and little more.
Under OpenBLAS these column blocks gave the bits of the whole product
(checked at exp3's shape and at n > 256, for blocks of any multiple of 8
columns) while blocks of W @ Phi_t^T did not, so the initial products are
formed whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .datasets import mse
from .diagnostics import active_fraction, shrink_interval
from .embedding import build_embedding, embed_batch
from .errors import InvalidConfigError
from .helper import Helper
from .model import ModelConfig, Parameters, init_params, init_weights, preactivations
from .numkernel import write_csv

DIVERGENCE_THRESHOLD = 1e12
# Smallest m n^2 (the multiply-adds of one step's P @ K) that runs on two row
# blocks: about 0.4 ms of GEMM at one BLAS thread, against a fork/join of a
# few tens of microseconds. The test evaluation's m n n_test uses it too.
TWO_BLOCK_MIN_MN2 = 2 ** 23
# Columns of the test set evaluated at a time, through one (m, TEST_TILE)
# buffer per column half: a multiple of 8, so that every tile starts at one.
TEST_TILE = 64
# Rows to a line of the step's scaling by r, against r tiled R_ROWS times.
R_ROWS = 16
# Bytes of each column block of Pacc @ Phi subtracted from W for the final W;
# the block width is a multiple of 8 columns, and at least 8.
W_BLOCK_BYTES = 2 ** 17


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
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidConfigError(f"delta must be positive and finite, not {self.delta}")
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
    probe_snapshots: dict[int, np.ndarray] = field(default_factory=dict)  # (m,) h of test_X[0]
    eta_tilde0: float = float("nan")
    monotone_violations: list[int] = field(default_factory=list)
    diverged: bool = False
    final_params: Parameters | None = None


def run_training(config: ModelConfig, train_config: TrainConfig,
                 X: np.ndarray, y: np.ndarray,
                 test_X: np.ndarray | None = None,
                 test_y: np.ndarray | None = None,
                 test_metric: Callable[[np.ndarray, np.ndarray], float] | None = None
                 ) -> TrainingTrace:
    """Train by full-batch GD from ``init_params(config)`` and record losses,
    active fractions and snapshots.

    Divergence (loss above 1e12 or non-finite values) aborts with a partial
    trace flagged ``diverged``. Per-step loss increases are recorded in
    ``monotone_violations`` but are not fatal.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m, D = len(X), config.m, config.D
    if n < 1:
        raise InvalidConfigError(f"the training set has {n} points; it needs at least 1")
    if y.shape != (n,):
        raise InvalidConfigError(f"y has shape {y.shape}, expected ({n},)")
    has_test = test_X is not None
    if has_test:
        if test_y is None:
            raise InvalidConfigError("test_X is given without test_y")
        if len(test_X) < 1:
            raise InvalidConfigError(f"test_X has {len(test_X)} points; it needs at least 1")
        test_y = np.asarray(test_y, dtype=np.float64)
        if test_y.shape != (len(test_X),):
            raise InvalidConfigError(f"test_y has shape {test_y.shape}, "
                                     f"expected ({len(test_X)},)")
    params = init_params(config)
    W, c, ew = params.W, params.c, params.embedding_weights
    del params

    sigma, value_and_deriv = config.activation.fn, config.activation.value_and_deriv
    beta, alpha, lam = config.factors
    delta = train_config.delta

    # Kernel of the H-space recursion: H <- H - P (lam d beta a^2 Phi Phi^T)
    k_scale = lam * delta * beta * alpha * alpha
    Phi = embed_batch(config.embedding, ew, X)                            # (n, D)
    if has_test:
        Phi_t = embed_batch(config.embedding, ew, test_X)
        Ktest = Phi @ Phi_t.T
        Ktest *= k_scale
        # Phi and the embedding weights are made again for H (the same
        # bits), so that neither is live with H_test0
        Phi = ew = None
        H_test0 = preactivations(config, W, Phi_t)
        del Phi_t
        ew = build_embedding(config.embedding)
        Phi = embed_batch(config.embedding, ew, X)
    H = preactivations(config, W, Phi)                                    # (m, n)
    W = None           # drawn again for the final W
    Kmat = Phi @ Phi.T
    Kmat *= k_scale
    Phi = None         # embedded again for the final W

    test_blocks = []
    if has_test:
        test_metric = test_metric or mse
        n_test = H_test0.shape[1]
        f_t = np.empty(n_test)
        split = 8 * (n_test // 16)     # a multiple of 8 at or below the middle
        cols = ((0, split, n_test) if split and m * n * n_test >= TWO_BLOCK_MIN_MN2
                else (0, n_test))
        test_blocks = [(lo, hi, np.empty(m * min(TEST_TILE, hi - lo)))
                       for lo, hi in zip(cols, cols[1:])]

    trace = TrainingTrace()
    Pacc = np.zeros_like(H)
    sig, P = np.empty_like(H), np.empty_like(H)
    prev_loss = None
    snapshot_set = set(train_config.snapshot_steps)

    # The step scales by a full copy of c and by r tiled k times (refreshed
    # each step), not by row broadcasts. Each product keeps its two factors,
    # so no bit changes.
    c_rows = np.repeat(c[:, None], n, axis=1)
    r_rows = np.empty((R_ROWS, n))
    bounds = (0, m // 2, m) if m * n * n >= TWO_BLOCK_MIN_MN2 else (0, m)
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        k = R_ROWS if (hi - lo) % R_ROWS == 0 else 1
        blocks.append((H[lo:hi], sig[lo:hi], P[lo:hi], Pacc[lo:hi], c_rows[lo:hi],
                       P[lo:hi].reshape(-1, k * n), r_rows[:k].reshape(-1)))

    def advance(block) -> None:
        """This step's update of one row block, then its next sigma, sigma'.
        P_k is P_b seen k rows to a line, r_k is r tiled k times, and sig_b
        holds P @ K until value_and_deriv writes the next sigma."""
        H_b, sig_b, P_b, Pacc_b, c_b, P_k, r_k = block
        P_k *= r_k
        P_b *= c_b
        np.matmul(P_b, Kmat, out=sig_b)
        H_b -= sig_b
        Pacc_b += P_b
        value_and_deriv(H_b, sig_b, P_b)

    def evaluate(block) -> None:
        """One column half of the test outputs f_t, a tile at a time: the
        tile's H_t, then sigma(H_t), in a prefix of the half's buffer."""
        lo, hi, buf = block
        for a in range(lo, hi, TEST_TILE):
            b = min(a + TEST_TILE, hi)
            H_t = buf[:m * (b - a)].reshape(m, b - a)
            np.matmul(Pacc, Ktest[:, a:b], out=H_t)
            np.subtract(H_test0[:, a:b], H_t, out=H_t)
            f_t[a:b] = beta * (c @ sigma(H_t, out=H_t))

    def record(step: int, lval: float) -> None:
        trace.steps.append(step)
        trace.losses.append(lval)
        if train_config.record_eta:
            _, mn = active_fraction(H, config.activation.active_region)
            trace.eta_min.append(mn)
        if has_test:
            in_blocks(evaluate, test_blocks)
            trace.test_errors.append(test_metric(f_t, test_y))

    def snapshot(step: int, f: np.ndarray) -> None:
        # The loop ends at the final step, so its snapshot may keep H itself;
        # H at step 0 is built again after the loop, from W and Phi.
        H_s = None if step == 0 else H if step == train_config.steps else H.copy()
        trace.snapshots[step] = (H_s, f)
        if has_test:
            trace.probe_snapshots[step] = H_test0[:, 0] - Pacc @ Ktest[:, 0]

    def in_blocks(fn, fn_blocks) -> None:
        """fn(block) for each block: with two blocks, the second goes to the
        helper while the caller runs the first (one fork/join)."""
        if len(fn_blocks) == 2:
            helper.submit(fn, fn_blocks[1])
        fn(fn_blocks[0])
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
                record(step, lval)
            if step in snapshot_set:
                snapshot(step, f)
            if step == train_config.steps:
                break
            r_rows[...] = r
            in_blocks(advance, blocks)

    # W - scale * (Pacc @ Phi) needs only W, Pacc and Phi: drop the step and
    # test-set arrays (the step blocks hold views of them) before Phi and W
    # exist again, then turn W into the final W in place, a column block at
    # a time, so there is no (m, D) temporary.
    H = sig = P = c_rows = blocks = test_blocks = H_test0 = Kmat = Ktest = None
    Phi = embed_batch(config.embedding, ew, X)
    W = init_weights(config)
    if 0 in trace.snapshots:
        trace.snapshots[0] = (preactivations(config, W, Phi), trace.snapshots[0][1])
    scale = lam * delta * beta * alpha
    width = max(8, W_BLOCK_BYTES // (64 * m) * 8)
    for a in range(0, D, width):
        t = Pacc @ Phi[:, a:a + width]
        t *= scale
        W[:, a:a + width] -= t
        del t       # before the next block exists
    trace.final_params = Parameters(W=W, c=c, embedding_weights=ew)
    return trace


def trace_to_csv(trace: TrainingTrace, path) -> None:
    """One row per recorded step: step, loss, eta_min, test_error ("" if unrecorded)."""
    write_csv(path, ["step", "loss", "eta_min", "test_error"],
              itertools.zip_longest(trace.steps, trace.losses, trace.eta_min,
                                    trace.test_errors, fillvalue=""))


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
