"""The explicit-path oracle for the kernel-space GD loop.

``train.run_training`` evolves H = alpha W Phi^T through the n x n kernel of
the embedding. The tests check it against this module: the loss, the
gradient with respect to W and the GD step written out literally, one
forward pass per step. None of it is library API; nothing at runtime calls
it.
"""

import math

import numpy as np

from ptwide.activations import TANH
from ptwide.embedding import EmbeddingSpec, EmbeddingWeights, embed_batch
from ptwide.errors import InvalidConfigError, NumericError, StructuralError
from ptwide.model import ForwardState, ModelConfig, Parameters, forward, init_params
from ptwide.train import TrainConfig, run_training


def _identity_spec(d):
    return EmbeddingSpec(kind="identity", d=d, D=d)


def _manual_params(W, c):
    return Parameters(W=np.asarray(W, dtype=np.float64),
                      c=np.asarray(c, dtype=np.float64),
                      embedding_weights=EmbeddingWeights())


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
                      embedding_weights=params.embedding_weights)


def feature_movement(H_a: np.ndarray, H_b: np.ndarray) -> np.ndarray:
    """Columnwise mean absolute pre-activation difference (1/m) sum_i |dh_i|."""
    if H_a.shape != H_b.shape:
        raise StructuralError(f"shape mismatch: {H_a.shape} vs {H_b.shape}")
    return np.abs(H_a - H_b).mean(axis=0)


def active_fraction(H: np.ndarray, interval: tuple[float, float]) -> tuple[np.ndarray, float]:
    """The per-data-point fraction of neurons inside the open interval, in one
    shot over the whole (m, n) indicator, and its minimum."""
    lo, hi = interval
    inside = (H > lo) & (H < hi)
    per_a = inside.mean(axis=0)
    return per_a, float(per_a.min())


def _check_kernel_path_against_explicit(activation, scaling, m, n, D, delta):
    spec = EmbeddingSpec(kind="random_feature", d=3, D=D, activation=TANH, seed=2)
    cfg = ModelConfig(embedding=spec, activation=activation, scaling=scaling,
                      m=m, seed=5)
    rng = np.random.default_rng(8)
    _check_kernel_path_on(cfg, rng.standard_normal((n, 3)), rng.standard_normal(n), delta)


def _check_kernel_path_on(cfg, X, y, delta):
    # the H-space recursion must agree with literally recomputing
    # forward / grad_W / gd_step every step
    steps = 30

    trace = run_training(cfg, TrainConfig(steps=steps, delta=delta,
                                          record_eta=False), X, y)
    assert not trace.diverged

    params = init_params(cfg)
    explicit_losses = []
    for _ in range(steps):
        state = forward(cfg, params, X, y)
        explicit_losses.append(0.5 * float(state.residual @ state.residual))
        params = gd_step(cfg, params, grad_W(cfg, params, X, y, state), delta)
    explicit_losses.append(loss(forward(cfg, params, X).f, y))

    np.testing.assert_allclose(trace.losses, explicit_losses,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(trace.final_params.W, params.W,
                               rtol=1e-9, atol=1e-12)


def relu_closed_form_kernel(saa, sbb, sab):
    """Gaussian expectation of relu(u) relu(v): the arc-cosine formula."""
    denom = math.sqrt(saa * sbb)
    rho = min(1.0, max(-1.0, sab / denom))
    theta = math.acos(rho)
    return denom / (2.0 * math.pi) * (math.sin(theta)
                                      + (math.pi - theta) * math.cos(theta))
