"""The trainable head f(x) = m^-p sum_i c_i sigma(h_i(x)), h = D^-q W Phi(x).

Three width-scalings are supported (exponents of m / D):

    name   output p   hidden q   lr exponent
    ours      1          1/2          1
    ntk      1/2         1/2          0
    mf        1           1           2

Only W is trained; the output signs c and the embedding weights are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import ActivationSpec
from .embedding import EmbeddingSpec, EmbeddingWeights, build_embedding, embed_batch
from .errors import InvalidConfigError, NumericError
from .numkernel import RngStream, gaussian_matrix, rademacher_vector


@dataclass(frozen=True)
class ScalingVariant:
    name: str
    output_exponent: float  # f prefactor m^-p
    hidden_exponent: float  # h prefactor D^-q
    lr_exponent: float      # update W -= m^lr * delta * grad
    paired_init: bool = False  # neurons drawn in (+, -) pairs with shared W rows
    tied_width: bool = False   # the embedding width D must equal m


OURS = ScalingVariant("ours", 1.0, 0.5, 1.0)
NTK = ScalingVariant("ntk", 0.5, 0.5, 0.0, paired_init=True)
MF = ScalingVariant("mf", 1.0, 1.0, 2.0, tied_width=True)

_VARIANTS = {"ours": OURS, "ntk": NTK, "mf": MF}


def get_scaling(name: str) -> ScalingVariant:
    try:
        return _VARIANTS[name]
    except KeyError:
        raise InvalidConfigError(f"unknown scaling variant {name!r}") from None


@dataclass(frozen=True)
class ModelConfig:
    embedding: EmbeddingSpec
    activation: ActivationSpec
    scaling: ScalingVariant
    m: int
    c_hat: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise InvalidConfigError("m must be >= 1")
        if not (math.isfinite(self.c_hat) and self.c_hat > 0):
            raise InvalidConfigError(f"c_hat must be positive and finite, not {self.c_hat}")
        if self.scaling.paired_init and self.m % 2 != 0:
            raise InvalidConfigError(f"{self.scaling.name} symmetrized init requires even m")
        if self.scaling.tied_width and self.embedding.D != self.m:
            raise InvalidConfigError(f"{self.scaling.name} scaling requires D == m")

    @property
    def D(self) -> int:
        return self.embedding.D

    @property
    def factors(self) -> tuple[float, float, float]:
        """The scaling's (beta, alpha, lam) = (m^-p, D^-q, m^lr)."""
        sc, m = self.scaling, self.m
        return m ** -sc.output_exponent, self.D ** -sc.hidden_exponent, m ** sc.lr_exponent

    @property
    def flow_prefactor(self) -> float:
        """c_hat^2 m^(lr-2p) D^(1-2q): dL/dt's factor under gradient flow (c_hat^2 / m)."""
        sc = self.scaling
        return self.c_hat ** 2 / (self.m ** (2 * sc.output_exponent - sc.lr_exponent)
                                  * self.D ** (2 * sc.hidden_exponent - 1))


@dataclass(frozen=True)
class Parameters:
    W: np.ndarray                    # (m, D), trainable
    c: np.ndarray                    # (m,), fixed signs times c_hat
    embedding_weights: EmbeddingWeights


@dataclass(frozen=True)
class ForwardState:
    H: np.ndarray                    # (m, n) pre-activations
    f: np.ndarray                    # (n,) outputs
    residual: np.ndarray | None      # f - y when targets supplied


def init_params(config: ModelConfig) -> Parameters:
    """Draw initial parameters: W standard normal, c scaled Rademacher signs.

    Under a paired variant (ntk) the neurons come in adjacent (+, -) sign
    pairs with shared W rows; adjacent pairing makes the cancellation exact
    in floating point, so f at initialization is identically zero.
    """
    ew = build_embedding(config.embedding)
    if config.scaling.paired_init:
        c_half = rademacher_vector(RngStream(config.seed, "c"), config.m // 2, config.c_hat)
        c = np.stack([c_half, -c_half], axis=1).ravel()
    else:
        c = rademacher_vector(RngStream(config.seed, "c"), config.m, config.c_hat)
    return Parameters(W=init_weights(config), c=c, embedding_weights=ew)


def init_weights(config: ModelConfig) -> np.ndarray:
    """The initial (m, D) W of ``init_params``, drawn alone from its own stream,
    so that a second call gives the same array bit for bit.

    Under a paired variant, rows 2i and 2i + 1 are row i of an (m/2, D)
    draw. The draw fills the first half of W, and row i is copied to its
    pair from the last row back, so no row is overwritten before it is read
    and no (m/2, D) temporary exists.
    """
    rng = RngStream(config.seed, "w")
    if not config.scaling.paired_init:
        return gaussian_matrix(rng, config.m, config.D)
    half = config.m // 2
    W = np.empty((config.m, config.D))
    gaussian_matrix(rng, half, config.D, out=W[:half])
    for i in reversed(range(half)):
        W[2 * i:2 * i + 2] = W[i]
    return W


def preactivations(config: ModelConfig, W: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """H = alpha W Phi^T (m, n) of embedded inputs Phi (n, D), scaled in place."""
    H = W @ Phi.T
    H *= config.factors[1]
    return H


def forward(config: ModelConfig, params: Parameters, X: np.ndarray,
            y: np.ndarray | None = None) -> ForwardState:
    """Evaluate the model on a data batch (n, d)."""
    Phi = embed_batch(config.embedding, params.embedding_weights, X)  # (n, D)
    H = preactivations(config, params.W, Phi)
    del Phi     # before sigma(H) exists
    if not np.all(np.isfinite(H)):
        i, a = np.argwhere(~np.isfinite(H))[0]
        raise NumericError(f"non-finite pre-activation at neuron {i}, data point {a}")
    f = config.factors[0] * (params.c @ config.activation.fn(H))
    if not np.all(np.isfinite(f)):
        a = int(np.argwhere(~np.isfinite(f))[0])
        raise NumericError(f"non-finite output at data point {a}")
    residual = None if y is None else f - np.asarray(y, dtype=np.float64)
    return ForwardState(H=H, f=f, residual=residual)
