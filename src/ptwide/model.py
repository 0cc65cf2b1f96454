"""The trainable head f(x) = m^-p sum_i c_i sigma(h_i(x)), h = D^-q W Phi(x).

Three width-scalings are supported (exponents of m / D):

    name   output p   hidden q   lr exponent
    ours      1          1/2          1
    ntk      1/2         1/2          0
    mf        1           1           2

Only W is trained; the output signs c and the embedding weights are fixed.
"""

from __future__ import annotations

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
        if self.c_hat <= 0:
            raise InvalidConfigError("c_hat must be positive")
        if self.scaling.paired_init and self.m % 2 != 0:
            raise InvalidConfigError(f"{self.scaling.name} symmetrized init requires even m")
        if self.scaling.tied_width and self.embedding.D != self.m:
            raise InvalidConfigError(f"{self.scaling.name} scaling requires D == m")

    @property
    def d(self) -> int:
        return self.embedding.d

    @property
    def D(self) -> int:
        return self.embedding.D


@dataclass(frozen=True)
class Parameters:
    W: np.ndarray                    # (m, D), trainable
    c: np.ndarray                    # (m,), fixed signs times c_hat
    embedding_weights: EmbeddingWeights
    c_hat: float


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
        half = config.m // 2
        w_half = gaussian_matrix(RngStream(config.seed, "w"), half, config.D)
        c_half = rademacher_vector(RngStream(config.seed, "c"), half, config.c_hat)
        W = np.repeat(w_half, 2, axis=0)
        c = np.stack([c_half, -c_half], axis=1).ravel()
    else:
        W = gaussian_matrix(RngStream(config.seed, "w"), config.m, config.D)
        c = rademacher_vector(RngStream(config.seed, "c"), config.m, config.c_hat)
    return Parameters(W=W, c=c, embedding_weights=ew, c_hat=config.c_hat)


def forward(config: ModelConfig, params: Parameters, X: np.ndarray,
            y: np.ndarray | None = None) -> ForwardState:
    """Evaluate the model on a data batch (n, d)."""
    Phi = embed_batch(config.embedding, params.embedding_weights, X)  # (n, D)
    H = config.D ** (-config.scaling.hidden_exponent) * (params.W @ Phi.T)  # (m, n)
    if not np.all(np.isfinite(H)):
        i, a = np.argwhere(~np.isfinite(H))[0]
        raise NumericError(f"non-finite pre-activation at neuron {i}, data point {a}")
    f = config.m ** (-config.scaling.output_exponent) * (params.c @ config.activation.fn(H))
    if not np.all(np.isfinite(f)):
        a = int(np.argwhere(~np.isfinite(f))[0])
        raise NumericError(f"non-finite output at data point {a}")
    residual = None if y is None else f - np.asarray(y, dtype=np.float64)
    return ForwardState(H=H, f=f, residual=residual)
