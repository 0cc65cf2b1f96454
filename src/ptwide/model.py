"""The trainable head f(x) = m^-p sum_i c_i sigma(h_i(x)), h = D^-q W Phi(x).

Three width-scalings are supported (exponents of m / D):

    name   output p   hidden q   lr exponent
    ours      1          1/2          1
    ntk      1/2         1/2          0
    mf        1           1           2

Only W is trained; the output signs c and the embedding weights are fixed.
"""

from __future__ import annotations

import io
import json
import struct
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


OURS = ScalingVariant("ours", 1.0, 0.5, 1.0)
NTK = ScalingVariant("ntk", 0.5, 0.5, 0.0)
MF = ScalingVariant("mf", 1.0, 1.0, 2.0)

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
        if self.scaling.name == "ntk" and self.m % 2 != 0:
            raise InvalidConfigError("ntk symmetrized init requires even m")
        if self.scaling.name == "mf" and self.embedding.D != self.m:
            raise InvalidConfigError("mf scaling requires D == m")

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

    Under the ntk variant the neurons are duplicated in adjacent (+, -)
    sign pairs with shared W rows; adjacent pairing makes the cancellation
    exact in floating point, so f at initialization is identically zero.
    """
    ew = build_embedding(config.embedding)
    if config.scaling.name == "ntk":
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


def feature_snapshot(state: ForwardState) -> np.ndarray:
    """Copy of the pre-activation matrix for later movement analysis."""
    return state.H.copy()


# --- binary serialization -------------------------------------------------

_MAGIC = b"PTWD"
_FORMAT_VERSION = 1


def save_params(config: ModelConfig, params: Parameters, path) -> None:
    """Write parameters to a versioned binary artifact (little-endian floats)."""
    header = {
        "m": config.m,
        "D": config.D,
        "scaling": config.scaling.name,
        "activation": config.activation.name,
        "c_hat": params.c_hat,
        "seed": config.seed,
        "embedding": {
            "kind": config.embedding.kind,
            "d": config.embedding.d,
            "D": config.embedding.D,
            "depth": config.embedding.depth,
            "seed": config.embedding.seed,
        },
        "n_deep_layers": len(params.embedding_weights.deep_layers),
        "has_z": params.embedding_weights.z is not None,
    }
    hdr = json.dumps(header).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<B", _FORMAT_VERSION))
    buf.write(struct.pack("<I", len(hdr)))
    buf.write(hdr)
    buf.write(params.W.astype("<f8").tobytes())
    buf.write(params.c.astype("<f8").tobytes())
    if params.embedding_weights.z is not None:
        buf.write(params.embedding_weights.z.astype("<f8").tobytes())
    for layer in params.embedding_weights.deep_layers:
        buf.write(layer.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_params(path) -> tuple[dict, Parameters]:
    """Read a parameter artifact; returns (header, Parameters)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise InvalidConfigError("not a parameter artifact (bad magic)")
    version = raw[4]
    if version != _FORMAT_VERSION:
        raise InvalidConfigError(f"unsupported format version {version}")
    (hdr_len,) = struct.unpack("<I", raw[5:9])
    header = json.loads(raw[9:9 + hdr_len].decode("utf-8"))
    off = 9 + hdr_len
    m, D = header["m"], header["D"]
    emb = header["embedding"]

    def take(shape):
        nonlocal off
        size = int(np.prod(shape)) * 8
        arr = np.frombuffer(raw[off:off + size], dtype="<f8").reshape(shape).copy()
        off += size
        return arr

    W = take((m, D))
    c = take((m,))
    z = take((D, emb["d"])) if header["has_z"] else None
    layers = tuple(take((D, D)) for _ in range(header["n_deep_layers"]))
    ew = EmbeddingWeights(z=z, deep_layers=layers)
    return header, Parameters(W=W, c=c, embedding_weights=ew, c_hat=header["c_hat"])
