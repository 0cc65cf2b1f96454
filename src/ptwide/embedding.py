"""Input embeddings: identity, quadratic, one-layer and deep random features.

The embedding maps an input x in R^d to Phi(x) in R^D. Random kinds draw
their weights once from the "embedding" stream and keep them fixed for
the lifetime of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activations import ActivationSpec
from .errors import InvalidConfigError, StructuralError
from .numkernel import RngStream, gaussian_matrix

# Each embedding kind and the paper's name for its Gram matrix, GramReport.kind.
GRAM_KIND = {"identity": "g0", "quadratic": "quadratic", "random_feature": "g1",
             "deep_random": "deep"}
# The width D of each kind that fixes it, as a function of d; the random kinds take any D.
FIXED_D = {"identity": lambda d: d, "quadratic": lambda d: d * d}


@dataclass(frozen=True)
class EmbeddingSpec:
    kind: str
    d: int
    D: int
    depth: int = 0  # total layer count L, deep_random only (L >= 3)
    activation: ActivationSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GRAM_KIND:
            raise InvalidConfigError(f"unknown embedding kind {self.kind!r}")
        if self.d < 1 or self.D < 1:
            raise InvalidConfigError("dimensions must be >= 1")
        if self.kind in FIXED_D and self.D != FIXED_D[self.kind](self.d):
            raise InvalidConfigError(f"{self.kind} embedding of d = {self.d} requires "
                                     f"D == {FIXED_D[self.kind](self.d)}, not {self.D}")
        if self.kind == "deep_random" and self.depth < 3:
            raise InvalidConfigError("deep_random embedding requires depth >= 3")
        if self.kind != "deep_random" and self.depth:
            raise InvalidConfigError(f"{self.kind} embedding takes no depth (deep_random only)")
        if self.kind in ("random_feature", "deep_random") and self.activation is None:
            raise InvalidConfigError(f"{self.kind} embedding requires an activation")


@dataclass(frozen=True)
class EmbeddingWeights:
    """Fixed random weights: z (D x d) and optional deep layers (D x D each)."""

    z: np.ndarray | None = None
    deep_layers: tuple[np.ndarray, ...] = field(default_factory=tuple)


def build_embedding(spec: EmbeddingSpec) -> EmbeddingWeights:
    """Draw the fixed embedding weights (empty for deterministic kinds)."""
    if spec.kind in ("identity", "quadratic"):
        return EmbeddingWeights()
    z = gaussian_matrix(RngStream(spec.seed, "embedding"), spec.D, spec.d)
    layers = tuple(  # L - 3 inner matrices; none for random_feature, whose depth is 0
        gaussian_matrix(RngStream(spec.seed, f"embedding-layer-{l}"), spec.D, spec.D)
        for l in range(1, spec.depth - 2)
    )
    return EmbeddingWeights(z=z, deep_layers=layers)


def embed_batch(spec: EmbeddingSpec, weights: EmbeddingWeights, X: np.ndarray) -> np.ndarray:
    """Embed a batch of inputs: (n, d) -> (n, D). The random kinds scale and
    apply sigma in place, so each layer makes one (n, D) array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.d:
        raise StructuralError(f"expected (n, {spec.d}) inputs, got shape {X.shape}")
    if spec.kind == "identity":
        return X
    if spec.kind == "quadratic":
        n = X.shape[0]
        # vec(x x^T), row-major
        return np.einsum("ai,aj->aij", X, X).reshape(n, spec.d * spec.d)
    sigma = spec.activation.fn
    H = X @ weights.z.T  # (n, D)
    H /= np.sqrt(spec.d)
    for Wbar in weights.deep_layers:
        H = sigma(H, out=H) @ Wbar.T
        H /= np.sqrt(spec.D)
    return sigma(H, out=H)
