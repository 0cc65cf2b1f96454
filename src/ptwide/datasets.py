"""Deterministic generators of the three experimental datasets, and their test errors.

All generators are pure functions of their parameters and seed; train and
test splits draw from distinct named streams so a test set never shifts
when the training-set size changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import RELU
from .errors import InvalidConfigError
from .model import ModelConfig, OURS, forward, init_params
from .embedding import EmbeddingSpec
from .numkernel import RngStream, write_csv


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    kind: str            # random_label | quadratic_teacher | wei
    seed: int
    split: str           # train | test


def gen_random_label(n: int, d: int, seed: int, split: str = "train") -> Dataset:
    """Gaussian inputs with labels uniform on [-1/2, 1/2], independent of X."""
    if n < 1 or d < 1:
        raise InvalidConfigError("n and d must be >= 1")
    gx = RngStream(seed, f"random_label-x-{split}").generator()
    gy = RngStream(seed, f"random_label-y-{split}").generator()
    X = gx.standard_normal((n, d))
    y = gy.uniform(-0.5, 0.5, size=n)
    return Dataset(X=X, y=y, kind="random_label", seed=seed, split=split)


def teacher_config(d: int, teacher_seed: int) -> ModelConfig:
    """The fixed m=5 quadratic-embedding teacher used for labels."""
    spec = EmbeddingSpec(kind="quadratic", d=d, D=d * d)
    return ModelConfig(embedding=spec, activation=RELU, scaling=OURS,
                       m=5, c_hat=1.0, seed=teacher_seed)


def gen_quadratic_teacher(n: int, d: int, teacher_seed: int, data_seed: int,
                          split: str = "train") -> Dataset:
    """Gaussian inputs labeled by a small quadratic-embedding network."""
    if n < 1 or d < 1:
        raise InvalidConfigError("n and d must be >= 1")
    config = teacher_config(d, teacher_seed)
    params = init_params(config)
    gx = RngStream(data_seed, f"quadratic_teacher-x-{split}").generator()
    X = gx.standard_normal((n, d))
    y = forward(config, params, X).f
    return Dataset(X=X, y=y, kind="quadratic_teacher", seed=data_seed, split=split)


_WEI_ATOMS = np.array([
    # x1, x2, y
    [1.0, 0.0, 1.0],
    [-1.0, 0.0, 1.0],
    [0.0, 1.0, -1.0],
    [0.0, -1.0, -1.0],
])


def gen_wei(n: int, d: int, seed: int, split: str = "train") -> Dataset:
    """Four-atom +-1-labeled distribution with uniform noise coordinates.

    (x1, x2, y) is one of the four atoms with probability 1/4 each, and
    x3..xd are i.i.d. uniform on [-1, 1], independent of everything else.
    """
    if n < 1:
        raise InvalidConfigError("n must be >= 1")
    if d < 3:
        raise InvalidConfigError("wei dataset requires d >= 3")
    ga = RngStream(seed, f"wei-atoms-{split}").generator()
    gn = RngStream(seed, f"wei-noise-{split}").generator()
    atoms = _WEI_ATOMS[ga.integers(0, 4, size=n)]
    X = np.empty((n, d))
    X[:, :2] = atoms[:, :2]
    X[:, 2:] = gn.uniform(-1.0, 1.0, size=(n, d - 2))
    return Dataset(X=X, y=atoms[:, 2].copy(), kind="wei", seed=seed, split=split)


KINDS = ("random_label", "quadratic_teacher", "wei")


def check_kind(kind: str) -> None:
    """Reject a dataset kind that ``generate`` cannot draw and ``test_error`` cannot score."""
    if kind not in KINDS:
        raise InvalidConfigError(f"unknown dataset kind {kind!r}")


def generate(kind: str, n: int, d: int, seed: int, split: str, teacher_seed: int) -> Dataset:
    """The ``split`` draw of ``n`` points of the ``kind`` dataset in R^d."""
    check_kind(kind)
    if kind == "random_label":
        return gen_random_label(n, d, seed, split)
    if kind == "quadratic_teacher":
        return gen_quadratic_teacher(n, d, teacher_seed, seed, split)
    return gen_wei(n, d, seed, split)


def mse(f_vals: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the outputs ``f_vals`` against the labels ``y``."""
    return float(np.mean((f_vals - y) ** 2))


def test_error(f_vals: np.ndarray, y: np.ndarray, kind: str) -> float:
    """The ``kind`` dataset's test error: the mean squared error, except for wei
    the 0-1 sign error, under which sign(0) always counts as an error."""
    check_kind(kind)
    f_vals = np.asarray(f_vals, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if kind == "wei":
        correct = ((f_vals > 0) & (y > 0)) | ((f_vals < 0) & (y < 0))
        return float(1.0 - correct.mean())
    return mse(f_vals, y)


def to_csv(dataset: Dataset, path) -> None:
    """Write the dataset as CSV with header x_1..x_d, y."""
    header = [f"x_{j + 1}" for j in range(dataset.X.shape[1])] + ["y"]
    write_csv(path, header, np.column_stack((dataset.X, dataset.y)))
