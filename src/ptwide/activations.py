"""Activation functions with their Lipschitz constants and active regions.

Each activation carries an open interval on which |sigma'| is bounded
below by ``k_deriv``. Half-infinite regions (relu, linear) are replaced
by a finite surrogate, which is what the active-fraction diagnostics use;
the surrogate is recorded in every report.

``value_and_deriv(H, value_out, deriv_out)`` writes sigma(H) and sigma'(H)
into two caller-owned arrays of H's shape from one evaluation; it is what
the GD loop calls every step. It gives exactly ``fn(H)`` and ``deriv(H)``,
bit for bit. The output arrays must not alias H or each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfigError


@dataclass(frozen=True)
class ActivationSpec:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    value_and_deriv: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    lipschitz: float
    active_region: tuple[float, float]  # finite surrogate where needed
    k_deriv: float

    def __post_init__(self):
        lo, hi = self.active_region
        if not lo < hi:
            raise InvalidConfigError(f"active region must satisfy I_l < I_r, got {self.active_region}")


def _relu(u):
    return np.maximum(u, 0.0)


def _relu_deriv(u):
    # Derivative taken as 0 at the kink.
    return (np.asarray(u) > 0).astype(np.float64)


def _relu_value_and_deriv(H, value_out, deriv_out):
    np.maximum(H, 0.0, out=value_out)
    np.greater(H, 0.0, out=deriv_out)


def _tanh_deriv(u):
    t = np.tanh(u)
    return 1.0 - t * t


def _tanh_value_and_deriv(H, value_out, deriv_out):
    np.tanh(H, out=value_out)
    np.multiply(value_out, value_out, out=deriv_out)
    np.subtract(1.0, deriv_out, out=deriv_out)


def _linear(u):
    return np.asarray(u, dtype=np.float64) + 0.0


def _ones_like(u):
    return np.ones_like(np.asarray(u, dtype=np.float64))


def _linear_value_and_deriv(H, value_out, deriv_out):
    np.add(H, 0.0, out=value_out)
    deriv_out.fill(1.0)


TANH = ActivationSpec(
    name="tanh",
    fn=np.tanh,
    deriv=_tanh_deriv,
    value_and_deriv=_tanh_value_and_deriv,
    lipschitz=1.0,
    active_region=(-1.0, 1.0),
    k_deriv=1.0 - np.tanh(1.0) ** 2,  # ~0.419974
)

RELU = ActivationSpec(
    name="relu",
    fn=_relu,
    deriv=_relu_deriv,
    value_and_deriv=_relu_value_and_deriv,
    lipschitz=1.0,
    active_region=(0.0, 3.0),  # finite surrogate of (0, inf)
    k_deriv=1.0,
)

LINEAR = ActivationSpec(
    name="linear",
    fn=_linear,
    deriv=_ones_like,
    value_and_deriv=_linear_value_and_deriv,
    lipschitz=1.0,
    active_region=(-3.0, 3.0),  # finite surrogate of the whole line
    k_deriv=1.0,
)


def leaky_relu(slope: float) -> ActivationSpec:
    """Leaky ReLU with the given negative-side slope in (0, 1]."""
    if not 0 < slope <= 1:
        raise InvalidConfigError(f"leaky_relu slope must be in (0, 1], got {slope}")

    def fn(u):
        u = np.asarray(u, dtype=np.float64)
        return np.where(u > 0, u, slope * u)

    def deriv(u):
        u = np.asarray(u, dtype=np.float64)
        return np.where(u > 0, 1.0, np.where(u < 0, slope, 0.0))

    def value_and_deriv(H, value_out, deriv_out):
        # value_out first holds the H > 0 indicator; each deriv entry is
        # 0 + 1, slope + 0 or 0 + 0, so the sum is exact.
        np.greater(H, 0.0, out=value_out)
        np.less(H, 0.0, out=deriv_out)
        deriv_out *= slope
        deriv_out += value_out
        # For 0 < slope <= 1, max(u, slope*u) picks the same entry as fn.
        np.multiply(H, slope, out=value_out)
        np.maximum(H, value_out, out=value_out)

    return ActivationSpec(
        name=f"leaky_relu({slope})",
        fn=fn,
        deriv=deriv,
        value_and_deriv=value_and_deriv,
        lipschitz=1.0,
        active_region=(-3.0, 3.0),
        k_deriv=slope,
    )


_BY_NAME = {"tanh": TANH, "relu": RELU, "linear": LINEAR}


def get_activation(name: str) -> ActivationSpec:
    if name.startswith("leaky_relu(") and name.endswith(")"):
        try:
            slope = float(name[len("leaky_relu("):-1])
        except ValueError:
            raise InvalidConfigError(f"bad leaky_relu slope in {name!r}") from None
        return leaky_relu(slope)
    try:
        return _BY_NAME[name]
    except KeyError:
        raise InvalidConfigError(f"unknown activation {name!r}") from None
