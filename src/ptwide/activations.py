"""Activation functions with their Lipschitz constants and active regions.

Each activation carries an open interval on which |sigma'| is bounded
below by ``k_deriv``. Half-infinite regions (relu, linear) are replaced
by a finite surrogate, which is what the active-fraction diagnostics use.

``fn(u, out=None)`` returns sigma(u) as a fresh array, or writes it into
``out`` (which may be ``u`` itself) and returns ``out``; both give the same
bits. ``value_and_deriv(H, value_out, deriv_out)`` writes sigma(H) and
sigma'(H) into two caller-owned arrays of H's shape, which must not alias H
or each other; the GD loop calls it every step. Each activation writes sigma
once (``fn``) and sigma' once (from H and sigma(H)), and ``deriv(u)`` calls
``value_and_deriv``, so the three agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfigError


@dataclass(frozen=True)
class ActivationSpec:
    name: str
    fn: Callable[..., np.ndarray]              # fn(u, out=None)
    value_and_deriv: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    lipschitz: float
    active_region: tuple[float, float]  # finite surrogate where needed
    k_deriv: float

    def __post_init__(self):
        lo, hi = self.active_region
        if not lo < hi:
            raise InvalidConfigError(f"active region must satisfy I_l < I_r, got {self.active_region}")

    def deriv(self, u) -> np.ndarray:
        """sigma'(u) as a fresh array, from ``value_and_deriv``."""
        u = np.asarray(u, dtype=np.float64)
        value, out = np.empty_like(u), np.empty_like(u)
        self.value_and_deriv(u, value, out)
        return out


def _activation(name: str, fn, deriv_from, **constants) -> ActivationSpec:
    """The spec of sigma = ``fn`` whose sigma' is ``deriv_from(H, value, out)``,
    which writes sigma'(H) into ``out`` given value = sigma(H)."""
    def value_and_deriv(H, value_out, deriv_out):
        fn(H, out=value_out)
        deriv_from(H, value_out, deriv_out)

    return ActivationSpec(name=name, fn=fn, value_and_deriv=value_and_deriv, **constants)


def _relu(u, out=None):
    return np.maximum(u, 0.0, out=out)


def _linear(u, out=None):
    return np.add(np.asarray(u, dtype=np.float64), 0.0, out=out)


def _one_minus_square(H, value, out):
    np.subtract(1.0, np.multiply(value, value, out=out), out=out)


TANH = _activation("tanh", np.tanh, _one_minus_square, lipschitz=1.0,
                   active_region=(-1.0, 1.0), k_deriv=1.0 - np.tanh(1.0) ** 2)  # ~0.419974

# sigma' is taken as 0 at the kink
RELU = _activation("relu", _relu, lambda H, value, out: np.greater(H, 0.0, out=out),
                   lipschitz=1.0, active_region=(0.0, 3.0),  # finite surrogate of (0, inf)
                   k_deriv=1.0)

LINEAR = _activation("linear", _linear, lambda H, value, out: out.fill(1.0),
                     lipschitz=1.0, active_region=(-3.0, 3.0),  # finite surrogate of the whole line
                     k_deriv=1.0)


def leaky_relu(slope: float) -> ActivationSpec:
    """Leaky ReLU with the given negative-side slope in (0, 1]."""
    if not 0 < slope <= 1:
        raise InvalidConfigError(f"leaky_relu slope must be in (0, 1], got {slope}")

    def fn(u, out=None):
        u = np.asarray(u, dtype=np.float64)
        # One mask of the entries to scale, taken before out is written (out
        # may be u); out then holds u and is scaled where the mask is set.
        mask = np.less_equal(u, 0)
        if out is None:
            out = u.copy()
        elif out is not u:
            np.copyto(out, u)
        return np.multiply(out, slope, out=out, where=mask)

    def deriv_from(H, value, out):
        # each entry is slope + 0, 0 + 1 or 0 + 0, so the sum is exact
        np.less(H, 0.0, out=out)
        out *= slope
        out += H > 0

    return _activation(f"leaky_relu({slope})", fn, deriv_from, lipschitz=1.0,
                       active_region=(-3.0, 3.0), k_deriv=slope)


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
