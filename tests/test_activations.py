import dataclasses

import numpy as np
import pytest

from ptwide.activations import LINEAR, RELU, TANH, leaky_relu
from conftest import traced_peak

ACTIVATIONS = [TANH, RELU, LINEAR, leaky_relu(0.3), leaky_relu(1.0)]


def _closed_forms(activation):
    """sigma and sigma' of each activation, written here independently."""
    if activation.name == "tanh":
        return np.tanh, lambda H: 1.0 - np.tanh(H) * np.tanh(H)
    if activation.name == "relu":
        return lambda H: np.maximum(H, 0), lambda H: (H > 0).astype(np.float64)
    if activation.name == "linear":
        return lambda H: H + 0.0, np.ones_like
    slope = activation.k_deriv
    return (lambda H: np.where(H > 0, H, slope * H),
            lambda H: np.where(H > 0, 1.0, np.where(H < 0, slope, 0.0)))


@pytest.mark.parametrize("activation", ACTIVATIONS, ids=lambda a: a.name)
def test_value_and_deriv_equals_fn_and_deriv(activation):
    # exact zeros of both signs sit on the relu / leaky_relu kink
    rng = np.random.default_rng(4)
    H = np.concatenate([rng.standard_normal(40) * 3,
                        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 40.0, -40.0]])
    H = H.reshape(6, 8)
    sigma, sigma_prime = _closed_forms(activation)
    value, deriv = np.full_like(H, np.nan), np.full_like(H, np.nan)
    activation.value_and_deriv(H, value, deriv)
    np.testing.assert_array_equal(value, sigma(H))
    np.testing.assert_array_equal(np.signbit(value), np.signbit(sigma(H)))
    np.testing.assert_array_equal(deriv, sigma_prime(H))
    np.testing.assert_array_equal(activation.deriv(H), sigma_prime(H))


def _constant_violations(activation):
    """The ways the activation's constants disagree with its sigma': |sigma'|
    below k_deriv inside the active region, above the Lipschitz constant, or
    sigma' off the central difference of fn at points away from 0."""
    rng = np.random.default_rng(9)
    lo, hi = activation.active_region
    violations = []
    if not np.all(np.abs(activation.deriv(rng.uniform(lo, hi, 10_000))) >= activation.k_deriv):
        violations.append("k_deriv")
    u = 5 * rng.standard_normal(10_000)
    if not np.all(np.abs(activation.deriv(u)) <= activation.lipschitz):
        violations.append("lipschitz")
    u, h = u[np.abs(u) > 1e-3], 1e-6
    quotient = (activation.fn(u + h) - activation.fn(u - h)) / (2 * h)
    if not np.allclose(activation.deriv(u), quotient, rtol=0, atol=1e-6):
        violations.append("difference quotient")
    return violations


@pytest.mark.parametrize("activation", ACTIVATIONS, ids=lambda a: a.name)
def test_constants_hold_for_the_one_deriv(activation):
    assert _constant_violations(activation) == []

    def scaled(H, value_out, deriv_out):
        activation.value_and_deriv(H, value_out, deriv_out)
        deriv_out *= 1.01

    # a wrong k_deriv, or a sigma' that does not match sigma, fails
    wrong_k = dataclasses.replace(activation, k_deriv=1.01 * activation.k_deriv)
    assert "k_deriv" in _constant_violations(wrong_k)
    wrong_deriv = dataclasses.replace(activation, value_and_deriv=scaled)
    assert "difference quotient" in _constant_violations(wrong_deriv)


@pytest.mark.parametrize("activation", ACTIVATIONS, ids=lambda a: a.name)
@pytest.mark.parametrize("into", ["u", "buf"])
def test_fn_out_equals_fn(activation, into):
    # signed zeros, subnormals and NaNs of both signs, in a strided view
    # like the test evaluation's column blocks
    rng = np.random.default_rng(5)
    H = np.concatenate([rng.standard_normal(40) * 3,
                        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, np.nan, -np.nan]])
    H = np.tile(H.reshape(6, 8), 2)[:, 3:11]
    before = H.copy()
    fresh = activation.fn(H)
    assert not np.shares_memory(fresh, H)
    out = H if into == "u" else np.full_like(H, 7.0)
    assert activation.fn(H, out=out) is out
    np.testing.assert_array_equal(out, fresh)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(fresh))
    if into == "buf":
        np.testing.assert_array_equal(H, before)


def test_leaky_relu_fn_matches_where_form():
    # the masked multiply gives the bits of np.where(u > 0, u, slope * u)
    rng = np.random.default_rng(6)
    H = np.concatenate([rng.standard_normal(40) * 3,
                        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, np.nan, -np.nan]])
    for slope in (0.3, 1.0):
        got = leaky_relu(slope).fn(H)
        want = np.where(H > 0, H, slope * H)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("into", ["u", "fresh"])
def test_leaky_relu_fn_holds_one_mask(into):
    # at most one u.size-byte bool mask lives at a time (plus a few KiB of
    # ufunc bookkeeping); a fresh result array is not counted
    u = np.random.default_rng(7).standard_normal((1000, 200))
    result, peak = traced_peak(leaky_relu(0.1).fn, u, out=u if into == "u" else None)
    if into == "fresh":
        peak -= result.nbytes
    assert peak <= u.size + 2 ** 12
