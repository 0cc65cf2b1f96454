import numpy as np
import pytest

from ptwide.activations import LINEAR, RELU, TANH, leaky_relu


@pytest.mark.parametrize("activation", [TANH, RELU, LINEAR, leaky_relu(0.3),
                                        leaky_relu(1.0)],
                         ids=lambda a: a.name)
def test_value_and_deriv_equals_fn_and_deriv(activation):
    # exact zeros of both signs sit on the relu / leaky_relu kink
    rng = np.random.default_rng(4)
    H = np.concatenate([rng.standard_normal(40) * 3,
                        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 40.0, -40.0]])
    H = H.reshape(6, 8)
    value, deriv = np.full_like(H, np.nan), np.full_like(H, np.nan)
    activation.value_and_deriv(H, value, deriv)
    np.testing.assert_array_equal(value, activation.fn(H))
    np.testing.assert_array_equal(deriv, activation.deriv(H))
    np.testing.assert_array_equal(np.signbit(value), np.signbit(activation.fn(H)))
