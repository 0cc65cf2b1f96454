import numpy as np
import pytest

from ptwide.activations import RELU, TANH
from ptwide.embedding import EmbeddingSpec, EmbeddingWeights, build_embedding, embed_batch
from ptwide.errors import InvalidConfigError, StructuralError
from conftest import traced_peak


class TestValidation:
    def test_identity_requires_matching_dims(self):
        with pytest.raises(InvalidConfigError):
            EmbeddingSpec(kind="identity", d=3, D=4)

    def test_quadratic_requires_squared_dim(self):
        with pytest.raises(InvalidConfigError):
            EmbeddingSpec(kind="quadratic", d=3, D=8)

    def test_deep_requires_depth(self):
        with pytest.raises(InvalidConfigError):
            EmbeddingSpec(kind="deep_random", d=3, D=8, depth=2, activation=RELU)

    @pytest.mark.parametrize("kind, D", [("identity", 3), ("quadratic", 9),
                                         ("random_feature", 8)])
    def test_depth_outside_deep_random_rejected(self, kind, D):
        with pytest.raises(InvalidConfigError):
            EmbeddingSpec(kind=kind, d=3, D=D, depth=5, activation=RELU)

    def test_random_requires_activation(self):
        with pytest.raises(InvalidConfigError):
            EmbeddingSpec(kind="random_feature", d=3, D=8)

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfigError):
            EmbeddingSpec(kind="fourier", d=3, D=8)

    def test_wrong_input_shape(self):
        spec = EmbeddingSpec(kind="identity", d=3, D=3)
        # a batch or a single row of the wrong width, and a bare vector
        for X in (np.ones((2, 4)), np.ones((1, 4)), np.ones(3)):
            with pytest.raises(StructuralError):
                embed_batch(spec, EmbeddingWeights(), X)


class TestDeterministicKinds:
    def test_identity_passthrough(self):
        spec = EmbeddingSpec(kind="identity", d=2, D=2)
        out = embed_batch(spec, build_embedding(spec), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_quadratic_hand_example(self):
        # vec(x x^T) in row-major order for x = (1, 2)
        spec = EmbeddingSpec(kind="quadratic", d=2, D=4)
        out = embed_batch(spec, build_embedding(spec), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 2.0, 4.0]])

    def test_quadratic_gram_is_squared_base_gram(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 4))
        spec = EmbeddingSpec(kind="quadratic", d=4, D=16)
        Phi = embed_batch(spec, build_embedding(spec), X)
        G = Phi @ Phi.T / 16
        G0 = X @ X.T / 4
        # (x.x')^2 identity: quadratic Gram entries are squared base entries
        # up to the D vs d normalization, D = d^2 so the ratios cancel
        np.testing.assert_allclose(G, G0 * G0, atol=1e-12)


class TestRandomFeature:
    def test_deterministic_given_seed(self):
        spec = EmbeddingSpec(kind="random_feature", d=4, D=8,
                             activation=RELU, seed=5)
        w1 = build_embedding(spec)
        w2 = build_embedding(spec)
        np.testing.assert_array_equal(w1.z, w2.z)
        assert w1.z.shape == (8, 4)

    def test_hand_arithmetic(self):
        # z_1 = (2,0,0,0), x = (3,0,0,0), d = 4: relu(6 / sqrt(4)) = 3
        spec = EmbeddingSpec(kind="random_feature", d=4, D=1,
                             activation=RELU, seed=0)
        weights = EmbeddingWeights(z=np.array([[2.0, 0.0, 0.0, 0.0]]))
        out = embed_batch(spec, weights, np.array([[3.0, 0.0, 0.0, 0.0]]))
        assert out.shape == (1, 1) and out[0, 0] == 3.0
        out_neg = embed_batch(spec, weights, np.array([[-3.0, 0.0, 0.0, 0.0]]))
        assert out_neg[0, 0] == 0.0

    def test_row_equivariance(self):
        spec = EmbeddingSpec(kind="random_feature", d=3, D=6,
                             activation=TANH, seed=2)
        weights = build_embedding(spec)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        batch = embed_batch(spec, weights, X)
        flipped = embed_batch(spec, weights, X[::-1])
        # reversal changes the BLAS memory layout, so allow rounding noise
        np.testing.assert_allclose(batch[::-1], flipped, atol=1e-14)

    def test_lipschitz_norm_bound(self):
        # |sigma(u)| <= |u| for relu with sigma(0)=0, so
        # ||Phi(x)||_2 <= ||z x / sqrt(d)||_2 <= ||z||_2 ||x|| / sqrt(d)
        spec = EmbeddingSpec(kind="random_feature", d=3, D=10,
                             activation=RELU, seed=7)
        weights = build_embedding(spec)
        rng = np.random.default_rng(1)
        opnorm = np.linalg.norm(weights.z, ord=2)
        for _ in range(20):
            x = rng.standard_normal(3)
            phi = embed_batch(spec, weights, x[None, :])[0]
            assert np.linalg.norm(phi) <= opnorm * np.linalg.norm(x) / np.sqrt(3) + 1e-12


class TestDeepRandom:
    def test_depth_four_has_one_inner_layer(self):
        spec = EmbeddingSpec(kind="deep_random", d=3, D=8, depth=4,
                             activation=RELU, seed=1)
        weights = build_embedding(spec)
        assert weights.z.shape == (8, 3)
        assert len(weights.deep_layers) == 1
        assert weights.deep_layers[0].shape == (8, 8)

    def test_depth_three_equals_random_feature(self):
        deep = EmbeddingSpec(kind="deep_random", d=3, D=8, depth=3,
                             activation=RELU, seed=4)
        flat = EmbeddingSpec(kind="random_feature", d=3, D=8,
                             activation=RELU, seed=4)
        X = np.random.default_rng(9).standard_normal((4, 3))
        np.testing.assert_array_equal(
            embed_batch(deep, build_embedding(deep), X),
            embed_batch(flat, build_embedding(flat), X))

    def test_manual_recursion(self):
        spec = EmbeddingSpec(kind="deep_random", d=3, D=5, depth=5,
                             activation=TANH, seed=6)
        weights = build_embedding(spec)
        assert len(weights.deep_layers) == 2
        X = np.random.default_rng(3).standard_normal((4, 3))
        H = X @ weights.z.T / np.sqrt(3)
        for Wbar in weights.deep_layers:
            H = np.tanh(H) @ Wbar.T / np.sqrt(5)
        np.testing.assert_array_equal(
            embed_batch(spec, weights, X), np.tanh(H))


@pytest.mark.parametrize("kind, depth, arrays", [("random_feature", 0, 1), ("deep_random", 4, 2)])
def test_embed_batch_makes_one_array_per_layer(kind, depth, arrays):
    # the scaling and sigma run in place: one (n, D) array, and a deep layer
    # adds only its product, not the three of X @ z.T, its division and sigma
    n, d, D = 500, 50, 1024
    spec = EmbeddingSpec(kind=kind, d=d, D=D, depth=depth, activation=RELU, seed=1)
    weights = build_embedding(spec)
    X = np.random.default_rng(2).standard_normal((n, d))
    Phi, peak = traced_peak(embed_batch, spec, weights, X)
    assert Phi.shape == (n, D)
    assert peak <= arrays * n * D * 8 + 2**16
