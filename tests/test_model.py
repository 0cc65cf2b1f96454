import numpy as np
import pytest

from ptwide.activations import LINEAR, RELU, TANH
from ptwide.errors import InvalidConfigError
from ptwide.model import (MF, NTK, OURS, ModelConfig, Parameters, ScalingVariant, forward,
                          get_scaling, init_params, init_weights)
from ptwide.numkernel import RngStream, gaussian_matrix
import ptwide.train
from ptwide.train import TrainConfig, run_training
from oracle import _identity_spec, _manual_params


class TestScalings:
    def test_table(self):
        assert (OURS.output_exponent, OURS.hidden_exponent, OURS.lr_exponent) == (1.0, 0.5, 1.0)
        assert (NTK.output_exponent, NTK.hidden_exponent, NTK.lr_exponent) == (0.5, 0.5, 0.0)
        assert (MF.output_exponent, MF.hidden_exponent, MF.lr_exponent) == (1.0, 1.0, 2.0)

    def test_init_and_width_rules_follow_the_fields_not_the_name(self):
        assert (OURS.paired_init, NTK.paired_init, MF.paired_init) == (False, True, False)
        assert (OURS.tied_width, NTK.tied_width, MF.tied_width) == (False, False, True)
        paired = ScalingVariant("paired", 1.0, 0.5, 1.0, paired_init=True)
        with pytest.raises(InvalidConfigError):
            ModelConfig(embedding=_identity_spec(2), activation=TANH, scaling=paired, m=3)
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH, scaling=paired,
                          m=8, seed=1)
        X = np.random.default_rng(0).standard_normal((4, 3))
        assert np.all(forward(cfg, init_params(cfg), X).f == 0.0)
        tied = ScalingVariant("tied", 1.0, 0.5, 1.0, tied_width=True)
        with pytest.raises(InvalidConfigError):
            ModelConfig(embedding=_identity_spec(2), activation=TANH, scaling=tied, m=4)
        ModelConfig(embedding=_identity_spec(4), activation=TANH, scaling=tied, m=4)

    def test_lookup(self):
        assert get_scaling("ours") is OURS
        with pytest.raises(InvalidConfigError):
            get_scaling("muP")


class TestConfigValidation:
    def test_ntk_odd_m_rejected(self):
        with pytest.raises(InvalidConfigError):
            ModelConfig(embedding=_identity_spec(2), activation=TANH,
                        scaling=NTK, m=3)

    def test_mf_requires_D_equals_m(self):
        with pytest.raises(InvalidConfigError):
            ModelConfig(embedding=_identity_spec(2), activation=TANH,
                        scaling=MF, m=4)

    def test_bad_c_hat(self):
        # NaN and inf passed the "<= 0" check, and a NaN c_hat "diverged" at step 0
        for c_hat in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidConfigError, match="c_hat must be positive and finite"):
                ModelConfig(embedding=_identity_spec(2), activation=TANH,
                            scaling=OURS, m=4, c_hat=c_hat)


class TestInit:
    def test_c_magnitudes(self):
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=16, c_hat=2.0, seed=1)
        params = init_params(cfg)
        assert params.W.shape == (16, 3)
        np.testing.assert_array_equal(np.abs(params.c), 2.0)

    def test_ntk_zero_output_exact(self):
        cfg = ModelConfig(embedding=_identity_spec(5), activation=TANH,
                          scaling=NTK, m=64, seed=3)
        params = init_params(cfg)
        X = np.random.default_rng(0).standard_normal((7, 5))
        state = forward(cfg, params, X)
        assert np.all(state.f == 0.0)

    def test_ntk_initial_loss_is_half_y_norm(self):
        cfg = ModelConfig(embedding=_identity_spec(4), activation=TANH,
                          scaling=NTK, m=32, seed=2)
        params = init_params(cfg)
        rng = np.random.default_rng(1)
        X, y = rng.standard_normal((6, 4)), rng.standard_normal(6)
        state = forward(cfg, params, X, y)
        assert 0.5 * float(state.residual @ state.residual) == 0.5 * float(y @ y)

    def test_seed_determinism(self):
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=8, seed=5)
        p1, p2 = init_params(cfg), init_params(cfg)
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.c, p2.c)

    @pytest.mark.parametrize("m", [2, 6, 64])
    def test_paired_rows_are_the_half_draw_repeated(self, m):
        # the paired W is drawn into its first half and spread to row pairs
        # in place; its bits are those of the (m/2, D) draw with each row
        # repeated, and init_params' W is init_weights', bit for bit
        cfg = ModelConfig(embedding=_identity_spec(5), activation=TANH,
                          scaling=NTK, m=m, seed=3)
        half = gaussian_matrix(RngStream(3, "w"), m // 2, 5)
        W = init_weights(cfg)
        assert W.tobytes() == np.repeat(half, 2, axis=0).tobytes()
        assert init_params(cfg).W.tobytes() == W.tobytes()

    def test_width_does_not_perturb_other_streams(self):
        # first rows of W agree across widths: the stream is consumed row-major
        small = init_params(ModelConfig(embedding=_identity_spec(3),
                                        activation=TANH, scaling=OURS, m=4, seed=5))
        large = init_params(ModelConfig(embedding=_identity_spec(3),
                                        activation=TANH, scaling=OURS, m=8, seed=5))
        np.testing.assert_array_equal(small.W, large.W[:4])


class TestForward:
    def test_hand_prefactors_m1(self):
        # m = D = d = 1, W = 2, c = 1, x = 3: h = 2*3 = 6, f = sigma(h) = 6
        cfg = ModelConfig(embedding=_identity_spec(1), activation=LINEAR,
                          scaling=OURS, m=1)
        params = _manual_params([[2.0]], [1.0])
        state = forward(cfg, params, np.array([[3.0]]))
        assert state.H[0, 0] == 6.0 and state.f[0] == 6.0

    def test_hand_prefactors_m4(self):
        # four identical neurons: ours averages (f = 6), ntk sums over sqrt(m)
        # (f = 4 * 6 / 2 = 12)
        W = np.full((4, 1), 2.0)
        c = np.ones(4)
        ours_cfg = ModelConfig(embedding=_identity_spec(1), activation=LINEAR,
                               scaling=OURS, m=4)
        ntk_cfg = ModelConfig(embedding=_identity_spec(1), activation=LINEAR,
                              scaling=NTK, m=4)
        params = _manual_params(W, c)
        assert forward(ours_cfg, params, np.array([[3.0]])).f[0] == 6.0
        assert forward(ntk_cfg, params, np.array([[3.0]])).f[0] == 12.0

    def test_mf_hidden_prefactor(self):
        # mf divides the pre-activation by D, not sqrt(D)
        spec = _identity_spec(2)
        cfg = ModelConfig(embedding=spec, activation=LINEAR, scaling=MF, m=2)
        params = _manual_params(np.eye(2), np.ones(2))
        state = forward(cfg, params, np.array([[4.0, 0.0]]))
        assert state.H[0, 0] == 2.0  # 4 / D with D = 2

    def test_zero_weights_relu_zero_output(self):
        for scaling, m in ((OURS, 5), (NTK, 4), (MF, 3)):
            d = 3
            cfg = ModelConfig(embedding=_identity_spec(d), activation=RELU,
                              scaling=scaling, m=m)
            params = _manual_params(np.zeros((m, d)), np.ones(m))
            state = forward(cfg, params, np.random.default_rng(0).standard_normal((4, d)))
            assert np.all(state.f == 0.0)

    def test_neuron_permutation_invariance(self):
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=6, seed=8)
        params = init_params(cfg)
        X = np.random.default_rng(4).standard_normal((5, 3))
        perm = np.random.default_rng(5).permutation(6)
        permuted = Parameters(W=params.W[perm], c=params.c[perm],
                              embedding_weights=params.embedding_weights)
        f1 = forward(cfg, params, X).f
        f2 = forward(cfg, permuted, X).f
        np.testing.assert_allclose(f1, f2, atol=1e-14)


class TestSignFlipSymmetry:
    def test_negating_c_and_y_negates_trajectory(self, monkeypatch):
        # tanh is odd, so flipping all output signs and the targets gives the
        # mirrored run: identical losses, negated outputs, for every GD step.
        # The flipped run draws its parameters through train's init_params
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=8, seed=7)
        params = init_params(cfg)
        flipped = Parameters(W=params.W.copy(), c=-params.c,
                             embedding_weights=params.embedding_weights)
        rng = np.random.default_rng(6)
        X, y = rng.standard_normal((4, 3)), rng.standard_normal(4)
        tc = TrainConfig(steps=10, delta=0.5, record_eta=False)
        t1 = run_training(cfg, tc, X, y)
        monkeypatch.setattr(ptwide.train, "init_params", lambda config: flipped)
        t2 = run_training(cfg, tc, X, -y)
        np.testing.assert_array_equal(t2.final_params.c, -params.c)
        np.testing.assert_allclose(t1.losses, t2.losses, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(t1.final_params.W, t2.final_params.W,
                                   rtol=1e-12, atol=1e-15)

