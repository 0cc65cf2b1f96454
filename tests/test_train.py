import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwide.activations import LINEAR, RELU, TANH, leaky_relu
from ptwide.embedding import EmbeddingSpec, EmbeddingWeights, embed_batch
from ptwide.errors import InvalidConfigError
from ptwide.model import (MF, NTK, OURS, ModelConfig, Parameters, forward,
                          init_params)
import ptwide.helper as helper_module
from ptwide.train import (TWO_BLOCK_MIN_MN2, TrainConfig, gd_step, grad_W, loss,
                          run_training, trace_to_csv)


def _identity_spec(d):
    return EmbeddingSpec(kind="identity", d=d, D=d)


def _manual_params(W, c, c_hat=1.0):
    return Parameters(W=np.asarray(W, dtype=np.float64),
                      c=np.asarray(c, dtype=np.float64),
                      embedding_weights=EmbeddingWeights(), c_hat=c_hat)


def _kahan_half_sum_squares(r):
    total, comp = 0.0, 0.0
    for v in r:
        term = v * v - comp
        t = total + term
        comp = (t - total) - term
        total = t
    return 0.5 * total


def _check_kernel_path_against_explicit(activation, scaling, m, n, D, delta):
    spec = EmbeddingSpec(kind="random_feature", d=3, D=D, activation=TANH, seed=2)
    cfg = ModelConfig(embedding=spec, activation=activation, scaling=scaling,
                      m=m, seed=5)
    rng = np.random.default_rng(8)
    _check_kernel_path_on(cfg, rng.standard_normal((n, 3)), rng.standard_normal(n), delta)


def _check_kernel_path_on(cfg, X, y, delta):
    # the H-space recursion must agree with literally recomputing
    # forward / grad_W / gd_step every step
    steps = 30

    trace = run_training(cfg, TrainConfig(steps=steps, delta=delta,
                                          record_eta=False), X, y)
    assert not trace.diverged

    params = init_params(cfg)
    explicit_losses = []
    for _ in range(steps):
        state = forward(cfg, params, X, y)
        explicit_losses.append(0.5 * float(state.residual @ state.residual))
        params = gd_step(cfg, params, grad_W(cfg, params, X, y, state), delta)
    explicit_losses.append(loss(forward(cfg, params, X).f, y))

    np.testing.assert_allclose(trace.losses, explicit_losses,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(trace.final_params.W, params.W,
                               rtol=1e-9, atol=1e-12)


def _two_block_problem(activation):
    """A model and data just above the two-block size, m n^2 >= 2**23."""
    m, n = 1024, 96
    cfg = ModelConfig(embedding=EmbeddingSpec(kind="random_feature", d=3, D=16,
                                              activation=TANH, seed=3),
                      activation=activation, scaling=OURS, m=m, seed=4)
    rng = np.random.default_rng(21)
    return cfg, rng.standard_normal((n, 3)), rng.standard_normal(n)


class TestLoss:
    def test_zero_at_fit(self):
        assert loss(np.array([1.0, -2.0]), np.array([1.0, -2.0])) == 0.0

    def test_hand_value(self):
        assert loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5

    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(12)
        f, y = rng.standard_normal(5), rng.standard_normal(5)
        assert abs(loss(f, y) - _kahan_half_sum_squares(f - y)) < 1e-14


class TestGrad:
    def test_zero_residual_zero_grad(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=3, seed=0)
        params = init_params(cfg)
        X = np.random.default_rng(0).standard_normal((4, 2))
        state = forward(cfg, params, X, y=forward(cfg, params, X).f)
        np.testing.assert_array_equal(grad_W(cfg, params, X, state.f, state),
                                      np.zeros((3, 2)))

    def test_relu_inactive_neurons_zero_grad(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=RELU,
                          scaling=OURS, m=2)
        params = _manual_params([[-5.0, 0.0], [-5.0, 0.0]], [1.0, 1.0])
        X = np.array([[1.0, 0.0], [2.0, 0.0]])  # all pre-activations < 0
        state = forward(cfg, params, X, y=np.ones(2))
        np.testing.assert_array_equal(grad_W(cfg, params, X, np.ones(2), state),
                                      np.zeros((2, 2)))

    def test_finite_differences(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=3, seed=4)
        params = init_params(cfg)
        rng = np.random.default_rng(2)
        X, y = rng.standard_normal((2, 2)), rng.standard_normal(2)
        state = forward(cfg, params, X, y)
        g = grad_W(cfg, params, X, y, state)
        h = 1e-5
        for i in range(3):
            for j in range(2):
                for sign, store in ((1.0, "p"), (-1.0, "m")):
                    W = params.W.copy()
                    W[i, j] += sign * h
                    pp = _manual_params(W, params.c)
                    lv = loss(forward(cfg, pp, X).f, y)
                    if store == "p":
                        lp = lv
                    else:
                        lm = lv
                g_fd = (lp - lm) / (2 * h)
                assert abs(g_fd - g[i, j]) < 1e-6 * max(1.0, abs(g_fd))


class TestGdStep:
    def test_zero_grad_identity(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=2)
        params = _manual_params(np.ones((2, 2)), np.ones(2))
        out = gd_step(cfg, params, np.zeros((2, 2)), delta=1.0)
        np.testing.assert_array_equal(out.W, params.W)

    def test_lr_exponent_applied(self):
        # ours at m = 2 multiplies the step by m^1 = 2
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=2)
        params = _manual_params(np.zeros((2, 2)), np.ones(2))
        out = gd_step(cfg, params, np.ones((2, 2)), delta=1.0)
        np.testing.assert_array_equal(out.W, -2.0 * np.ones((2, 2)))

    def test_ntk_step_is_width_free(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=NTK, m=8)
        params = _manual_params(np.zeros((8, 2)), np.ones(8))
        out = gd_step(cfg, params, np.ones((8, 2)), delta=0.25)
        np.testing.assert_array_equal(out.W, -0.25 * np.ones((8, 2)))

    def test_shape_mismatch_rejected(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=2)
        params = _manual_params(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(InvalidConfigError):
            gd_step(cfg, params, np.zeros((3, 2)), delta=1.0)


class TestRunTraining:
    def test_single_neuron_closed_form(self):
        # m = D = d = n = 1 with a linear activation contracts the residual
        # by the fixed factor (1 - delta c^2 x^2) every step, so the loss
        # obeys L_{k+1} = (1 - delta g)^2 L_k with g = x^2
        x, delta = 0.6, 0.3
        cfg = ModelConfig(embedding=_identity_spec(1), activation=LINEAR,
                          scaling=OURS, m=1)
        params = _manual_params([[0.2]], [1.0])
        X, y = np.array([[x]]), np.array([1.0])
        trace = run_training(cfg, TrainConfig(steps=20, delta=delta),
                             X, y, init=params)
        factor = (1.0 - delta * x * x) ** 2
        expected = loss(np.array([0.2 * x]), y)
        for lv in trace.losses:
            assert abs(lv - expected) < 1e-10 * max(1.0, expected)
            expected *= factor

    def test_zero_steps_records_init_only(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=4, seed=1)
        X, y = np.ones((2, 2)), np.zeros(2)
        trace = run_training(cfg, TrainConfig(steps=0), X, y)
        assert trace.steps == [0] and len(trace.losses) == 1
        np.testing.assert_array_equal(trace.final_params.W, init_params(cfg).W)

    @pytest.mark.parametrize("scaling", [OURS, NTK, MF], ids=lambda s: s.name)
    @pytest.mark.parametrize("activation", [TANH, RELU, LINEAR, leaky_relu(0.3)],
                             ids=lambda a: a.name)
    def test_kernel_path_matches_explicit_path(self, activation, scaling):
        # m is even for ntk and mf needs D = m
        _check_kernel_path_against_explicit(activation, scaling, m=6, n=4,
                                            D=6 if scaling is MF else 7, delta=0.5)

    @pytest.mark.parametrize("kind", ["identity", "quadratic", "random_feature",
                                      "deep_random"])
    @pytest.mark.parametrize("scaling", [OURS, NTK, MF], ids=lambda s: s.name)
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(1, 4), width=st.integers(1, 8), n=st.integers(1, 6),
           depth=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
    def test_kernel_path_matches_explicit_path_on_every_embedding(
            self, kind, scaling, d, width, n, depth, seed):
        # identity and quadratic fix D; mf needs m = D and ntk an even m
        D = {"identity": d, "quadratic": d * d}.get(kind, width)
        m = {"mf": D, "ntk": 2 * width}.get(scaling.name, width)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        X *= np.sqrt(d) / np.linalg.norm(X, axis=1, keepdims=True)
        y = rng.standard_normal(n)
        for activation in (TANH, RELU, LINEAR, leaky_relu(0.3)):
            spec = EmbeddingSpec(kind=kind, d=d, D=D, depth=depth,
                                 activation=activation, seed=seed)
            cfg = ModelConfig(embedding=spec, activation=activation, scaling=scaling,
                              m=m, seed=seed)
            # |sigma'| <= 1, so a step of 1 / lambda_max(Phi Phi^T / D) is stable
            Phi = embed_batch(spec, init_params(cfg).embedding_weights, X)
            lam = np.linalg.eigvalsh(Phi @ Phi.T / D)[-1]
            _check_kernel_path_on(cfg, X, y, delta=1.0 / max(1.0, lam))

    @pytest.mark.parametrize("activation, scaling", [(TANH, OURS), (RELU, MF)],
                             ids=["tanh-ours", "relu-mf"])
    def test_two_block_kernel_path_matches_explicit_path(self, activation, scaling):
        m, n = 1024, 96
        assert m * n * n >= TWO_BLOCK_MIN_MN2
        _check_kernel_path_against_explicit(activation, scaling, m=m, n=n,
                                            D=m if scaling is MF else 7, delta=0.01)

    def _run_spied(self, monkeypatch, cpus, blas_threads):
        """A two-block run with a test set whose evaluation splits too, with
        the CPUs and the BLAS thread count patched; returns the trace, the
        threads that ran the step blocks and the test blocks, and the most
        threads alive during the run."""
        cfg, X, y = _two_block_problem(TANH)
        test_X = np.random.default_rng(22).standard_normal((100, 3))
        assert cfg.m * len(X) * len(test_X) >= TWO_BLOCK_MIN_MN2
        step_threads, test_threads, underflow_modes, alive = set(), set(), set(), set()

        def spy_step(H, value_out, deriv_out):
            step_threads.add(threading.get_ident())
            alive.add(threading.active_count())
            underflow_modes.add(np.geterr()["under"])
            TANH.value_and_deriv(H, value_out, deriv_out)

        def spy_test(H, out=None):
            test_threads.add(threading.get_ident())
            underflow_modes.add(np.geterr()["under"])
            return TANH.fn(H, out=out)

        cfg = dataclasses.replace(cfg, activation=dataclasses.replace(
            TANH, value_and_deriv=spy_step, fn=spy_test))
        tc = TrainConfig(steps=40, delta=0.01, record_every=10,
                         snapshot_steps=(0, 20, 40))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(helper_module, "_blas_threads", lambda: blas_threads)
        with np.errstate(under="warn"):
            trace = run_training(cfg, tc, X, y, test_X=test_X, test_y=np.sin(test_X[:, 0]))
        assert underflow_modes == {"warn"}
        return trace, step_threads, test_threads, max(alive)

    def _assert_same_arrays(self, a, b):
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.test_errors, b.test_errors)
        assert np.array_equal(a.eta_min, b.eta_min)
        assert a.snapshots.keys() == b.snapshots.keys()
        for step in a.snapshots:
            assert np.array_equal(a.snapshots[step][0], b.snapshots[step][0])
        assert np.array_equal(a.final_params.W, b.final_params.W)

    def test_two_blocks_same_with_and_without_helper(self, monkeypatch):
        # the row blocks of a step and the column blocks of the test
        # evaluation give the same bits whether the second block runs on a
        # helper thread or after the first on the caller, and both blocks
        # see the caller's np.errstate
        helper, step_threads, test_threads, _ = self._run_spied(monkeypatch, {0, 1}, 1)
        assert len(step_threads) == 2 and len(test_threads) == 2
        alone, step_threads, test_threads, _ = self._run_spied(monkeypatch, {0}, 1)
        assert len(step_threads) == 1 and len(test_threads) == 1
        assert not helper.diverged and helper.losses[-1] < helper.losses[0]
        assert len(helper.test_errors) == len(helper.steps) == 5
        self._assert_same_arrays(helper, alone)

    @pytest.mark.parametrize("blas_threads, uses_helper", [(2, False), (None, True)],
                             ids=["blas-2-threads", "blas-unknown"])
    def test_helper_needs_single_threaded_blas(self, monkeypatch, blas_threads,
                                               uses_helper):
        # a BLAS that runs two threads already uses both CPUs, so no helper
        # starts; when the count cannot be read, the CPUs alone decide
        before = threading.active_count()
        trace, step_threads, test_threads, alive = self._run_spied(
            monkeypatch, {0, 1}, blas_threads)
        assert len(step_threads) == len(test_threads) == (2 if uses_helper else 1)
        assert alive == before + uses_helper
        alone, *_ = self._run_spied(monkeypatch, {0}, 1)
        self._assert_same_arrays(trace, alone)

    def test_blas_thread_probe(self):
        threads = helper_module._blas_threads()
        assert threads is None or threads >= 1

    def test_column_blocks_match_explicit_test_error(self):
        # the split test evaluation is the MSE of an explicit forward pass on
        # the test set, at step 0 and with the final weights
        cfg, X, y = _two_block_problem(RELU)
        rng = np.random.default_rng(23)
        test_X, test_y = rng.standard_normal((100, 3)), rng.standard_normal(100)
        steps = 20
        trace = run_training(cfg, TrainConfig(steps=steps, delta=0.01, record_every=steps),
                             X, y, test_X=test_X, test_y=test_y)
        assert trace.steps == [0, steps]
        for params, error in ((init_params(cfg), trace.test_errors[0]),
                              (trace.final_params, trace.test_errors[-1])):
            f = forward(cfg, params, test_X).f
            assert error == pytest.approx(np.mean((f - test_y) ** 2), rel=1e-9)

    @pytest.mark.parametrize("kind, D", [("random_feature", 512), ("identity", 8)])
    def test_peak_memory_is_the_live_arrays(self, kind, D):
        # two row blocks and two test column blocks; the peak is the larger of
        # the loop's arrays and those left when the (m, D) final W is built,
        # not their sum, and the loop has four m x n step buffers, not five
        m, n, n_test, d, f8 = 2048, 64, 128, 8, 8
        assert m * n * n >= TWO_BLOCK_MIN_MN2 and m * n * n_test >= TWO_BLOCK_MIN_MN2
        spec = EmbeddingSpec(kind=kind, d=d, D=D, activation=TANH, seed=3)
        cfg = ModelConfig(embedding=spec, activation=TANH, scaling=OURS, m=m, seed=3)
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
        test_X, test_y = rng.standard_normal((n_test, d)), rng.standard_normal(n_test)
        params = init_params(cfg)
        tc = TrainConfig(steps=3, delta=0.1, snapshot_steps=(0, 3))
        tracemalloc.start()
        try:
            run_training(cfg, tc, X, y, test_X=test_X, test_y=test_y, init=params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        snapshots, Phi = 2 * m * n * f8, n * D * f8
        # H, Pacc, sigma, sigma'; H_test0, H_t; Kmat, Ktest
        loop = 4 * m * n * f8 + 2 * m * n_test * f8 + (n * n + n * n_test) * f8
        # Pacc and the final W
        final = m * n * f8 + m * D * f8
        assert peak <= snapshots + Phi + max(loop, final) + 2 ** 17

    def test_helper_thread_does_not_outlive_the_run(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(helper_module, "_blas_threads", lambda: 1)
        before = threading.active_count()
        cfg, X, y = _two_block_problem(LINEAR)
        test_X = X[:90]
        assert cfg.m * len(X) * len(test_X) >= TWO_BLOCK_MIN_MN2
        trace = run_training(cfg, TrainConfig(steps=5, delta=0.01), X, y)
        assert not trace.diverged
        assert threading.active_count() == before
        trace = run_training(cfg, TrainConfig(steps=5, delta=0.01), X, y,
                             test_X=test_X, test_y=y[:90])
        assert not trace.diverged and len(trace.test_errors) == 6
        assert threading.active_count() == before
        trace = run_training(cfg, TrainConfig(steps=500, delta=50.0), X, y)
        assert trace.diverged
        assert threading.active_count() == before

        def fails_off_the_caller(H, *out, **fn_out):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("helper block failed")
            return LINEAR.value_and_deriv(H, *out) if out else LINEAR.fn(H, **fn_out)

        for field_name, test_set in (("value_and_deriv", None), ("fn", test_X)):
            failing = dataclasses.replace(cfg, activation=dataclasses.replace(
                LINEAR, **{field_name: fails_off_the_caller}))
            with pytest.raises(FloatingPointError, match="helper block failed"):
                run_training(failing, TrainConfig(steps=5, delta=0.01), X, y,
                             test_X=test_set, test_y=None if test_set is None else y[:90])
            assert threading.active_count() == before

    def test_inputs_and_recorded_arrays_not_aliased(self):
        # the loop updates H and its step buffers in place; nothing it
        # recorded or was given may change under it
        cfg = ModelConfig(embedding=_identity_spec(3), activation=RELU,
                          scaling=OURS, m=8, seed=7)
        params = init_params(cfg)
        W0 = params.W.copy()
        rng = np.random.default_rng(17)
        X, y = rng.standard_normal((5, 3)), rng.standard_normal(5)
        probe_X = rng.standard_normal((4, 3))
        trace = run_training(cfg, TrainConfig(steps=20, delta=0.5,
                                              snapshot_steps=(0, 10, 20)),
                             X, y, init=params, probe_X=probe_X)
        np.testing.assert_array_equal(trace.snapshots[0][0],
                                      forward(cfg, params, X).H)
        np.testing.assert_array_equal(trace.probe_snapshots[0],
                                      forward(cfg, params, probe_X).H)
        np.testing.assert_array_equal(params.W, W0)
        assert not np.array_equal(trace.snapshots[20][0], trace.snapshots[0][0])

    def test_smaller_steps_converge_to_flow(self):
        # Euler consistency: halving delta (doubling steps) moves the final
        # loss toward a gradient-flow limit, so successive gaps shrink
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=8, seed=3)
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((4, 3)), rng.standard_normal(4)

        def final_loss(delta, steps):
            t = run_training(cfg, TrainConfig(steps=steps, delta=delta,
                                              record_eta=False), X, y)
            return t.losses[-1]

        l1 = final_loss(0.2, 50)
        l2 = final_loss(0.02, 500)
        l3 = final_loss(0.002, 5000)
        assert abs(l3 - l2) < abs(l2 - l1)

    def test_small_delta_monotone(self):
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=16, seed=6)
        rng = np.random.default_rng(7)
        X, y = rng.standard_normal((5, 3)), rng.standard_normal(5)
        trace = run_training(cfg, TrainConfig(steps=200, delta=0.05,
                                              record_eta=False), X, y)
        assert trace.monotone_violations == []
        assert not trace.diverged

    def test_c_untouched_bit_for_bit(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=6, seed=2)
        params = init_params(cfg)
        trace = run_training(cfg, TrainConfig(steps=25, record_eta=False),
                             np.ones((3, 2)), np.zeros(3), init=params)
        assert trace.final_params.c is params.c or np.array_equal(
            trace.final_params.c, params.c)
        np.testing.assert_array_equal(trace.final_params.c, params.c)

    def test_divergence_flagged(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=LINEAR,
                          scaling=OURS, m=4, seed=1)
        rng = np.random.default_rng(3)
        X, y = rng.standard_normal((3, 2)), rng.standard_normal(3)
        trace = run_training(cfg, TrainConfig(steps=500, delta=50.0,
                                              record_eta=False), X, y)
        assert trace.diverged

    def test_feature_movement_lower_bound(self):
        # mean per-neuron pre-activation movement dominates output movement
        # through the triangle inequality, checked on recorded snapshots
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=12, seed=9)
        rng = np.random.default_rng(11)
        X, y = rng.standard_normal((4, 3)), rng.standard_normal(4)
        trace = run_training(cfg, TrainConfig(steps=100, delta=0.5,
                                              snapshot_steps=(0, 50, 100),
                                              record_eta=False), X, y)
        steps = sorted(trace.snapshots)
        lip = cfg.activation.lipschitz
        for a in steps:
            for b in steps:
                if a >= b:
                    continue
                Ha, fa = trace.snapshots[a]
                Hb, fb = trace.snapshots[b]
                movement = np.abs(Ha - Hb).mean(axis=0)
                bound = np.abs(fa - fb) / (trace.c_hat * lip)
                assert np.all(movement >= bound - 1e-12)

    def test_test_error_tracking(self):
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=8, seed=4)
        rng = np.random.default_rng(13)
        X, y = rng.standard_normal((4, 3)), rng.standard_normal(4) * 0.1
        trace = run_training(cfg, TrainConfig(steps=10, record_eta=False),
                             X, y, test_X=X, test_y=y)
        # testing on the training set: MSE must shrink alongside the loss
        assert len(trace.test_errors) == len(trace.steps)
        assert trace.test_errors[-1] < trace.test_errors[0]

    @pytest.mark.parametrize("test_y", [None, np.zeros(3), np.zeros((4, 1))],
                             ids=["missing", "short", "column"])
    def test_test_set_needs_matching_targets(self, test_y):
        # a missing or mis-shaped test_y used to record NaN or broadcast
        # test errors without a word
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=4, seed=4)
        X, y = np.ones((4, 3)), np.zeros(4)
        with pytest.raises(InvalidConfigError, match="test_"):
            run_training(cfg, TrainConfig(steps=3), X, y, test_X=X, test_y=test_y)

    def test_trace_csv(self, tmp_path):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=4, seed=0)
        trace = run_training(cfg, TrainConfig(steps=5), np.ones((2, 2)),
                             np.zeros(2))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,eta_min,test_error"
        assert len(lines) == 1 + len(trace.steps)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(steps=-1)
        with pytest.raises(InvalidConfigError):
            TrainConfig(steps=1, delta=0.0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(steps=1, record_every=0)
        # a snapshot step the loop never reaches would be dropped without a word
        for snapshot_steps in ((0, 11), (-1, 5), (0, 500, -3)):
            with pytest.raises(InvalidConfigError, match="outside"):
                TrainConfig(steps=10, snapshot_steps=snapshot_steps)
        TrainConfig(steps=10, snapshot_steps=(0, 10))
