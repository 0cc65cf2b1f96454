import dataclasses
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwide import datasets
from ptwide.activations import LINEAR, RELU, TANH, leaky_relu
from ptwide.datasets import gen_random_label, gen_wei
from ptwide.diagnostics import ACTIVE_CHUNK_BYTES
from ptwide.embedding import EmbeddingSpec, embed_batch
from ptwide.errors import InvalidConfigError
from ptwide.model import MF, NTK, OURS, ModelConfig, ScalingVariant, forward, init_params
import ptwide.helper as helper_module
import ptwide.train as train_module
from ptwide.train import (TEST_TILE, TWO_BLOCK_MIN_MN2, W_BLOCK_BYTES, TrainConfig,
                          run_training, trace_to_csv)
from oracle import (_check_kernel_path_against_explicit, _check_kernel_path_on,
                    _identity_spec, _manual_params, gd_step, grad_W, loss)
from conftest import traced_peak


def _kahan_half_sum_squares(r):
    total, comp = 0.0, 0.0
    for v in r:
        term = v * v - comp
        t = total + term
        comp = (t - total) - term
        total = t
    return 0.5 * total


def _two_block_problem(activation):
    """A model and data just above the two-block size, m n^2 >= 2**23."""
    m, n = 1024, 96
    cfg = ModelConfig(embedding=EmbeddingSpec(kind="random_feature", d=3, D=16,
                                              activation=TANH, seed=3),
                      activation=activation, scaling=OURS, m=m, seed=4)
    rng = np.random.default_rng(21)
    return cfg, rng.standard_normal((n, 3)), rng.standard_normal(n)


def _run_by_row_broadcasts(cfg, X, y, delta, steps):
    """H after each of steps GD steps and the final W, written as row
    broadcasts: P = sigma'(H) * r, then P * c[:, None], and P @ K per row
    block of the step."""
    params = init_params(cfg)
    beta = cfg.m ** (-cfg.scaling.output_exponent)
    alpha = cfg.D ** (-cfg.scaling.hidden_exponent)
    lam = cfg.m ** cfg.scaling.lr_exponent
    Phi = embed_batch(cfg.embedding, params.embedding_weights, X)
    K = (lam * delta * beta * alpha * alpha) * (Phi @ Phi.T)
    H = forward(cfg, params, X).H
    Pacc = np.zeros_like(H)
    half = cfg.m // 2 if cfg.m * len(X) ** 2 >= TWO_BLOCK_MIN_MN2 else cfg.m
    Hs = []
    for _ in range(steps):
        sig, P = np.empty_like(H), np.empty_like(H)
        cfg.activation.value_and_deriv(H, sig, P)
        P *= beta * (params.c @ sig) - y
        P *= params.c[:, None]
        H = H - np.vstack([P[:half] @ K, P[half:] @ K])
        Pacc += P
        Hs.append(H)
    W = Pacc @ Phi
    W *= lam * delta * beta * alpha
    return Hs, params.W - W


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

    @pytest.mark.parametrize("kind, scaling, m, n, n_test", [
        *[("random_feature", scaling, *shape) for scaling in (OURS, NTK, MF)
          for shape in ((64, 5, 7), (1024, 96, 100), (256, 40, 30))],
        *[("identity", scaling, *shape) for scaling in (OURS, NTK)
          for shape in ((1024, 96, 100), (256, 40, 30))],
    ], ids=lambda v: getattr(v, "name", None))
    def test_linear_gd_closed_form(self, kind, scaling, m, n, n_test):
        # With sigma linear, f is linear in W and GD on the residual is
        # r_{t+1} = (I - A) r_t, A = lam delta beta^2 alpha^2 (sum c_i^2) Phi Phi^T;
        # one eigh of A gives every step's loss, and the test outputs are
        # f_t(x) = f_0(x) - A(x, X) sum_{s<t} r_s. beta, alpha and lam come
        # from the exponents, so a scaling error shared by the kernel path and
        # the explicit path shows here. mf needs D = m, so identity (D = d)
        # runs ours and ntk only, at n > d. (1024, 96, 100) runs two row
        # blocks and two test column halves.
        d, steps = 20, 200
        assert min(m * n * n, m * n * n_test) >= TWO_BLOCK_MIN_MN2 or m < 1024
        D = m if kind == "random_feature" else d
        spec = EmbeddingSpec(kind=kind, d=d, D=D,
                             activation=TANH if kind == "random_feature" else None, seed=2)
        rng = np.random.default_rng(m + n)
        X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
        test_X, test_y = rng.standard_normal((n_test, d)), rng.standard_normal(n_test)
        cfg = ModelConfig(embedding=spec, activation=LINEAR, scaling=scaling, m=m, seed=5)
        params = init_params(cfg)
        beta = m ** -scaling.output_exponent
        alpha = D ** -scaling.hidden_exponent
        lam = m ** scaling.lr_exponent
        Phi = embed_batch(spec, params.embedding_weights, X)
        Phi_t = embed_batch(spec, params.embedding_weights, test_X)
        unit = lam * beta ** 2 * alpha ** 2 * float(params.c @ params.c)
        delta = 0.9 / np.linalg.eigvalsh(unit * (Phi @ Phi.T))[-1]
        eigvals, Q = np.linalg.eigh(delta * unit * (Phi @ Phi.T))
        f0_weights = beta * alpha * (params.c @ params.W)       # f_0(x) = f0_weights . Phi(x)
        z = (1.0 - eigvals) ** np.arange(steps + 1)[:, None] * (Q.T @ (Phi @ f0_weights - y))
        losses = 0.5 * np.sum(z * z, axis=1)                     # z[t] = Q^T r_t
        r_sums = np.cumsum(np.vstack([np.zeros(n), z[:-1]]), axis=0) @ Q.T
        f_test = Phi_t @ f0_weights - r_sums @ (delta * unit * (Phi @ Phi_t.T))
        test_mse = np.mean((f_test - test_y) ** 2, axis=1)

        trace = run_training(cfg, TrainConfig(steps=steps, delta=delta, record_eta=False),
                             X, y, test_X=test_X, test_y=test_y)
        assert not trace.diverged and trace.steps == list(range(steps + 1))
        np.testing.assert_allclose(trace.losses, losses, rtol=1e-9, atol=1e-12 * losses[0])
        np.testing.assert_allclose(trace.test_errors, test_mse, rtol=1e-12)

    def test_zero_steps_records_init_only(self):
        cfg = ModelConfig(embedding=_identity_spec(2), activation=TANH,
                          scaling=OURS, m=4, seed=1)
        X, y = np.ones((2, 2)), np.zeros(2)
        trace = run_training(cfg, TrainConfig(steps=0), X, y)
        assert trace.steps == [0] and len(trace.losses) == 1
        np.testing.assert_array_equal(trace.final_params.W, init_params(cfg).W)

    @pytest.mark.parametrize("scaling", [OURS, NTK, MF, ScalingVariant("x", 0.75, 0.25, 0.5)],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("activation", [TANH, RELU, LINEAR, leaky_relu(0.3)],
                             ids=lambda a: a.name)
    def test_kernel_path_matches_explicit_path(self, activation, scaling):
        # m is even for ntk and mf needs D = m; under x, p, q and lr all
        # differ and m != D, so a swapped factor of the scaling shows
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
            spec = EmbeddingSpec(kind=kind, d=d, D=D,
                                 depth=depth if kind == "deep_random" else 0,
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
        assert list(a.snapshots) == list(b.snapshots)
        pairs = [(x, y) for step in a.snapshots
                 for x, y in zip(a.snapshots[step], b.snapshots[step])]
        assert list(a.probe_snapshots) == list(b.probe_snapshots)
        pairs += [(a.probe_snapshots[step], b.probe_snapshots[step])
                  for step in a.probe_snapshots]
        for x, y in pairs + [(a.final_params.W, b.final_params.W)]:
            assert x.shape == y.shape and x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()

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

    @pytest.mark.parametrize("kind, D, m, n", [("random_feature", 512, 2048, 64),
                                               ("identity", 8, 2048, 64),
                                               ("identity", 8, 2048, 16)],
                             ids=["random_feature", "identity", "one-block"])
    def test_peak_memory_is_the_live_arrays(self, kind, D, m, n):
        # a run has three phases, and the peak is the largest, not their sum.
        # The start holds W, Phi_t, H_test0 and Ktest; W is the given init
        # here, made before tracing, so the start stays below the loop
        # (test_start_holds_no_training_embedding checks it where it binds).
        # The loop has four m x n step buffers, the (m, n) copy of c, H_test0
        # and one (m, TEST_TILE) buffer per test column half of three full
        # tiles and a narrow one, but no (m, n_test) H_t, no Phi and no copy
        # of H at step 0. At the final W, the final snapshot is H itself, and
        # that of step 0 is built after the loop
        n_test, d, f8 = 400, 8, 8
        assert (m * n * n >= TWO_BLOCK_MIN_MN2) == (n == 64)
        assert m * n * n_test >= TWO_BLOCK_MIN_MN2 and n_test > 2 * TEST_TILE
        spec = EmbeddingSpec(kind=kind, d=d, D=D, activation=TANH, seed=3)
        cfg = ModelConfig(embedding=spec, activation=TANH, scaling=OURS, m=m, seed=3)
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
        test_X, test_y = rng.standard_normal((n_test, d)), rng.standard_normal(n_test)
        params = init_params(cfg)
        tc = TrainConfig(steps=3, delta=0.1, snapshot_steps=(0, 3))
        _, peak = traced_peak(run_training, cfg, tc, X, y, test_X=test_X, test_y=test_y,
                              init=params)
        # H, Pacc, sigma, sigma' and the copy of c; H_test0, two tile
        # buffers; Kmat, Ktest
        loop = (5 * m * n + m * n_test + 2 * m * TEST_TILE + n * n + n * n_test) * f8
        # H (the final snapshot), the step-0 snapshot, Pacc, Phi, the final W
        # and one column block of Pacc @ Phi
        final = (3 * m * n + n * D + m * D) * f8 + W_BLOCK_BYTES
        # and the active fractions' temporaries at a record step
        assert peak <= max(loop, final) + ACTIVE_CHUNK_BYTES + 2 ** 17

    @pytest.mark.parametrize("n_test", [150, 12], ids=["narrow-last-tile", "no-split"])
    def test_tile_width_leaves_the_bits_alone(self, monkeypatch, n_test):
        # at this shape the test outputs of tiles of 8 columns, of TEST_TILE
        # and of the whole half are the same bits, with and without the
        # column split (at exp3's shape they are not, so the width is fixed)
        cfg, X, y = _two_block_problem(RELU)
        rng = np.random.default_rng(24)
        test_X, test_y = rng.standard_normal((n_test, 3)), rng.standard_normal(n_test)
        assert (cfg.m * len(X) * n_test >= TWO_BLOCK_MIN_MN2) == (n_test >= 16)
        traces = []
        for tile in (8, TEST_TILE, n_test):
            monkeypatch.setattr(train_module, "TEST_TILE", tile)
            traces.append(run_training(cfg, TrainConfig(steps=20, delta=0.01, record_every=5),
                                       X, y, test_X=test_X, test_y=test_y))
        first = traces[0]
        assert len(first.test_errors) == 5 and first.test_errors[-1] < first.test_errors[0]
        for trace in traces[1:]:
            assert np.array_equal(trace.test_errors, first.test_errors)
            assert np.array_equal(trace.final_params.W, first.final_params.W)

    def test_exp3_test_outputs_same_with_and_without_helper(self, monkeypatch):
        # at exp3's shape the test set splits into column halves of 248 and
        # 252; the test outputs f_t, as test_metric sees them, are the same
        # bits whether the second half runs on the helper or after the first
        # (the tile width, by contrast, moves their last bits at this shape)
        m, n, n_test, d = 1024, 200, 500, 50
        spec = EmbeddingSpec(kind="random_feature", d=d, D=m, activation=RELU, seed=1)
        train, test = gen_wei(n, d, 1), gen_wei(n_test, d, 1, "test")
        assert m * n * n_test >= TWO_BLOCK_MIN_MN2 and 8 * (n_test // 16) == 248
        monkeypatch.setattr(helper_module, "_blas_threads", lambda: 1)
        outputs = {}
        for cpus in ({0, 1}, {0}):
            threads, recorded = set(), []

            def spy_fn(H, out=None):
                threads.add(threading.get_ident())
                return RELU.fn(H, out=out)

            def record_f(f, t):
                recorded.append(f.copy())
                return 0.0

            cfg = ModelConfig(embedding=spec, scaling=OURS, m=m, seed=1,
                              activation=dataclasses.replace(RELU, fn=spy_fn))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            run_training(cfg, TrainConfig(steps=2, delta=1.0), train.X, train.y,
                         test_X=test.X, test_y=test.y, test_metric=record_f)
            assert len(threads) == len(cpus) and len(recorded) == 3
            outputs[len(cpus)] = np.array(recorded)
        assert outputs[1].tobytes() == outputs[2].tobytes()

    @pytest.mark.parametrize("m, n", [(64, 5), (100, 7), (1025, 96)],
                             ids=["one-block", "rows-not-a-multiple-of-16",
                                  "two-blocks-of-512-and-513-rows"])
    @pytest.mark.parametrize("c_hat", [1.0, 0.7])
    @pytest.mark.parametrize("activation", [TANH, RELU], ids=lambda a: a.name)
    def test_scaling_passes_match_the_row_broadcasts(self, monkeypatch, activation,
                                                     c_hat, m, n):
        # scaling by a full copy of c and by r tiled R_ROWS times (or one
        # row to a line) gives the same bits as the row broadcasts r, then
        # c[:, None], in one or two row blocks and in a block whose rows
        # R_ROWS does not divide
        assert (m * n * n >= TWO_BLOCK_MIN_MN2) == (m == 1025)
        cfg = ModelConfig(embedding=EmbeddingSpec(kind="random_feature", d=3, D=16,
                                                  activation=TANH, seed=3),
                          activation=activation, scaling=OURS, m=m, c_hat=c_hat, seed=4)
        rng = np.random.default_rng(25)
        X, y = rng.standard_normal((n, 3)), rng.standard_normal(n)
        test_X, test_y = rng.standard_normal((20, 3)), rng.standard_normal(20)
        tc = TrainConfig(steps=20, delta=0.01, record_every=5, snapshot_steps=(0, 1, 10, 20))
        Hs, W = _run_by_row_broadcasts(cfg, X, y, tc.delta, tc.steps)
        traces = []
        for rows in (1, train_module.R_ROWS):
            monkeypatch.setattr(train_module, "R_ROWS", rows)
            trace = run_training(cfg, tc, X, y, test_X=test_X, test_y=test_y)
            for step in tc.snapshot_steps[1:]:
                assert trace.snapshots[step][0].tobytes() == Hs[step - 1].tobytes()
            assert trace.final_params.W.tobytes() == W.tobytes()
            traces.append(trace)
        assert not traces[0].diverged and traces[0].losses[-1] < traces[0].losses[0]
        self._assert_same_arrays(*traces)

    @pytest.mark.parametrize("m, n", [(8, 5), (1024, 96)], ids=["one-block", "two-blocks"])
    @pytest.mark.parametrize("scaling", [OURS, NTK, MF], ids=lambda s: s.name)
    def test_drawn_and_given_init_give_the_same_run(self, scaling, m, n):
        # without init, W is drawn for the initial products, dropped during
        # the loop and drawn again for the final W; that run is the one that
        # init_params' W gives, bit for bit, and a given W is never written
        assert (m * n * n >= TWO_BLOCK_MIN_MN2) == (m == 1024)
        spec = EmbeddingSpec(kind="random_feature", d=3, D=m, activation=TANH, seed=3)
        cfg = ModelConfig(embedding=spec, activation=TANH, scaling=scaling, m=m, seed=4)
        rng = np.random.default_rng(27)
        X, y = rng.standard_normal((n, 3)), rng.standard_normal(n)
        test_X, test_y = rng.standard_normal((90, 3)), rng.standard_normal(90)
        tc = TrainConfig(steps=6, delta=0.1, record_every=2, snapshot_steps=(0, 3, 6))
        init = init_params(cfg)
        W0 = init.W.copy()
        given = run_training(cfg, tc, X, y, test_X=test_X, test_y=test_y, init=init)
        drawn = run_training(cfg, tc, X, y, test_X=test_X, test_y=test_y)
        assert init.W.tobytes() == W0.tobytes()
        assert not np.shares_memory(given.final_params.W, init.W)
        assert list(given.snapshots) == [0, 3, 6] and len(given.test_errors) == 4
        assert not np.array_equal(given.final_params.W, W0)
        self._assert_same_arrays(given, drawn)

    @pytest.mark.parametrize("with_test", [True, False], ids=["test-set", "no-test-set"])
    @pytest.mark.parametrize("kind, depth", [("random_feature", 0), ("deep_random", 4)],
                             ids=["random_feature", "deep_random"])
    def test_drawn_embedding_weights_are_the_given_ones(self, kind, depth, with_test):
        # with a test set, a run that drew its parameters drops the embedding
        # weights before H_test0 and draws them again (the D x D layer of
        # deep_random too); they, and the run, have the bits of a run given
        # init_params' weights, which it keeps
        m = D = 64
        spec = EmbeddingSpec(kind=kind, d=3, D=D, depth=depth, activation=TANH, seed=3)
        cfg = ModelConfig(embedding=spec, activation=TANH, scaling=OURS, m=m, seed=4)
        rng = np.random.default_rng(28)
        X, y = rng.standard_normal((12, 3)), rng.standard_normal(12)
        test = ({"test_X": rng.standard_normal((30, 3)), "test_y": rng.standard_normal(30)}
                if with_test else {})
        tc = TrainConfig(steps=6, delta=0.1, record_every=2, snapshot_steps=(0, 3, 6))
        init = init_params(cfg)
        given = run_training(cfg, tc, X, y, init=init, **test)
        drawn = run_training(cfg, tc, X, y, **test)
        assert given.final_params.embedding_weights is init.embedding_weights
        assert len(given.test_errors) == (4 if with_test else 0)
        self._assert_same_arrays(given, drawn)
        ew, ew_drawn = init.embedding_weights, drawn.final_params.embedding_weights
        assert len(ew_drawn.deep_layers) == len(ew.deep_layers) == (kind == "deep_random")
        for a, b in zip((ew.z, *ew.deep_layers), (ew_drawn.z, *ew_drawn.deep_layers)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d, m, n, D", [(50, 1024, 200, 1024), (3, 512, 300, 600)],
                             ids=["exp3", "n-above-256"])
    def test_column_blocked_final_W_is_the_whole_product(self, d, m, n, D):
        # the final W is W - scale (Pacc @ Phi) formed a column block at a
        # time; at exp3's shape and where the n-long sums of the product
        # span more than one of OpenBLAS's K blocks, its bits are those of
        # the whole product (blocks of the initial W @ Phi^T were not, so
        # the initial products stay whole)
        assert D > max(8, W_BLOCK_BYTES // (64 * m) * 8)     # more than one block
        spec = EmbeddingSpec(kind="random_feature", d=d, D=D, activation=RELU, seed=1)
        cfg = ModelConfig(embedding=spec, activation=RELU, scaling=OURS, m=m, seed=1)
        train = gen_wei(n, d, 1)
        _, W = _run_by_row_broadcasts(cfg, train.X, train.y, 1.0, 3)
        trace = run_training(cfg, TrainConfig(steps=3, delta=1.0), train.X, train.y)
        assert not trace.diverged
        assert trace.final_params.W.tobytes() == W.tobytes()

    def test_start_holds_no_training_embedding(self):
        # at exp3's shape (D = m, n_test > n) the start binds: W, Phi_t and
        # H_test0 = alpha W Phi_t^T must be live together, with Ktest, but
        # the (n, D) Phi of the training set and the drawn embedding weights
        # are made again for H, and Kmat is formed after H_test0, so none of
        # them is kept beside them. The rest is c.
        m = D = 1024
        n, n_test, d, f8 = 200, 500, 50, 8
        spec = EmbeddingSpec(kind="random_feature", d=d, D=D, activation=RELU, seed=1)
        cfg = ModelConfig(embedding=spec, activation=RELU, scaling=OURS, m=m, seed=1)
        train, test = gen_wei(n, d, 1), gen_wei(n_test, d, 2)
        tc = TrainConfig(steps=3, snapshot_steps=(0, 3))
        run_training(cfg, tc, train.X, train.y, test_X=test.X, test_y=test.y)  # imports
        trace, peak = traced_peak(run_training, cfg, tc, train.X, train.y,
                                  test_X=test.X, test_y=test.y)
        assert not trace.diverged
        start = (m * D + n_test * D + m * n_test + n * n_test) * f8
        assert peak <= start + m * f8 + 2 ** 14

    @pytest.mark.parametrize("scaling", [OURS, NTK, MF], ids=lambda s: s.name)
    def test_peak_memory_holds_one_W(self, scaling):
        # W is live only while the initial products and the final W are
        # formed, never twice: at m = D = 512 and a small n the peak is one
        # (m, D) W and a block of Pacc @ Phi, within 1.75 W
        m = D = 512
        spec = EmbeddingSpec(kind="random_feature", d=3, D=D, activation=TANH, seed=3)
        cfg = ModelConfig(embedding=spec, activation=TANH, scaling=scaling, m=m, seed=3)
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((20, 3)), rng.standard_normal(20)
        test_X, test_y = rng.standard_normal((20, 3)), rng.standard_normal(20)
        tc = TrainConfig(steps=3, delta=0.1, snapshot_steps=(0, 3))
        run_training(cfg, tc, X, y, test_X=test_X, test_y=test_y)   # imports, untraced
        trace, peak = traced_peak(run_training, cfg, tc, X, y, test_X=test_X, test_y=test_y)
        assert not trace.diverged
        assert peak <= 1.75 * m * D * 8

    @pytest.mark.parametrize("W, c", [((4, 3), (4,)), ((8, 2), (8,)), ((8, 3), (4,))],
                             ids=["narrow-model", "short-rows", "short-c"])
    def test_init_must_fit_the_config(self, W, c):
        # an init of another width used to train and return a W of its shape
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=8, seed=1)
        init = _manual_params(np.ones(W), np.ones(c))
        with pytest.raises(InvalidConfigError, match=re.escape(
                f"W of shape {W} and c of shape {c}, expected (8, 3) and (8,)")):
            run_training(cfg, TrainConfig(steps=2), np.ones((4, 3)), np.zeros(4), init=init)

    @pytest.mark.parametrize("y", [np.zeros(1), np.zeros((4, 1)), np.zeros(3)],
                             ids=["one-target", "column", "short"])
    def test_targets_must_match_the_inputs(self, y):
        # a (1,) y used to broadcast and train toward a constant, an (n, 1)
        # one raised TypeError and a short one a broadcast ValueError
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=4, seed=1)
        with pytest.raises(InvalidConfigError,
                           match=re.escape(f"y has shape {y.shape}, expected (4,)")):
            run_training(cfg, TrainConfig(steps=2), np.ones((4, 3)), y)

    @pytest.mark.parametrize("steps, delta", [(0, 0.5), (20, 0.5), (500, 50.0)],
                             ids=["no-steps", "converges", "diverges"])
    def test_step_0_snapshot_is_the_initial_H(self, steps, delta):
        # the snapshot of step 0 is built after the loop, from W and Phi
        # again, and keeps its place first in the snapshots
        cfg = ModelConfig(embedding=_identity_spec(2), activation=LINEAR,
                          scaling=OURS, m=4, seed=1)
        params = init_params(cfg)
        rng = np.random.default_rng(3)
        X, y = rng.standard_normal((3, 2)), rng.standard_normal(3)
        snaps = (0, 1, steps) if steps else (0,)
        trace = run_training(cfg, TrainConfig(steps=steps, delta=delta, snapshot_steps=snaps,
                                              record_eta=False), X, y, init=params)
        assert trace.diverged == (delta > 1)
        assert list(trace.snapshots) == (list(snaps[:2]) if trace.diverged else list(snaps))
        assert trace.snapshots[0][0].tobytes() == forward(cfg, params, X).H.tobytes()

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
        test_X, test_y = rng.standard_normal((4, 3)), rng.standard_normal(4)
        trace = run_training(cfg, TrainConfig(steps=20, delta=0.5,
                                              snapshot_steps=(0, 10, 20)),
                             X, y, test_X=test_X, test_y=test_y, init=params)
        np.testing.assert_array_equal(trace.snapshots[0][0],
                                      forward(cfg, params, X).H)
        np.testing.assert_array_equal(trace.probe_snapshots[0],
                                      forward(cfg, params, test_X).H[:, 0])
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
                bound = np.abs(fa - fb) / (cfg.c_hat * lip)
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

    def test_default_metric_is_the_mse_test_error(self):
        # without a metric the test error is datasets.test_error's MSE, bit for bit
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=8, seed=4)
        train, test = gen_random_label(6, 3, 2), gen_random_label(9, 3, 2, "test")
        tc = TrainConfig(steps=10, record_every=2)
        mse = lambda f, t: datasets.test_error(f, t, "random_label")
        plain = run_training(cfg, tc, train.X, train.y, test_X=test.X, test_y=test.y)
        scored = run_training(cfg, tc, train.X, train.y, test_X=test.X, test_y=test.y,
                              test_metric=mse)
        assert len(plain.test_errors) == 6
        assert np.array(plain.test_errors).tobytes() == np.array(scored.test_errors).tobytes()

    def test_empty_training_set_rejected(self):
        # an (0, d) X used to fail with a reshape ValueError deep in the loop
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=4, seed=4)
        with pytest.raises(InvalidConfigError, match="the training set has 0 points"):
            run_training(cfg, TrainConfig(steps=3), np.ones((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("snapshot_steps", [(), (0, 3)], ids=["no-snapshot", "snapshot"])
    def test_empty_test_set_rejected(self, snapshot_steps):
        # an empty test set used to record NaN test errors, and with a
        # snapshot step to raise IndexError
        cfg = ModelConfig(embedding=_identity_spec(3), activation=TANH,
                          scaling=OURS, m=4, seed=4)
        X, y = np.ones((4, 3)), np.zeros(4)
        with pytest.raises(InvalidConfigError, match="test_X has 0 points"):
            run_training(cfg, TrainConfig(steps=3, snapshot_steps=snapshot_steps), X, y,
                         test_X=np.ones((0, 3)), test_y=np.zeros(0))

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
        assert all(line.endswith(",") for line in lines[1:])  # no test set
        bare = run_training(cfg, TrainConfig(steps=5, record_eta=False), np.ones((2, 2)),
                            np.zeros(2))
        trace_to_csv(bare, path)
        assert all(line.endswith(",,") for line in path.read_text().splitlines()[1:])

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(steps=-1)
        with pytest.raises(InvalidConfigError):
            TrainConfig(steps=1, delta=0.0)
        # NaN and inf passed the "<= 0" check
        for delta in (float("nan"), float("inf")):
            with pytest.raises(InvalidConfigError, match="delta must be positive and finite"):
                TrainConfig(steps=1, delta=delta)
        with pytest.raises(InvalidConfigError):
            TrainConfig(steps=1, record_every=0)
        # a snapshot step the loop never reaches would be dropped without a word
        for snapshot_steps in ((0, 11), (-1, 5), (0, 500, -3)):
            with pytest.raises(InvalidConfigError, match="outside"):
                TrainConfig(steps=10, snapshot_steps=snapshot_steps)
        TrainConfig(steps=10, snapshot_steps=(0, 10))
