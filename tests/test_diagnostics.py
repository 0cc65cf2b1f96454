import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest

import ptwide.diagnostics as diagnostics_module
import ptwide.helper as helper_module
from ptwide.activations import LINEAR, RELU, TANH, leaky_relu
from ptwide.datasets import gen_random_label
from ptwide.diagnostics import (ABS_SLACK, ACTIVE_CHUNK_BYTES, MC_CHUNK_BYTES, PL_CHUNK_BYTES,
                                REL_SLACK, TheoryConstants, active_fraction, concentration_probe,
                                gram, gram_limit_mc, lemma1_monitor, pl_monitor, shrink_interval,
                                theory_constants)
from ptwide.embedding import EmbeddingSpec, EmbeddingWeights, build_embedding
from ptwide.errors import InvalidConfigError, StructuralError
from ptwide.model import MF, NTK, OURS, ModelConfig, ScalingVariant, forward, init_params
from ptwide.numkernel import RngStream
from ptwide.train import TrainConfig, TrainingTrace, run_training
from oracle import (_identity_spec, feature_movement, gd_step, grad_W, loss,
                    relu_closed_form_kernel)
from oracle import active_fraction as oracle_active_fraction
from conftest import traced_peak


class TestGram:
    def test_orthogonal_rows_give_identity(self):
        # rows of norm sqrt(d), mutually orthogonal: G = I
        X = 2.0 * np.eye(4)  # d = 4, ||x|| = 2 = sqrt(4)
        rep = gram(_identity_spec(4), EmbeddingWeights(), X)
        np.testing.assert_allclose(rep.G, np.eye(4), atol=1e-14)
        assert abs(rep.lambda_min - 1.0) < 1e-12
        assert rep.g_min == rep.g_max == 1.0

    def test_duplicate_rows_degenerate(self):
        X = np.vstack([np.ones(3), np.ones(3)])
        rep = gram(_identity_spec(3), EmbeddingWeights(), X)
        assert abs(rep.lambda_min) < 1e-10

    def test_quadratic_kind_label_and_value(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 3))
        spec = EmbeddingSpec(kind="quadratic", d=3, D=9)
        rep = gram(spec, EmbeddingWeights(), X)
        assert rep.kind == "quadratic"
        G0 = X @ X.T / 3
        np.testing.assert_allclose(rep.G, G0 * G0, atol=1e-12)

    def test_psd_invariant(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 8))
        spec = EmbeddingSpec(kind="random_feature", d=8, D=32,
                             activation=RELU, seed=1)
        rep = gram(spec, build_embedding(spec), X)
        assert rep.lambda_min >= -1e-9

    def test_product_is_scaled_in_place(self, monkeypatch):
        # G = Phi Phi^T / D is divided in place, with the bits of the
        # division into a copy, so the peak does not rest on numpy eliding
        # the product's temporary: until the report is formed (stubbed here,
        # so that its own temporaries do not hide it) it is one n x n G
        n, d = 1000, 20
        X = np.random.default_rng(7).standard_normal((n, d))
        monkeypatch.setattr(diagnostics_module, "_report_from_gram", lambda G, kind: G)
        G, peak = traced_peak(gram, _identity_spec(d), EmbeddingWeights(), X)
        assert G.tobytes() == (X @ X.T / d).tobytes()
        assert peak <= n * n * 8 + 2 ** 16

    def test_report_holds_two_grams(self):
        # G is symmetrized in place (G += G^T needs one copy of G^T) and the
        # symmetry check holds |G - G^T| in one buffer, so the whole call
        # holds at most two n x n arrays
        n, d = 1000, 20
        X = np.random.default_rng(7).standard_normal((n, d))
        rep, peak = traced_peak(gram, _identity_spec(d), EmbeddingWeights(), X)
        G = X @ X.T / d
        assert rep.G.tobytes() == (0.5 * (G + G.T)).tobytes()
        assert peak <= 2 * n * n * 8 + 2 ** 20

    def test_json_round_trip_fields(self):
        import json
        X = np.eye(2) * math.sqrt(2)
        rep = gram(_identity_spec(2), EmbeddingWeights(), X)
        payload = json.loads(rep.to_json(dataset="unit"))
        assert payload["kind"] == "g0" and payload["dataset"] == "unit"
        assert payload["n"] == 2


@pytest.fixture
def mc_chunk(monkeypatch):
    """A setter of gram_limit_mc's chunk: with no byte budget its chunk is
    MC_MIN_ROWS rows, so the floor set to a row count makes that the chunk."""
    def set_rows(rows):
        monkeypatch.setattr(diagnostics_module, "MC_CHUNK_BYTES", 0)
        monkeypatch.setattr(diagnostics_module, "MC_MIN_ROWS", rows)
    return set_rows


class TestGramLimitMc:
    def test_min_samples_enforced(self):
        with pytest.raises(InvalidConfigError):
            gram_limit_mc(RELU, np.ones((2, 2)), 10, seed=0)

    def test_linear_limit_is_base_gram(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 6))
        rep = gram_limit_mc(LINEAR, X, 200_000, seed=2)
        G0 = X @ X.T / 6
        assert np.all(np.abs(rep.G - G0) <= 4.0 * rep.stderr + 1e-12)

    def test_relu_diagonal(self):
        # E relu(z.x/sqrt(d))^2 = ||x||^2 / (2d)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 5))
        rep = gram_limit_mc(RELU, X, 200_000, seed=3)
        for a in range(3):
            target = float(X[a] @ X[a]) / (2 * 5)
            assert abs(rep.G[a, a] - target) <= 4.0 * rep.stderr[a, a]

    def test_relu_orthogonal_off_diagonal(self):
        # orthogonal unit-energy inputs: closed form gives 1 / (2 pi)
        X = math.sqrt(2.0) * np.eye(2)
        rep = gram_limit_mc(RELU, X, 300_000, seed=4)
        assert abs(rep.G[0, 1] - 1.0 / (2.0 * math.pi)) <= 4.0 * rep.stderr[0, 1]

    def test_matches_closed_form_generic(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 8))
        rep = gram_limit_mc(RELU, X, 200_000, seed=5)
        G0 = X @ X.T / 8
        for a in range(4):
            for b in range(4):
                target = relu_closed_form_kernel(G0[a, a], G0[b, b], G0[a, b])
                se = max(rep.stderr[a, b], 1e-12)
                assert abs(rep.G[a, b] - target) <= 4.0 * se

    def test_chunked_mean_is_plain_average(self, mc_chunk):
        # estimate equals the average over the same draws computed by hand
        X = np.random.default_rng(8).standard_normal((3, 4))
        mc_chunk(500)
        rep = gram_limit_mc(RELU, X, 2000, seed=9)
        gen = RngStream(9, "gram-mc").generator()
        s1 = np.zeros((3, 3))
        s2 = np.zeros((3, 3))
        for _ in range(4):
            Z = gen.standard_normal((500, 4))
            A = np.maximum(Z @ X.T / 2.0, 0.0)
            prods = A[:, :, None] * A[:, None, :]
            s1 += prods.sum(axis=0)
            s2 += (prods * prods).sum(axis=0)
        mean = s1 / 2000
        np.testing.assert_allclose(rep.G, 0.5 * (mean + mean.T), atol=1e-12)
        stderr = np.sqrt(np.maximum(s2 / 2000 - mean * mean, 0.0) / 2000)
        np.testing.assert_allclose(rep.stderr, stderr, atol=1e-12)

    def test_chunking_does_not_change_the_estimate(self, mc_chunk):
        X = np.random.default_rng(11).standard_normal((5, 4))
        mc_chunk(500)
        a = gram_limit_mc(TANH, X, 2000, seed=3)
        mc_chunk(2000)
        b = gram_limit_mc(TANH, X, 2000, seed=3)
        np.testing.assert_allclose(a.G, b.G, atol=1e-12)
        np.testing.assert_allclose(a.stderr, b.stderr, atol=1e-12)

    def test_peak_memory_has_no_per_sample_gram_tensor(self, mc_chunk):
        # a (chunk, n, n) product tensor alone would be 40 MB here
        n, chunk = 50, 2000
        X = np.random.default_rng(12).standard_normal((n, 10))
        mc_chunk(chunk)
        _, peak = traced_peak(gram_limit_mc, RELU, X, 4000, seed=1)
        assert peak < 16 * chunk * n * 8

    @pytest.mark.parametrize("n, d", [(20, 20), (200, 50)])
    def test_default_chunk_fits_the_byte_budget(self, n, d):
        # the draw and activation buffers share the budget at
        # any shape; the rest is O(n^2), and a longer run needs no more
        X = np.random.default_rng(17).standard_normal((n, d))
        peaks = [traced_peak(gram_limit_mc, TANH, X, samples, seed=1)[1]
                 for samples in (40_000, 80_000)]
        assert max(peaks) <= MC_CHUNK_BYTES + 10 * n * n * 8 + 2 ** 16
        assert abs(peaks[0] - peaks[1]) <= 2 ** 16

    def test_default_chunk_matches_the_old_default_at_the_bench_shape(self, mc_chunk):
        # gram_mc's shape and seed: the chunk budget regroups the sums only,
        # far inside the 1e-7 at which the benchmark checks its reference
        X = gen_random_label(20, 20, 1).X
        new = gram_limit_mc(RELU, X, 200_000, seed=1)
        mc_chunk(34_952)
        old = gram_limit_mc(RELU, X, 200_000, seed=1)
        np.testing.assert_allclose(new.G, old.G, rtol=1e-12, atol=0)
        np.testing.assert_allclose(new.stderr, old.stderr, rtol=1e-12, atol=0)

    @staticmethod
    def _patch_machine(monkeypatch, cpus, blas_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(helper_module, "_blas_threads", lambda: blas_threads)

    @pytest.mark.parametrize("activation", [RELU, TANH, LINEAR, leaky_relu(0.3)],
                             ids=lambda a: a.name)
    @pytest.mark.parametrize("samples, chunk", [(2300, 1000), (1500, 2000)],
                             ids=["ragged-chunks", "one-chunk"])
    def test_same_bits_with_and_without_helper(self, monkeypatch, mc_chunk, activation,
                                               samples, chunk):
        # the helper accumulates chunk i while the caller draws chunk i + 1;
        # the sums are the same, in the same order, as on one thread. A
        # single chunk has nothing to overlap and stays on the caller.
        X = np.random.default_rng(13).standard_normal((6, 4))
        threads = set()

        def spy(u, out=None):
            threads.add(threading.get_ident())
            return activation.fn(u, out=out)

        spied = dataclasses.replace(activation, fn=spy)
        mc_chunk(chunk)
        self._patch_machine(monkeypatch, {0, 1}, 1)
        piped = gram_limit_mc(spied, X, samples, seed=4)
        if samples > chunk:
            assert len(threads) == 1 and threading.get_ident() not in threads
        else:
            assert threads == {threading.get_ident()}
        threads.clear()
        self._patch_machine(monkeypatch, {0}, 2)
        alone = gram_limit_mc(spied, X, samples, seed=4)
        assert threads == {threading.get_ident()}
        np.testing.assert_array_equal(piped.G, alone.G)
        np.testing.assert_array_equal(piped.stderr, alone.stderr)

    def test_many_chunks_under_fast_thread_switching(self, monkeypatch, mc_chunk):
        # a draw that overwrote a buffer the helper still reads, or a chunk
        # left out of the sums, would change the bits
        X = np.random.default_rng(15).standard_normal((8, 5))
        mc_chunk(1000)
        self._patch_machine(monkeypatch, {0}, 1)
        alone = gram_limit_mc(TANH, X, 150_500, seed=6)
        self._patch_machine(monkeypatch, {0, 1}, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            piped = gram_limit_mc(TANH, X, 150_500, seed=6)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(piped.G, alone.G)
        np.testing.assert_array_equal(piped.stderr, alone.stderr)

    def test_helper_does_not_outlive_the_call(self, monkeypatch, mc_chunk):
        mc_chunk(1000)
        self._patch_machine(monkeypatch, {0, 1}, 1)
        before = threading.active_count()
        X = np.random.default_rng(14).standard_normal((3, 4))
        gram_limit_mc(TANH, X, 3000, seed=1)
        assert threading.active_count() == before

        def fails_off_the_caller(u, out=None):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("helper chunk failed")
            return TANH.fn(u, out=out)

        failing = dataclasses.replace(TANH, fn=fails_off_the_caller)
        with pytest.raises(FloatingPointError, match="helper chunk failed"):
            gram_limit_mc(failing, X, 3000, seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpu_count, threaded", [(2, True), (None, False)],
                             ids=["two-cpus", "unknown-cpus"])
    def test_same_bits_without_sched_getaffinity(self, monkeypatch, mc_chunk, cpu_count,
                                                 threaded):
        # os.sched_getaffinity is Linux-only; elsewhere os.cpu_count decides
        X = np.random.default_rng(16).standard_normal((6, 4))
        mc_chunk(1000)
        self._patch_machine(monkeypatch, {0}, 1)
        alone = gram_limit_mc(TANH, X, 2300, seed=4)
        threads = set()

        def spy(u, out=None):
            threads.add(threading.get_ident())
            return TANH.fn(u, out=out)

        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        rep = gram_limit_mc(dataclasses.replace(TANH, fn=spy), X, 2300, seed=4)
        assert (threading.get_ident() not in threads) == threaded
        np.testing.assert_array_equal(rep.G, alone.G)
        np.testing.assert_array_equal(rep.stderr, alone.stderr)


class TestConcentrationProbe:
    def test_validation(self):
        X = np.ones((2, 2))
        with pytest.raises(InvalidConfigError):
            concentration_probe(RELU, X, [64, 32], trials=3, seed=0)
        with pytest.raises(InvalidConfigError):
            concentration_probe(RELU, X, [32, 64], trials=2, seed=0)

    @pytest.mark.parametrize("D_list", [[], [64, 64], [0, 5], [-3], [32, 16]],
                             ids=["empty", "repeated", "zero", "negative", "descending"])
    def test_D_list_checked_before_the_draw(self, monkeypatch, D_list):
        def draw(*args, **kwargs):
            raise AssertionError("the Monte-Carlo limit was drawn")

        monkeypatch.setattr(diagnostics_module, "gram_limit_mc", draw)
        with pytest.raises(InvalidConfigError, match="D_list"):
            concentration_probe(RELU, np.ones((2, 2)), D_list, trials=3, seed=0)

    def test_deviation_shrinks_with_width(self):
        X = np.random.default_rng(10).standard_normal((6, 6))
        ref = gram_limit_mc(RELU, X, 200_000, seed=1)
        rows = concentration_probe(RELU, X, [64, 1024], trials=3, seed=1,
                                   reference=ref)
        assert rows[0][1] > rows[1][1]


class TestActiveFraction:
    def test_all_inside(self):
        per_a, mn = active_fraction(np.zeros((5, 3)), (-1.0, 1.0))
        np.testing.assert_array_equal(per_a, np.ones(3))
        assert mn == 1.0

    def test_half_inside_construction(self):
        H = np.array([[0.0, 5.0], [5.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        per_a, mn = active_fraction(H, (-1.0, 1.0))
        np.testing.assert_array_equal(per_a, [0.5, 0.5])
        assert mn == 0.5

    def test_boundary_is_strict(self):
        per_a, _ = active_fraction(np.array([[1.0], [-1.0]]), (-1.0, 1.0))
        assert per_a[0] == 0.0

    def test_gaussian_mass(self):
        H = np.random.default_rng(14).standard_normal((20_000, 1))
        _, mn = active_fraction(H, (-1.0, 1.0))
        assert abs(mn - 0.6827) < 0.02

    def test_bad_interval(self):
        with pytest.raises(InvalidConfigError):
            active_fraction(np.zeros((2, 2)), (1.0, -1.0))

    @pytest.mark.parametrize("shape", [(1000, 200), (1024, 20), (3, 2**16 + 5),
                                       (2**16 + 3, 2), (1, 1)],
                             ids=["rows-not-a-chunk-multiple", "short-rows", "n-above-2^16",
                                  "m-above-2^16", "one-entry"])
    @pytest.mark.parametrize("interval", [(0.0, 3.0), (-1.0, 1.0), (-0.0, 0.5)])
    def test_matches_the_one_shot_formula(self, shape, interval):
        # the counts, summed a chunk of rows at a time, are the same bits as
        # the mean of the whole indicator, with entries exactly at lo and hi,
        # and +0.0 and -0.0
        rng = np.random.default_rng(15)
        H = rng.choice([0.0, -0.0, 3.0, -1.0, 1.0, 0.5, np.nan], size=shape)
        H[::2] += rng.standard_normal(H[::2].shape)
        per_a, mn = active_fraction(H, interval)
        want, want_mn = oracle_active_fraction(H, interval)
        assert np.array_equal(per_a, want) and mn == want_mn

    def test_all_inside_over_2_16_rows(self):
        # a chunk's count of 2**16 - 1 rows may not wrap
        per_a, mn = active_fraction(np.full((2**16 + 1, 1), 0.5), (0.0, 1.0))
        assert per_a[0] == 1.0 and mn == 1.0

    @pytest.mark.parametrize("shape", [(4096, 200), (3, 70_000)],
                             ids=["rows-in-a-chunk", "row-wider-than-a-chunk"])
    def test_temporaries_are_bounded(self, shape):
        m, n = shape
        H = np.random.default_rng(16).standard_normal((m, n))
        _, peak = traced_peak(active_fraction, H, (0.0, 3.0))
        # one boolean chunk (one row when a row is wider), the n counts and
        # the n fractions, and numpy's casting buffer, but no (m, n) temporary
        assert peak <= ACTIVE_CHUNK_BYTES + 3 * 8 * n + 2**15


class TestShrinkInterval:
    def test_middle_third(self):
        assert shrink_interval((-1.0, 1.0)) == (-1.0 / 3.0, 1.0 / 3.0)
        assert shrink_interval((0.0, 3.0)) == (1.0, 2.0)


class TestTheoryConstants:
    def test_kappa_plugin(self):
        # lambda_max = lambda_min = k = 1, interval width 2: kappa = 9
        tc = theory_constants((-1.0, 1.0), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert abs(tc.kappa - 9.0) < 1e-12

    def test_k_const_plugin(self):
        # width 2, g_min = g_max = 1: K = 2 e^-1 / (6 sqrt(2 pi))
        tc = theory_constants((-1.0, 1.0), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        expected = 2.0 * math.exp(-1.0) / (6.0 * math.sqrt(2.0 * math.pi))
        assert abs(tc.k_const - expected) < 1e-12
        assert abs(expected - 0.04892) < 1e-4

    def test_rate_exponent_composition(self):
        tc = theory_constants((-1.0, 1.0), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert abs(tc.rate_exponent - 2.0 ** (1.0 / 3.0) * tc.k_const) < 1e-12

    def test_c_hat_doubling_quadruples_rate(self):
        base = theory_constants((-1.0, 1.0), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        big = theory_constants((-1.0, 1.0), 1.0, 1.0, 1.0, 1.0, 1.0, 2.0)
        assert abs(big.rate_exponent - 4.0 * base.rate_exponent) < 1e-12

    def test_kappa_monotone_in_lambda_max(self):
        lo = theory_constants((-1.0, 1.0), 1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
        hi = theory_constants((-1.0, 1.0), 1.0, 1.0, 0.5, 2.0, 1.0, 1.0)
        assert hi.kappa > lo.kappa

    def test_degenerate_spectrum(self):
        tc = theory_constants((-1.0, 1.0), 1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        assert tc.degenerate and math.isnan(tc.kappa)


class TestLemma1Monitor:
    def _trace(self, d=6, m=64, steps=100, delta=0.05, seed=0):
        # n < d keeps the base Gram strictly positive definite
        cfg = ModelConfig(embedding=_identity_spec(d), activation=TANH,
                          scaling=OURS, m=m, seed=seed)
        rng = np.random.default_rng(seed + 100)
        X = rng.standard_normal((3, d))
        y = rng.uniform(-0.5, 0.5, 3)
        trace = run_training(cfg, TrainConfig(steps=steps, delta=delta), X, y)
        rep = gram(_identity_spec(d), EmbeddingWeights(), X)
        tc = theory_constants(TANH.active_region, rep.g_min, rep.g_max,
                              rep.lambda_min, rep.lambda_max, TANH.k_deriv, 1.0)
        return trace, tc

    def test_zero_step_trace_passes(self):
        # at the initial point the bound reduces to eta^1.5 >= eta~^1.5,
        # which holds because the shrunk interval is a subset
        trace, tc = self._trace(steps=0)
        result = lemma1_monitor(trace, tc, 1.0)
        assert result.passed and result.worst_margin >= -ABS_SLACK

    def test_training_trace_passes(self):
        trace, tc = self._trace()
        result = lemma1_monitor(trace, tc, 1.0)
        assert result.passed
        assert len(result.margins) == len(trace.steps)

    def test_empty_trace_rejected(self):
        trace, tc = self._trace(steps=0)
        trace.eta_min = []
        with pytest.raises(InvalidConfigError):
            lemma1_monitor(trace, tc, 1.0)


@pytest.fixture(scope="module")
def crit4_trace():
    # crit4's shape (random labels, n = d = 20, identity, tanh, ours, m = 1024)
    # at 2000 steps of delta 0.05: kappa ~ 1.2e5 and eta~0 ~ 0.20, so the
    # bound is tight only where the loss has barely moved
    data = gen_random_label(20, 20, seed=1)
    cfg = ModelConfig(embedding=_identity_spec(20), activation=TANH, scaling=OURS,
                      m=1024, seed=1)
    trace = run_training(cfg, TrainConfig(steps=2000, delta=0.05, record_every=100),
                         data.X, data.y)
    rep = gram(cfg.embedding, EmbeddingWeights(), data.X)
    return trace, theory_constants(TANH.active_region, rep.g_min, rep.g_max,
                                   rep.lambda_min, rep.lambda_max, TANH.k_deriv, 1.0)


class TestLemma1MonitorCanFail:
    def test_trace_passes(self, crit4_trace):
        trace, tc = crit4_trace
        result = lemma1_monitor(trace, tc, 1.0)
        assert result.passed and result.worst_margin > 0.1
        assert tc.kappa > 1e4 and 0.1 < trace.eta_tilde0 < 0.5

    def test_sign_flip_in_kappa_fails(self, crit4_trace):
        trace, tc = crit4_trace
        result = lemma1_monitor(trace, dataclasses.replace(tc, kappa=-tc.kappa), 1.0)
        assert not result.passed and result.worst_margin < -1e4

    def test_eta_tilde0_of_one_fails(self, crit4_trace):
        trace, tc = crit4_trace
        result = lemma1_monitor(dataclasses.replace(trace, eta_tilde0=1.0), tc, 1.0)
        assert not result.passed and result.worst_margin < -0.5

    # Two hand-made traces for the exponent 3/2: eta~0 = 0.9^2, so its
    # power is 0.729, and kappa (sqrt(L0) - sqrt(Lt)) / c_hat = 0.4 at step
    # 10; eta at step 0 is 1, whose powers are all 1. Step 10's eta of 0.7^2
    # passes by 0.7^3 - 0.329 = 0.014, and exponent 1 on eta~0 or 2 on eta
    # (or on both) fails it; 0.66^2 fails by 0.66^3 - 0.329, and exponent 1
    # on eta (or on both) or 2 on eta~0 passes it
    @staticmethod
    def _hand_trace(eta):
        trace = TrainingTrace(steps=[0, 10], losses=[1.0, 0.36], eta_min=[1.0, eta],
                              eta_tilde0=0.81)
        return lemma1_monitor(trace, TheoryConstants(kappa=1.0, k_const=math.nan,
                                                     rate_exponent=math.nan), 1.0)

    def test_hand_trace_passes(self):
        result = self._hand_trace(0.49)
        assert result.passed and result.margins[1] == pytest.approx(0.014, abs=1e-12)

    def test_hand_trace_fails(self):
        result = self._hand_trace(0.4356)
        assert not result.passed
        assert result.margins[1] == pytest.approx(0.66 ** 3 - 0.329, abs=1e-12)


class TestPlMonitor:
    def _setup(self, n, d=4, m=8, seed=0, scaling=OURS):
        cfg = ModelConfig(embedding=_identity_spec(d), activation=TANH,
                          scaling=scaling, m=m, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed + 50)
        X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
        rep = gram(_identity_spec(d), EmbeddingWeights(), X)
        return cfg, params, X, y, rep

    def test_zero_residual_gives_zeros(self):
        cfg, params, X, _, rep = self._setup(3)
        y = forward(cfg, params, X).f
        out = pl_monitor(cfg, params, X, y, rep)
        assert out.exact_dldt == 0.0 and out.bound == 0.0 and out.passed

    def test_single_point_equality(self):
        # n = 1: G is the scalar g and lambda_min = g, so exact == bound
        cfg, params, X, y, rep = self._setup(1)
        out = pl_monitor(cfg, params, X, y, rep)
        assert abs(out.exact_dldt - out.bound) < 1e-12 * max(1.0, abs(out.bound))
        assert out.passed

    def test_inequality_chain(self):
        cfg, params, X, y, rep = self._setup(5)
        out = pl_monitor(cfg, params, X, y, rep)
        assert out.passed
        assert out.exact_dldt <= out.bound + 1e-9
        assert out.bound <= 1e-9

    @pytest.mark.parametrize("scaling", [OURS, NTK, MF, ScalingVariant("x", 1.0, 0.5, 0.5)],
                             ids=["ours", "ntk", "mf", "custom"])
    def test_exact_matches_euler_difference(self, scaling):
        # exact_dldt is dL/dt under gradient flow; a tiny GD step integrates
        # it, so (L1 - L0) / delta matches to O(delta). The custom exponents
        # give a prefactor other than c_hat^2 / m.
        cfg, params, X, y, rep = self._setup(4, d=8, seed=3, scaling=scaling)
        out = pl_monitor(cfg, params, X, y, rep)
        state = forward(cfg, params, X, y)
        l0 = 0.5 * float(state.residual @ state.residual)
        delta = 1e-7
        stepped = gd_step(cfg, params, grad_W(cfg, params, X, y, state), delta)
        l1 = loss(forward(cfg, stepped, X).f, y)
        fd = (l1 - l0) / delta
        assert abs(fd - out.exact_dldt) < 1e-4 * max(1.0, abs(out.exact_dldt))

    @pytest.mark.parametrize("activation", [TANH, RELU], ids=lambda a: a.name)
    @pytest.mark.parametrize("scaling", [OURS, NTK, MF, ScalingVariant("x", 0.75, 0.25, 0.5)],
                             ids=["ours", "ntk", "mf", "custom"])
    def test_exact_equals_flow_derivative(self, scaling, activation):
        # Under gradient flow W' = -m^lr grad_W, so dL/dt = -m^lr ||grad_W||_F^2
        # on the explicit path; the Gram-space formula must give the same
        # number. A G of other embedding weights gives another number, and
        # the monitor still passes with it: exact <= bound holds for any G.
        spec = EmbeddingSpec(kind="random_feature", d=4, D=16, activation=TANH, seed=2)
        cfg = ModelConfig(embedding=spec, activation=activation, scaling=scaling,
                          m=16, c_hat=0.7, seed=3)
        params = init_params(cfg)
        rng = np.random.default_rng(53)
        X, y = rng.standard_normal((6, 4)), rng.standard_normal(6)
        grad = grad_W(cfg, params, X, y, forward(cfg, params, X, y))
        flow = -cfg.m ** scaling.lr_exponent * float(np.sum(grad * grad))
        out = pl_monitor(cfg, params, X, y, gram(spec, params.embedding_weights, X))
        assert abs(out.exact_dldt - flow) <= 1e-12 * abs(flow)
        stale_spec = dataclasses.replace(spec, seed=9)
        stale = pl_monitor(cfg, params, X, y,
                           gram(stale_spec, build_embedding(stale_spec), X))
        assert abs(stale.exact_dldt - flow) > 1e-3 * abs(flow)
        assert stale.passed

    @staticmethod
    def _random_feature_cell(activation, scaling, m, n, seed=4):
        """A cell with D = m, its data and the training set's Gram."""
        spec = EmbeddingSpec(kind="random_feature", d=4, D=m, activation=RELU, seed=seed)
        cfg = ModelConfig(embedding=spec, activation=activation, scaling=scaling, m=m,
                          c_hat=0.7, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed + 60)
        X, y = rng.standard_normal((n, 4)), rng.standard_normal(n)
        return cfg, params, X, y, gram(spec, params.embedding_weights, X)

    @pytest.mark.parametrize("activation", [TANH, RELU], ids=lambda a: a.name)
    @pytest.mark.parametrize("scaling", [OURS, NTK, MF], ids=lambda s: s.name)
    def test_row_chunks_match_the_whole_arrays(self, scaling, activation):
        # three full row chunks and a partial one give the numbers of S and
        # S G formed whole, up to the grouping of the sums
        m, n = 1000, 50
        rows = PL_CHUNK_BYTES // (16 * n)
        assert m > rows and m % rows != 0
        cfg, params, X, y, rep = self._random_feature_cell(activation, scaling, m, n)
        out = pl_monitor(cfg, params, X, y, rep)
        state = forward(cfg, params, X, y)
        H = state.H
        sigma_prime = 1.0 - np.tanh(H) ** 2 if activation is TANH else (H > 0).astype(float)
        S = sigma_prime * state.residual[None, :]
        k = cfg.flow_prefactor
        exact = -k * float(np.sum((S @ rep.G) * S))
        bound = -k * rep.lambda_min * float(np.sum(S * S))
        slack = ABS_SLACK + REL_SLACK * abs(bound)
        assert abs(out.exact_dldt - exact) <= 1e-13 * abs(exact)
        assert abs(out.bound - bound) <= 1e-13 * abs(bound)
        assert out.passed == (exact <= bound + slack and bound <= slack)

    def test_peak_is_two_H_and_the_chunk_budget(self):
        # at exp3's shape (D = m) forward holds H with Phi and then with
        # sigma(H), and the chunks add their two buffers: no (m, n) S, S G
        # or (S G) * S, and Phi is gone before sigma(H) exists
        m, n = 1024, 200
        cfg, params, X, y, rep = self._random_feature_cell(RELU, OURS, m, n)
        pl_monitor(cfg, params, X, y, rep)      # the first call imports modules
        out, peak = traced_peak(pl_monitor, cfg, params, X, y, rep)
        assert out.passed
        assert peak <= 2 * m * n * 8 + PL_CHUNK_BYTES + 2 ** 14


class TestFeatureMovement:
    def test_zero_for_identical(self):
        H = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(feature_movement(H, H), np.zeros(3))

    def test_hand_value(self):
        Ha = np.zeros((2, 2))
        Hb = np.array([[1.0, -2.0], [3.0, 0.0]])
        np.testing.assert_array_equal(feature_movement(Ha, Hb), [2.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            feature_movement(np.zeros((2, 2)), np.zeros((3, 2)))
