"""End-to-end acceptance gate.

Ten criteria with pinned parameters and tolerances; each prints one
pass/fail line in the terminal summary (see conftest.report). The claims
of the abstract (criteria 3-6 and 9) read the grid cells of the checked-in
configs in ``configs/claims/``, each run once per session through
``harness.run_single``, the path of ``ptwide experiment``; the other
criteria test kernels directly.
"""

import functools
import json
import pathlib
import time

import numpy as np
import pytest

from conftest import report
from ptwide.activations import LINEAR, RELU, TANH
from ptwide.diagnostics import concentration_probe, gram, gram_limit_mc, pl_monitor
from ptwide.harness import cells, parse_experiment_config, run_experiment, run_single
from ptwide.model import (MF, NTK, OURS, ModelConfig, Parameters, forward, get_scaling,
                          init_params)
from oracle import _identity_spec, feature_movement, grad_W, loss, relu_closed_form_kernel

CLAIMS = pathlib.Path(__file__).resolve().parent.parent / "configs" / "claims"


# --- shared training runs -------------------------------------------------

def _claim(name):
    with open(CLAIMS / f"{name}.json") as fh:
        return parse_experiment_config(json.load(fh))


def _run_claim(name):
    """The RunResult of every cell of a claim config, in grid order, and the
    seconds the cells took."""
    t0 = time.time()
    cfg = _claim(name)
    return [run_single(cfg, *cell) for cell in cells(cfg)], time.time() - t0


@pytest.fixture(scope="session")
def claims():
    """_run_claim, each claim config run once per session."""
    return functools.cache(_run_claim)


@pytest.fixture(scope="session")
def mc_reference():
    X = np.random.default_rng(42).standard_normal((10, 10))
    t0 = time.time()
    ref = gram_limit_mc(RELU, X, 1_000_000, seed=7)
    return {"X": X, "ref": ref, "elapsed": time.time() - t0}


# --- criteria -------------------------------------------------------------

def test_criterion_1_gradient_matches_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(100)
    activations = [TANH, RELU, LINEAR]
    scalings = [OURS, NTK, MF]
    h = 1e-5
    worst = 0.0
    for i in range(20):
        activation = activations[i % 3]
        scaling = scalings[i % 3 if i < 9 else (i + 1) % 3]
        n = int(rng.integers(1, 6))
        while True:
            d = int(rng.integers(2, 7))
            m = d if scaling.name == "mf" else int(rng.integers(2, 9))
            if scaling.name == "ntk" and m % 2:
                m += 1
            if scaling.name == "mf":
                m = d
            cfg = ModelConfig(embedding=_identity_spec(d),
                              activation=activation, scaling=scaling,
                              m=m, seed=int(rng.integers(0, 1000)))
            params = init_params(cfg)
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            H = forward(cfg, params, X).H
            # keep relu kinks away from the finite-difference stencil
            if activation.name != "relu" or np.abs(H).min() > 1e-2:
                break
        state = forward(cfg, params, X, y)
        g = grad_W(cfg, params, X, y, state)
        g_fd = np.empty_like(g)
        for a in range(m):
            for b in range(d):
                Wp, Wm = params.W.copy(), params.W.copy()
                Wp[a, b] += h
                Wm[a, b] -= h
                pp = Parameters(W=Wp, c=params.c,
                                embedding_weights=params.embedding_weights)
                pm = Parameters(W=Wm, c=params.c,
                                embedding_weights=params.embedding_weights)
                g_fd[a, b] = (loss(forward(cfg, pp, X).f, y)
                              - loss(forward(cfg, pm, X).f, y)) / (2 * h)
        scale = max(np.abs(g_fd).max(), 1e-12)
        worst = max(worst, float(np.abs(g - g_fd).max() / scale))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    report(1, "gradient vs central differences", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_2_loss_derivative_chain():
    t0 = time.time()
    rng = np.random.default_rng(200)
    ok = True
    detail = ""
    for i in range(50):
        n = 1 if i < 10 else int(rng.integers(2, 5))
        d = 6
        cfg = ModelConfig(embedding=_identity_spec(d), activation=TANH,
                          scaling=OURS, m=8, seed=int(rng.integers(0, 1000)))
        params = init_params(cfg)
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        rep = gram(cfg.embedding, params.embedding_weights, X)
        assert rep.lambda_min > 0  # n <= d Gaussian rows
        out = pl_monitor(cfg, params, X, y, rep)
        slack = 1e-9 * max(1.0, abs(out.bound))
        if not (out.exact_dldt <= out.bound + slack and out.bound <= slack):
            ok = False
            detail = f"chain violated at point {i}"
        if n == 1 and abs(out.exact_dldt - out.bound) > 1e-12 * max(1.0, abs(out.bound)):
            ok = False
            detail = f"n=1 equality violated at point {i}"
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(2, "PL derivative chain", ok, detail or f"{elapsed:.1f}s")
    assert ok


def test_claim_configs_are_valid_grids():
    # milliseconds: a broken claim config, whose cells are checked when it is
    # parsed, fails here, not inside a session fixture
    paths = sorted(CLAIMS.glob("*.json"))
    assert paths
    for path in paths:
        _claim(path.stem)


@pytest.mark.slow
def test_criterion_3_linear_rate_convergence(claims):
    # crit3 is Theorem 1's d >= n (identity, n = d); crit3_rf is Theorem 2's
    # n > d through random features. The identity embedding at n > d is not
    # checked: whether it stalls depends on the seed.
    details, ok = [], True
    for name in ("crit3", "crit3_rf"):
        results, elapsed = claims(name)
        losses = [r.row["final_loss"] for r in results]
        r2s = [r.row["rate_r2"] for r in results]
        ok &= all(lv < 1e-4 for lv in losses) and all(r > 0.9 for r in r2s) \
            and elapsed < 180.0
        details.append(f"{name}: max final loss {max(losses):.2e}, "
                       f"min R2 {min(r2s):.3f}, {elapsed:.0f}s")
    report(3, "linear-rate convergence", ok, "; ".join(details))
    assert ok


@pytest.mark.slow
def test_criterion_4_active_fraction_lower_bound(claims):
    results, elapsed = claims("crit4")
    # lemma1 is None, and lemma1_pass "na", where the Gram is degenerate
    worst = min((r.lemma1.worst_margin for r in results if r.lemma1 is not None),
                default=float("nan"))
    ok = all(r.row["lemma1_pass"] is True for r in results) and elapsed < 300.0
    report(4, "active-fraction bound along training", ok,
           f"worst margin {worst:.3f}, {elapsed:.0f}s")
    assert ok


@pytest.mark.slow
def test_criterion_5_feature_movement_bound(claims):
    checked = 0
    ok = True
    runs = [(_claim(name).c_hat, r)
            for name in ("crit3", "crit4", "crit6_m256", "crit6_m2048", "crit9")
            for r in claims(name)[0]]
    for c_hat, run in runs:
        trace, m = run.trace, run.row["m"]
        p = get_scaling(run.row["scaling"]).output_exponent
        # triangle inequality for f = m^-p sum_i c_i sigma(h_i); the output
        # prefactor contributes m^(p-1), which is 1 except under ntk
        factor = m ** (p - 1.0)
        steps = sorted(trace.snapshots)
        for ia, a in enumerate(steps):
            for b in steps[ia + 1:]:
                Ha, fa = trace.snapshots[a]
                Hb, fb = trace.snapshots[b]
                movement = np.abs(Ha - Hb).mean(axis=0)
                bound = factor * np.abs(fa - fb) / c_hat  # L_sigma = 1
                # the inequality is exact in real arithmetic; the two sides
                # are evaluated by different float reductions, so allow
                # last-ulp noise when both sides sit at rounding level
                if not np.all(movement >= bound - 1e-15):
                    ok = False
                checked += 1
    report(5, "feature movement dominates output movement", ok,
           f"{checked} snapshot pairs")
    assert ok and checked > 0


@pytest.mark.slow
def test_criterion_6_lazy_vs_rich_scaling(claims):
    (small, t_small), (large, t_large) = claims("crit6_m256"), claims("crit6_m2048")
    movements = {}   # (scaling, m) -> list over seeds
    for r in small + large:
        H0, H1 = r.trace.snapshots[0][0], r.trace.snapshots[2000][0]
        movements.setdefault((r.row["scaling"], r.row["m"]), []).append(
            float(feature_movement(H0, H1).mean()))
    mov = {k: float(np.mean(v)) for k, v in movements.items()}
    ntk_ratio = mov[("ntk", 2048)] / mov[("ntk", 256)]
    ours_ratio = mov[("ours", 2048)] / mov[("ours", 256)]
    elapsed = t_small + t_large
    ok = ntk_ratio < 0.5 < ours_ratio and elapsed < 300.0
    report(6, "lazy vs rich feature movement", ok,
           f"ntk ratio {ntk_ratio:.3f}, ours ratio {ours_ratio:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_7_gram_concentration(mc_reference):
    t0 = time.time()
    rows = concentration_probe(RELU, mc_reference["X"], [256, 1024, 4096],
                               trials=5, seed=3, reference=mc_reference["ref"])
    devs = [r[1] for r in rows]
    factors = [devs[i] / devs[i + 1] for i in range(2)]
    elapsed = time.time() - t0 + mc_reference["elapsed"]
    ok = (devs[0] > devs[1] > devs[2]
          and all(1.4 <= f <= 2.9 for f in factors)
          and elapsed < 120.0)
    report(7, "finite-width Gram concentration", ok,
           f"deviations {[round(v, 4) for v in devs]}, factors "
           f"{[round(f, 2) for f in factors]}, {elapsed:.0f}s")
    assert ok


def test_criterion_8_mc_matches_closed_form(mc_reference):
    t0 = time.time()
    X, ref = mc_reference["X"], mc_reference["ref"]
    G0 = X @ X.T / X.shape[1]
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        a, b = rng.integers(0, 10, size=2)
        closed = relu_closed_form_kernel(G0[a, a], G0[b, b], G0[a, b])
        se = max(ref.stderr[a, b], 1e-300)
        worst = max(worst, abs((ref.G[a, b] - closed) / se))
    elapsed = time.time() - t0
    ok = worst <= 4.0 and elapsed < 60.0
    report(8, "MC limit vs closed-form kernel", ok,
           f"max |z| {worst:.2f}")
    assert ok


@pytest.mark.slow
def test_criterion_9_scaling_test_error_ordering(claims):
    results, elapsed = claims("crit9")
    errors = {s: float(np.mean([r.row["test_error"] for r in results if r.row["scaling"] == s]))
              for s in ("ours", "ntk", "mf")}
    ok = errors["ours"] <= errors["ntk"] and elapsed < 300.0
    mf_note = "ours<=mf" if errors["ours"] <= errors["mf"] else "ours>mf (reported only)"
    report(9, "test-error ordering across scalings", ok,
           f"ours {errors['ours']:.3f}, ntk {errors['ntk']:.3f}, "
           f"mf {errors['mf']:.3f}, {mf_note}, {elapsed:.0f}s")
    assert ok


def test_criterion_10_bit_identical_rerun(tmp_path):
    raw = {"experiment": "exp1", "n_list": [20], "m": 1024, "seeds": [1],
           "steps": 5000, "delta": 1.0, "record_every": 50, "n_test": 100}
    cfg = parse_experiment_config(raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=str(out1))
    run_experiment(cfg, out_dir=str(out2))
    s1 = (out1 / "summary.csv").read_bytes()
    s2 = (out2 / "summary.csv").read_bytes()
    t1 = sorted(p.name for p in out1.iterdir())
    ok = s1 == s2
    for name in t1:
        if name.startswith(("trace_", "features_")):
            ok = ok and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report(10, "bit-identical reruns", ok, f"{len(s1)} summary bytes compared")
    assert ok
