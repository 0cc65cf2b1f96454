"""Self-tests of the benchmark's own code.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import os

import numpy as np
import pytest

import ptwide
import run
import tracing
import worker
from workloads import WORKLOADS, check, relu_gram_limit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _reference(workload):
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        return json.load(fh)["workloads"][workload]


def test_self_time_subtracts_nested_children():
    # a [0, 10] contains b [1, 4] (which contains c [2, 3]) and d [5, 9];
    # e [20, 21] is a second root with the same name as b.
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["b", 20.0, 21.0, -1],
    ]
    self_s, calls = tracing.self_times(spans)
    assert self_s == {"a": 3.0, "b": 3.0, "c": 1.0, "d": 4.0}
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert sum(self_s.values()) == 11.0   # the two roots' durations


def test_tracer_records_parents_and_restores_names():
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda f: f() + 1)
    inner = tracer.wrap("inner", lambda: 1)
    assert outer(inner) == 2
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    original = ptwide.harness.run_training
    with tracer:
        assert ptwide.harness.run_training is not original
    assert ptwide.harness.run_training is original


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [("ptwide.train", "no_such_fn", "train.x")])
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="no_such_fn"):
        tracer.install()
    assert not tracer._saved


def test_expected_span_that_never_fires_fails_loudly():
    workload = WORKLOADS["exp1_long"]
    with pytest.raises(tracing.TraceError, match="train.run_training"):
        worker.layer_metrics(workload, {}, tracing.Tracer(), 1.0, 0)


def test_check_rejects_perturbed_loss_and_flipped_flag():
    ref = _reference("exp3_grid")
    good = {"values": dict(ref["values"]), "flags": dict(ref["flags"]),
            "monitors": dict(ref["monitors"]), "digest": ""}
    assert check(good, ref) == ([], 0.0)

    perturbed = copy.deepcopy(good)
    perturbed["values"]["ours.final_loss"] *= 1 + 1e-6
    problems, max_rel = check(perturbed, ref)
    assert len(problems) == 1 and "ours.final_loss" in problems[0]
    assert max_rel == pytest.approx(1e-6, rel=1e-3)

    flipped = copy.deepcopy(good)
    flipped["monitors"]["ntk.lemma1_pass"] = False
    assert check(flipped, ref)[0] == ["monitor ntk.lemma1_pass is False, reference True"]
    # At a seed without a reference a monitor outcome is reported, not checked ...
    assert check(flipped, None)[0] == []
    # ... but the flags still are.
    flipped["flags"]["ours.loss_matches_snapshot"] = False
    assert check(flipped, None)[0] == ["flag ours.loss_matches_snapshot is False"]


def test_loop_gflop_matches_hand_count():
    # m=4, n=3, n_test=5, 4 steps recorded every 2 steps:
    # 4 steps x (2 * 4 * 3 * 3 = 72) flop for P @ Kmat, plus test records
    # at steps 2 and 4 x (2 * 4 * 3 * 5 = 120) flop for Pacc @ Ktest.
    hand_count = 4 * 72 + 2 * 120
    cfg = ptwide.ModelConfig(embedding=ptwide.EmbeddingSpec(kind="identity", d=2, D=2),
                             activation=ptwide.TANH, scaling=ptwide.OURS, m=4, seed=1)
    train, test = ptwide.gen_random_label(3, 2, 1), ptwide.gen_random_label(5, 2, 1, "test")
    tracer = tracing.Tracer()
    with tracer:
        ptwide.harness.run_training(cfg, ptwide.TrainConfig(steps=4, record_every=2),
                                    train.X, train.y, test_X=test.X, test_y=test.y)
    assert tracer.counters["train.gd_steps"] == 4
    assert tracer.counters["train.loop_flop"] == hand_count


def test_relu_closed_form_matches_gram_limit():
    X = ptwide.gen_random_label(4, 3, 2).X
    rep = ptwide.gram_limit_mc(ptwide.RELU, X, 200_000, seed=3)
    assert np.all(np.abs(rep.G - relu_gram_limit(X)) <= 6 * rep.stderr)


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    spans = {name for _, _, name in tracing.WRAPS}
    for workload in WORKLOADS.values():
        assert set(workload.expected_spans) <= spans
