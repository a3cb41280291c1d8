"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root: ``python -m pytest -q bench/test_bench.py``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import creditnet  # noqa: E402
from creditnet import importance, model, training  # noqa: E402
from creditnet.model import AttnSpec, ConvSpec, Model, ModelConfig, ParamStore  # noqa: E402

import run  # noqa: E402
from tracer import (BACKWARD_FLOP_SPANS, FORWARD_FLOP_SPANS, Tracer,  # noqa: E402
                    op_accounting, span_stats)
from workloads import Ablate, Checks, Score  # noqa: E402


def test_self_time_accounting_on_nested_spans():
    # op 0: a[0,10] > (b[1,4] > c[2,3]), d[5,9]; then root e[11,12]
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("e", 11.0, 12.0, -1, 0),
        ("b", 20.0, 21.5, -1, 1),
    ]
    stats = span_stats(spans)
    assert {k: v.self_s for k, v in stats.items()} == {
        "a": 3.0, "b": 2.0 + 1.5, "c": 1.0, "d": 4.0, "e": 1.0}
    assert stats["b"].calls == 2 and stats["b"].total_s == 4.5
    accounts = op_accounting(spans, {0: 13.0, 1: 2.0})
    assert accounts == {0: (11.0, 2.0), 1: (1.5, 0.5)}
    for op, wall in ((0, 13.0), (1, 2.0)):
        assert sum(accounts[op]) == wall


def _tiny_config() -> ModelConfig:
    return ModelConfig(
        n_features=5, d_embed=2,
        conv=ConvSpec(channels=3, kernel=2, stride=1, pool_window=2, pool_stride=2),
        attn=AttnSpec(n_heads=1, d_model=2, n_blocks=1), ffn_dim=3, mlp_hidden=(2,))


def test_flops_per_row_matches_hand_count():
    # conv 2*3*4*2*2 = 96; pooled sequence of 2 tokens x 3 channels;
    # proj 2*2*3*2 = 24; q, k, v, o 4 * 2*2*2*2 = 64; attention 2*2*2*(2+2) = 32;
    # ffn 2*2*2*3 + 2*2*3*2 = 48; head 2*2*2 + 2*2*1 = 12. Total 276.
    hand_count = 276
    net = Model(_tiny_config())
    batch = np.random.default_rng(0).standard_normal((3, 5))
    tracer = Tracer()
    tracer.install()
    try:
        probs, trace = net.forward(batch)
        net.backward(trace, np.ones_like(probs))
    finally:
        assert tracer.restore() == []
    forward = sum(tracer.work[s] for s in FORWARD_FLOP_SPANS)
    backward = sum(tracer.work[s] for s in BACKWARD_FLOP_SPANS)
    assert tracer.work["model.Model.forward"] == 3
    assert forward / 3 == hand_count
    assert backward == 2 * forward


def test_restore_puts_every_binding_back():
    bindings = {
        "model.conv1d": (model, "conv1d"),
        "training.adam_step": (training, "adam_step"),
        "training.train": (training, "train"),
        "importance.predict_probs": (importance, "predict_probs"),
        "importance.auc": (importance, "auc"),
        "package.train": (creditnet, "train"),
        "Model.forward": (Model, "forward"),
        "ParamStore.zero_grads": (ParamStore, "zero_grads"),
    }
    originals = {k: getattr(obj, name) for k, (obj, name) in bindings.items()}
    tracer = Tracer()
    tracer.install()
    try:
        for key, (obj, name) in bindings.items():
            assert getattr(obj, name) is not originals[key], f"{key} not wrapped"
    finally:
        assert tracer.restore() == []
    for key, (obj, name) in bindings.items():
        assert getattr(obj, name) is originals[key], f"{key} not restored"


class TinyAblate(Ablate):
    N_ROWS = 300
    EPOCHS = 1


class TinyScore(Score):
    TRAIN_ROWS = 1000
    HOLDOUT_ROWS = 2 * training.EVAL_BATCH
    SINGLE_ROWS = 5
    IMPORTANCE_ROWS = 400
    IMPORTANCE_REPEATS = 1


def _counts(cls, seed: int, tmp_path) -> dict:
    checks = Checks()
    workload = cls(seed, tmp_path, checks)
    workload.setup()
    plain = run.run_ops(workload, count=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_ops(workload, count=2, tracer=tracer)
    finally:
        assert tracer.restore() == []
    layers = run.layer_metrics(workload, tracer, plain, traced, minflt=0)
    assert checks.failed == 0, checks.messages
    return {k: v for k, v in layers.items()
            if k.endswith(".calls") or ("flops" in k and not k.endswith("gflops"))}


def test_computed_counts_repeat_exactly(tmp_path):
    for cls in (TinyAblate, TinyScore):
        first = _counts(cls, 1, tmp_path)
        assert first["model.flops_per_row"] > 0
        assert _counts(cls, 1, tmp_path) == first
        assert _counts(cls, 2, tmp_path) == first


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.per_layer_catalog()
    assert {w["name"] for w in spec["workloads"]} == {"ablate", "score", "ingest"}
