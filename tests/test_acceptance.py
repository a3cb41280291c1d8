"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Each test pins the tolerance and the runtime budget it must
meet; the real-data criterion skips (not fails) when the public credit CSV
is not present.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import creditnet as cn
from creditnet.cli import run as cli_run
from creditnet.data import (
    SchemaConfig,
    SplitSpec,
    Splits,
    prepare_splits,
    standardize_apply,
    standardize_fit,
    fit_imputer,
    impute,
    synth_generate,
    synth_preset,
)
from creditnet.errors import LeakageError
from creditnet.metrics import auc, ks
from creditnet.model import AttnSpec, ConvSpec, Model, ModelConfig
from creditnet.tensor_ops import gradient_check
from creditnet.training import EarlyStop, TrainConfig, bce_loss, sweep_lr, train

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


def synth_splits(preset: str, n: int, seed: int, n_features: int = 10):
    frame, bayes = synth_generate(n, n_features, seed, synth_preset(preset, n_features))
    splits, _ = prepare_splits(
        frame, SchemaConfig("label", tuple(frame.feature_names)), SplitSpec(seed=seed))
    return frame, bayes, splits


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

GRAD_CONFIGS = {
    "default-small": ModelConfig(
        n_features=8, d_embed=6,
        conv=ConvSpec(channels=8, kernel=3, stride=1, pool_window=2, pool_stride=2),
        attn=AttnSpec(n_heads=2, d_model=8, n_blocks=2, layer_norm=True),
        ffn_dim=12, mlp_hidden=(8,), seed=3),
    "single-head": ModelConfig(
        n_features=8, d_embed=6,
        conv=ConvSpec(channels=8, kernel=3),
        attn=AttnSpec(n_heads=1, d_model=8, n_blocks=2),
        ffn_dim=12, mlp_hidden=(8,), seed=4),
    "single-block-no-ln": ModelConfig(
        n_features=8, d_embed=6,
        conv=ConvSpec(channels=8, kernel=3),
        attn=AttnSpec(n_heads=2, d_model=8, n_blocks=1, layer_norm=False),
        ffn_dim=12, mlp_hidden=(8,), seed=5),
}


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for cfg in GRAD_CONFIGS.values():
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((4, cfg.n_features))
            y = rng.integers(0, 2, 4)
            model = Model(cfg)

            def f():
                probs, trace = model.forward(X)
                loss, g = bce_loss(probs, y)
                model.params.zero_grads()
                model.backward(trace, g)
                return loss

            err = gradient_check(f, model.params, h=1e-5, seed=seed,
                                 max_probes_per_param=6)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report("criterion-1 gradient-correctness",
           worst < 1e-4 and elapsed < 30.0,
           f"max rel err {worst:.3e} over 3 configs x 3 seeds "
           f"(tol 1e-4), {elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# 2. metric oracle equivalence
# ---------------------------------------------------------------------------

def _auc_oracle(scores, labels):
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.sum(pos > neg)
    ties = np.sum(pos == neg)
    return (wins + 0.5 * ties) / (pos.shape[0] * neg.shape[1])


def _ks_oracle(scores, labels):
    thresholds = np.unique(scores)[:, None]
    pos = scores[labels == 1][None, :]
    neg = scores[labels == 0][None, :]
    tpr = np.mean(pos >= thresholds, axis=1)
    fpr = np.mean(neg >= thresholds, axis=1)
    return np.max(np.abs(tpr - fpr))


def test_criterion_2_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_auc = worst_ks = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        style = rng.integers(0, 3)
        if style == 0:
            scores = rng.random(n)
        elif style == 1:
            scores = rng.integers(0, 4, n) / 3.0  # heavy ties
        else:
            scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst_auc = max(worst_auc, abs(auc(scores, labels) - _auc_oracle(scores, labels)))
        worst_ks = max(worst_ks, abs(ks(scores, labels) - _ks_oracle(scores, labels)))
    elapsed = time.perf_counter() - t0
    report("criterion-2 metric-oracles",
           worst_auc <= 1e-12 and worst_ks <= 1e-12 and elapsed < 10.0,
           f"1000 instances, max |auc diff| {worst_auc:.2e}, "
           f"max |ks diff| {worst_ks:.2e} (tol 1e-12), {elapsed:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# 3. overfit sanity
# ---------------------------------------------------------------------------

def test_criterion_3_overfit_sanity():
    t0 = time.perf_counter()
    frame, _ = synth_generate(200, 10, 3, synth_preset("linear", 10))
    pos = np.flatnonzero(frame.y == 1)[:32]
    neg = np.flatnonzero(frame.y == 0)[:32]
    fix = frame.take(np.sort(np.concatenate([pos, neg])), "train")
    fix = standardize_apply(fix, standardize_fit(fix))
    splits = Splits(train=fix, val=fix, test=fix)

    cfg = TrainConfig(seed=0, epochs=300, learning_rate=1e-3, optimizer="adam",
                      early_stop=None)
    _, rep = train(ModelConfig(n_features=10, seed=0), cfg, splits)
    elapsed = time.perf_counter() - t0
    final_loss = rep.curves["train_loss"][-1]
    report("criterion-3 overfit-sanity",
           rep.final["train"].acc == 1.0 and final_loss < 0.05 and elapsed < 20.0,
           f"train acc {rep.final['train'].acc}, loss {final_loss:.4f} "
           f"after {rep.epochs_run} epochs, {elapsed:.1f}s (budget 20s)")


# ---------------------------------------------------------------------------
# 4. Bayes gap on synthetic
# ---------------------------------------------------------------------------

def test_criterion_4_bayes_gap():
    t0 = time.perf_counter()
    frame, bayes, splits = synth_splits("strong-single", 10000, 42)
    bayes_auc = auc(bayes, frame.y)
    cfg = TrainConfig(seed=0, epochs=60, learning_rate=1e-3,
                      early_stop=EarlyStop(patience=10))
    _, rep = train(ModelConfig(n_features=10, seed=0), cfg, splits)
    elapsed = time.perf_counter() - t0
    gap = abs(rep.final["test"].auc - bayes_auc)
    report("criterion-4 bayes-gap",
           gap < 0.03 and elapsed < 120.0,
           f"bayes auc {bayes_auc:.4f}, test auc {rep.final['test'].auc:.4f}, "
           f"gap {gap:.4f} (tol 0.03), {elapsed:.0f}s (budget 120s)")


# ---------------------------------------------------------------------------
# 5. ablation ordering
# ---------------------------------------------------------------------------

def _ablation_median(preset: str, variant: str) -> float:
    # linear readout head: products can only form inside each variant's own
    # mixing stage, which is exactly what the ablation is meant to compare
    aucs = []
    for seed in range(5):
        _, _, splits = synth_splits(preset, 4000, seed)
        m_cfg = ModelConfig(n_features=10, variant=variant, mlp_hidden=(), seed=seed)
        t_cfg = TrainConfig(seed=seed, epochs=300, learning_rate=3e-3,
                            early_stop=EarlyStop(patience=30))
        _, rep = train(m_cfg, t_cfg, splits)
        aucs.append(rep.final["test"].auc)
    return float(np.median(aucs))


@pytest.mark.slow
def test_criterion_5_ablation_ordering():
    t0 = time.perf_counter()
    both = {v: _ablation_median("local-and-long", v)
            for v in ("cnn_only", "transformer_only", "hybrid")}
    hybrid_ok = both["hybrid"] >= max(both["cnn_only"], both["transformer_only"]) - 0.005

    far = {v: _ablation_median("long-range", v)
           for v in ("cnn_only", "transformer_only")}
    long_range_ok = far["transformer_only"] >= far["cnn_only"]
    elapsed = time.perf_counter() - t0
    report("criterion-5 ablation-ordering",
           hybrid_ok and long_range_ok,
           f"local+long medians {both}; long-range medians {far}; "
           f"hybrid within 0.005 of best: {hybrid_ok}; "
           f"transformer >= cnn on long-range: {long_range_ok}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. real-data band (skipped when the public credit file is absent)
# ---------------------------------------------------------------------------

def _find_real_dataset():
    candidates = []
    env = os.environ.get("CREDITNET_DATA_DIR")
    if env:
        candidates.append(Path(env) / "cs-training.csv")
    candidates.append(REPO_ROOT / "data" / "cs-training.csv")
    for path in candidates:
        if path.is_file():
            return path
    return None


def test_criterion_6_real_data_band():
    path = _find_real_dataset()
    if path is None:
        pytest.skip("cs-training.csv not present; real-data band not evaluated")
    t0 = time.perf_counter()
    from creditnet.data import load_csv

    schema = SchemaConfig.from_json(REPO_ROOT / "data" / "gmsc_schema.json")
    frame = load_csv(path, schema, subsample=30000, seed=0)
    splits, _ = prepare_splits(frame, schema, SplitSpec(seed=7))
    cfg = TrainConfig(seed=0)  # package defaults: adam 1e-3, 100 epochs, patience 10
    _, rep = train(ModelConfig(n_features=frame.n_features, seed=0), cfg, splits)
    elapsed = time.perf_counter() - t0
    test = rep.final["test"]
    report("criterion-6 real-data-band",
           test.auc >= 0.75 and test.ks >= 0.35 and elapsed < 600.0,
           f"test auc {test.auc:.4f} (>=0.75), ks {test.ks:.4f} (>=0.35), "
           f"{elapsed:.0f}s (budget 600s)")


# ---------------------------------------------------------------------------
# 7. learning-rate sweep stability
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_lr_sweep_stability():
    t0 = time.perf_counter()
    grid = (0.005, 0.003, 0.002, 0.001)
    per_lr = {lr: [] for lr in grid}
    for seed in range(3):
        _, _, splits = synth_splits("linear", 4000, 100 + seed)
        m_cfg = ModelConfig(n_features=10, seed=seed)
        t_cfg = TrainConfig(seed=seed, epochs=60, early_stop=EarlyStop(patience=10))
        for row in sweep_lr(m_cfg, t_cfg, grid, splits):
            assert row["status"] == "ok"
            per_lr[row["lr"]].append(row["metrics"]["test"]["auc"])
    medians = {lr: float(np.median(v)) for lr, v in per_lr.items()}
    spread = max(medians.values()) - min(medians.values())
    elapsed = time.perf_counter() - t0
    report("criterion-7 lr-sweep-stability",
           spread < 0.02,
           f"per-lr median aucs { {k: round(v, 4) for k, v in medians.items()} }, "
           f"spread {spread:.4f} (tol 0.02), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. determinism through the CLI
# ---------------------------------------------------------------------------

CRITERION_8_CONFIGS = {
    "hybrid": {
        "model": {"d_embed": 4,
                  "conv": {"channels": 6, "kernel": 3, "pool_window": 2,
                           "pool_stride": 1},
                  "attn": {"n_heads": 2, "d_model": 8, "n_blocks": 1},
                  "ffn_dim": 8, "mlp_hidden": [6]},
        "train": {"epochs": 6, "early_stop": None},
    },
    "logistic": {
        "model": {"variant": "logistic"},
        "train": {"epochs": 6, "early_stop": None},
    },
}


CRITERION_8_SYNTH = ["--n", "500", "--n-features", "6", "--spec", "strong-single"]

# case -> (config, synth arguments), for the thread-count check only: a
# default transformer_only on the `ablate` benchmark's kind of data. Before
# fits ran at one BLAS thread, its bytes under OPENBLAS_NUM_THREADS=2 differed
# from those under =1 (numpy 2.4.6, OpenBLAS 0.3.31, 2-CPU x86-64 host).
CRITERION_8_THREAD_CASES = {
    "transformer_only-local-and-long": (
        {"model": {"variant": "transformer_only"},
         "train": {"epochs": 1}, "split": {"fractions": [0.6, 0.1, 0.3]}},
        ["--n", "1000", "--n-features", "10", "--spec", "local-and-long"]),
}


def _criterion_8_inputs(tmp_path, case):
    config, synth = CRITERION_8_THREAD_CASES.get(
        case, (CRITERION_8_CONFIGS.get(case), CRITERION_8_SYNTH))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    csv = tmp_path / "synth.csv"
    assert cli_run(["synth", *synth, "--seed", "9", "--out", str(csv)]) == 0
    return cfg_path, csv


def _train_args(cfg_path, csv, out):
    return ["train", "--config", str(cfg_path), "--data", str(csv),
            "--out", str(out), "--seed", "11"]


def _same_artifacts(a, b):
    return tuple((a / name).read_bytes() == (b / name).read_bytes()
                 for name in ("report.json", "checkpoint.bin"))


@pytest.mark.parametrize("case", list(CRITERION_8_CONFIGS))
def test_criterion_8_cli_determinism(tmp_path, case):
    cfg_path, csv = _criterion_8_inputs(tmp_path, case)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        assert cli_run(_train_args(cfg_path, csv, out)) == 0
        outs.append(out)
    same_report, same_ckpt = _same_artifacts(*outs)
    report(f"criterion-8 cli-determinism ({case})",
           same_report and same_ckpt,
           f"report.json byte-identical: {same_report}; "
           f"checkpoint.bin byte-identical: {same_ckpt}")


@pytest.mark.parametrize("case", [*CRITERION_8_CONFIGS, *CRITERION_8_THREAD_CASES])
def test_criterion_8_determinism_per_blas_thread_count(tmp_path, case):
    """Criterion 8's training, each run in a fresh process, twice with one
    OpenBLAS thread and twice with two: fits run at one thread, so all four
    runs write the same bytes."""
    cfg_path, csv = _criterion_8_inputs(tmp_path, case)
    src = str(REPO_ROOT / "src")
    outs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        outs[threads] = [tmp_path / f"threads{threads}_{tag}" for tag in ("a", "b")]
        for out in outs[threads]:
            subprocess.run([sys.executable, "-m", "creditnet.cli",
                            *_train_args(cfg_path, csv, out)], env=env, check=True)
    results = {f"OPENBLAS_NUM_THREADS={t}": _same_artifacts(*outs[t]) for t in outs}
    results["=1 against =2"] = _same_artifacts(outs["1"][0], outs["2"][0])
    report(f"criterion-8 determinism per BLAS thread count ({case})",
           all(all(same) for same in results.values()),
           "; ".join(f"{what}: report.json, checkpoint.bin byte-identical {same}"
                     for what, same in results.items()))


# ---------------------------------------------------------------------------
# 9. leakage guard
# ---------------------------------------------------------------------------

def test_criterion_9_leakage_guard():
    frame, _ = synth_generate(400, 4, 17, synth_preset("linear", 4))
    schema = SchemaConfig("label", tuple(frame.feature_names))
    splits, stats = prepare_splits(frame, schema, SplitSpec(seed=17))

    tags_ok = (stats.standardize.fitted_on == "train"
               and stats.impute.fitted_on == "train")

    raised = 0
    from creditnet.data import split as split_fn
    raw = split_fn(frame, SplitSpec(seed=17))
    try:  # standardization stats fitted on test applied to test
        standardize_apply(raw.test, standardize_fit(raw.test))
    except LeakageError:
        raised += 1
    try:  # imputation stats fitted on val applied to test
        impute(raw.test, schema, fit_imputer(raw.val, schema))
    except LeakageError:
        raised += 1

    report("criterion-9 leakage-guard",
           tags_ok and raised == 2,
           f"train-fitted tags on applied stats: {tags_ok}; "
           f"constructed leak attempts raising: {raised}/2")
