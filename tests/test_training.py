"""Objective, optimizers, the fit loop, and the experiment runners."""

import numpy as np
import pytest

from creditnet.data import SchemaConfig, SplitSpec, Splits, standardize_apply, \
    standardize_fit, synth_generate, synth_preset, prepare_splits
from creditnet.errors import ConfigError, DataError, NumericError, ShapeError
from creditnet.model import Model, ModelConfig, AttnSpec, ConvSpec, ParamStore
from creditnet.training import (
    SCORE_BLOCK,
    AdamState,
    EarlyStop,
    LogisticModel,
    TrainConfig,
    adam_step,
    bce_loss,
    evaluate,
    sgd_step,
    stable_hash,
    sweep_lr,
    sweep_optimizer,
    ablate,
    predict_probs,
    train,
    train_baseline_logistic,
    write_curves_csv,
)


SMALL_MODEL = ModelConfig(
    n_features=6, d_embed=4,
    conv=ConvSpec(channels=6, kernel=3, stride=1, pool_window=2, pool_stride=1),
    attn=AttnSpec(n_heads=2, d_model=8, n_blocks=1),
    ffn_dim=8, mlp_hidden=(6,), seed=1,
)


def small_splits(seed=0, n=300, preset="linear", nf=6):
    frame, _ = synth_generate(n, nf, seed, synth_preset(preset, nf))
    splits, _ = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                               SplitSpec(seed=seed))
    return splits


def balanced_fixture(n_rows=64, nf=6, seed=3):
    frame, _ = synth_generate(200, nf, seed, synth_preset("linear", nf))
    pos = np.flatnonzero(frame.y == 1)[: n_rows // 2]
    neg = np.flatnonzero(frame.y == 0)[: n_rows // 2]
    fix = frame.take(np.sort(np.concatenate([pos, neg])), "train")
    fix = standardize_apply(fix, standardize_fit(fix))
    return Splits(train=fix, val=fix, test=fix)


class TestBceLoss:
    def test_half_prob_gives_ln2(self):
        loss, _ = bce_loss([0.5], [1])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_clamped_boundary_is_finite_and_tiny(self):
        loss, _ = bce_loss([1.0 - 1e-12], [1])
        assert 0.0 <= loss < 1e-11

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.random(20)
            y = rng.integers(0, 2, 20)
            loss, _ = bce_loss(p, y)
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, 12)
        y = rng.integers(0, 2, 12)
        _, grad = bce_loss(p, y)
        h = 1e-7
        for i in range(p.size):
            pp = p.copy(); pp[i] += h
            pm = p.copy(); pm[i] -= h
            fd = (bce_loss(pp, y)[0] - bce_loss(pm, y)[0]) / (2 * h)
            assert abs(grad[i] - fd) < 1e-6

    def test_clamped_coordinates_get_zero_gradient(self):
        _, grad = bce_loss([1e-14, 0.5], [1, 1])
        assert grad[0] == 0.0
        assert grad[1] != 0.0

    def test_pos_weight_scales_positive_term(self):
        l1, _ = bce_loss([0.5, 0.5], [1, 0], pos_weight=1.0)
        l2, _ = bce_loss([0.5, 0.5], [1, 0], pos_weight=3.0)
        assert l2 == pytest.approx(l1 + np.log(2.0), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss([0.5], [1, 0])

    @pytest.mark.parametrize("labels", [[0, 2], [0, 0.5], [-1, 1], [0, np.nan]])
    def test_label_other_than_zero_or_one_is_a_data_error(self, labels):
        with pytest.raises(DataError, match="labels must be 0/1"):
            bce_loss([0.4, 0.5], labels)

    def test_non_numeric_probabilities_are_a_data_error(self):
        with pytest.raises(DataError, match="not a numeric array"):
            bce_loss("ab", [0, 1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_probability_reaches_the_loss(self):
        # _fit turns a non-finite loss into "loss diverged" (exit 3)
        loss, _ = bce_loss([np.nan, 0.5], [0, 1])
        assert np.isnan(loss)


def one_param(value):
    """A ParamStore holding one parameter ``p``; returns ``(store, p)``."""
    store = ParamStore()
    return store, store.add("p", np.array(value, dtype=float))


class TestSgd:
    def test_zero_gradient_no_change(self):
        store, p = one_param([1.0, 2.0])
        sgd_step(store, 0.5)
        assert np.array_equal(p.value, [1.0, 2.0])

    def test_quadratic_contraction_closed_form(self):
        # f(p) = p^2/2, grad = p, lr = 0.1: p_k = 0.9^k
        store, p = one_param([1.0])
        for k in range(1, 11):
            p.zero_grad()
            p.grad += p.value
            sgd_step(store, 0.1)
            assert p.value[0] == pytest.approx(0.9 ** k, abs=1e-15)

    def test_nonfinite_gradient_rejected(self):
        store, p = one_param([1.0])
        p.grad += np.inf
        with pytest.raises(NumericError):
            sgd_step(store, 0.1)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        for g in (0.3, -2.0, 1e-4):
            store, p = one_param([5.0])
            p.grad += g
            st = AdamState()
            adam_step(store, 1e-3, st)
            # bias correction makes mhat/sqrt(vhat) = sign(g) up to eps
            assert abs(abs(p.value[0] - 5.0) - 1e-3) < 1e-6

    def test_state_persists_and_t_increments(self):
        store, p = one_param([1.0])
        state = AdamState()
        for t in range(1, 4):
            p.zero_grad()
            p.grad += p.value
            adam_step(store, 0.01, state)
            assert state.t == t
        assert state.m.shape == state.v.shape == store.values.shape

    def test_converges_on_quadratic(self):
        store, p = one_param([3.0])
        state = AdamState()
        for _ in range(2000):
            p.zero_grad()
            p.grad += p.value
            adam_step(store, 0.05, state)
        assert abs(p.value[0]) < 1e-3


class TestTrainConfig:
    def test_rejects_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ConfigError):
            TrainConfig(beta1=1.0)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="rmsprop")

    def test_dict_roundtrip(self):
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.02, early_stop=None)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_dict_roundtrip_with_early_stop(self):
        cfg = TrainConfig(early_stop=EarlyStop(patience=4))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again.early_stop == EarlyStop(patience=4)


class TestTrainLoop:
    def test_overfits_balanced_fixture(self):
        splits = balanced_fixture()
        cfg = TrainConfig(seed=0, epochs=300, learning_rate=1e-3, early_stop=None)
        model, report = train(SMALL_MODEL, cfg, splits)
        assert report.final["train"].acc == 1.0
        assert report.curves["train_loss"][-1] < 0.05

    def test_smoothed_train_loss_non_increasing_on_overfit_fixture(self):
        splits = balanced_fixture()
        cfg = TrainConfig(seed=0, epochs=300, learning_rate=1e-3, early_stop=None)
        _, report = train(SMALL_MODEL, cfg, splits)
        smoothed = np.convolve(report.curves["train_loss"], np.ones(5) / 5,
                               mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-6)

    def test_bit_identical_reports_for_same_seeds(self):
        splits = small_splits(seed=5)
        cfg = TrainConfig(seed=9, epochs=8, early_stop=None)
        _, r1 = train(SMALL_MODEL, cfg, splits)
        _, r2 = train(SMALL_MODEL, cfg, splits)
        assert r1.to_json() == r2.to_json()

    def test_bit_identical_parameters(self):
        splits = small_splits(seed=5)
        cfg = TrainConfig(seed=9, epochs=5, early_stop=None)
        m1, _ = train(SMALL_MODEL, cfg, splits)
        m2, _ = train(SMALL_MODEL, cfg, splits)
        for p1, p2 in zip(m1.params, m2.params):
            assert np.array_equal(p1.value, p2.value), p1.name

    def test_optimizer_steps_change_values_not_shapes(self):
        splits = small_splits(seed=6)
        cfg = TrainConfig(seed=1, epochs=3, early_stop=None)
        model, _ = train(SMALL_MODEL, cfg, splits)
        fresh = Model(SMALL_MODEL)
        assert model.params.names() == fresh.params.names()
        for p1, p2 in zip(model.params, fresh.params):
            assert p1.value.shape == p2.value.shape

    def test_curve_lengths_match_epochs_run(self):
        splits = small_splits(seed=7)
        cfg = TrainConfig(seed=2, epochs=6, early_stop=None)
        _, report = train(SMALL_MODEL, cfg, splits)
        assert report.epochs_run == 6
        for curve in report.curves.values():
            assert len(curve) == 6

    def test_early_stopping_restores_best_epoch(self):
        splits = small_splits(seed=8, n=400)
        cfg = TrainConfig(seed=3, epochs=60, early_stop=EarlyStop(patience=3))
        model, report = train(SMALL_MODEL, cfg, splits)
        assert report.epochs_run <= 60
        assert report.best_epoch is not None
        assert report.best_epoch <= report.epochs_run - 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_numeric_error(self):
        # lr huge enough that squared parameter values overflow float64
        splits = small_splits(seed=9)
        cfg = TrainConfig(seed=0, epochs=30, optimizer="sgd", learning_rate=1e170,
                          early_stop=None)
        with pytest.raises(NumericError):
            train(SMALL_MODEL, cfg, splits)

    def test_final_metrics_are_fresh_not_last_batch(self):
        splits = small_splits(seed=10)
        cfg = TrainConfig(seed=4, epochs=5, early_stop=None)
        model, report = train(SMALL_MODEL, cfg, splits)
        _, again = evaluate(model, splits.test)
        assert report.final["test"].auc == again.auc
        assert report.final["test"].acc == again.acc

    def test_final_metrics_equal_fresh_passes_on_restored_parameters(self):
        # the val/test probabilities kept from the best epoch stand in for
        # fresh passes; they must be exactly what a fresh pass gives
        splits = small_splits(seed=8, n=400)
        cfg = TrainConfig(seed=3, epochs=60, early_stop=EarlyStop(patience=3))
        model, report = train(SMALL_MODEL, cfg, splits)
        assert report.best_epoch < report.epochs_run - 1  # parameters were restored
        for name, frame in zip(("train", "val", "test"), splits):
            _, again = evaluate(model, frame)
            assert report.final[name].to_dict() == again.to_dict()

    def test_trained_hybrid_tracks_bayes_on_strong_single(self):
        frame, bayes = synth_generate(4000, 6, 11, synth_preset("strong-single", 6))
        from creditnet.metrics import auc as auc_fn
        bayes_auc = auc_fn(bayes[np.array([True] * 4000)], frame.y)
        splits, _ = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                                   SplitSpec(seed=11))
        cfg = TrainConfig(seed=11, epochs=40, early_stop=EarlyStop(patience=8))
        _, report = train(SMALL_MODEL, cfg, splits)
        assert abs(report.final["test"].auc - bayes_auc) < 0.03


class TestPredictProbs:
    @pytest.mark.parametrize("variant", ["hybrid", "cnn_only", "transformer_only"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 2049])
    def test_scores_in_blocks_of_score_block_rows(self, variant, n):
        from dataclasses import replace as dc_replace
        model = Model(dc_replace(SMALL_MODEL, variant=variant))
        X = np.random.default_rng(n).standard_normal((n, 6))
        blocks = [model.forward(X[s: s + SCORE_BLOCK])[0] for s in range(0, n, SCORE_BLOCK)]
        probs = predict_probs(model, X)
        assert probs.tobytes() == np.concatenate(blocks).tobytes()
        whole, _ = model.forward(X)
        assert np.max(np.abs(probs - whole)) <= 1e-12

    def test_never_forwards_more_than_score_block_rows(self, monkeypatch):
        model = Model(SMALL_MODEL)
        sizes, traced = [], []

        def spy(batch, **kwargs):
            sizes.append(batch.shape[0])
            traced.append(kwargs.get("trace", True))
            return Model.forward(model, batch, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
        predict_probs(model, np.zeros((3 * SCORE_BLOCK + 5, 6)))
        assert sizes == [SCORE_BLOCK] * 3 + [5]
        assert traced == [False] * 4

    def test_zero_rows_give_an_empty_array(self):
        probs = predict_probs(Model(SMALL_MODEL), np.zeros((0, 6)))
        assert probs.shape == (0,)

    def test_non_finite_row_is_a_data_error(self):
        X = np.zeros((300, 6))
        X[299, 0] = np.nan
        for model in (Model(SMALL_MODEL), LogisticModel(6)):
            with pytest.raises(DataError, match="batch contains non-finite values"):
                predict_probs(model, X)


class TestCurvesCsv:
    def test_format(self, tmp_path):
        splits = small_splits(seed=12)
        cfg = TrainConfig(seed=0, epochs=3, early_stop=None)
        _, report = train(SMALL_MODEL, cfg, splits)
        path = tmp_path / "curves.csv"
        write_curves_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,test_loss,test_acc"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 5


class TestLogisticBaseline:
    def test_high_auc_on_linearly_separable(self):
        splits = small_splits(seed=13, n=4000, preset="linear")
        cfg = TrainConfig(seed=0, epochs=60, learning_rate=0.01, early_stop=None)
        _, report = train_baseline_logistic(cfg, splits)
        assert report.final["test"].auc > 0.95

    def test_blind_to_pure_interaction(self):
        frame, _ = synth_generate(4000, 6, 14, synth_preset("xor-pair", 6))
        splits, _ = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                                   SplitSpec(seed=14))
        cfg = TrainConfig(seed=0, epochs=40, learning_rate=0.01, early_stop=None)
        _, report = train_baseline_logistic(cfg, splits)
        assert abs(report.final["test"].auc - 0.5) < 0.08

    def test_deterministic(self):
        splits = small_splits(seed=15)
        cfg = TrainConfig(seed=1, epochs=5, early_stop=None)
        _, r1 = train_baseline_logistic(cfg, splits)
        _, r2 = train_baseline_logistic(cfg, splits)
        assert r1.to_json() == r2.to_json()


class TestSweeps:
    def test_single_lr_equals_plain_run(self):
        splits = small_splits(seed=16)
        cfg = TrainConfig(seed=2, epochs=4, early_stop=None)
        rows = sweep_lr(SMALL_MODEL, cfg, [cfg.learning_rate], splits)
        assert len(rows) == 1
        _, direct = train(SMALL_MODEL, cfg, splits)
        assert rows[0]["metrics"]["test"] == direct.final["test"].to_dict()

    def test_duplicate_lrs_give_identical_rows(self):
        splits = small_splits(seed=17)
        cfg = TrainConfig(seed=2, epochs=3, early_stop=None)
        rows = sweep_lr(SMALL_MODEL, cfg, [0.003, 0.003], splits)
        assert rows[0]["metrics"] == rows[1]["metrics"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep_lr(SMALL_MODEL, TrainConfig(), [], small_splits(seed=18))

    def test_optimizer_grid_covers_both(self):
        splits = small_splits(seed=19)
        cfg = TrainConfig(seed=2, epochs=3, early_stop=None)
        rows = sweep_optimizer(SMALL_MODEL, cfg, [0.01, 0.001], splits)
        combos = {(r["optimizer"], r["lr"]) for r in rows}
        assert combos == {("sgd", 0.01), ("sgd", 0.001),
                          ("adam", 0.01), ("adam", 0.001)}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_recorded_not_fatal(self):
        splits = small_splits(seed=20)
        cfg = TrainConfig(seed=2, epochs=10, optimizer="sgd", early_stop=None)
        rows = sweep_lr(SMALL_MODEL, cfg, [1e170, 0.01], splits)
        assert rows[0]["status"] == "failed"
        assert "error" in rows[0]
        assert rows[1]["status"] == "ok"


class TestAblate:
    def test_three_fixed_rows(self):
        splits = small_splits(seed=21)
        cfg = TrainConfig(seed=2, epochs=3, early_stop=None)
        rows = ablate(SMALL_MODEL, cfg, splits)
        assert [r["variant"] for r in rows] == ["cnn_only", "transformer_only",
                                                "hybrid"]
        assert all(r["status"] == "ok" for r in rows)

    def test_pure_noise_all_near_half(self):
        frame, _ = synth_generate(2000, 6, 22, synth_preset("noise", 6))
        splits, _ = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                                   SplitSpec(seed=22))
        cfg = TrainConfig(seed=0, epochs=15, early_stop=EarlyStop(patience=5))
        rows = ablate(SMALL_MODEL, cfg, splits)
        for row in rows:
            assert abs(row["metrics"]["test"]["auc"] - 0.5) < 0.08


class TestBayesCeiling:
    def test_no_model_beats_generator_scores_on_fresh_data(self):
        # the generator's true logits are the Bayes-optimal scorer; a trained
        # model evaluated on freshly drawn data cannot beat them beyond noise
        from creditnet.metrics import auc as auc_fn
        train_frame, _ = synth_generate(10000, 6, 40, synth_preset("strong-single", 6))
        splits, stats = prepare_splits(
            train_frame, SchemaConfig("y", tuple(train_frame.feature_names)),
            SplitSpec(seed=40))
        cfg = TrainConfig(seed=40, epochs=25, early_stop=EarlyStop(patience=6))
        model, _ = train(SMALL_MODEL, cfg, splits)

        fresh, fresh_logits = synth_generate(10000, 6, 41,
                                             synth_preset("strong-single", 6))
        from creditnet.data import apply_preprocess
        from creditnet.training import predict_probs
        prepared = apply_preprocess(fresh, stats)
        model_auc = auc_fn(predict_probs(model, prepared.X), fresh.y)
        bayes_auc = auc_fn(fresh_logits, fresh.y)
        assert bayes_auc >= model_auc - 0.01


def test_stable_hash_is_order_insensitive():
    assert stable_hash({"a": 1, "b": [1, 2]}) == stable_hash({"b": [1, 2], "a": 1})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})
