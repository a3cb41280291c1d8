"""Permutation importance: ground-truth ranking, determinism, independence."""

import numpy as np
import pytest

from creditnet.data import (
    SchemaConfig,
    SplitSpec,
    SynthSpec,
    prepare_splits,
    synth_generate,
)
from creditnet.errors import ConfigError, UndefinedMetricError
from creditnet.importance import permutation_importance
from creditnet.metrics import auc
from creditnet.model import AttnSpec, ConvSpec, Model, ModelConfig
from creditnet.training import EarlyStop, TrainConfig, predict_probs, train


MODEL_CFG = ModelConfig(
    n_features=6, d_embed=4,
    conv=ConvSpec(channels=6, kernel=3, stride=1, pool_window=2, pool_stride=1),
    attn=AttnSpec(n_heads=2, d_model=8, n_blocks=1),
    ffn_dim=8, mlp_hidden=(6,), seed=0,
)


@pytest.fixture(scope="module")
def trained_on_dominant_feature():
    """Model fitted to data whose signal is almost entirely feature f1."""
    frame, _ = synth_generate(5000, 6, 31, SynthSpec(linear=(0.2, 4.0, 0.0, 0.3)))
    splits, _ = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                               SplitSpec(seed=31))
    cfg = TrainConfig(seed=31, epochs=40, early_stop=EarlyStop(patience=8))
    model, _ = train(MODEL_CFG, cfg, splits)
    return model, splits.test


class TestPermutationImportance:
    def test_dominant_feature_ranks_first_across_seeds(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        for seed in range(5):
            report = permutation_importance(model, test, repeats=3, seed=seed)
            assert report.ranking()[0] == "f1"

    def test_baseline_matches_direct_metric_evaluation(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        report = permutation_importance(model, test, repeats=2, seed=0)
        direct = auc(predict_probs(model, test.X), test.y)
        assert report.baseline == direct

    def test_deterministic(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        a = permutation_importance(model, test, repeats=3, seed=7)
        b = permutation_importance(model, test, repeats=3, seed=7)
        assert a.to_json() == b.to_json()

    def test_ranking_is_permutation_of_features(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        report = permutation_importance(model, test, repeats=2, seed=1)
        assert sorted(report.ranking()) == sorted(test.feature_names)

    def test_repeats_shrink_std_but_keep_leader(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        one = permutation_importance(model, test, repeats=1, seed=2)
        many = permutation_importance(model, test, repeats=10, seed=2)
        assert one.ranking()[0] == many.ranking()[0] == "f1"
        lead = [e for e in many.entries if e.name == "f1"][0]
        assert lead.std_drop < lead.mean_drop  # stable leader at 10 repeats

    def test_unused_feature_has_negligible_drop(self):
        # construct a model that provably ignores feature f2: zero its
        # embedding row so its token is constant
        model = Model(MODEL_CFG)
        model.params["embed.weight"].value[2, :] = 0.0
        model.params["embed.bias"].value[2, :] = 0.0
        frame, _ = synth_generate(5000, 6, 32, SynthSpec(linear=(1.0, 1.0)))
        report = permutation_importance(model, frame, repeats=3, seed=3)
        f2 = [e for e in report.entries if e.name == "f2"][0]
        assert abs(f2.mean_drop) < 0.01

    def test_column_independence(self, trained_on_dominant_feature):
        # permuting one column beforehand must not change another column's drop
        model, test = trained_on_dominant_feature
        report_full = permutation_importance(model, test, repeats=2, seed=4)
        from dataclasses import replace as dc_replace
        rng = np.random.default_rng(99)
        X2 = test.X.copy()
        X2[:, 5] = X2[rng.permutation(test.n_rows), 5]
        scrambled = dc_replace(test, X=X2)
        report_scrambled = permutation_importance(model, scrambled, repeats=2, seed=4)
        # drops are measured against each frame's own baseline; the shuffle
        # recipe for f1 is identical in both
        a = [e.mean_drop for e in report_full.entries if e.name == "f1"][0]
        b = [e.mean_drop for e in report_scrambled.entries if e.name == "f1"][0]
        assert a == pytest.approx(b, abs=0.02)

    def test_bad_repeats(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        with pytest.raises(ConfigError):
            permutation_importance(model, test, repeats=0)

    @pytest.mark.parametrize("repeats", [2.5, True, "3"])
    def test_non_integer_repeats(self, trained_on_dominant_feature, repeats):
        model, test = trained_on_dominant_feature
        with pytest.raises(ConfigError, match="repeats must be an integer >= 1"):
            permutation_importance(model, test, repeats=repeats)

    def test_negative_seed(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        with pytest.raises(ConfigError, match="importance seed must be >= 0, got -1"):
            permutation_importance(model, test, seed=-1)

    @pytest.mark.parametrize("seed", ["a", 1.5, True])
    def test_non_integer_seed_is_a_config_error(self, trained_on_dominant_feature, seed):
        model, test = trained_on_dominant_feature
        with pytest.raises(ConfigError,
                           match=f"importance seed must be an integer, got {seed!r}"):
            permutation_importance(model, test, seed=seed)

    def test_single_class_split_undefined(self, trained_on_dominant_feature):
        from dataclasses import replace as dc_replace
        model, test = trained_on_dominant_feature
        only_pos = test.take(np.flatnonzero(test.y == 1), "test")
        with pytest.raises(UndefinedMetricError):
            permutation_importance(model, only_pos, repeats=1)

    def test_csv_shape(self, trained_on_dominant_feature):
        model, test = trained_on_dominant_feature
        report = permutation_importance(model, test, repeats=2, seed=5)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "feature,mean_drop,std_drop"
        assert len(lines) == 1 + test.n_features
