"""Data pipeline: CSV parsing, imputation, standardization, splits, synthetics."""

import re

import numpy as np
import pytest

from creditnet.cli import read_schema
from creditnet.data import (
    MISSING_DEFAULT,
    ConstantFill,
    FeatureFrame,
    SchemaConfig,
    SplitSpec,
    StandardizeStats,
    SynthSpec,
    WinsorStats,
    apply_preprocess,
    fit_imputer,
    impute,
    load_csv,
    prepare_splits,
    split,
    standardize_apply,
    standardize_fit,
    synth_generate,
    synth_preset,
    winsorize_apply,
    winsorize_fit,
)
from creditnet.errors import (
    ConfigError,
    DataError,
    LeakageError,
    SchemaError,
)
from creditnet.metrics import auc


SCHEMA = SchemaConfig(label_column="default", feature_columns=("age", "debt"))


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def frame_of(X, y, tag="full"):
    X = np.atleast_2d(np.asarray(X, float))
    return FeatureFrame(
        feature_names=tuple(f"f{i}" for i in range(X.shape[1])),
        X=X, y=np.asarray(y), split_tag=tag,
    )


class TestLoadCsv:
    def test_basic_parse_with_missing(self, tmp_path):
        path = write_csv(tmp_path, "default,age,debt\n0,30,1.5\n1,NA,2.5\n0,40,0.5\n")
        frame = load_csv(path, SCHEMA)
        assert frame.n_rows == 3
        assert frame.n_missing_cells == 1
        assert np.isnan(frame.X[1, 0])
        assert list(frame.y) == [0, 1, 0]

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path, "age,debt\n30,1.5\n")
        with pytest.raises(SchemaError, match="default"):
            load_csv(path, SCHEMA)

    def test_unparseable_cell_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "default,age,debt\n0,30,1.5\n1,oops,2.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, SCHEMA)

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(tmp_path, "id,default,age,debt\n7,0,30,1.5\n8,1,20,2.0\n")
        frame = load_csv(path, SCHEMA)
        assert frame.feature_names == ("age", "debt")
        assert frame.X.shape == (2, 2)

    def test_subsample_is_seeded(self, tmp_path):
        rows = "\n".join(f"{i % 2},{20 + i},{i / 10}" for i in range(50))
        path = write_csv(tmp_path, "default,age,debt\n" + rows + "\n")
        a = load_csv(path, SCHEMA, subsample=10, seed=3)
        b = load_csv(path, SCHEMA, subsample=10, seed=3)
        assert np.array_equal(a.X, b.X)
        assert a.n_rows == 10

    @pytest.mark.parametrize("seed", ["a", 1.5, True])
    def test_non_integer_subsample_seed_is_a_config_error(self, tmp_path, seed):
        rows = "\n".join(f"{i % 2},{20 + i},{i / 10}" for i in range(50))
        path = write_csv(tmp_path, "default,age,debt\n" + rows + "\n")
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"seed must be int >= 0, got {seed!r}")):
            load_csv(path, SCHEMA, subsample=10, seed=seed)

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/path.csv", SCHEMA)

    def test_directory_is_a_data_error_naming_it(self, tmp_path):
        with pytest.raises(DataError, match=f"cannot open {tmp_path}: "):
            load_csv(tmp_path, SCHEMA)

    def test_cell_over_the_csv_field_limit_is_a_data_error_naming_its_line(self, tmp_path):
        # line numbers count records: the quoted newline does not start one
        path = write_csv(tmp_path, 'default,age,debt,note\n0,30,1.5,"a\nb"\n1,'
                         + "1" * 200_000 + ",2.0,c\n0,40,0.5,d\n")
        with pytest.raises(DataError, match=f"{path}, line 3: field larger than field limit"):
            load_csv(path, SCHEMA)

    def test_header_field_over_the_csv_field_limit_is_a_data_error(self, tmp_path):
        path = write_csv(tmp_path, "default,age,debt," + "x" * 200_000 + "\n0,30,1.5,1\n")
        with pytest.raises(DataError, match=f"{path}, line 1: field larger than field limit"):
            load_csv(path, SCHEMA)

    def test_schema_none_is_a_config_error_naming_it(self, tmp_path):
        path = write_csv(tmp_path, "default,age,debt\n0,30,1.5\n")
        with pytest.raises(ConfigError, match="^schema must be SchemaConfig, got None$"):
            load_csv(path, None)

    @pytest.mark.parametrize("header, name", [("default,age,age,debt", "age"),
                                              ("default,age,debt,default", "default")],
                             ids=["feature", "label"])
    def test_header_naming_a_used_column_twice_is_a_schema_error(self, tmp_path, header,
                                                                 name):
        """Neither copy is picked silently."""
        path = write_csv(tmp_path, header + "\n0,30,31,1.5\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"column {name!r} named more than once in header of {path}")):
            load_csv(path, SCHEMA)

    def test_repeated_blank_and_unused_names_are_allowed(self, tmp_path):
        path = write_csv(tmp_path, ",x,default,,age,x,debt\n9,8,1,7,30,6,1.5\n")
        frame = load_csv(path, SCHEMA)
        assert np.array_equal(frame.X, [[30.0, 1.5]]) and np.array_equal(frame.y, [1])


class TestSchemaConfig:
    def test_label_in_features_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig(label_column="a", feature_columns=("a", "b"))

    def test_empty_features_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig(label_column="a", feature_columns=())
        with pytest.raises(SchemaError, match="feature_columns must be non-empty"):
            SchemaConfig.from_dict({"label_column": "a"})

    def test_infer_skips_label_and_unnamed(self, tmp_path):
        path = write_csv(tmp_path, ",label,x1,x2\n1,0,2,3\n")
        schema = read_schema(path, {})
        assert schema.feature_columns == ("x1", "x2")

    @pytest.mark.parametrize("name, text, message", [
        ("missing.json", None, "cannot read schema file .*missing.json: "),
        ("schema.toml", "[schema]\nlabel = 1\n", "schema file .*schema.toml is not valid JSON"),
        ("list.json", '["label"]', "schema file .*list.json must contain a JSON object"),
    ], ids=["missing", "not-json", "not-an-object"])
    def test_unreadable_json_is_a_config_error_naming_it(self, tmp_path, name, text,
                                                         message):
        if text is not None:
            write_csv(tmp_path, text, name)
        with pytest.raises(ConfigError, match=message):
            SchemaConfig.from_json(tmp_path / name)

    def test_dict_roundtrip_with_constant(self):
        schema = SchemaConfig("y", ("a",), imputation=ConstantFill(7))
        assert schema.to_dict()["imputation"] == {"kind": "constant", "value": 7.0}
        again = SchemaConfig.from_dict(schema.to_dict())
        assert again.imputation == ConstantFill(7.0)
        assert again == schema

    def test_constant_policy_name_is_a_zero_fill(self):
        schema = SchemaConfig("y", ("a",), imputation="constant")
        assert schema.imputation == ConstantFill(value=0.0)
        assert schema.to_dict()["imputation"] == {"kind": "constant", "value": 0.0}

    def test_null_markers_are_the_defaults(self):
        schema = SchemaConfig.from_dict({"label_column": "y", "feature_columns": ["a"],
                                         "missing_markers": None})
        assert schema.missing_markers == MISSING_DEFAULT

    @pytest.mark.parametrize("fill, message", [
        ({"kind": "constant", "value": float("inf")},
         "^ConstantFill key 'value' must be finite float, got inf"),
        ({"kind": "constant", "value": 10 ** 400},
         "^ConstantFill key 'value' must be finite float, got 10{400}$"),
        ({"kind": "constant", "value": True},
         "^ConstantFill key 'value' must be finite float, got True"),
    ], ids=["inf", "huge-int", "bool"])
    def test_bad_constant_fill_is_a_config_error(self, fill, message):
        with pytest.raises(ConfigError, match=message):
            SchemaConfig.from_dict({"label_column": "y", "feature_columns": ["a"],
                                    "imputation": fill})


class TestImpute:
    def test_median_fixture(self):
        frame = frame_of([[1.0], [np.nan], [3.0]], [0, 1, 0], tag="train")
        out = impute(frame, fit_imputer(frame, SchemaConfig("y", ("f0",))))
        assert np.array_equal(out.X[:, 0], [1.0, 2.0, 3.0])
        assert out.n_missing_cells == 0

    def test_constant_policy(self):
        frame = frame_of([[np.nan], [5.0]], [0, 1], tag="train")
        schema = SchemaConfig("y", ("f0",), imputation=ConstantFill(0.0))
        out = impute(frame, fit_imputer(frame, schema))
        assert out.X[0, 0] == 0.0

    def test_train_median_applied_to_test(self):
        # hand-recomputed: train medians are 2.0 and 30.0
        train = frame_of([[1.0, 10.0], [2.0, 30.0], [3.0, 50.0],
                          [2.0, 20.0], [np.nan, 40.0]], [0, 1, 0, 1, 0], tag="train")
        test = frame_of([[np.nan, np.nan]], [1], tag="test")
        schema = SchemaConfig("y", ("f0", "f1"))
        stats = fit_imputer(train, schema)
        assert stats.fill_values[0] == 2.0
        assert stats.fill_values[1] == 30.0
        out = impute(test, stats)
        assert np.array_equal(out.X[0], [2.0, 30.0])

    def test_all_missing_column_rejected(self):
        frame = frame_of([[np.nan], [np.nan]], [0, 1], tag="train")
        with pytest.raises(DataError):
            fit_imputer(frame, SchemaConfig("y", ("f0",)))

    def test_fitting_on_test_split_is_leakage(self):
        frame = frame_of([[np.nan], [1.0]], [0, 1], tag="test")
        with pytest.raises(LeakageError):
            impute(frame, fit_imputer(frame, SchemaConfig("y", ("f0",))))

    def test_mean_fill_that_overflows_is_a_data_error_naming_its_column(self):
        """The mean of finite cells can overflow float64; no stats record
        holds it, so the fit names the column."""
        frame = frame_of([[1.0, 1e308], [2.0, 1e308]], [0, 1], tag="train")
        with pytest.raises(DataError, match="^imputation fill_value of column 'f1' is inf, "):
            fit_imputer(frame, SchemaConfig("y", ("f0", "f1"), imputation="mean"))


class TestStandardize:
    def test_definition_fixture(self):
        frame = frame_of([[2.0], [4.0], [6.0]], [0, 1, 0], tag="train")
        stats = standardize_fit(frame)
        assert stats.mean[0] == 4.0
        assert stats.std[0] == pytest.approx(np.sqrt(8.0 / 3.0))
        out = standardize_apply(frame, stats)
        assert abs(out.X[:, 0].mean()) < 1e-9
        assert abs(out.X[:, 0].std() - 1.0) < 1e-9

    def test_constant_column_maps_to_zeros(self):
        frame = frame_of([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]], [0, 1, 0], tag="train")
        out = standardize_apply(frame, standardize_fit(frame))
        assert np.all(out.X[:, 0] == 0.0)
        assert np.all(np.isfinite(out.X))

    def test_train_stats_leave_shifted_test_mean_nonzero(self):
        train = frame_of([[0.0], [1.0], [2.0]], [0, 1, 0], tag="train")
        test = frame_of([[10.0], [11.0], [12.0]], [0, 1, 0], tag="test")
        stats = standardize_fit(train)
        out = standardize_apply(test, stats)
        # hand computation: (11 - 1) / sqrt(2/3)
        assert out.X[:, 1 - 1].mean() == pytest.approx(10.0 / np.sqrt(2.0 / 3.0))

    def test_feature_count_mismatch(self):
        train = frame_of([[0.0, 1.0]] * 3, [0, 1, 0], tag="train")
        other = frame_of([[0.0]] * 3, [0, 1, 0], tag="train")
        with pytest.raises(SchemaError):
            standardize_apply(other, standardize_fit(train))

    def test_test_fitted_stats_on_test_is_leakage(self):
        test = frame_of([[0.0], [1.0], [2.0]], [0, 1, 0], tag="test")
        # constructing the leak: fit on test, apply to test
        stats = standardize_fit(test)
        with pytest.raises(LeakageError):
            standardize_apply(test, stats)

    def test_nan_frame_from_the_constructor_is_not_imputed(self):
        """NaN in X is the one missing-cell mark, however the frame was built."""
        frame = frame_of([[1.0, np.nan], [2.0, 3.0], [np.nan, 4.0]], [0, 1, 0], tag="train")
        assert np.array_equal(frame.missing, [[False, True], [False, False], [True, False]])
        assert frame.n_missing_cells == 2
        with pytest.raises(DataError, match="requires an imputed frame"):
            standardize_fit(frame)

    @pytest.mark.parametrize("tag", ["Test", None, 5, "holdout"])
    def test_a_split_tag_outside_the_four_is_a_config_error(self, tag):
        """The leakage guard reads the tag: one it does not know would let
        full-fitted statistics through to a test frame."""
        with pytest.raises(ConfigError, match="^split_tag must be one of "):
            frame_of([[0.0], [1.0], [2.0]], [0, 1, 0], tag=tag)

    def test_full_fitted_stats_on_a_test_frame_is_leakage(self):
        full = frame_of([[0.0], [1.0], [2.0]], [0, 1, 0])
        with pytest.raises(LeakageError):
            standardize_apply(full.take(np.arange(3), "test"), standardize_fit(full))

    def test_train_fitted_stats_carry_train_tag(self):
        train = frame_of([[0.0], [1.0], [2.0]], [0, 1, 0], tag="train")
        assert standardize_fit(train).fitted_on == "train"

    def test_mean_and_std_of_unequal_shape_are_a_config_error(self):
        with pytest.raises(ConfigError,
                           match=re.escape("StandardizeStats mean has shape (3,) but std "
                                           "has shape (2,)")):
            StandardizeStats(np.zeros(3), np.ones(2), "train")

    def test_std_that_overflows_is_a_data_error_naming_its_column(self):
        """The std of [1e200, -1e200] overflows float64: the fit refuses it
        where it would have written a checkpoint no reader takes back."""
        frame = frame_of([[0.0, 1e200], [1.0, -1e200]], [0, 1], tag="train")
        with pytest.raises(DataError,
                           match="^standardization std of column 'f1' is inf, not a finite"):
            standardize_fit(frame)


class TestWinsorize:
    def test_bounds_of_unequal_shape_are_a_config_error(self):
        with pytest.raises(ConfigError,
                           match=re.escape("WinsorStats lower has shape (2,) but upper "
                                           "has shape (1,)")):
            WinsorStats(np.zeros(2), np.ones(1), "train")

    def test_lower_bound_above_upper_is_a_config_error(self):
        with pytest.raises(ConfigError, match=re.escape(
                "WinsorStats lower must be <= upper, got [3.0, 0.0] and [1.0, 9.0]")):
            WinsorStats(np.array([3.0, 0.0]), np.array([1.0, 9.0]), "train")

    def test_bounds_that_overflow_are_a_data_error_naming_their_column(self):
        frame = frame_of([[0.0, -1e308], [1.0, 1e308]], [0, 1], tag="train")
        with pytest.raises(DataError, match="^winsorization (lower|upper) of column 'f1' is "):
            winsorize_fit(frame, 0.25, 0.75)

    def test_clips_extremes(self):
        X = np.concatenate([np.arange(99.0), [1000.0]])[:, None]
        frame = frame_of(X, [i % 2 for i in range(100)], tag="train")
        stats = winsorize_fit(frame, 0.0, 0.95)
        out = winsorize_apply(frame, stats)
        assert out.X.max() <= np.quantile(X, 0.95)

    def test_leakage_guard(self):
        frame = frame_of([[float(i)] for i in range(10)], [i % 2 for i in range(10)],
                         tag="val")
        stats = winsorize_fit(frame, 0.01, 0.99)
        with pytest.raises(LeakageError):
            winsorize_apply(frame, stats)


class TestSplit:
    def make_frame(self, n=100, pos=0.2, seed=0):
        rng = np.random.default_rng(seed)
        y = np.zeros(n, dtype=int)
        y[: int(n * pos)] = 1
        y = rng.permutation(y)
        return frame_of(rng.standard_normal((n, 3)), y)

    def test_sizes(self):
        parts = split(self.make_frame(), SplitSpec((0.7, 0.15, 0.15), seed=7))
        assert (parts.train.n_rows, parts.val.n_rows, parts.test.n_rows) == (70, 15, 15)

    def test_deterministic(self):
        frame = self.make_frame()
        a = split(frame, SplitSpec(seed=7))
        b = split(frame, SplitSpec(seed=7))
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test.y, b.test.y)

    def test_stratification_within_one_sample(self):
        parts = split(self.make_frame(n=100, pos=0.2), SplitSpec(seed=3))
        for part in parts:
            expected = 0.2 * part.n_rows
            assert abs(part.y.sum() - expected) <= 1.0

    def test_disjoint_and_exhaustive(self):
        frame = self.make_frame(n=53)
        # tag rows via a unique feature value to track membership
        frame = frame_of(np.arange(53.0)[:, None], frame.y)
        parts = split(frame, SplitSpec(seed=11))
        seen = np.concatenate([p.X[:, 0] for p in parts])
        assert sorted(seen.tolist()) == list(range(53))

    @pytest.mark.parametrize("stratified, rows", [
        (False, [[0, 2, 7, 9, 10, 11], [3, 5, 6], [1, 4, 8]]),
        (True, [[1, 4, 5, 6, 9, 10], [0, 3, 7, 8], [2, 11]]),
    ])
    def test_rows_are_pinned_in_both_modes(self, stratified, rows):
        frame = frame_of(np.arange(12.0)[:, None], [0, 1] * 6)
        parts = split(frame, SplitSpec((0.5, 0.25, 0.25), seed=2, stratified=stratified))
        assert [p.X[:, 0].tolist() for p in parts] == rows

    def test_tiny_frame_rejected(self):
        with pytest.raises(ConfigError):
            split(frame_of(np.zeros((5, 1)), [0, 1, 0, 1, 0]), SplitSpec())

    def test_empty_split_rejected(self):
        frame = frame_of(np.zeros((10, 1)), [0, 1] * 5)
        with pytest.raises(ConfigError):
            split(frame, SplitSpec((0.89, 0.01, 0.10), seed=0))

    def test_split_tags_assigned(self):
        parts = split(self.make_frame(), SplitSpec(seed=5))
        assert (parts.train.split_tag, parts.val.split_tag, parts.test.split_tag) == (
            "train", "val", "test")

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            SplitSpec((0.5, 0.3, 0.3))


class TestSynth:
    def test_no_signal_coin_flips(self):
        frame, bayes = synth_generate(10000, 5, 0, SynthSpec())
        assert np.all(bayes == 0.0)
        assert abs(frame.y.mean() - 0.5) < 0.02

    def test_strong_single_feature_bayes_auc(self):
        frame, bayes = synth_generate(10000, 10, 42, synth_preset("strong-single", 10))
        assert auc(bayes, frame.y) > 0.9

    def test_deterministic(self):
        a_frame, a_scores = synth_generate(500, 6, 9, synth_preset("linear", 6))
        b_frame, b_scores = synth_generate(500, 6, 9, synth_preset("linear", 6))
        assert np.array_equal(a_frame.X, b_frame.X)
        assert np.array_equal(a_frame.y, b_frame.y)
        assert np.array_equal(a_scores, b_scores)

    def test_logit_construction(self):
        spec = SynthSpec(linear=(1.0,), pairs=((0, 2, 2.0),), motifs=((1, 2, 3.0),))
        frame, scores = synth_generate(200, 4, 1, spec)
        x = frame.X
        expected = x[:, 0] + 2.0 * x[:, 0] * x[:, 2] + 3.0 * x[:, 1] * x[:, 2]
        assert np.allclose(scores, expected)

    def test_bad_pair_index(self):
        with pytest.raises(ConfigError):
            synth_generate(200, 3, 0, SynthSpec(pairs=((0, 9, 1.0),)))

    def test_too_small_n(self):
        with pytest.raises(ConfigError):
            synth_generate(50, 3, 0, SynthSpec())

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="^seed must be int >= 0, got -1$"):
            synth_generate(200, 4, -1, synth_preset("linear", 4))

    @pytest.mark.parametrize("args, message", [
        (("a", 3, 0), "n must be int >= 100, got 'a'"),
        ((200.5, 3, 0), "n must be int >= 100, got 200.5"),
        ((200, "a", 0), "n_features must be int >= 1, got 'a'"),
        ((200, 3, "a"), "seed must be int >= 0, got 'a'"),
        ((200, 3, True), "seed must be int >= 0, got True"),
    ])
    def test_non_integer_argument_is_a_config_error(self, args, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            synth_generate(*args, SynthSpec())

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="^name must be one of 'noise', "):
            synth_preset("nope", 10)

    @pytest.mark.parametrize("fields, message", [
        ({"linear": (1.0, None)}, "^SynthSpec key 'linear' must be tuple"),
        ({"pairs": ((0, 1),)}, "^SynthSpec key 'pairs' must be tuple"),
        ({"motifs": ((0, 1.5, 2.0),)}, "^SynthSpec key 'motifs' must be tuple"),
        ({"linear": (float("nan"),)},
         r"^SynthSpec key 'linear' must be tuple\[finite float, \.\.\.\], got \(nan,\)$"),
        ({"pairs": ((0, 1, float("inf")),)},
         r"^SynthSpec key 'pairs' must be tuple\[tuple\[int, int, finite float\], \.\.\.\], "
         r"got \(\(0, 1, inf\),\)$"),
    ], ids=["none-weight", "short-pair", "float-width", "nan-weight", "inf-pair"])
    def test_bad_spec_is_a_config_error_where_it_is_built(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            SynthSpec(**fields)

    @pytest.mark.parametrize("fields", [{"pairs": ((-1, 1, 1.0),)},
                                        {"motifs": ((0, 0, 1.0),)}])
    def test_negative_index_or_empty_motif_is_a_config_error(self, fields):
        with pytest.raises(ConfigError, match="out of range"):
            synth_generate(200, 3, 0, SynthSpec(**fields))

    def test_spec_reads_back_from_its_json_form(self):
        spec = synth_preset("local-and-long", 6)
        assert spec.to_dict() == {"linear": [0.0, 0.5], "pairs": [[0, 5, 2.0]],
                                  "motifs": [[2, 2, 2.0]]}
        again = SynthSpec.from_dict(spec.to_dict())
        assert again == spec
        hash(again)


class TestPrepareSplits:
    def test_pipeline_standardizes_with_train_stats(self):
        frame, _ = synth_generate(400, 4, 5, synth_preset("linear", 4))
        splits, stats = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                                       SplitSpec(seed=2))
        assert stats.standardize.fitted_on == "train"
        assert stats.impute.fitted_on == "train"
        mu = splits.train.X.mean(axis=0)
        sd = splits.train.X.std(axis=0)
        assert np.max(np.abs(mu)) < 1e-9
        assert np.max(np.abs(sd - 1.0)) < 1e-9
        # test split standardized with train stats: mean not exactly 0
        assert np.all(splits.test.X.mean(axis=0) != 0.0)

    def test_apply_preprocess_matches_pipeline(self):
        frame, _ = synth_generate(400, 4, 6, synth_preset("linear", 4))
        schema = SchemaConfig("y", tuple(frame.feature_names))
        splits, stats = prepare_splits(frame, schema, SplitSpec(seed=2))
        redo = apply_preprocess(split(frame, SplitSpec(seed=2)).test, stats)
        assert np.allclose(redo.X, splits.test.X, atol=0.0)

    def test_winsor_option(self):
        frame, _ = synth_generate(400, 4, 7, synth_preset("linear", 4))
        splits, stats = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                                       SplitSpec(seed=2), winsor_quantiles=(0.01, 0.99))
        assert stats.winsor is not None

    def test_preprocess_stats_roundtrip(self):
        frame, _ = synth_generate(400, 4, 8, synth_preset("linear", 4))
        _, stats = prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                                  SplitSpec(seed=2))
        from creditnet.data import PreprocessStats
        again = PreprocessStats.from_dict(stats.to_dict())
        assert np.allclose(again.standardize.mean, stats.standardize.mean)
        assert again.standardize.fitted_on == "train"
