"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import creditnet.blas as blas
import creditnet.cli as cli
import creditnet.training as training
from creditnet.cli import run
from creditnet.errors import ShapeError, StateError


FAST_CONFIG = {
    "model": {
        "d_embed": 4,
        "conv": {"channels": 6, "kernel": 3, "stride": 1,
                 "pool_window": 2, "pool_stride": 1},
        "attn": {"n_heads": 2, "d_model": 8, "n_blocks": 1, "layer_norm": True},
        "ffn_dim": 8,
        "mlp_hidden": [6],
    },
    "train": {"epochs": 5, "early_stop": None},
    "split": {"fractions": [0.7, 0.15, 0.15], "seed": 1, "stratified": True},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(FAST_CONFIG))
    csv = root / "synth.csv"
    assert run(["synth", "--n", "600", "--n-features", "6",
                "--spec", "strong-single", "--seed", "4",
                "--out", str(csv)]) == 0
    return {"root": root, "config": str(cfg), "csv": str(csv)}


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace["root"] / "run"
    code = run(["train", "--config", workspace["config"],
                "--data", workspace["csv"], "--out", str(out), "--seed", "7"])
    assert code == 0
    return out


class TestSynth:
    def test_writes_csv_and_meta(self, workspace):
        csv = workspace["root"] / "synth.csv"
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "f0,f1,f2,f3,f4,f5,label"
        assert len(lines) == 601
        meta = json.loads((workspace["root"] / "synth.csv.meta.json").read_text())
        assert meta["bayes_auc"] > 0.9
        assert meta["spec"] == "strong-single"

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run(["synth", "--n", "200", "--spec", "nope",
                    "--out", str(tmp_path / "x.csv")]) == 1


class TestTrain:
    def test_writes_all_artifacts(self, trained):
        for name in ("report.json", "curves.csv", "checkpoint.bin", "manifest.json"):
            assert (trained / name).exists(), name

    def test_report_structure(self, trained):
        report = json.loads((trained / "report.json").read_text())
        assert report["kind"] == "train"
        assert set(report["final"]) == {"train", "val", "test"}
        assert report["epochs_run"] == 5
        assert "wall_clock_seconds" not in report  # timing lives in the manifest

    def test_manifest_contents(self, trained, workspace):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["data_sha256"]
        assert manifest["resolved_config"]["model"]["n_features"] == 6
        assert manifest["seed_override"] == 7
        assert "wall_clock_seconds" in manifest

    def test_manifest_records_the_blas(self, trained):
        info = json.loads((trained / "manifest.json").read_text())["blas"]
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (info["name"], info["version"]) == (build["name"], build["version"])
        if blas.threads() is None:
            assert info["threads"] is None and info["fit_threads"] is None
        else:  # the caller's count, read after the fit restored it
            assert info["threads"] == blas.threads() >= 1
            assert info["fit_threads"] == training.FIT_THREADS == 1

    def test_manifest_counts_are_null_without_the_thread_calls(self, workspace, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr(blas, "SYMBOLS", (("no_such_get", "no_such_set"),))
        out = tmp_path / "run"
        assert run(["train", "--config", workspace["config"], "--data", workspace["csv"],
                    "--out", str(out), "--seed", "7"]) == 0
        info = json.loads((out / "manifest.json").read_text())["blas"]
        assert info["threads"] is None and info["fit_threads"] is None
        assert info["name"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]

    def test_byte_identical_rerun(self, trained, workspace):
        out2 = workspace["root"] / "run_again"
        assert run(["train", "--config", workspace["config"],
                    "--data", workspace["csv"], "--out", str(out2),
                    "--seed", "7"]) == 0
        assert (trained / "report.json").read_bytes() == \
               (out2 / "report.json").read_bytes()
        assert (trained / "checkpoint.bin").read_bytes() == \
               (out2 / "checkpoint.bin").read_bytes()

    def test_input_file_not_mutated(self, workspace):
        import hashlib
        before = hashlib.sha256(Path(workspace["csv"]).read_bytes()).hexdigest()
        out = workspace["root"] / "run_mut"
        run(["train", "--config", workspace["config"], "--data", workspace["csv"],
             "--out", str(out), "--seed", "1"])
        after = hashlib.sha256(Path(workspace["csv"]).read_bytes()).hexdigest()
        assert before == after

    def test_env_var_default_data_dir(self, workspace, monkeypatch, tmp_path):
        data_dir = tmp_path / "datadir"
        data_dir.mkdir()
        import shutil
        shutil.copy(workspace["csv"], data_dir / "cs-training.csv")
        monkeypatch.setenv("CREDITNET_DATA_DIR", str(data_dir))
        out = tmp_path / "run_env"
        assert run(["train", "--config", workspace["config"],
                    "--out", str(out), "--seed", "2"]) == 0

    def test_inferred_schema_takes_the_constant_imputation_object(self, workspace, tmp_path):
        data = tmp_path / "holes.csv"
        with open(workspace["csv"]) as fh:
            data.write_text(_set_cell(_set_cell(fh.read(), 3, "f1", "NA"), 9, "f4", ""))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**FAST_CONFIG, "train": {"epochs": 1, "early_stop": None},
             "schema": {"imputation": {"kind": "constant", "value": 0}}}))
        out = tmp_path / "out"
        assert run(["train", "--config", str(config), "--data", str(data),
                    "--out", str(out)]) == 0
        schema = json.loads((out / "manifest.json").read_text())["resolved_config"]["schema"]
        assert schema["imputation"] == {"kind": "constant", "value": 0.0}
        assert schema["feature_columns"] == [f"f{i}" for i in range(6)]


class TestLogisticVariant:
    def test_every_command_runs_the_baseline(self, workspace, tmp_path):
        config = tmp_path / "logistic.json"
        config.write_text(json.dumps({"model": {"variant": "logistic"},
                                      "train": {"epochs": 3, "early_stop": None}}))
        run_dir = tmp_path / "run"
        assert run(["train", "--config", str(config), "--data", workspace["csv"],
                    "--out", str(run_dir), "--seed", "3"]) == 0
        checkpoint = str(run_dir / "checkpoint.bin")
        assert run(["eval", "--checkpoint", checkpoint, "--data", workspace["csv"],
                    "--out", str(tmp_path / "eval")]) == 0
        assert run(["importance", "--checkpoint", checkpoint, "--data", workspace["csv"],
                    "--out", str(tmp_path / "imp"), "--repeats", "2"]) == 0
        assert run(["report", "--run", str(run_dir)]) == 0
        header = json.loads((run_dir / "checkpoint.bin").read_bytes().split(b"\n", 1)[0])
        assert header["config"]["variant"] == "logistic"
        assert header["params"] == [{"name": "linear.weight", "shape": [6, 1]},
                                    {"name": "linear.bias", "shape": [1]}]


class TestSynthTrainBayesGap:
    def test_trained_auc_tracks_recorded_bayes_auc(self, tmp_path):
        csv = tmp_path / "strong.csv"
        assert run(["synth", "--n", "6000", "--n-features", "10",
                    "--spec", "strong-single", "--seed", "21",
                    "--out", str(csv)]) == 0
        meta = json.loads((tmp_path / "strong.csv.meta.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 30}}))
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--data", str(csv),
                    "--out", str(out), "--seed", "0"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["final"]["test"]["auc"] - meta["bayes_auc"]) < 0.03


class TestEval:
    def test_eval_roundtrip(self, trained, workspace, tmp_path):
        out = tmp_path / "eval"
        code = run(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--data", workspace["csv"], "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "eval"
        assert report["n_rows"] == 600
        assert 0.0 <= report["metrics"]["auc"] <= 1.0


class TestSweeps:
    def test_sweep_lr_rows(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep-lr", "--config", workspace["config"],
                    "--data", workspace["csv"], "--out", str(out),
                    "--lrs", "0.01,0.001", "--seed", "3"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "sweep-lr"
        assert [row["lr"] for row in report["rows"]] == [0.01, 0.001]

    def test_sweep_opt_grid(self, workspace, tmp_path):
        out = tmp_path / "sweepopt"
        code = run(["sweep-opt", "--config", workspace["config"],
                    "--data", workspace["csv"], "--out", str(out),
                    "--lrs", "0.01", "--optimizers", "sgd,adam", "--seed", "3"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        combos = {(r["optimizer"], r["lr"]) for r in report["rows"]}
        assert combos == {("sgd", 0.01), ("adam", 0.01)}


class TestAblate:
    def test_fixed_row_set(self, workspace, tmp_path):
        out = tmp_path / "abl"
        code = run(["ablate", "--config", workspace["config"],
                    "--data", workspace["csv"], "--out", str(out), "--seed", "3"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["variant"] for r in report["rows"]] == [
            "cnn_only", "transformer_only", "hybrid"]


class TestImportance:
    def test_artifacts(self, trained, workspace, tmp_path):
        out = tmp_path / "imp"
        code = run(["importance", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--data", workspace["csv"], "--out", str(out),
                    "--repeats", "2", "--seed", "0"])
        assert code == 0
        csv_lines = (out / "importance.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "feature,mean_drop,std_drop"
        assert len(csv_lines) == 7
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "importance"
        assert len(report["features"]) == 6


class TestReportCommand:
    def test_prints_train_summary(self, trained, capsys):
        assert run(["report", "--run", str(trained)]) == 0
        out = capsys.readouterr().out
        assert "test" in out and "auc=" in out

    def test_missing_report_is_data_error(self, tmp_path):
        assert run(["report", "--run", str(tmp_path)]) == 2


class TestExitCodes:
    def test_unknown_flag(self):
        assert run(["train", "--nope"]) == 1

    def test_no_subcommand(self):
        assert run([]) == 1

    def test_missing_data_file(self, workspace, tmp_path):
        assert run(["train", "--config", workspace["config"],
                    "--data", "/no/such/file.csv",
                    "--out", str(tmp_path / "x")]) == 2

    def test_no_data_source(self, workspace, tmp_path, monkeypatch):
        monkeypatch.delenv("CREDITNET_DATA_DIR", raising=False)
        assert run(["train", "--config", workspace["config"],
                    "--out", str(tmp_path / "x")]) == 1

    def test_bad_config_json(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["train", "--config", str(bad), "--data", workspace["csv"],
                    "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_divergence(self, workspace, tmp_path):
        cfg = dict(FAST_CONFIG)
        cfg["train"] = {"epochs": 10, "optimizer": "sgd",
                        "learning_rate": 1e170, "early_stop": None}
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        assert run(["train", "--config", str(path), "--data", workspace["csv"],
                    "--out", str(tmp_path / "x")]) == 3

    def test_schema_error_for_missing_label(self, workspace, tmp_path):
        cfg = {**FAST_CONFIG, "schema": {"label_column": "absent",
                                         "feature_columns": ["f0", "f1"]}}
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(cfg))
        assert run(["train", "--config", str(path), "--data", workspace["csv"],
                    "--out", str(tmp_path / "x")]) == 2


def _set_cell(csv_text, line, column, value):
    """``csv_text`` with the cell at 1-based file ``line`` and header ``column`` replaced."""
    lines = csv_text.split("\n")
    col = lines[0].split(",").index(column)
    cells = lines[line - 1].split(",")
    cells[col] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def _transpose_first(params):
    first = {**params[0], "shape": params[0]["shape"][::-1]}
    return [first, *params[1:]]


DROP = object()


def _set_header(header, path, value):
    """A copy of a checkpoint header with the nested key ``path`` set to
    ``value``, or removed when ``value`` is ``DROP``."""
    header = json.loads(json.dumps(header))
    *parents, last = path
    node = header
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return header


RATE = "float in (0, 1)"  # how a message spells a bound in the open interval

# (case, where the fault goes, the change, exit code, stderr fragment)
FAULTS = [
    ("train-key", "config", {"train": {"epoch": 3}}, 1, "unknown TrainConfig key(s) ['epoch']"),
    ("model-key", "config", {"model": {"dembed": 3}}, 1, "unknown ModelConfig key(s) ['dembed']"),
    ("unknown-variant", "config", {"model": {"variant": "linear"}}, 1,
     "unknown variant 'linear'; expected ('hybrid', 'cnn_only', 'transformer_only', "
     "'logistic')"),
    ("conv-key", "config", {"model": {"conv": {"chanels": 4}}}, 1, "ConvSpec key(s) ['chanels']"),
    ("attn-key", "config", {"model": {"attn": {"heads": 2}}}, 1, "AttnSpec key(s) ['heads']"),
    ("early-stop-key", "config", {"train": {"early_stop": {"patiense": 3}}}, 1,
     "EarlyStop key(s) ['patiense']"),
    ("winsor-quantile", "config", {"winsorize": {"upper_quantile": 0.99}}, 1,
     "missing winsorize key(s) ['lower_quantile']"),
    ("top-level-key", "config", {"trian": {"epochs": 1}}, 1,
     "unknown config key(s) ['trian']; allowed: model, train, schema, split, winsorize, data"),
    ("data-key", "config", {"data": {"subsampel": 100}}, 1,
     "unknown data key(s) ['subsampel']; allowed: subsample, subsample_seed"),
    ("winsorize-key", "config", {"winsorize": {"lowr": 0.01, "upper_quantile": 0.99}}, 1,
     "unknown winsorize key(s) ['lowr']; allowed: lower_quantile, upper_quantile"),
    ("string-subsample", "config", {"data": {"subsample": "abc"}}, 1,
     "subsample must be Optional[int >= 1], got 'abc'"),
    ("negative-subsample", "config", {"data": {"subsample": -5}}, 1,
     "subsample must be Optional[int >= 1], got -5"),
    ("fractional-subsample", "config", {"data": {"subsample": 2.5}}, 1,
     "subsample must be Optional[int >= 1], got 2.5"),
    ("string-subsample-seed", "config", {"data": {"subsample_seed": "x"}}, 1,
     "data key 'subsample_seed' must be int, got 'x'"),
    ("string-quantile", "config",
     {"winsorize": {"lower_quantile": "abc", "upper_quantile": 0.99}}, 1,
     "winsorize key 'lower_quantile' must be float, got 'abc'"),
    ("negative-pos-weight", "config", {"train": {"epochs": 2, "pos_weight": -1}}, 1,
     "TrainConfig key 'pos_weight' must be float > 0 and finite, got -1"),
    ("zero-adam-eps", "config", {"train": {"epochs": 2, "adam_eps": 0}}, 1,
     "TrainConfig key 'adam_eps' must be float > 0 and finite, got 0"),
    ("nan-learning-rate", "config", {"train": {"epochs": 2, "learning_rate": float("nan")}},
     1, "TrainConfig key 'learning_rate' must be float > 0 and finite, got nan"),
    ("string-epochs", "config", {"train": {"epochs": "2"}}, 1,
     "TrainConfig key 'epochs' must be int >= 1, got '2'"),
    ("string-d-embed", "config", {"model": {"d_embed": "abc"}}, 1,
     "ModelConfig key 'd_embed' must be int >= 1, got 'abc'"),
    ("split-key", "config", {"split": {"fraction": [0.5, 0.25, 0.25]}}, 1,
     "unknown SplitSpec key(s) ['fraction']; allowed: fractions, seed, stratified"),
    ("schema-key", "config", {"schema": {"label": "label"}}, 1,
     "unknown SchemaConfig key(s) ['label']; allowed: label_column, feature_columns, "
     "missing_markers, imputation"),
    ("negative-model-seed", "config", {"model": {"seed": -1}}, 1,
     "ModelConfig key 'seed' must be int >= 0, got -1"),
    ("negative-train-seed", "config", {"train": {"epochs": 2, "seed": -1}}, 1,
     "TrainConfig key 'seed' must be int >= 0, got -1"),
    ("negative-split-seed", "config", {"split": {"seed": -1}}, 1,
     "SplitSpec key 'seed' must be int >= 0, got -1"),
    ("negative-subsample-seed", "config", {"data": {"subsample": 100, "subsample_seed": -1}},
     1, "subsample seed must be int >= 0, got -1"),
    ("string-imputation-value", "config",
     {"schema": {"imputation": {"kind": "constant", "value": "abc"}}}, 1,
     "ConstantFill key 'value' must be finite float, got 'abc'"),
    ("nan-imputation-value", "config",
     {"schema": {"imputation": {"kind": "constant", "value": float("nan")}}}, 1,
     "ConstantFill key 'value' must be finite float, got nan"),
    ("imputation-object-key", "config",
     {"schema": {"imputation": {"kind": "constant", "valu": 5}}}, 1,
     "unknown ConstantFill key(s) ['valu']; allowed: value, kind"),
    ("imputation-object-kind", "config",
     {"schema": {"imputation": {"kind": "median", "value": 5}}}, 1,
     "ConstantFill kind must be 'constant', got 'median'"),
    ("number-imputation", "config", {"schema": {"imputation": 5}}, 1,
     "SchemaConfig key 'imputation' must be Union[str, ConstantFill], got 5"),
    ("string-missing-markers", "config", {"schema": {"missing_markers": "NA"}}, 1,
     "SchemaConfig key 'missing_markers' must be Optional[tuple[str, ...]], got 'NA'"),
    ("string-feature-columns", "config", {"schema": {"feature_columns": "f0"}}, 1,
     "SchemaConfig key 'feature_columns' must be tuple[str, ...], got 'f0'"),
    ("int-label-column", "config", {"schema": {"label_column": 5}}, 1,
     "SchemaConfig key 'label_column' must be str, got 5"),
    ("string-mlp-hidden", "config", {"model": {"mlp_hidden": "ab"}}, 1,
     "ModelConfig key 'mlp_hidden' must be tuple[int >= 1, ...], got 'ab'"),
    ("string-model-seed", "config", {"model": {"seed": "a"}}, 1,
     "ModelConfig key 'seed' must be int >= 0, got 'a'"),
    ("number-conv", "config", {"model": {"conv": 2}}, 1,
     "ModelConfig key 'conv' must be ConvSpec, got 2"),
    ("string-split-seed", "config", {"split": {"seed": "a"}}, 1,
     "SplitSpec key 'seed' must be int >= 0, got 'a'"),
    ("string-fractions", "config", {"split": {"fractions": "abc"}}, 1,
     f"SplitSpec key 'fractions' must be tuple[{RATE}, {RATE}, {RATE}], got 'abc'"),
    ("string-patience", "config", {"train": {"early_stop": {"patience": "a"}}}, 1,
     "EarlyStop key 'patience' must be int >= 1, got 'a'"),
    ("fractional-epochs", "config", {"train": {"epochs": 2.5}}, 1,
     "TrainConfig key 'epochs' must be int >= 1, got 2.5"),
    ("bool-batch-size", "config", {"train": {"batch_size": True}}, 1,
     "TrainConfig key 'batch_size' must be int >= 1, got True"),
    ("zero-conv-channels", "config", {"model": {"conv": {"channels": 0}}}, 1,
     "ConvSpec key 'channels' must be int >= 1, got 0"),
    ("zero-attn-heads", "config", {"model": {"attn": {"n_heads": 0}}}, 1,
     "AttnSpec key 'n_heads' must be int >= 1, got 0"),
    ("zero-mlp-width", "config", {"model": {"mlp_hidden": [8, 0]}}, 1,
     "ModelConfig key 'mlp_hidden' must be tuple[int >= 1, ...], got [8, 0]"),
    ("zero-patience", "config", {"train": {"early_stop": {"patience": 0}}}, 1,
     "EarlyStop key 'patience' must be int >= 1, got 0"),
    ("unit-beta1", "config", {"train": {"beta1": 1.0}}, 1,
     f"TrainConfig key 'beta1' must be {RATE}, got 1.0"),
    ("zero-fraction", "config", {"split": {"fractions": [0.0, 0.5, 0.5]}}, 1,
     f"SplitSpec key 'fractions' must be tuple[{RATE}, {RATE}, {RATE}], got [0.0, 0.5, 0.5]"),
    ("fractional-label", "csv", (5, "label", "0.5"), 2,
     "line 5, column 'label': label must be 0 or 1, got 0.5"),
    ("inf-cell", "csv", (7, "f2", "inf"), 2, "line 7, column 'f2': non-finite value, got inf"),
    ("oversized-cell", "csv", (7, "f2", "1" * 200_000), 2,
     "line 7: field larger than field limit (131072)"),
    ("eval-missing-checkpoint", "no-checkpoint", "eval", 1, "cannot read checkpoint"),
    ("importance-missing-checkpoint", "no-checkpoint", "importance", 1,
     "cannot read checkpoint"),
    ("trailing-bytes", "checkpoint", lambda h, p: (h, p + bytes(16)), 1, "payload is"),
    ("version-99", "checkpoint", lambda h, p: ({**h, "version": 99}, p), 1,
     "unsupported checkpoint version 99"),
    ("dropped-parameter", "checkpoint", lambda h, p: ({**h, "params": h["params"][1:]}, p), 1,
     "where its config expects ('embed.weight'"),
    ("transposed-shape", "checkpoint",
     lambda h, p: ({**h, "params": _transpose_first(h["params"])}, p), 1,
     "lists parameter ('embed.weight', [4, 6]) where its config expects ('embed.weight', [6, 4])"),
    ("preprocess-without-impute", "checkpoint",
     lambda h, p: (_set_header(h, ("preprocess", "impute"), DROP), p), 1,
     "config error: missing PreprocessStats key(s) ['impute']"),
    ("string-fill-values", "checkpoint",
     lambda h, p: (_set_header(h, ("preprocess", "impute", "fill_values"), "abc"), p), 1,
     "config error: ImputeStats key 'fill_values' must be ndarray, got 'abc'"),
    ("preprocess-is-a-list", "checkpoint",
     lambda h, p: (_set_header(h, ("preprocess",), [1, 2]), p), 1,
     "config error: PreprocessStats must be a JSON object, got [1, 2]"),
    ("extra-is-a-list", "checkpoint", lambda h, p: (_set_header(h, ("extra",), [1, 2]), p), 1,
     "key 'extra' must be dict, got [1, 2]"),
    ("extra-schema-is-a-list", "checkpoint",
     lambda h, p: (_set_header(h, ("extra", "schema"), [1, 2]), p), 1,
     "extra key 'schema' must be Optional[dict], got [1, 2]"),
    ("header-is-a-list", "checkpoint", lambda h, p: ([1, 2], p), 1,
     "config error: unrecognized checkpoint format in "),
    ("header-without-config", "checkpoint",
     lambda h, p: (_set_header(h, ("config",), DROP), p), 1,
     "config error: missing CheckpointHeader key(s) ['config']"),
    ("params-is-a-number", "checkpoint", lambda h, p: ({**h, "params": 5}, p), 1,
     "config error: CheckpointHeader key 'params' must be tuple[ParamEntry, ...], got 5"),
    ("params-of-numbers", "checkpoint", lambda h, p: ({**h, "params": [1, 2]}, p), 1,
     "config error: ParamEntry must be a JSON object, got 1"),
    ("std-shorter-than-mean", "checkpoint",
     lambda h, p: (_set_header(h, ("preprocess", "standardize", "std"),
                               h["preprocess"]["standardize"]["std"][:-1]), p), 1,
     "config error: StandardizeStats mean has shape (6,) but std has shape (5,)"),
    ("report-not-json", "report", '{"kind": "train"', 1, "report.json is not valid JSON: "),
    ("train-report-without-final", "report", '{"kind": "train"}', 1,
     "report.json has no key 'final'"),
]


def _splice_five_features(header):
    """A copy of a six-feature checkpoint header whose preprocessing statistics
    and schema are cut to the first five features, as a five-feature run
    writes them; its config still builds a six-feature model."""
    header = json.loads(json.dumps(header))
    impute, standardize = header["preprocess"]["impute"], header["preprocess"]["standardize"]
    for stats, key in ((impute, "fill_values"), (standardize, "mean"), (standardize, "std")):
        stats[key] = stats[key][:5]
    schema = header["extra"]["schema"]
    schema["feature_columns"] = schema["feature_columns"][:5]
    return header


class TestFaults:
    """Every bad input ends as its documented exit code; ``run`` never raises."""

    @pytest.mark.parametrize("command", ["eval", "importance"])
    def test_checkpoint_spliced_from_two_runs_is_a_config_error(self, command, workspace,
                                                                trained, tmp_path, capsys):
        header_line, payload = (trained / "checkpoint.bin").read_bytes().split(b"\n", 1)
        checkpoint = tmp_path / "spliced.bin"
        header = _splice_five_features(json.loads(header_line))
        checkpoint.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert run([command, "--checkpoint", str(checkpoint), "--data", workspace["csv"],
                    "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: checkpoint {checkpoint} preprocessing statistics cover 5 "
            f"features, its model expects 6\n")

    @pytest.mark.parametrize("error", [ShapeError, StateError])
    def test_a_model_refusing_its_input_exits_1(self, error, workspace, trained, tmp_path,
                                                monkeypatch, capsys):
        def refuse(model, X):
            raise error("refused")

        monkeypatch.setattr(cli, "predict_probs", refuse)
        assert run(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--data", workspace["csv"], "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "model error: refused\n"

    @pytest.mark.parametrize("command", ["train", "synth", "importance"])
    def test_negative_seed_flag_is_a_usage_error(self, command, workspace, trained,
                                                 tmp_path, capsys):
        args = {"train": ["--config", workspace["config"], "--data", workspace["csv"]],
                "synth": ["--n", "300"],
                "importance": ["--checkpoint", str(trained / "checkpoint.bin"),
                               "--data", workspace["csv"]]}[command]
        assert run([command, *args, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert "seed must be an integer >= 0, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("where, change, code, fragment",
                             [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
    def test_fault_exit_code(self, where, change, code, fragment,
                             workspace, trained, tmp_path, capsys):
        config, data = workspace["config"], workspace["csv"]
        if where == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({**FAST_CONFIG, **change}))
        elif where == "csv":
            data = tmp_path / "bad.csv"
            with open(workspace["csv"]) as fh:
                data.write_text(_set_cell(fh.read(), *change))
        command = ["train", "--config", str(config)]
        if where == "checkpoint":
            header_line, payload = (trained / "checkpoint.bin").read_bytes().split(b"\n", 1)
            header, payload = change(json.loads(header_line), payload)
            checkpoint = tmp_path / "checkpoint.bin"
            checkpoint.write_bytes(json.dumps(header).encode() + b"\n" + payload)
            command = ["eval", "--checkpoint", str(checkpoint)]
        elif where == "no-checkpoint":
            command = [change, "--checkpoint", str(tmp_path / "nope.bin")]
        argv = [*command, "--data", str(data), "--out", str(tmp_path / "out")]
        if where == "report":
            (tmp_path / "report.json").write_text(change)
            argv = ["report", "--run", str(tmp_path)]
        assert run(argv) == code
        assert fragment in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_a_config_error_naming_it(self, workspace,
                                                                     tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff{}")
        assert run(["train", "--config", str(config), "--data", workspace["csv"],
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {config} is not valid JSON: ")

    @pytest.mark.parametrize("case", ["train-out-is-a-file", "checkpoint-is-a-directory",
                                      "synth-out-is-a-directory"])
    def test_unwritable_output_path_exits_1_naming_it(self, case, workspace, tmp_path,
                                                      capsys):
        train = ["train", "--config", workspace["config"], "--data", workspace["csv"]]
        if case == "train-out-is-a-file":
            bad = tmp_path / "taken"
            bad.write_text("")
            argv = [*train, "--out", str(bad)]
        elif case == "checkpoint-is-a-directory":
            bad = tmp_path / "run" / "checkpoint.bin"
            bad.mkdir(parents=True)
            argv = [*train, "--out", str(bad.parent)]
        else:
            bad = tmp_path
            argv = ["synth", "--n", "200", "--out", str(bad)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"path error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["report.json", "curves.csv", "checkpoint.bin",
                                      "manifest.json"])
    def test_train_output_in_the_way_fails_before_training(self, name, workspace, tmp_path,
                                                           capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran although an output cannot be written")

        monkeypatch.setattr(cli, "train", no_training)
        bad = tmp_path / "run" / name
        bad.mkdir(parents=True)
        assert run(["train", "--config", workspace["config"], "--data", workspace["csv"],
                    "--out", str(bad.parent)]) == 1
        assert capsys.readouterr().err == f"path error: {bad}: Is a directory\n"
        assert [p.name for p in bad.parent.iterdir()] == [name]

    @pytest.mark.parametrize("name", ["report.json", "manifest.json"])
    @pytest.mark.parametrize("command", ["sweep-lr", "sweep-opt", "ablate"])
    def test_row_command_output_in_the_way_fails_before_any_fit(
            self, command, name, workspace, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError(f"{command} fitted although an output cannot be written")

        monkeypatch.setattr(training, "_fit", no_fit)
        bad = tmp_path / "run" / name
        bad.mkdir(parents=True)
        assert run([command, "--config", workspace["config"], "--data", workspace["csv"],
                    "--out", str(bad.parent)]) == 1
        assert capsys.readouterr().err == f"path error: {bad}: Is a directory\n"
        assert [p.name for p in bad.parent.iterdir()] == [name]
