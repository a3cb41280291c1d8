"""Records check their field types where they are built, and the package's
public entry points end every bad argument as a typed ``CreditNetError``."""

import math
import os
import re
import tempfile
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import creditnet as cn  # noqa: E402
from creditnet.errors import ConfigError, CreditNetError, DataError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# a value of the wrong type given to a record directly
# ---------------------------------------------------------------------------

# (record class, keyword arguments, field the message must name)
PROBES = [
    (cn.ModelConfig, {"n_features": "a"}, "n_features"),
    (cn.ModelConfig, {"n_features": 10, "mlp_hidden": "ab"}, "mlp_hidden"),
    (cn.ModelConfig, {"n_features": 10, "seed": "a"}, "seed"),
    (cn.SplitSpec, {"seed": "a"}, "seed"),
    (cn.EarlyStop, {"patience": "a"}, "patience"),
    (cn.ModelConfig, {"n_features": 10, "conv": {"channels": 2}}, "conv"),
    (cn.SplitSpec, {"fractions": "abc"}, "fractions"),
    (cn.TrainConfig, {"epochs": 2.5}, "epochs"),
    (cn.SchemaConfig, {"label_column": 5, "feature_columns": ("a",)}, "label_column"),
    (cn.TrainConfig, {"batch_size": True}, "batch_size"),
    (cn.ModelConfig, {"n_features": 10.0}, "n_features"),
    (cn.ModelConfig, {"n_features": 10, "attn": {"n_heads": 2}}, "attn"),
    (cn.TrainConfig, {"early_stop": {"patience": 3}}, "early_stop"),
    (cn.PreprocessStats, {"impute": {"fill_values": [0.0], "fitted_on": "train"},
                          "standardize": None}, "impute"),
    (cn.SynthSpec, {"linear": (1.0, None)}, "linear"),
    (cn.SynthSpec, {"pairs": ((0, 1, "a"),)}, "pairs"),
    (cn.ConstantFill, {"value": "abc"}, "value"),
    (cn.SchemaConfig, {"label_column": "y", "feature_columns": ("a",),
                       "imputation": {"kind": "constant", "value": 1.0}}, "imputation"),
    (cn.ImportanceReport, {"metric": "auc", "baseline": 0.5, "repeats": 1,
                           "features": ({"feature": "a"},)}, "features"),
    (cn.ImportanceReport, {"metric": "auc", "baseline": 0.5, "repeats": "1",
                           "features": ()}, "repeats"),
    (cn.importance.FeatureImportance, {"feature": "a", "mean_drop": None, "std_drop": 0.0},
     "mean_drop"),
]


@pytest.mark.parametrize("cls, kwargs, key", PROBES,
                         ids=[f"{p[0].__name__}-{p[2]}-{p[1][p[2]]!r}" for p in PROBES])
def test_record_built_with_a_mistyped_field_is_a_config_error_naming_it(cls, kwargs, key):
    with pytest.raises(ConfigError, match=f"^{cls.__name__} key '{key}' must be "):
        cls(**kwargs)


@pytest.mark.parametrize("cls, fields", [
    (cn.SchemaConfig, {"label_column": "label", "feature_columns": ["a", "b"]}),
    (cn.SplitSpec, {"fractions": [0.5, 0.25, 0.25]}),
    (cn.ModelConfig, {"n_features": 10, "mlp_hidden": [32]}),
])
def test_record_stores_a_list_for_a_tuple_field_as_a_tuple(cls, fields):
    record = cls(**fields)
    assert record == cls(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in fields.items()})
    hash(record)


def test_array_field_given_a_list_directly_is_a_config_error():
    """``from_dict`` reads a JSON list of numbers as a float64 array; a list
    given to the constructor is rejected, not coerced."""
    with pytest.raises(ConfigError, match="^ImputeStats key 'fill_values' must be finite ndarray"):
        cn.data.ImputeStats([0.0, 1.0], "train")
    stats = cn.data.ImputeStats.from_dict({"fill_values": [0.0, 1.0], "fitted_on": "train"})
    assert stats.fill_values.dtype == np.float64


def test_records_build_the_way_the_benchmark_builds_them():
    """``bench/workloads.py`` builds these records and reads these JSON forms."""
    model_cfg = cn.ModelConfig(n_features=10)
    train_cfg = cn.TrainConfig(optimizer="adam", batch_size=128, epochs=2, seed=2**63 + 5,
                               early_stop=cn.EarlyStop(patience=2))
    spec = cn.SplitSpec((0.6, 0.1, 0.3), seed=2**64 - 1)
    assert spec.fractions == (0.6, 0.1, 0.3)
    names = tuple(f"f{i}" for i in range(10))
    assert cn.SchemaConfig("label", names).feature_columns == names
    gmsc = cn.SchemaConfig.from_json(ROOT / "data" / "gmsc_schema.json")
    assert gmsc.label_column == "SeriousDlqin2yrs" and len(gmsc.feature_columns) == 10
    assert model_cfg.to_dict()["mlp_hidden"] == [32]
    assert train_cfg.to_dict()["early_stop"] == {"metric": "val_auc", "patience": 2}
    assert cn.ModelConfig(10, mlp_hidden=[32]) == model_cfg

    frame, _ = cn.synth_generate(400, 10, 3, cn.synth_preset("linear", 10))
    splits, stats = cn.prepare_splits(frame, cn.SchemaConfig("label", names), spec)
    assert cn.PreprocessStats.from_dict(stats.to_dict()).to_dict() == stats.to_dict()
    record = cn.evaluate_scores(np.linspace(0, 1, splits.test.n_rows), splits.test.y)
    assert record.to_dict() == {"acc": record.acc, "auc": record.auc, "ks": record.ks,
                                "n_pos": record.n_pos, "n_neg": record.n_neg}
    model = cn.Model(cn.ModelConfig(10, variant="logistic"))
    report = cn.permutation_importance(model, splits.test, repeats=1, seed=5)
    assert '"features"' in report.to_json()


# ---------------------------------------------------------------------------
# the systematic walk: every exported callable and record class, one argument
# at a time replaced by a hostile value
# ---------------------------------------------------------------------------

# tensor_ops' exports and these model ops take float64 arrays and do not
# coerce them (README: the raw ops' contract), so the walk leaves them out
RAW_OPS = {"attention", "multi_head_attention", "tokenize", "transformer_block"}

MISSING_PATH = Path(tempfile.gettempdir()) / "creditnet-no-such-dir" / "no-such-file"


class _Opaque:
    """An object of no type any argument takes."""

    def __repr__(self):
        return "<opaque>"


HOSTILE = [
    "abc", 2.5, True, _Opaque(), {"a": 1}, [1, "a"],     # wrong types
    math.nan, math.inf, -math.inf,                         # NaN and inf
    np.array([]), np.zeros((2, 3)), np.full(4, np.nan),   # empty or mismatched arrays
    -1, None, MISSING_PATH, "a\0b",                        # negative, None, missing or bad path
]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One valid argument set per exported callable: tiny inputs, so a
    hostile value that is accepted costs milliseconds."""
    tmp = tmp_path_factory.mktemp("walk")
    frame, logits = cn.synth_generate(120, 4, 0, cn.synth_preset("linear", 4))
    schema = cn.SchemaConfig("label", frame.feature_names)
    spec = cn.SplitSpec(seed=1)
    splits, stats = cn.prepare_splits(frame, schema, spec)
    model_cfg = cn.ModelConfig(4, d_embed=2, conv=cn.ConvSpec(2, 2, 1, 2, 1),
                               attn=cn.AttnSpec(1, 2, 1), ffn_dim=2, mlp_hidden=(2,))
    train_cfg = cn.TrainConfig(epochs=1, batch_size=64, early_stop=None)
    model = cn.Model(model_cfg)
    csv = tmp / "walk.csv"
    rows = [",".join([*frame.feature_names, "label"])]
    rows += [",".join([*map(repr, x.tolist()), str(y)]) for x, y in zip(frame.X, frame.y)]
    csv.write_text("\n".join(rows) + "\n")
    ckpt = tmp / "walk.ckpt"
    cn.save_checkpoint(ckpt, model, preprocess=stats.to_dict())
    probs = cn.predict_probs(model, splits.test.X)
    y = splits.test.y
    state = cn.AdamState()
    metric = cn.evaluate_scores(probs, y)
    cases = {
        # records and classes
        "MetricsRecord": (cn.MetricsRecord, dict(acc=0.5, auc=0.5, ks=0.1, n_pos=1, n_neg=1)),
        "RocCurve": (cn.RocCurve, dict(fpr=np.zeros(2), tpr=np.ones(2))),
        "FeatureFrame": (cn.FeatureFrame, dict(feature_names=("a", "b"), X=np.zeros((3, 2)),
                                               y=np.array([0, 1, 0]))),
        "PreprocessStats": (cn.PreprocessStats, dict(impute=stats.impute,
                                                     standardize=stats.standardize,
                                                     winsor=None)),
        "ConstantFill": (cn.ConstantFill, dict(value=0.0, kind="constant")),
        "SchemaConfig": (cn.SchemaConfig, dict(label_column="label", feature_columns=("a",),
                                               missing_markers=("NA",),
                                               imputation=cn.ConstantFill(1.5))),
        "SchemaConfig.from_json": (cn.SchemaConfig.from_json,
                                   dict(path=ROOT / "data" / "gmsc_schema.json")),
        "SchemaConfig.from_dict": (cn.SchemaConfig.from_dict, dict(d=schema.to_dict())),
        "SplitSpec": (cn.SplitSpec, dict(fractions=(0.7, 0.15, 0.15), seed=0, stratified=True)),
        "Splits": (cn.Splits, dict(train=splits.train, val=splits.val, test=splits.test)),
        "SynthSpec": (cn.SynthSpec, dict(linear=(1.0,), pairs=((0, 3, 2.0),),
                                         motifs=((1, 2, 3.0),))),
        "AttnSpec": (cn.AttnSpec, dict(n_heads=1, d_model=2, n_blocks=1, layer_norm=True)),
        "ConvSpec": (cn.ConvSpec, dict(channels=2, kernel=2, stride=1, pool_window=2,
                                       pool_stride=1)),
        "ModelConfig": (cn.ModelConfig, dict(n_features=4, variant="hybrid", d_embed=2,
                                             conv=model_cfg.conv, attn=model_cfg.attn,
                                             ffn_dim=2, mlp_hidden=(2,), activation="relu",
                                             seed=0)),
        "ModelConfig.from_dict": (cn.ModelConfig.from_dict, dict(d=model_cfg.to_dict())),
        "Model": (cn.Model, dict(config=model_cfg)),
        "Model.forward": (model.forward, dict(batch=splits.test.X, trace=True)),
        "Model.backward": (model.backward, dict(trace=model.forward(splits.test.X)[1],
                                                grad_probs=np.ones_like(probs))),
        "ParamStore.add": (cn.ParamStore().add, dict(name="w", value=np.zeros(2))),
        "AdamState": (cn.AdamState, dict(beta1=0.9, beta2=0.999, eps=1e-8)),
        "EarlyStop": (cn.EarlyStop, dict(metric="val_auc", patience=2)),
        "RunReport": (cn.RunReport, dict(config_hash="x", model_config={}, train_config={},
                                         epochs_run=1, best_epoch=None, curves={},
                                         final={})),
        "TrainConfig": (cn.TrainConfig, dict(optimizer="adam", learning_rate=1e-3,
                                             batch_size=64, epochs=1, seed=0, beta1=0.9,
                                             beta2=0.999, adam_eps=1e-8, shuffle=True,
                                             early_stop=None, pos_weight=1.0)),
        "ImportanceReport": (cn.ImportanceReport, dict(
            metric="auc", baseline=0.5, repeats=1,
            features=(cn.importance.FeatureImportance("a", 0.25, 0.0),))),
        # metrics
        "accuracy": (cn.accuracy, dict(scores=probs, labels=y, threshold=0.5)),
        "auc": (cn.auc, dict(scores=probs, labels=y)),
        "ks": (cn.ks, dict(scores=probs, labels=y)),
        "roc_points": (cn.roc_points, dict(scores=probs, labels=y)),
        "evaluate_scores": (cn.evaluate_scores, dict(scores=probs, labels=y, threshold=0.5)),
        "MetricsRecord.to_dict": (metric.to_dict, {}),
        # data
        "apply_preprocess": (cn.apply_preprocess, dict(frame=frame, stats=stats)),
        "impute": (cn.impute, dict(frame=frame, stats=stats.impute)),
        "load_csv": (cn.load_csv, dict(path=csv, schema=schema, subsample=50, seed=0)),
        "prepare_splits": (cn.prepare_splits, dict(frame=frame, schema=schema, spec=spec,
                                                   winsor_quantiles=(0.01, 0.99))),
        "split": (cn.split, dict(frame=frame, spec=spec)),
        "standardize_apply": (cn.standardize_apply, dict(frame=splits.test,
                                                         stats=stats.standardize)),
        "standardize_fit": (cn.standardize_fit, dict(frame=splits.train)),
        "synth_generate": (cn.synth_generate, dict(n=100, n_features=4, seed=0,
                                                   spec=cn.synth_preset("linear", 4))),
        "synth_preset": (cn.synth_preset, dict(name="local-and-long", n_features=4)),
        # model
        "load_checkpoint": (cn.load_checkpoint, dict(path=ckpt)),
        "save_checkpoint": (cn.save_checkpoint, dict(path=tmp / "out.ckpt", model=model,
                                                     preprocess=stats.to_dict(),
                                                     extra={"a": 1})),
        # training
        "ablate": (cn.ablate, dict(model_cfg=model_cfg, train_cfg=train_cfg, splits=splits)),
        "adam_step": (cn.adam_step, dict(params=cn.model.build(model_cfg)[0], lr=1e-3,
                                         state=state)),
        "bce_loss": (cn.bce_loss, dict(probs=probs, labels=y, pos_weight=1.0)),
        "evaluate": (cn.evaluate, dict(model=model, frame=splits.test, pos_weight=1.0,
                                       probs=None)),
        "predict_probs": (cn.predict_probs, dict(model=model, X=splits.test.X)),
        "sgd_step": (cn.sgd_step, dict(params=cn.model.build(model_cfg)[0], lr=1e-3)),
        "sweep_lr": (cn.sweep_lr, dict(model_cfg=model_cfg, base_train_cfg=train_cfg,
                                       lrs=[1e-3], splits=splits)),
        "sweep_optimizer": (cn.sweep_optimizer, dict(model_cfg=model_cfg,
                                                     base_train_cfg=train_cfg, lrs=[1e-3],
                                                     splits=splits, optimizers=("sgd",))),
        "train": (cn.train, dict(model_cfg=model_cfg, train_cfg=train_cfg, splits=splits)),
        # importance
        "permutation_importance": (cn.permutation_importance,
                                   dict(model=model, frame=splits.test, metric="auc",
                                        repeats=1, seed=0)),
    }
    for name, (fn, kwargs) in cases.items():
        fn(**kwargs)  # every baseline call is valid
    # a trace serves one backward: the walk gets one the baseline call left
    # unconsumed, so the grad_probs it refuses meet the shape and value checks
    cases["Model.backward"][1]["trace"] = model.forward(splits.test.X)[1]
    return cases


CASES = [
    "AdamState", "AttnSpec", "ConstantFill", "ConvSpec", "EarlyStop", "FeatureFrame",
    "ImportanceReport",
    "MetricsRecord", "MetricsRecord.to_dict", "Model", "Model.backward", "Model.forward",
    "ModelConfig", "ModelConfig.from_dict",
    "ParamStore.add", "PreprocessStats", "RocCurve", "RunReport", "SchemaConfig",
    "SchemaConfig.from_dict", "SchemaConfig.from_json", "SplitSpec", "Splits", "SynthSpec",
    "TrainConfig", "ablate", "accuracy", "adam_step", "apply_preprocess", "auc", "bce_loss",
    "evaluate", "evaluate_scores", "impute", "ks", "load_checkpoint",
    "load_csv", "permutation_importance", "predict_probs", "prepare_splits", "roc_points",
    "save_checkpoint", "sgd_step", "split", "standardize_apply", "standardize_fit",
    "sweep_lr", "sweep_optimizer", "synth_generate", "synth_preset", "train",
]


def test_the_walk_covers_every_export(world):
    exported = {name for name, value in vars(cn).items()
                if getattr(value, "__module__", "").startswith("creditnet.")
                and value.__module__ not in ("creditnet.tensor_ops", "creditnet.errors")}
    assert sorted(world) == CASES
    assert exported - RAW_OPS == {case.partition(".")[0] for case in CASES}


@pytest.fixture(scope="module")
def scratch_cwd(tmp_path_factory):
    """A hostile string given as a path names a file the call may write
    (``save_checkpoint("abc", ...)``): let it land in a temporary directory."""
    old = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cwd"))
    yield
    os.chdir(old)


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=4, derandomize=True, deadline=None)
@given(drawn=st.one_of(st.integers(max_value=-1), st.text(max_size=3),
                       st.floats().filter(lambda x: not math.isfinite(x))))
def test_every_hostile_argument_ends_as_a_creditnet_error(world, scratch_cwd, case, drawn):
    """Each argument of ``case``, in turn, gets every hostile value and one
    drawn value; whatever escapes must be a ``CreditNetError``."""
    fn, kwargs = world[case]
    for arg in kwargs:
        for value in [*HOSTILE, drawn]:
            try:
                fn(**{**kwargs, arg: value})
            except CreditNetError:
                pass
    assert issubclass(DataError, ValueError)


def test_every_hostile_argument_to_a_winsorize_step_is_a_config_error(world):
    """``winsorize_fit`` and ``winsorize_apply`` are not exported, so the walk
    does not reach them; each hostile value is refused by a hint or, for a
    quantile of the right type, by the quantile rule."""
    frame = world["standardize_fit"][1]["frame"]
    stats = cn.data.winsorize_fit(frame, 0.01, 0.99)
    for fn, kwargs in ((cn.data.winsorize_fit, dict(frame=frame, lower_q=0.01, upper_q=0.99)),
                       (cn.data.winsorize_apply, dict(frame=frame, stats=stats))):
        fn(**kwargs)
        for arg in kwargs:
            for value in HOSTILE:
                with pytest.raises(ConfigError):
                    fn(**{**kwargs, arg: value})


# ---------------------------------------------------------------------------
# bounded numbers: every record field and library argument whose hint holds
# a range refuses each value at or past its edges
# ---------------------------------------------------------------------------

COUNT, SEED, POSITIVE, RATE = "int >= 1", "int >= 0", "float > 0 and finite", "float in (0, 1)"
FINITE, FINITE_REAL = "finite float", "finite Real"
FRACTIONS = f"tuple[{RATE}, {RATE}, {RATE}]"
COEFFS, TRIPLES = f"tuple[{FINITE}, ...]", f"tuple[tuple[int, int, {FINITE}], ...]"

# (case, argument) -> the bound as messages spell it
BOUNDED = {
    **{("ConvSpec", f): COUNT for f in ("channels", "kernel", "stride", "pool_window",
                                       "pool_stride")},
    **{("AttnSpec", f): COUNT for f in ("n_heads", "d_model", "n_blocks")},
    **{("ModelConfig", f): COUNT for f in ("n_features", "d_embed", "ffn_dim")},
    ("ModelConfig", "mlp_hidden"): "tuple[int >= 1, ...]",
    ("ModelConfig", "seed"): SEED,
    ("EarlyStop", "patience"): COUNT,
    ("TrainConfig", "learning_rate"): POSITIVE,
    ("TrainConfig", "batch_size"): COUNT,
    ("TrainConfig", "epochs"): COUNT,
    ("TrainConfig", "seed"): SEED,
    ("TrainConfig", "beta1"): RATE,
    ("TrainConfig", "beta2"): RATE,
    ("TrainConfig", "adam_eps"): POSITIVE,
    ("TrainConfig", "pos_weight"): POSITIVE,
    ("SplitSpec", "fractions"): FRACTIONS,
    ("SplitSpec", "seed"): SEED,
    ("AdamState", "beta1"): RATE,
    ("AdamState", "beta2"): RATE,
    ("AdamState", "eps"): POSITIVE,
    ("bce_loss", "pos_weight"): POSITIVE,
    ("evaluate", "pos_weight"): POSITIVE,
    ("sgd_step", "lr"): POSITIVE,
    ("adam_step", "lr"): POSITIVE,
    ("permutation_importance", "repeats"): COUNT,
    ("permutation_importance", "seed"): SEED,
    ("synth_generate", "n"): "int >= 100",
    ("synth_generate", "n_features"): COUNT,
    ("synth_generate", "seed"): SEED,
    ("load_csv", "subsample"): "Optional[int >= 1]",
    ("load_csv", "seed"): SEED,
    ("ConstantFill", "value"): FINITE,
    ("SynthSpec", "linear"): COEFFS,
    ("SynthSpec", "pairs"): TRIPLES,
    ("SynthSpec", "motifs"): TRIPLES,
    ("accuracy", "threshold"): FINITE_REAL,
    ("evaluate_scores", "threshold"): FINITE_REAL,
    ("sweep_lr", "lrs"): f"tuple[{POSITIVE}, ...]",
    ("sweep_optimizer", "lrs"): f"tuple[{POSITIVE}, ...]",
}

# values at or past each bound's edges: k - 1, 0, -1, NaN, inf, 1 for the
# open interval, and the bool that equals the edge; a finite number's edges
# are NaN, the infinities and an int beyond float64's range
EDGES = {
    COUNT: [0, -1, math.nan, math.inf, True],
    SEED: [-1, math.nan, math.inf, False],
    "int >= 100": [99, 0, -1, math.nan, math.inf, True],
    POSITIVE: [0, 0.0, -1, math.nan, math.inf, 10**400, True],
    RATE: [0, 0.0, 1, 1.0, -1, math.nan, math.inf, True],
    "Optional[int >= 1]": [0, -1, math.nan, math.inf, True],
    "tuple[int >= 1, ...]": [(0,), (32, -1), (math.nan,), (True,)],
    FRACTIONS: [(0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (1.5, -0.25, -0.25),
                (math.nan, 0.5, 0.5), (0.5, math.inf, 0.5)],
    FINITE: [math.nan, math.inf, -math.inf, 10**400, True],
    FINITE_REAL: [math.nan, math.inf, -math.inf, 10**400, np.float32(math.nan), True],
    COEFFS: [(math.nan,), (1.0, -math.inf), (10**400,), (True,)],
    TRIPLES: [((0, 1, math.nan),), ((0, 1, 2.0), (1, 2, math.inf)), ((0, 1, True),)],
    f"tuple[{POSITIVE}, ...]": [(0,), (0.01, -1), (math.nan,), (math.inf,), (10**400,),
                                (True,)],
}


def _hinted_arguments(fn, form: str) -> set:
    """The arguments (fields) of ``fn`` whose type hint holds a ``form`` hint."""
    target = fn.__init__ if isinstance(fn, type) and not is_dataclass(fn) else fn
    hints = get_type_hints(target, include_extras=True)
    return {name for name, hint in hints.items() if form in str(hint)}


def test_the_bounded_arguments_are_the_ones_whose_hints_hold_a_range(world):
    declared = {(case, arg) for case in CASES
                for arg in _hinted_arguments(world[case][0], "Annotated")}
    assert declared == set(BOUNDED)


@pytest.mark.parametrize("case, arg", list(BOUNDED), ids=[f"{c}-{a}" for c, a in BOUNDED])
def test_a_value_past_a_bound_is_a_config_error_naming_the_argument(world, case, arg):
    fn, kwargs = world[case]
    bound = BOUNDED[case, arg]
    for value in EDGES[bound]:
        with pytest.raises(ConfigError) as info:
            fn(**{**kwargs, arg: value})
        assert re.fullmatch(rf"(\w+ key '{arg}'|(\w+ )?{arg}) must be {re.escape(bound)}, "
                            rf"got {re.escape(repr(value))}", str(info.value)), str(info.value)


X3 = np.zeros((1, 2, 4))


@pytest.mark.parametrize("call, message", [
    (lambda: cn.tensor_ops.conv1d(X3, np.zeros((1, 2, 2)), np.zeros(1), 0),
     "stride must be int >= 1, got 0"),
    (lambda: cn.tensor_ops.conv1d(X3.tolist(), np.zeros((1, 2, 2)), np.zeros(1)),
     "x must be ndarray, got [[[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]"),
    (lambda: cn.tensor_ops.maxpool1d(X3, window=0, stride=1), "window must be int >= 1, got 0"),
    (lambda: cn.tensor_ops.maxpool1d(X3, 2, stride=True), "stride must be int >= 1, got True"),
    (lambda: cn.tensor_ops.layer_norm(X3, np.ones(4), np.zeros(4), eps=0.0),
     "eps must be float > 0 and finite, got 0.0"),
    (lambda: cn.sweep_lr(cn.ModelConfig(4), None, [1e-3], None),
     "base_train_cfg must be TrainConfig, got None"),
    (lambda: cn.Model(cn.ModelConfig(4)).backward("abc", np.ones(1)),
     "trace must be Optional[ForwardTrace], got 'abc'"),
], ids=["conv1d-stride", "conv1d-x", "pool-window", "pool-stride", "layer-norm-eps",
        "sweep-base-train-cfg", "backward-trace"])
def test_a_checked_argument_is_named_as_its_parameter(call, message):
    """``records.checked`` names the parameter, positional or keyword."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("cls, kwargs, message", [
    (cn.ConvSpec, {"channels": 0}, "ConvSpec key 'channels' must be int >= 1, got 0"),
    (cn.ConvSpec, {"kernel": -3, "stride": 0}, "ConvSpec key 'kernel' must be int >= 1, got -3"),
    (cn.AttnSpec, {"n_heads": 0, "d_model": 0}, "AttnSpec key 'n_heads' must be int >= 1, got 0"),
])
def test_a_spec_built_on_its_own_checks_its_ranges(cls, kwargs, message):
    """``ModelConfig`` used to check these; a spec built alone took them."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)


# ---------------------------------------------------------------------------
# closed sets of names: every record field and library argument whose hint
# holds a ``Literal`` refuses each near miss of a name
# ---------------------------------------------------------------------------

IMPUTATION = "Union[Literal['median', 'mean', 'constant'], ConstantFill]"

# (case, argument) -> the choices as messages spell them
CHOICES = {
    ("ModelConfig", "variant"): "one of 'cnn_only', 'transformer_only', 'hybrid', 'logistic'",
    ("ModelConfig", "activation"): "one of 'relu', 'sigmoid', 'tanh'",
    ("TrainConfig", "optimizer"): "one of 'sgd', 'adam'",
    ("EarlyStop", "metric"): "one of 'val_auc'",
    ("ConstantFill", "kind"): "one of 'constant'",
    ("SchemaConfig", "imputation"): IMPUTATION,
    ("FeatureFrame", "split_tag"): "one of 'full', 'train', 'val', 'test'",
    ("synth_preset", "name"): ("one of 'noise', 'strong-single', 'linear', 'long-range', "
                               "'local-motif', 'local-and-long', 'xor-pair'"),
    ("permutation_importance", "metric"): "one of 'auc', 'accuracy'",
    ("sweep_optimizer", "optimizers"): "tuple[Literal['sgd', 'adam'], ...]",
}

# a name off by case, a blank or emptiness, and values that are not names;
# an argument that takes a tuple of names gets each as its one entry
NEAR_MISSES = ["Hybrid", " adam", "", None, 1, True]


def test_the_choice_arguments_are_the_ones_whose_hints_hold_a_literal(world):
    declared = {(case, arg) for case in CASES
                for arg in _hinted_arguments(world[case][0], "Literal")}
    assert declared == set(CHOICES)


@pytest.mark.parametrize("case, arg", list(CHOICES), ids=[f"{c}-{a}" for c, a in CHOICES])
def test_a_name_outside_its_set_is_a_config_error_naming_the_argument(world, case, arg):
    fn, kwargs = world[case]
    choices = CHOICES[case, arg]
    for near_miss in NEAR_MISSES:
        value = (near_miss,) if choices.startswith("tuple[") else near_miss
        with pytest.raises(ConfigError) as info:
            fn(**{**kwargs, arg: value})
        assert re.fullmatch(rf"(\w+ key '{arg}'|(\w+ )?{arg}) must be {re.escape(choices)}, "
                            rf"got {re.escape(repr(value))}", str(info.value)), str(info.value)
