"""Property-based checks of the model's layer list and gradients, the
checkpoint format, the records' JSON round trip, the AUC and the KS."""

import json
import math
import re
import tempfile
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from creditnet.data import (  # noqa: E402
    ImputeStats,
    PreprocessStats,
    SplitSpec,
    StandardizeStats,
    WinsorStats,
)
import creditnet.model as model_module  # noqa: E402
from creditnet.errors import ConfigError  # noqa: E402
from creditnet.metrics import auc, ks  # noqa: E402
from creditnet.model import (  # noqa: E402
    AttnSpec,
    ConvSpec,
    Model,
    ModelConfig,
    build,
    conv_out_len,
    load_checkpoint,
    save_checkpoint,
)
from creditnet.records import config_from_dict, record_to_dict  # noqa: E402
from creditnet.tensor_ops import Parameter, gradient_check  # noqa: E402
from creditnet.training import (  # noqa: E402
    SCORE_BLOCK,
    EarlyStop,
    TrainConfig,
    bce_loss,
    predict_probs,
)

FEW = settings(max_examples=20, deadline=None)


@st.composite
def model_configs(draw):
    """Small valid ModelConfigs of every variant."""
    n_features = draw(st.integers(3, 8))
    kernel = draw(st.integers(1, n_features))
    stride = draw(st.integers(1, 2))
    l1 = conv_out_len(n_features, kernel, stride)
    n_heads = draw(st.sampled_from([1, 2]))
    return ModelConfig(
        n_features=n_features,
        variant=draw(st.sampled_from(["hybrid", "cnn_only", "transformer_only",
                                     "logistic"])),
        d_embed=draw(st.integers(1, 4)),
        conv=ConvSpec(channels=draw(st.integers(1, 4)), kernel=kernel, stride=stride,
                      pool_window=draw(st.integers(1, l1)),
                      pool_stride=draw(st.integers(1, 2))),
        attn=AttnSpec(n_heads=n_heads, d_model=n_heads * draw(st.integers(1, 3)),
                      n_blocks=draw(st.integers(1, 2)), layer_norm=draw(st.booleans())),
        ffn_dim=draw(st.integers(1, 4)),
        mlp_hidden=tuple(draw(st.lists(st.integers(1, 4), max_size=2))),
        activation=draw(st.sampled_from(["relu", "sigmoid", "tanh"])),
        seed=draw(st.integers(0, 2**31)),
    )


def _step(model: Model, X, y):
    """Forward, BCE loss and backward on one batch; returns the loss."""
    probs, trace = model.forward(X)
    loss, g = bce_loss(probs, y)
    model.params.zero_grads()
    model.backward(trace, g)
    return loss


@FEW
@given(model_configs(), st.integers(0, 2**31))
def test_every_parameter_is_read_by_exactly_one_layer_in_manifest_order(config, seed):
    """Every parameter the builder makes has its value and grad touched by
    one layer only, over a forward and a backward walk, and the forward reads
    them in manifest order. The finite-difference check cannot see an unread
    parameter: its analytic and difference-quotient gradients are both 0."""
    store, layers = build(config)
    touched = []  # (layer index, attribute, parameter name)
    at = {"layer": None}

    class Watched(Parameter):
        def __getattribute__(self, attr):
            if attr in ("value", "grad"):
                touched.append((at["layer"], attr, object.__getattribute__(self, "name")))
            return object.__getattribute__(self, attr)

    for p in store:
        p.__class__ = Watched
    h = np.random.default_rng(seed).standard_normal((3, config.n_features))
    caches = []
    for i, layer in enumerate(layers):
        at["layer"] = i
        h, cache = layer.forward(h)
        caches.append(cache)
    g = np.ones_like(h)
    for i in reversed(range(len(layers))):
        at["layer"] = i
        g = layers[i].backward(caches[i], g)

    readers = {name: set() for name in store.names()}
    for i, _, name in touched:
        readers[name].add(i)
    assert {name: len(r) for name, r in readers.items()} == dict.fromkeys(store.names(), 1)
    forward_reads = [name for _, attr, name in touched if attr == "value"]
    assert list(dict.fromkeys(forward_reads)) == store.names()


FD_STEP = 1e-5
# A probe of step h moves a ReLU input z by about h |dz/dparam|, so it can
# cross the kink only if |z| < h |dz/dparam| at the unperturbed point (likewise
# a pool window's top-two gap). The margin allows such derivatives up to 10.
KINK_MARGIN = 10 * FD_STEP


class _Kinks:
    """Wraps ``creditnet.model``'s ``elementwise`` and ``maxpool1d``, which the
    layers look up as they run, to record the smallest |ReLU input| and the
    smallest gap between a pool window's two largest inputs over the
    forwards run inside it."""

    def __enter__(self):
        self.relu = self.pool = math.inf
        self._ops = elementwise, maxpool1d = model_module.elementwise, model_module.maxpool1d

        def watched_elementwise(kind, x, *, out=None):
            if kind == "relu":  # read x before the op overwrites it in place
                self.relu = min(self.relu, float(np.abs(x).min()))
            return elementwise(kind, x, out=out)

        def watched_maxpool1d(x, window, stride):
            if window > 1:
                taps = np.sort(sliding_window_view(x, window, axis=-1)[..., ::stride, :])
                self.pool = min(self.pool, float((taps[..., -1] - taps[..., -2]).min()))
            return maxpool1d(x, window, stride)

        model_module.elementwise, model_module.maxpool1d = watched_elementwise, watched_maxpool1d
        return self

    def __exit__(self, *exc):
        model_module.elementwise, model_module.maxpool1d = self._ops


@FEW
@given(model_configs(), st.integers(0, 2**31))
# about 1 in 8 drawn configs has layer norm over d_model > 2, so these two
# make every run check the post-LN residual path
@example(ModelConfig(n_features=5, variant="transformer_only", d_embed=3,
                     attn=AttnSpec(n_heads=1, d_model=3, n_blocks=2, layer_norm=True),
                     ffn_dim=4, mlp_hidden=(3,), activation="tanh", seed=7), 11)
@example(ModelConfig(n_features=6, variant="hybrid", d_embed=2,
                     conv=ConvSpec(channels=3, kernel=2, stride=1, pool_window=2,
                                   pool_stride=1),
                     attn=AttnSpec(n_heads=2, d_model=4, n_blocks=1, layer_norm=True),
                     ffn_dim=3, mlp_hidden=(2,), activation="relu", seed=8), 12)
def test_backward_matches_finite_differences(config, seed):
    """Every parameter tensor's gradient agrees with central differences.
    Layer norm over one or two values is constant up to its eps, so its
    curvature swamps any step h. A ReLU input or a max-pool window's top-two
    gap within ``KINK_MARGIN`` of zero is a kink that a probe of step h can
    cross, where the difference quotient is no derivative."""
    assume(not (config.uses_transformer() and config.attn.layer_norm
                and config.attn.d_model <= 2))
    rng = np.random.default_rng(seed)
    X, y = rng.standard_normal((3, config.n_features)), np.array([0, 1, 1])
    model = Model(config)
    # off the zero biases: at init a dead ReLU row can pool to exactly 0 and
    # put the next ReLU on its kink, where no derivative exists
    model.params.values += 0.1 * rng.standard_normal(model.params.values.size)
    with _Kinks() as kinks:
        _step(model, X, y)
    assume(kinks.relu > KINK_MARGIN and kinks.pool > KINK_MARGIN)
    assert gradient_check(lambda: _step(model, X, y), model.params, h=FD_STEP, seed=seed,
                          max_probes_per_param=4) < 1e-4


@FEW
@given(model_configs(), st.integers(0, 2**31))
def test_gradients_ignore_forwards_run_while_a_trace_is_held(config, seed):
    """An op that wrote in place into an array a ForwardTrace still holds
    would let the forwards in between, at the trace's batch size and at
    others, change the step's gradients."""
    rng = np.random.default_rng(seed)
    X, y = rng.standard_normal((3, config.n_features)), np.array([0, 1, 1])
    fresh = Model(config)
    _step(fresh, X, y)

    model = Model(config)
    predict_probs(model, rng.standard_normal((300, config.n_features)))
    probs, trace = model.forward(X)
    for n_rows in (3, 5):
        model.forward(rng.standard_normal((n_rows, config.n_features)))
    predict_probs(model, rng.standard_normal((300, config.n_features)))
    model.params.zero_grads()
    model.backward(trace, bce_loss(probs, y)[1])
    assert model.params.grads.tobytes() == fresh.params.grads.tobytes()


@FEW
@given(model_configs(), st.integers(1, 600), st.integers(0, 2**31))
def test_untraced_forward_gives_the_traced_bits(config, n_rows, seed):
    """Scoring runs the forward with trace=False, which keeps no op cache;
    its probabilities, in SCORE_BLOCK blocks or in one forward, are the
    traced forward's bits."""
    rng = np.random.default_rng(seed)
    model = Model(config)
    model.params.values += 0.1 * rng.standard_normal(model.params.values.size)
    # half-integer features tie in max-pool windows and put ReLUs at zero
    X = np.round(2 * rng.standard_normal((n_rows, config.n_features))) / 2
    blocks = [model.forward(X[s: s + SCORE_BLOCK])[0] for s in range(0, n_rows, SCORE_BLOCK)]
    assert predict_probs(model, X).tobytes() == np.concatenate(blocks).tobytes()
    untraced, trace = model.forward(X, trace=False)
    assert trace is None
    assert untraced.tobytes() == model.forward(X)[0].tobytes()


def _checkpoint_bytes(model: Model, directory: Path) -> bytes:
    path = directory / "model.bin"
    save_checkpoint(path, model, preprocess={"fitted_on": "train"})
    return path.read_bytes()


@FEW
@given(model_configs(), st.integers(0, 2**31))
def test_random_config_round_trips_through_a_checkpoint(config, seed):
    model = Model(config)
    model.params.values += np.random.default_rng(seed).standard_normal(
        model.params.values.size)
    with tempfile.TemporaryDirectory() as tmp:
        first = _checkpoint_bytes(model, Path(tmp))
        loaded, _ = load_checkpoint(Path(tmp) / "model.bin")
        assert loaded.config == config
        assert _checkpoint_bytes(loaded, Path(tmp)) == first


@FEW
@given(model_configs(), st.data())
def test_truncated_or_extended_checkpoint_is_a_config_error(config, data):
    with tempfile.TemporaryDirectory() as tmp:
        whole = _checkpoint_bytes(Model(config), Path(tmp))
        if data.draw(st.booleans(), label="truncate"):
            damaged = whole[: data.draw(st.integers(0, len(whole) - 1), label="keep")]
        else:
            damaged = whole + data.draw(st.binary(min_size=1, max_size=24), label="tail")
        path = Path(tmp) / "damaged.bin"
        path.write_bytes(damaged)
        with pytest.raises(ConfigError):
            load_checkpoint(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(model_configs(), st.data())
def test_checkpoint_header_edited_in_any_one_place_loads_or_is_a_config_error(config, data):
    """The header replaced by any JSON value, or one key of it, of its config
    or of its first parameter entry dropped or given a value of another JSON
    type: the checkpoint loads or raises ``ConfigError``, nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        header_line, payload = _checkpoint_bytes(Model(config), Path(tmp)).split(b"\n", 1)
        header = json.loads(header_line)
        where = data.draw(st.sampled_from(["whole", "header", "config", "params[0]"]),
                          label="where")
        if where == "whole":
            header = data.draw(json_values, label="header")
        else:
            node = {"header": header, "config": header["config"],
                    "params[0]": header["params"][0]}[where]
            key = data.draw(st.sampled_from(sorted(node)), label="key")
            if data.draw(st.booleans(), label="drop"):
                del node[key]
            else:
                old = type(node[key])
                node[key] = data.draw(json_values.filter(lambda v: type(v) is not old),
                                      label="value")
        path = Path(tmp) / "edited.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        try:
            load_checkpoint(path)
        except ConfigError:
            pass


positive = st.floats(1e-12, 1e12)
unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
train_configs = st.builds(
    TrainConfig, optimizer=st.sampled_from(["sgd", "adam"]), learning_rate=positive,
    batch_size=st.integers(1, 4096), epochs=st.integers(1, 1000),
    seed=st.integers(0, 2**63), beta1=unit_open, beta2=unit_open, adam_eps=positive,
    shuffle=st.booleans(), pos_weight=positive,
    early_stop=st.one_of(st.none(), st.builds(EarlyStop, patience=st.integers(1, 100))))


@st.composite
def split_specs(draw):
    first = draw(st.floats(0.01, 0.6))
    second = draw(st.floats(0.01, 0.3))
    return SplitSpec(fractions=(first, second, 1.0 - first - second),
                     seed=draw(st.integers(0, 2**63)), stratified=draw(st.booleans()))


@st.composite
def preprocess_stats(draw):
    """Stats of every finite float64 bit pattern, the values a stats record
    holds: signed zeros, subnormals and the extremes included, no negative std
    and no lower winsor bound above its upper one."""
    n = draw(st.integers(0, 6))
    tag = draw(st.sampled_from(["train", "full", "val"]))

    def column(min_value=None):
        return np.array(draw(st.lists(st.floats(min_value, allow_nan=False, allow_infinity=False),
                                      min_size=n, max_size=n)), dtype=np.float64)

    winsor = None
    if draw(st.booleans()):
        a, b = column(), column()
        winsor = WinsorStats(np.minimum(a, b), np.maximum(a, b), tag)
    return PreprocessStats(
        impute=ImputeStats(column(), tag),
        standardize=StandardizeStats(column(), column(0.0), tag),
        winsor=winsor)


records = st.one_of(model_configs(), train_configs, split_specs(), preprocess_stats())


def _arrays(record):
    """Every array in a PreprocessStats, in field order."""
    if not isinstance(record, PreprocessStats):
        return []
    parts = [record.impute, record.standardize, record.winsor]
    return [getattr(p, f.name) for p in parts if p is not None for f in fields(p)
            if isinstance(getattr(p, f.name), np.ndarray)]


@settings(max_examples=100, deadline=None)
@given(records)
def test_record_round_trips_through_json(record):
    """``config_from_dict`` reads back what ``record_to_dict`` wrote and JSON
    carried, arrays as float64 with every bit."""
    text = json.dumps(record_to_dict(record))
    again = config_from_dict(type(record), json.loads(text))
    assert type(again) is type(record)
    assert json.dumps(record_to_dict(again)) == text
    assert record_to_dict(again) == record_to_dict(record)
    for got, want in zip(_arrays(again), _arrays(record), strict=True):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(preprocess_stats(), st.data())
def test_stats_with_a_non_finite_entry_neither_build_nor_read_back(stats, data):
    """So every stats record that builds round-trips: one entry made NaN or
    infinite is refused where the record is built, and in its JSON form
    (``NaN``/``Infinity`` literals) where it is read, naming the entry."""
    part = data.draw(st.sampled_from([p for p in (stats.impute, stats.standardize,
                                                  stats.winsor) if p is not None]))
    assume(getattr(part, fields(part)[0].name).size)  # an entry to spoil
    name = data.draw(st.sampled_from([f.name for f in fields(part) if f.name != "fitted_on"]))
    values = getattr(part, name)
    i = data.draw(st.integers(0, len(values) - 1))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    cls = type(part).__name__
    spoiled = values.copy()
    spoiled[i] = bad
    with pytest.raises(ConfigError, match=f"^{cls} key '{name}' must be finite ndarray, got "):
        replace(part, **{name: spoiled})
    d = record_to_dict(part)
    d[name][i] = bad
    with pytest.raises(ConfigError, match=re.escape(
            f"{cls} key '{name}' entry {i} must be finite float, got {bad!r}")):
        config_from_dict(type(part), json.loads(json.dumps(d)))


@settings(max_examples=50, deadline=None)
@given(records, st.data())
def test_record_with_an_unknown_or_missing_key_or_not_an_object_is_a_config_error(
        record, data):
    cls, d = type(record), record_to_dict(record)
    name = cls.__name__
    with pytest.raises(ConfigError, match=re.escape(f"unknown {name} key(s) ['bogus']")):
        config_from_dict(cls, {**d, "bogus": 1})
    with pytest.raises(ConfigError, match=re.escape(f"{name} must be a JSON object, got [{{")):
        config_from_dict(cls, [d])
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    if required:
        key = data.draw(st.sampled_from(required), label="dropped")
        with pytest.raises(ConfigError, match=re.escape(f"missing {name} key(s) ['{key}']")):
            config_from_dict(cls, {k: v for k, v in d.items() if k != key})


scores_and_labels = st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5]),  # frequent ties
                       st.floats(-1e6, 1e6, allow_nan=False)), min_size=n, max_size=n),
    st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < n)))


@settings(max_examples=50, deadline=None)
@given(scores_and_labels)
def test_auc_of_negated_scores_is_its_complement(case):
    scores, labels = np.array(case[0]), np.array(case[1])
    assert auc(-scores, labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_auc_and_ks_are_invariant_under_strictly_increasing_maps(data):
    """Scores on an integer grid (ties included) mapped through sorted distinct
    levels keep their order exactly, so both statistics must not move at all."""
    n = data.draw(st.integers(2, 60), label="n")
    grid = data.draw(st.integers(1, 8), label="grid")
    scores = np.array(data.draw(st.lists(st.integers(0, grid - 1), min_size=n, max_size=n),
                                label="scores"))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                                .filter(lambda y: 0 < sum(y) < n), label="labels"))
    levels = np.sort(data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                                        min_size=grid, max_size=grid, unique=True),
                               label="levels"))
    mapped = levels[scores]
    assert auc(mapped, labels) == auc(scores.astype(float), labels)
    assert ks(mapped, labels) == ks(scores.astype(float), labels)
