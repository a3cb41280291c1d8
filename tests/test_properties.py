"""Property-based checks of the checkpoint format and the AUC."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from creditnet.errors import ConfigError  # noqa: E402
from creditnet.metrics import auc  # noqa: E402
from creditnet.model import (  # noqa: E402
    AttnSpec,
    ConvSpec,
    Model,
    ModelConfig,
    conv_out_len,
    load_checkpoint,
    save_checkpoint,
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
        variant=draw(st.sampled_from(["hybrid", "cnn_only", "transformer_only"])),
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


scores_and_labels = st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5]),  # frequent ties
                       st.floats(-1e6, 1e6, allow_nan=False)), min_size=n, max_size=n),
    st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < n)))


@settings(max_examples=50, deadline=None)
@given(scores_and_labels)
def test_auc_of_negated_scores_is_its_complement(case):
    scores, labels = np.array(case[0]), np.array(case[1])
    assert auc(-scores, labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-12)
