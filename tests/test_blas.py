"""The BLAS thread scope: every fit runs at one OpenBLAS thread and hands the
caller's count back; scoring runs at the caller's count; without OpenBLAS's
thread calls the scope does nothing."""

import numpy as np
import pytest

from creditnet import blas, training
from creditnet.data import SchemaConfig, SplitSpec, prepare_splits, synth_generate, synth_preset
from creditnet.errors import NumericError
from creditnet.model import AttnSpec, ConvSpec, Model, ModelConfig
from creditnet.training import FIT_THREADS, TrainConfig, predict_probs, train

needs_threads = pytest.mark.skipif(blas.threads() is None,
                                   reason="numpy's BLAS has no OpenBLAS thread calls")
NO_SUCH_SYMBOLS = (("no_such_get_num_threads", "no_such_set_num_threads"),)

MODEL = ModelConfig(n_features=6, d_embed=4, conv=ConvSpec(channels=6, kernel=3),
                    attn=AttnSpec(n_heads=2, d_model=8, n_blocks=1), ffn_dim=8,
                    mlp_hidden=(6,), seed=1)
FIT = TrainConfig(epochs=2, seed=0)
CALLER = 2  # the caller's count in these tests, so that a fit's 1 shows


@pytest.fixture(scope="module")
def splits():
    frame, _ = synth_generate(300, 6, 0, synth_preset("linear", 6))
    return prepare_splits(frame, SchemaConfig("y", tuple(frame.feature_names)),
                          SplitSpec(seed=0))[0]


@pytest.fixture
def caller():
    with blas.limit(CALLER):
        yield


def spy_on_adam(monkeypatch, read):
    """The list that ``read()`` fills with the thread count at every
    ``adam_step`` of a fit."""
    seen = []
    step = training.adam_step

    def spy(*args, **kwargs):
        seen.append(read())
        return step(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", spy)
    return seen


@needs_threads
def test_the_scope_sets_the_count_and_restores_it(caller):
    with blas.limit(1):
        assert blas.threads() == 1
    assert blas.threads() == CALLER


@needs_threads
def test_the_scope_restores_the_count_when_its_body_raises(caller):
    with pytest.raises(KeyError), blas.limit(1):
        raise KeyError("body")
    assert blas.threads() == CALLER


@needs_threads
def test_a_fit_runs_at_one_thread_and_restores_the_caller_count(caller, splits, monkeypatch):
    seen = spy_on_adam(monkeypatch, blas.threads)
    train(MODEL, FIT, splits)
    assert seen and set(seen) == {FIT_THREADS}
    assert blas.threads() == CALLER


@needs_threads
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_fit_restores_the_caller_count(caller, splits):
    # lr huge enough that squared parameter values overflow float64
    cfg = TrainConfig(epochs=30, optimizer="sgd", learning_rate=1e170, early_stop=None)
    with pytest.raises(NumericError):
        train(MODEL, cfg, splits)
    assert blas.threads() == CALLER


@needs_threads
def test_scoring_runs_at_the_caller_count(caller, splits):
    model = Model(MODEL)
    seen = []
    forward = model.forward

    def spy(*args, **kwargs):
        seen.append(blas.threads())
        return forward(*args, **kwargs)

    model.forward = spy
    predict_probs(model, splits.test.X)
    assert seen and set(seen) == {CALLER}


def test_without_the_thread_calls_there_is_no_count_and_a_fit_runs(splits, monkeypatch):
    monkeypatch.setattr(blas, "SYMBOLS", NO_SUCH_SYMBOLS)
    assert blas.threads() is None
    _, report = train(MODEL, FIT, splits)
    assert report.epochs_run == FIT.epochs and np.isfinite(report.final["test"].auc)


@needs_threads
def test_without_the_thread_calls_a_fit_runs_at_the_caller_count(caller, splits, monkeypatch):
    control = blas._control(blas.SYMBOLS)
    monkeypatch.setattr(blas, "SYMBOLS", NO_SUCH_SYMBOLS)
    with blas.limit(1):
        assert control.get() == CALLER
    seen = spy_on_adam(monkeypatch, control.get)
    train(MODEL, FIT, splits)
    assert seen and set(seen) == {CALLER}
