"""The benchmark's three closed-loop workloads: ``ablate``, ``score`` and ``ingest``.

Each workload has one caller that waits for every result. ``setup`` builds
the inputs from the workload seed (untimed by the loop, timed as set-up);
``op`` runs one unit of timed work, checks its outputs and returns an
``Op``: a digest of everything the program returned, which must not change
from one op to the next, plus the timings the end-to-end metrics need.
``summary`` turns a list of ops into the end-to-end metrics, and
``traced_units`` counts, from a traced run, the unit the per-layer metrics
are normalised by; ``units_per_op`` is that count per op. README.md in
this directory says why each workload exists and which layers it stresses.

The package is reached through its modules (``training.ablate``, not a
name imported once), so a traced run sees the wrappers the tracer installs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

from creditnet import data, importance, metrics, model, training

N_FEATURES = 10


@dataclass
class Op:
    digest: str
    times: dict


class Checks:
    """Output checks; each one is an attempted op that may fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def sub_seed(seed: int, stream: int) -> int:
    """An independent seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _median(xs) -> float:
    return float(statistics.median(xs))


def _synth_splits(n: int, seed: int, preset: str, fractions=(0.7, 0.15, 0.15)):
    frame, _ = data.synth_generate(n, N_FEATURES, sub_seed(seed, 0),
                                   data.synth_preset(preset, N_FEATURES))
    schema = data.SchemaConfig("label", tuple(frame.feature_names))
    return data.prepare_splits(frame, schema,
                               data.SplitSpec(fractions, seed=sub_seed(seed, 1)))


# ---------------------------------------------------------------------------
# ablate: the paper's CNN-vs-Transformer ablation
# ---------------------------------------------------------------------------

class Ablate:
    name = "ablate"
    unit = "step"
    # criterion 5 trains on 2,800 rows and tests on 600; 3,000 and 1,500 here
    # halve the seed-to-seed spread of the hybrid's test AUC after two epochs
    N_ROWS = 5000
    FRACTIONS = (0.6, 0.1, 0.3)
    EPOCHS = 2
    BATCH = 128

    def __init__(self, seed: int, root: Path, checks: Checks):
        self.seed, self.checks = seed, checks

    def setup(self) -> None:
        self.splits, _ = _synth_splits(self.N_ROWS, self.seed, "local-and-long", self.FRACTIONS)
        self.model_cfg = model.ModelConfig(n_features=N_FEATURES)
        # patience >= epochs: validation AUC and snapshots run every epoch and
        # no run stops early, so every op does the same amount of work
        self.train_cfg = training.TrainConfig(
            optimizer="adam", batch_size=self.BATCH, epochs=self.EPOCHS,
            seed=sub_seed(self.seed, 2),
            early_stop=training.EarlyStop(patience=self.EPOCHS))
        n_train = self.splits.train.n_rows
        self.rows_per_op = len(model.VARIANTS) * n_train * self.EPOCHS
        self.units_per_op = len(model.VARIANTS) * self.EPOCHS * math.ceil(n_train / self.BATCH)

    def op(self) -> Op:
        t0 = _clock()
        rows = training.ablate(self.model_cfg, self.train_cfg, self.splits)
        wall = _clock() - t0
        for row in rows:
            self.checks.check(
                row.get("status") == "ok" and row.get("epochs_run") == self.EPOCHS,
                f"ablate row {row.get('variant')}: status {row.get('status')!r}, "
                f"epochs_run {row.get('epochs_run')!r}")
        self.test_auc = next(r["metrics"]["test"]["auc"] for r in rows
                             if r["variant"] == "hybrid" and r["status"] == "ok")
        return Op(_digest(training.canonical_json(rows)), {"ablate_s": wall})

    @staticmethod
    def traced_units(stats, work) -> float:
        """Optimizer steps."""
        return stats["training.adam_step"].calls

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        walls = [op.times["ablate_s"] for op in ops]
        rows_per_s = _median([self.rows_per_op / w for w in walls])
        e2e = {"rows_per_s": rows_per_s, "report_s": _median(walls),
               "test_auc": self.test_auc}
        named = {"train_rows_per_s": (rows_per_s, "rows/s")}
        return e2e, named


# ---------------------------------------------------------------------------
# score: a trained model answering batch, single-row and importance requests
# ---------------------------------------------------------------------------

class Score:
    name = "score"
    unit = "batch"
    TRAIN_ROWS = 2000
    TRAIN_EPOCHS = 2
    HOLDOUT_ROWS = 8 * training.EVAL_BATCH
    SINGLE_ROWS = 400           # per op; three ops put >= 10 samples beyond p99
    IMPORTANCE_ROWS = 1200
    IMPORTANCE_REPEATS = 5

    def __init__(self, seed: int, root: Path, checks: Checks):
        self.seed, self.checks = seed, checks
        self.ckpt = root / "score.ckpt"

    def setup(self) -> None:
        splits, stats = _synth_splits(self.TRAIN_ROWS, self.seed, "strong-single")
        fitted, _ = training.train(
            model.ModelConfig(n_features=N_FEATURES),
            training.TrainConfig(epochs=self.TRAIN_EPOCHS, seed=sub_seed(self.seed, 2),
                                 early_stop=training.EarlyStop(patience=self.TRAIN_EPOCHS)),
            splits)
        raw, _ = data.synth_generate(self.HOLDOUT_ROWS, N_FEATURES, sub_seed(self.seed, 3),
                                     data.synth_preset("strong-single", N_FEATURES))
        self.holdout = data.apply_preprocess(raw, stats)
        model.save_checkpoint(self.ckpt, fitted, preprocess=stats.to_dict())
        self.model, _ = model.load_checkpoint(self.ckpt)
        self.probs = training.predict_probs(self.model, self.holdout.X)
        self.checks.check(
            self.probs.tobytes() == training.predict_probs(fitted, self.holdout.X).tobytes(),
            "probabilities changed across the checkpoint round trip")
        self.test_auc = metrics.auc(self.probs, self.holdout.y)
        self.importance_frame = self.holdout.take(np.arange(self.IMPORTANCE_ROWS), "full")
        rows_per_op = (self.HOLDOUT_ROWS + self.SINGLE_ROWS
                       + self.IMPORTANCE_ROWS * (1 + N_FEATURES * self.IMPORTANCE_REPEATS))
        self.units_per_op = rows_per_op / training.EVAL_BATCH

    def op(self) -> Op:
        X = self.holdout.X
        probs, batch_s = [], []
        for start in range(0, self.HOLDOUT_ROWS, training.EVAL_BATCH):
            t0 = _clock()
            probs.append(training.predict_probs(self.model, X[start: start + training.EVAL_BATCH]))
            batch_s.append(_clock() - t0)
        probs = np.concatenate(probs)

        single = np.empty(self.SINGLE_ROWS)
        latencies = []
        for i in range(self.SINGLE_ROWS):
            row = X[i: i + 1]
            t0 = _clock()
            p, _ = self.model.forward(row)
            latencies.append(_clock() - t0)
            single[i] = p[0]
        self.checks.check(
            np.max(np.abs(single - self.probs[: self.SINGLE_ROWS])) <= 1e-12,
            "single-row and batch probabilities differ by more than 1e-12")

        t0 = _clock()
        report = importance.permutation_importance(
            self.model, self.importance_frame, metric="auc",
            repeats=self.IMPORTANCE_REPEATS, seed=self.seed)
        importance_s = _clock() - t0
        self.checks.check(report.ranking()[0] == "f0",
                          f"importance ranks {report.ranking()[0]!r} first, expected 'f0'")
        return Op(_digest(probs.tobytes(), single.tobytes(), report.to_json()),
                  {"batch_s": batch_s, "row_s": latencies, "importance_s": importance_s})

    @staticmethod
    def traced_units(stats, work) -> float:
        """2,048-row batches' worth of rows through Model.forward."""
        return work["model.Model.forward"] / training.EVAL_BATCH

    def latencies_ms(self, ops: list[Op]) -> tuple[float, float, int, int]:
        """``(p50, p99, samples, samples beyond p99)`` of single-row latency."""
        ms = [t * 1e3 for op in ops for t in op.times["row_s"]]
        q = statistics.quantiles(ms, n=100)
        return q[49], q[98], len(ms), sum(1 for t in ms if t > q[98])

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        rows_per_s = _median([training.EVAL_BATCH / t for op in ops for t in op.times["batch_s"]])
        importance_s = _median([op.times["importance_s"] for op in ops])
        p50, p99, n, beyond = self.latencies_ms(ops)
        self.checks.check(beyond >= 10, f"only {beyond} single-row samples beyond p99")
        e2e = {"rows_per_s": rows_per_s, "report_s": importance_s,
               "test_auc": self.test_auc}
        named = {"score_rows_per_s": (rows_per_s, "rows/s"),
                 "row_latency_p50_ms": (p50, f"ms (n={n})"),
                 "row_latency_p99_ms": (p99, f"ms (n={n}, {beyond} beyond)"),
                 "importance_s": (importance_s, "s")}
        return e2e, named


# ---------------------------------------------------------------------------
# ingest: a GMSC-shaped CSV through load, preparation and scoring metrics
# ---------------------------------------------------------------------------

class Ingest:
    name = "ingest"
    unit = "call"
    N_ROWS = 150_000
    MISSING = {"MonthlyIncome": 0.20, "NumberOfDependents": 0.026}  # GMSC's NA shares
    units_per_op = 1

    def __init__(self, seed: int, root: Path, checks: Checks):
        self.seed, self.checks = seed, checks
        self.csv = root / "ingest.csv"
        self.schema = data.SchemaConfig.from_json(
            Path(__file__).resolve().parent.parent / "data" / "gmsc_schema.json")

    def setup(self) -> None:
        frame, self.logits = data.synth_generate(
            self.N_ROWS, N_FEATURES, sub_seed(self.seed, 0),
            data.synth_preset("linear", N_FEATURES))
        rng = np.random.default_rng(sub_seed(self.seed, 1))
        cols = self.schema.feature_columns
        self.missing = np.zeros(frame.X.shape, dtype=bool)
        for name, share in self.MISSING.items():
            self.missing[:, cols.index(name)] = rng.random(self.N_ROWS) < share
        self.X = np.where(self.missing, np.nan, frame.X)
        self.y = frame.y
        # cs-training.csv layout: unnamed index column, label, then features
        with open(self.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(("", self.schema.label_column, *cols)) + "\n")
            for i, (values, label) in enumerate(zip(self.X.tolist(), self.y.tolist())):
                cells = ["NA" if v != v else repr(v) for v in values]
                fh.write(f"{i + 1},{label},{','.join(cells)}\n")

    def op(self) -> Op:
        t0 = _clock()
        frame = data.load_csv(self.csv, self.schema)
        t1 = _clock()
        splits, _ = data.prepare_splits(frame, self.schema,
                                        data.SplitSpec(seed=sub_seed(self.seed, 2)))
        t2 = _clock()
        record = metrics.evaluate_scores(self.logits, frame.y)
        t3 = _clock()

        self.checks.check(
            frame.X.shape == self.X.shape
            and np.array_equal(frame.X.view(np.uint64), self.X.view(np.uint64)),
            "loaded X differs from the generated matrix")
        self.checks.check(np.array_equal(np.isnan(frame.X), self.missing)
                          and np.array_equal(frame.missing, self.missing),
                          "NaN cells differ from the cells written as NA")
        self.checks.check(np.array_equal(frame.y, self.y), "loaded labels differ")
        self.checks.check(
            frame.n_missing_cells == int(self.missing.sum())
            and np.array_equal(frame.missing.sum(axis=0), self.missing.sum(axis=0)),
            "missing-cell counts differ")
        self.test_auc = record.auc
        return Op(_digest(frame.X.tobytes(), frame.y.tobytes(),
                          *(f.X.tobytes() + f.y.tobytes() for f in splits),
                          json.dumps(record.to_dict(), sort_keys=True)),
                  {"load_s": t1 - t0, "prepare_s": t2 - t1, "evaluate_s": t3 - t2})

    @staticmethod
    def traced_units(stats, work) -> float:
        """Passes over the file."""
        return stats["data.load_csv"].calls

    def summary(self, ops: list[Op]) -> tuple[dict, dict]:
        rows_per_s = _median([self.N_ROWS / (op.times["load_s"] + op.times["prepare_s"])
                              for op in ops])
        evaluate_s = _median([op.times["evaluate_s"] for op in ops])
        e2e = {"rows_per_s": rows_per_s, "report_s": evaluate_s, "test_auc": self.test_auc}
        named = {"ingest_rows_per_s": (rows_per_s, "rows/s"),
                 "metrics_rows_per_s": (self.N_ROWS / evaluate_s, "rows/s")}
        return e2e, named


WORKLOADS = {w.name: w for w in (Ablate, Score, Ingest)}
