"""CSV ingestion, imputation, standardization, splitting, synthetic data.

All statistics (medians, means, stds, winsor bounds) are fitted on one split
and carry a ``fitted_on`` tag. Applying statistics to a val/test frame raises
``LeakageError`` unless they were fitted on the training split.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import count, islice
from pathlib import Path
from typing import Annotated, NamedTuple, NoReturn, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DataError, LeakageError, SchemaError, ShapeError
from .records import (Count, Finite, Rate, Seed, at_least, check_arg, check_path,
                      read_json_object, record)
from .tensor_ops import as_f64, sigmoid

MISSING_DEFAULT = ("", "NA", "NaN", "nan", "null", "NULL")
SPLIT_TAGS = ("full", "train", "val", "test")


# ---------------------------------------------------------------------------
# frames and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureFrame:
    """An immutable design matrix plus binary labels.

    Missing cells are NaN in ``X``, and NaN marks nothing else: ``load_csv``
    rejects every other non-finite cell. Imputation clears them.
    ``split_tag`` is one of full/train/val/test. Another tag, names that are not
    strings and a non-bool ``standardized`` are a ``ConfigError``; an ``X`` or
    ``y`` that is not numeric, and a label other than 0 or 1, a ``DataError``.
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    standardized: bool = False
    split_tag: str = "full"

    def __post_init__(self):
        check_arg("feature_names", self.feature_names, tuple[str, ...])
        check_arg("standardized", self.standardized, bool)
        if self.split_tag not in SPLIT_TAGS:  # the leakage guard reads it
            raise ConfigError(f"split_tag must be one of {SPLIT_TAGS}, got {self.split_tag!r}")
        object.__setattr__(self, "X", as_f64(self.X))
        y = self.y
        if not (isinstance(y, np.ndarray) and y.dtype.kind in "biu"):  # integer labels stay uncopied
            y = as_f64(y)
        if self.X.ndim != 2:
            raise ShapeError(f"X must be 2-D, got shape {self.X.shape}")
        if self.X.shape[1] != len(self.feature_names):
            raise ShapeError(
                f"{len(self.feature_names)} feature names but X has "
                f"{self.X.shape[1]} columns"
            )
        if y.shape != (self.X.shape[0],):
            raise ShapeError(f"y shape {y.shape} != ({self.X.shape[0]},)")
        bad = (y != 0) & (y != 1)
        if np.any(bad):
            raise DataError(f"labels must be 0/1, found {np.unique(y[bad])!r}")
        object.__setattr__(self, "y", y.astype(np.int64, copy=False))

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.X)

    @property
    def n_missing_cells(self) -> int:
        return int(np.count_nonzero(self.missing))

    def take(self, idx: np.ndarray, split_tag: str) -> "FeatureFrame":
        return replace(self, X=self.X[idx], y=self.y[idx], split_tag=split_tag)


@record
class ConstantFill:
    """The constant imputation policy, ``{"kind": "constant", "value": v}`` in
    JSON: every missing cell becomes ``value``."""

    value: Finite
    kind: str = "constant"

    def __post_init__(self):
        if self.kind != "constant":
            raise ConfigError(f"ConstantFill kind must be 'constant', got {self.kind!r}")
        object.__setattr__(self, "value", float(self.value))


@record
class SchemaConfig:
    """Column contract for a credit CSV; the ``imputation`` name "constant" is
    ``ConstantFill(0.0)``, and null ``missing_markers`` are the defaults."""

    label_column: str
    feature_columns: tuple[str, ...] = ()
    missing_markers: Optional[tuple[str, ...]] = MISSING_DEFAULT
    imputation: Union[str, ConstantFill] = "median"

    def __post_init__(self):
        if not self.feature_columns:
            raise SchemaError("feature_columns must be non-empty")
        if self.label_column in self.feature_columns:
            raise SchemaError(
                f"label column {self.label_column!r} cannot also be a feature"
            )
        if self.missing_markers is None:
            object.__setattr__(self, "missing_markers", MISSING_DEFAULT)
        if self.imputation == "constant":
            object.__setattr__(self, "imputation", ConstantFill(0.0))
        elif isinstance(self.imputation, str) and self.imputation not in ("median", "mean"):
            raise ConfigError(f"unknown imputation policy {self.imputation!r}")

    @classmethod
    def from_json(cls, path) -> "SchemaConfig":
        """``from_dict`` of the JSON object ``read_json_object`` reads from ``path``."""
        return cls.from_dict(read_json_object(path, "schema file"))


@record
class SplitSpec:
    fractions: tuple[Rate, Rate, Rate] = (0.7, 0.15, 0.15)
    seed: Seed = 0
    stratified: bool = True

    def __post_init__(self):
        fr = tuple(float(f) for f in self.fractions)
        object.__setattr__(self, "fractions", fr)
        if abs(sum(fr) - 1.0) > 1e-12:
            raise ConfigError(f"fractions must sum to 1, got {sum(fr)!r}")


class Splits(NamedTuple):
    train: FeatureFrame
    val: FeatureFrame
    test: FeatureFrame


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

# Data records load_csv reads with csv.reader, before its parse, to find the
# feature columns that hold missing markers. A marker past them costs a
# second parse, never a different result, so the sample only has to catch
# columns where markers are common. 1,000 records of a GMSC-shaped file take
# about 6 ms, against about 0.5 s for the parse of its 150k rows; a file whose
# markers all come after the sample loads in 1.10 s against 0.51 s (2.2x).
MARKER_SAMPLE_ROWS = 1_000


@contextmanager
def _records(path):
    """An open UTF-8 CSV file as ``(line number, row)`` pairs, one per record;
    a file that cannot be opened (a directory, say) or a byte that is not
    UTF-8 raises ``DataError`` naming the file, and a record ``csv`` cannot
    read (a field over its size limit) one naming the file and line."""
    try:
        fh = Path(path).open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror or exc}") from None
    with fh:
        line_nos = count(1)
        try:
            yield zip(line_nos, csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: byte "
                            f"{exc.object[exc.start]:#04x} ({exc.reason})") from None
        except csv.Error as exc:
            # zip draws a record's number before the record: the last number
            # drawn is the failing record's
            raise DataError(f"{path}, line {next(line_nos) - 1}: {exc}") from None


def read_header(path) -> list[str]:
    """Column names from the first row of a CSV file, blanks stripped."""
    with _records(path) as records:
        for _, row in records:
            return [name.strip() for name in row]
    raise SchemaError(f"{path} is empty")


def load_csv(path, schema: SchemaConfig, subsample: Optional[Count] = None,
             seed: Seed = 0) -> FeatureFrame:
    """Parse a comma-separated UTF-8 file with a header row.

    Cells are read as the ``csv`` module reads them (``"``-quoted, blank lines
    skipped) and converted by Python's ``float`` after stripping blanks.
    Cells matching ``schema.missing_markers`` become NaN, the frame's one
    mark of a missing cell. Any other unparseable or non-finite cell, and any
    label other than exactly 0 or 1, raises ``DataError`` naming its line (and
    column); so does a file that is not UTF-8 or cannot be opened.
    ``subsample`` (None or an int >= 1) keeps a random subset of rows drawn
    with ``seed`` (an int >= 0).
    """
    check_path(path, "CSV")
    check_arg("schema", schema, SchemaConfig)
    check_arg("subsample", subsample, Optional[Count])
    check_arg("subsample seed", seed, Seed)
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    markers = frozenset(schema.missing_markers)
    col_index = {name: i for i, name in enumerate(read_header(path))}
    for needed in (schema.label_column, *schema.feature_columns):
        if needed not in col_index:
            raise SchemaError(f"column {needed!r} not found in header of {path}")
    label_i = col_index[schema.label_column]
    feat_is = [col_index[c] for c in schema.feature_columns]

    def cell(text: str) -> float:
        text = text.strip()
        if text in markers:
            return math.nan
        value = float(text)
        if not math.isfinite(value):  # so that NaN in X means exactly "missing"
            raise ValueError(f"non-finite value {text!r}")
        return value

    # numpy's C tokenizer splits the file. Feature columns whose first records
    # hold a marker go through `cell`; the label and the other columns through
    # numpy's native float parser, which gives float()'s bits on every cell it
    # accepts. That parse only saves time: if it fails, reads a NaN or
    # infinity (a marker past the sample, or a fault), or is not tried because
    # a marker reads as a finite number, which it would take for a value, the
    # parse with every feature cell through `cell` decides the outcome.
    # usecols names each column once, since numpy skips the converter on a
    # repeat; X takes repeated features back out of the table.
    used = list(dict.fromkeys([label_i, *feat_is]))
    table = None
    if not any(_is_finite_number(marker) for marker in markers):
        table = _native_parse(path, used, _marked_columns(path, markers, feat_is), cell)
    if table is None:
        try:
            table = _parse(path, used, {label_i: _number, **dict.fromkeys(feat_is, cell)})
        except ValueError as exc:
            _raise_first_fault(path, schema, label_i, feat_is, str(exc))
    y, X = table[:, 0], table.take([used.index(i) for i in feat_is], axis=1)
    if not y.size or np.any((y != 0) & (y != 1)):
        _raise_first_fault(path, schema, label_i, feat_is,
                           "no rows or a label other than 0/1")

    if subsample is not None and subsample < X.shape[0]:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(X.shape[0], size=int(subsample), replace=False))
        X, y = X[keep], y[keep]

    return FeatureFrame(feature_names=tuple(schema.feature_columns), X=X, y=y)


def _number(text: str) -> float:
    """A cell's value: ``float`` of the cell with its blanks stripped, as
    markers are compared (``float`` alone rejects the ASCII separators
    0x1c-0x1f as padding, which ``str.strip`` and numpy's parser drop)."""
    return float(text.strip())


def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(_number(text))
    except ValueError:
        return False


def _marked_columns(path: Path, markers: frozenset, feat_is: list[int]) -> set[int]:
    """The feature columns holding a missing marker in the first
    ``MARKER_SAMPLE_ROWS`` data records; every one if they cannot be read."""
    marked = set()
    try:
        with _records(path) as records:
            for _, row in islice(records, 1, MARKER_SAMPLE_ROWS + 1):
                marked.update(i for i in feat_is if i < len(row) and row[i].strip() in markers)
    except DataError:  # the parse, or its re-read, meets it in file order
        return set(feat_is)
    return marked


def _native_parse(path: Path, used: list[int], marked: set[int], cell) -> Optional[np.ndarray]:
    """``_parse`` with ``cell`` on the ``marked`` columns only, or None if that
    parse fails or any cell it read natively is NaN or infinite."""
    try:
        table = _parse(path, used, dict.fromkeys(marked, cell))
    except ValueError:
        return None
    native = [j for j, i in enumerate(used) if i not in marked]
    return table if all(np.isfinite(table[:, j]).all() for j in native) else None


def _parse(path: Path, used: list[int], converters: dict) -> np.ndarray:
    """The used columns of every data record, by numpy's tokenizer; columns
    without a converter go through numpy's own float parser."""
    with path.open("r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        next(csv.reader(fh))  # the header record, quoted newlines and all
        return np.loadtxt(fh, delimiter=",", usecols=used, converters=converters,
                          comments=None, quotechar='"', ndmin=2,
                          encoding=None)  # str to the converters on numpy 1.x too


def _raise_first_fault(path: Path, schema: SchemaConfig, label_i: int,
                       feat_is: list[int], reason: str) -> NoReturn:
    """Re-read a CSV that ``load_csv``'s fast parse rejected, row by row, and
    raise the ``DataError`` of its first fault: a short row or an unparseable
    cell at once; after the scan, no data rows, or else the first non-finite
    cell or non-0/1 label in file order (a row's features before its label).
    ``reason`` (numpy's complaint) is the message only if no fault is found."""
    markers = set(schema.missing_markers)
    width = max(label_i, *feat_is) + 1
    first, n_rows = None, 0
    with _records(path) as records:
        next(records)
        for line_no, row in records:
            if not row:
                continue
            if len(row) < width:
                raise DataError(f"line {line_no}: expected at least {width} columns, "
                                f"got {len(row)}")
            text = row[label_i].strip()
            try:
                label = float(text)
            except ValueError:
                raise DataError(f"line {line_no}: bad label {text!r}") from None
            for name, fi in zip(schema.feature_columns, feat_is):
                text = row[fi].strip()
                if text in markers:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(f"line {line_no}: bad value {text!r} in column "
                                    f"{name!r}") from None
                if first is None and not math.isfinite(value):
                    first = f"line {line_no}, column {name!r}: non-finite value, got {value!r}"
            if first is None and label not in (0.0, 1.0):
                first = (f"line {line_no}, column {schema.label_column!r}: "
                         f"label must be 0 or 1, got {label!r}")
            n_rows += 1
    if not n_rows:
        raise DataError(f"{path} contains a header but no data rows")
    raise DataError(first or f"{path}: {reason}")


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------

@record
class ImputeStats:
    fill_values: np.ndarray
    fitted_on: str


def _guard_leakage(frame: FeatureFrame, fitted_on: str, what: str) -> None:
    if frame.split_tag in ("val", "test") and fitted_on != "train":
        raise LeakageError(
            f"{what} statistics fitted on {fitted_on!r} split applied to "
            f"{frame.split_tag!r} split"
        )


def fit_imputer(frame: FeatureFrame, schema: SchemaConfig) -> ImputeStats:
    """Per-column fill values from this frame (use the training split)."""
    check_arg("frame", frame, FeatureFrame)
    check_arg("schema", schema, SchemaConfig)
    fills = np.empty(frame.n_features)
    for j in range(frame.n_features):
        col = frame.X[:, j]
        observed = col[~np.isnan(col)]
        if isinstance(schema.imputation, ConstantFill):
            fills[j] = schema.imputation.value
        elif observed.size == 0:
            raise DataError(
                f"column {frame.feature_names[j]!r} is entirely missing; "
                f"{schema.imputation} imputation impossible"
            )
        elif schema.imputation == "median":
            fills[j] = np.median(observed)
        else:
            fills[j] = np.mean(observed)
    return ImputeStats(fill_values=fills, fitted_on=frame.split_tag)


def impute(frame: FeatureFrame, schema: Optional[SchemaConfig] = None,
           stats: Optional[ImputeStats] = None) -> FeatureFrame:
    """Fill missing cells; fit values come from ``stats`` or from ``frame`` itself."""
    check_arg("frame", frame, FeatureFrame)
    check_arg("stats", stats, Optional[ImputeStats])
    if stats is None:
        if schema is None:
            raise ConfigError("impute needs a schema when no fitted stats are given")
        stats = fit_imputer(frame, schema)
    _guard_leakage(frame, stats.fitted_on, "imputation")
    if stats.fill_values.shape[0] != frame.n_features:
        raise SchemaError(
            f"imputer fitted on {stats.fill_values.shape[0]} features, "
            f"frame has {frame.n_features}"
        )
    X = frame.X.copy()
    nan_mask = np.isnan(X)
    X[nan_mask] = np.broadcast_to(stats.fill_values, X.shape)[nan_mask]
    return replace(frame, X=X)


# ---------------------------------------------------------------------------
# winsorization (optional, default off)
# ---------------------------------------------------------------------------

@record
class WinsorStats:
    lower: np.ndarray
    upper: np.ndarray
    fitted_on: str

    def __post_init__(self):
        if np.shape(self.lower) != np.shape(self.upper):
            raise ConfigError(f"WinsorStats lower has shape {np.shape(self.lower)} "
                              f"but upper has shape {np.shape(self.upper)}")


def winsorize_fit(frame: FeatureFrame, lower_q: float, upper_q: float) -> WinsorStats:
    if not (0.0 <= lower_q < upper_q <= 1.0):
        raise ConfigError(f"bad winsor quantiles ({lower_q}, {upper_q})")
    lo = np.nanquantile(frame.X, lower_q, axis=0)
    hi = np.nanquantile(frame.X, upper_q, axis=0)
    return WinsorStats(lower=lo, upper=hi, fitted_on=frame.split_tag)


def winsorize_apply(frame: FeatureFrame, stats: WinsorStats) -> FeatureFrame:
    _guard_leakage(frame, stats.fitted_on, "winsorization")
    if stats.lower.shape[0] != frame.n_features:
        raise SchemaError("winsor stats feature count mismatch")
    return replace(frame, X=np.clip(frame.X, stats.lower, stats.upper))


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

STD_FLOOR = 1e-12


@record
class StandardizeStats:
    mean: np.ndarray
    std: np.ndarray  # population std; exact zeros mark constant columns
    fitted_on: str

    def __post_init__(self):
        if np.shape(self.mean) != np.shape(self.std):
            raise ConfigError(f"StandardizeStats mean has shape {np.shape(self.mean)} "
                              f"but std has shape {np.shape(self.std)}")


def standardize_fit(frame: FeatureFrame) -> StandardizeStats:
    """Per-column mean and population std from this frame (use the training split)."""
    check_arg("frame", frame, FeatureFrame)
    if frame.n_missing_cells:
        raise DataError("standardize_fit requires an imputed frame (missing cells present)")
    mean = np.mean(frame.X, axis=0)
    std = np.std(frame.X, axis=0)  # ddof=0
    std = np.where(std < STD_FLOOR, 0.0, std)
    return StandardizeStats(mean=mean, std=std, fitted_on=frame.split_tag)


def standardize_apply(frame: FeatureFrame, stats: StandardizeStats) -> FeatureFrame:
    """x' = (x - mean) / std per column; constant columns map to all zeros."""
    check_arg("frame", frame, FeatureFrame)
    check_arg("stats", stats, StandardizeStats)
    _guard_leakage(frame, stats.fitted_on, "standardization")
    if stats.mean.shape[0] != frame.n_features:
        raise SchemaError(
            f"standardizer fitted on {stats.mean.shape[0]} features, "
            f"frame has {frame.n_features}"
        )
    safe_std = np.where(stats.std == 0.0, 1.0, stats.std)
    Xs = (frame.X - stats.mean) / safe_std
    Xs[:, stats.std == 0.0] = 0.0
    return replace(frame, X=Xs, standardized=True)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def _largest_remainder(n: int, fractions: Sequence[float]) -> list[int]:
    raw = [n * f for f in fractions]
    sizes = [int(np.floor(r)) for r in raw]
    short = n - sum(sizes)
    order = np.argsort([-(r - np.floor(r)) for r in raw], kind="stable")
    for i in range(short):
        sizes[order[i]] += 1
    return sizes


def split(frame: FeatureFrame, spec: SplitSpec) -> Splits:
    """Deterministic seeded 3-way split; stratified mode preserves the label
    ratio within one sample per split."""
    check_arg("frame", frame, FeatureFrame)
    check_arg("spec", spec, SplitSpec)
    n = frame.n_rows
    if n < 10:
        raise ConfigError(f"need at least 10 rows to split, got {n}")
    rng = np.random.default_rng(spec.seed)

    buckets: list[list[np.ndarray]] = [[], [], []]
    if spec.stratified:
        for cls in (0, 1):
            idx = np.flatnonzero(frame.y == cls)
            idx = rng.permutation(idx)
            sizes = _largest_remainder(idx.size, spec.fractions)
            stops = np.cumsum(sizes)
            buckets[0].append(idx[: stops[0]])
            buckets[1].append(idx[stops[0]: stops[1]])
            buckets[2].append(idx[stops[1]:])
    else:
        idx = rng.permutation(n)
        sizes = _largest_remainder(n, spec.fractions)
        stops = np.cumsum(sizes)
        buckets[0].append(idx[: stops[0]])
        buckets[1].append(idx[stops[0]: stops[1]])
        buckets[2].append(idx[stops[1]:])

    parts = [np.sort(np.concatenate(b)) for b in buckets]
    for name, p in zip(("train", "val", "test"), parts):
        if p.size == 0:
            raise ConfigError(f"{name} split received 0 rows (n={n}, "
                              f"fractions={spec.fractions})")
    return Splits(
        train=frame.take(parts[0], "train"),
        val=frame.take(parts[1], "val"),
        test=frame.take(parts[2], "test"),
    )


# ---------------------------------------------------------------------------
# synthetic data with a computable Bayes-optimal score
# ---------------------------------------------------------------------------

@record
class SynthSpec:
    """Generative recipe: labels are Bernoulli(sigmoid(logit)) draws where

    logit = linear . x  +  sum coeff * x_i * x_j   (long-range pairs)
                        +  sum coeff * prod(x[start:start+width])  (local motifs)

    Coefficients must be finite; ``logits`` checks indices and widths against
    the feature count.
    """

    linear: tuple[Finite, ...] = ()
    pairs: tuple[tuple[int, int, Finite], ...] = ()
    motifs: tuple[tuple[int, int, Finite], ...] = ()  # (start, width, coeff)

    def logits(self, X: np.ndarray) -> np.ndarray:
        n_features = X.shape[1]
        w = np.zeros(n_features)
        if len(self.linear) > n_features:
            raise ConfigError("more linear weights than features")
        w[: len(self.linear)] = self.linear
        z = X @ w
        for i, j, coeff in self.pairs:
            if not (0 <= i < n_features and 0 <= j < n_features):
                raise ConfigError(f"pair ({i},{j}) out of range for {n_features} features")
            z = z + coeff * X[:, i] * X[:, j]
        for start, width, coeff in self.motifs:
            if not (0 <= start and start + width <= n_features and width >= 1):
                raise ConfigError(f"motif ({start},{width}) out of range")
            z = z + coeff * np.prod(X[:, start: start + width], axis=1)
        return z


SYNTH_PRESETS = ("noise", "strong-single", "linear", "long-range",
                 "local-motif", "local-and-long", "xor-pair")


def synth_preset(name: str, n_features: int) -> SynthSpec:
    """Named generator recipes used by experiments and the CLI."""
    check_arg("name", name, str)
    check_arg("n_features", n_features, int)
    far = n_features - 1
    if name == "noise":
        return SynthSpec()
    if name == "strong-single":
        return SynthSpec(linear=(5.0,))
    if name == "linear":
        return SynthSpec(linear=(3.0, -3.0, 2.0, -1.5, 1.0)[: n_features])
    if name in ("long-range", "xor-pair"):
        return SynthSpec(pairs=((0, far, 3.0),))
    if name == "local-motif":
        return SynthSpec(motifs=((1, 2, 3.0),))
    if name == "local-and-long":
        return SynthSpec(linear=(0.0, 0.5), pairs=((0, far, 2.0),),
                         motifs=((2, 2, 2.0),))
    raise ConfigError(f"unknown synth preset {name!r}; known: {SYNTH_PRESETS}")


SynthRows = Annotated[int, at_least(100)]


def synth_generate(n: SynthRows, n_features: Count, seed: Seed,
                   spec: SynthSpec) -> tuple[FeatureFrame, np.ndarray]:
    """Draw a synthetic frame plus its true logits (the Bayes-optimal scores)."""
    check_arg("spec", spec, SynthSpec)
    check_arg("synthetic n", n, SynthRows)
    check_arg("synthetic n_features", n_features, Count)
    check_arg("synthetic seed", seed, Seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n_features))
    logit = spec.logits(X)
    y = (rng.random(n) < sigmoid(logit)).astype(np.int64)
    frame = FeatureFrame(feature_names=tuple(f"f{i}" for i in range(n_features)),
                         X=X, y=y)
    return frame, logit


# ---------------------------------------------------------------------------
# end-to-end preparation
# ---------------------------------------------------------------------------

@record
class PreprocessStats:
    """Everything fitted on train that eval-time data must be pushed through."""

    impute: ImputeStats
    standardize: StandardizeStats
    winsor: Optional[WinsorStats] = None


def prepare_splits(frame: FeatureFrame, schema: SchemaConfig, spec: SplitSpec,
                   winsor_quantiles: Optional[tuple[float, float]] = None,
                   ) -> tuple[Splits, PreprocessStats]:
    """Split, then impute/winsorize/standardize every split with train-fitted stats."""
    check_arg("winsor_quantiles", winsor_quantiles, Optional[tuple[float, float]])
    raw = split(frame, spec)
    imp = fit_imputer(raw.train, schema)
    parts = [impute(f, schema, imp) for f in raw]
    win = None
    if winsor_quantiles is not None:
        win = winsorize_fit(parts[0], *winsor_quantiles)
        parts = [winsorize_apply(f, win) for f in parts]
    std = standardize_fit(parts[0])
    parts = [standardize_apply(f, std) for f in parts]
    return Splits(*parts), PreprocessStats(impute=imp, standardize=std, winsor=win)


def apply_preprocess(frame: FeatureFrame, stats: PreprocessStats) -> FeatureFrame:
    """Push a raw frame through train-fitted imputation/winsor/standardization."""
    check_arg("stats", stats, PreprocessStats)
    out = impute(frame, stats=stats.impute)
    if stats.winsor is not None:
        out = winsorize_apply(out, stats.winsor)
    return standardize_apply(out, stats.standardize)
