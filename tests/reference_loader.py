"""Reference copy of the CSV loader that ``creditnet.data.load_csv`` replaced.

This is the per-cell form the package shipped before its loader moved to
numpy's tokenizer: one ``csv.reader`` pass converting each cell with
``float`` into a per-row array, then one vectorised check of non-finite
cells and non-0/1 labels through the recorded line numbers. It lives here,
outside ``src/``, only so ``test_loader_equivalence`` can compare the package
against it.
"""

import csv
from array import array
from pathlib import Path
from typing import Optional

import numpy as np

from creditnet.data import FeatureFrame, SchemaConfig, read_header
from creditnet.errors import DataError, SchemaError


def load_csv(path, schema: SchemaConfig, subsample: Optional[int] = None,
             seed: int = 0) -> FeatureFrame:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    markers = set(schema.missing_markers)
    col_index = {name: i for i, name in enumerate(read_header(path))}
    for needed in (schema.label_column, *schema.feature_columns):
        if needed not in col_index:
            raise SchemaError(f"column {needed!r} not found in header of {path}")
    label_i = col_index[schema.label_column]
    feat_is = [col_index[c] for c in schema.feature_columns]
    width = max(label_i, *feat_is) + 1

    rows, labels, miss, line_nos = [], array("d"), [], array("q")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < width:
                raise DataError(f"line {line_no}: expected at least {width} columns, "
                                f"got {len(row)}")
            cell = row[label_i].strip()
            try:
                labels.append(float(cell))
            except ValueError:
                raise DataError(f"line {line_no}: bad label {cell!r}") from None
            values = np.empty(len(feat_is))
            missing_row = np.zeros(len(feat_is), dtype=bool)
            for j, fi in enumerate(feat_is):
                cell = row[fi].strip()
                if cell in markers:
                    values[j] = np.nan
                    missing_row[j] = True
                else:
                    try:
                        values[j] = float(cell)
                    except ValueError:
                        raise DataError(
                            f"line {line_no}: bad value {cell!r} in column "
                            f"{schema.feature_columns[j]!r}"
                        ) from None
            rows.append(values)
            miss.append(missing_row)
            line_nos.append(line_no)

    if not rows:
        raise DataError(f"{path} contains a header but no data rows")
    X = np.vstack(rows)
    y = np.asarray(labels)
    missing = np.vstack(miss)
    bad = np.column_stack([~(np.isfinite(X) | missing), (y != 0) & (y != 1)])
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        is_label = c == len(feat_is)
        raise DataError(
            f"line {line_nos[r]}, column "
            f"{(*schema.feature_columns, schema.label_column)[c]!r}: "
            f"{'label must be 0 or 1' if is_label else 'non-finite value'}, "
            f"got {float(y[r] if is_label else X[r, c])!r}"
        )

    if subsample is not None and subsample < X.shape[0]:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(X.shape[0], size=int(subsample), replace=False))
        X, y, missing = X[keep], y[keep], missing[keep]

    assert np.array_equal(missing, np.isnan(X))
    return FeatureFrame(feature_names=tuple(schema.feature_columns), X=X, y=y)
