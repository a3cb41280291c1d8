"""``load_csv`` against the per-cell reference loader it replaced.

Valid files must give bit-identical ``X`` and identical ``y`` and
``missing``; invalid files must raise the same exception class with the same
message. A fixed corpus covers quoting, line endings, blank and padded cells,
missing markers, NaN/inf spellings, bad labels and malformed rows; a
Hypothesis property covers random small files built from the same pieces.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from creditnet.data import MISSING_DEFAULT, SchemaConfig, load_csv
from creditnet.errors import ConfigError, DataError

from reference_loader import load_csv as reference_load_csv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

MARKER_SETS = {"default": MISSING_DEFAULT, "custom": ("NA", "?", "-1")}
FEATURES = ("a", "b")


def _outcome(loader, path, schema, **kwargs):
    """What a loader makes of a file: its arrays' bits, or its exception."""
    try:
        frame = loader(path, schema, **kwargs)
    except Exception as exc:  # the exception class is part of the outcome
        return type(exc), str(exc)
    return (frame.feature_names, frame.X.shape, frame.X.flags.c_contiguous,
            frame.X.tobytes(), frame.y.dtype, frame.y.tolist(), frame.missing.tobytes())


def _assert_same(path, schema, **kwargs):
    ours = _outcome(load_csv, path, schema, **kwargs)
    assert ours == _outcome(reference_load_csv, path, schema, **kwargs)
    return ours


HEADER = ",label,a,b"

# name -> file text (written as given, so line endings are exact)
CORPUS = {
    "plain": HEADER + "\n1,0,1.5,-2\n2,1,3e-5,4\n",
    "quoted-cells": HEADER + '\n1,"0","1.5",2\n2,1,"-3",\' 4\'\n',
    "doubled-quote": HEADER + '\n1,0,"1""2",2\n',
    "quote-after-digit": HEADER + '\n1,0,1"2",2\n',
    "quote-then-digit": HEADER + '\n1,0,"1"2,2\n',
    "newline-in-quotes": HEADER + '\n1,0,"1\n2",2\n2,1,3,4\n',
    "numeric-newline-in-quotes": HEADER + '\n1,0,"1\n",2\n2,1,"\n3",4\n',
    "crlf": HEADER + "\r\n1,0,1,2\r\n2,1,3,4\r\n",
    "cr-only": HEADER + "\r1,0,1,2\r2,1,3,4\r",
    "blank-lines": HEADER + "\n\n1,0,1,2\n\n\n2,1,3,4\n\n",
    "whitespace-only-line": HEADER + "\n1,0,1,2\n   \n2,1,3,4\n",
    "tab-only-line": HEADER + "\n1,0,1,2\n\t\n",
    "padded-cells": HEADER + "\n1, 0 ,  1.25 ,\t2\n2,1 ,3\t, 4\n",
    "unicode-padding": HEADER + "\n1,\u00a00,\u20031\u2003,2\n",
    "default-markers": HEADER + "\n1,0,,NA\n2,1,NaN,nan\n3,0,null,NULL\n4,1, NA ,1\n",
    "custom-markers": HEADER + "\n1,0,?,-1\n2,1,NA,2\n3,0,-1.0,?\n",
    "literal-nan": HEADER + "\n1,0,1,2\n2,1,nan,4\n",
    "literal-NAN": HEADER + "\n1,0,NAN,2\n",
    "literal-plus-nan": HEADER + "\n1,0,1,+nan\n",
    "literal-inf": HEADER + "\n1,0,1,2\n2,1,3,inf\n",
    "literal-minus-infinity": HEADER + "\n1,0,-Infinity,2\n",
    "overflow-1e400": HEADER + "\n1,0,1e400,2\n",
    "underscore-digits": HEADER + "\n1,0,1_000,2\n",
    "negative-zero": HEADER + "\n1,-0,-0.0,0\n",
    "label-half": HEADER + "\n1,0,1,2\n2,0.5,3,4\n",
    "label-NA": HEADER + "\n1,NA,1,2\n",
    "label-nan": HEADER + "\n1,nan,1,2\n",
    "label-1e0": HEADER + "\n1,1e0,1,2\n2,0e5,3,4\n",
    "label-1.0": HEADER + "\n1,1.0,1,2\n2,0.0,3,4\n",
    "label-two": HEADER + "\n1,2,1,2\n",
    "label-inf": HEADER + "\n1,inf,1,2\n",
    "bad-text-cell": HEADER + "\n1,0,1,2\n2,1,x,4\n",
    "text-fault-after-inf": HEADER + "\n1,0,inf,2\n2,1,oops,4\n",
    "inf-before-bad-label-value": HEADER + "\n1,0,1,inf\n2,0.5,3,4\n",
    "bad-label-before-inf": HEADER + "\n1,0.5,1,2\n2,0,inf,4\n",
    "inf-and-bad-label-one-row": HEADER + "\n1,0.5,inf,2\n",
    "two-inf-one-row": HEADER + "\n1,0,1,-inf\n2,0,inf,inf\n",
    "short-row": HEADER + "\n1,0,1,2\n2,1,3\n",
    "short-row-after-inf": HEADER + "\n1,0,inf,2\n2,1\n",
    "extra-columns": HEADER + ",extra\n1,0,1,2,x\n2,1,3,4,5,6,7\n",
    "unnamed-columns": ",label,,a,,b\n1,0,z,1,,2\n",
    "reordered-columns": "b,,a,label\n2,1,1,0\n4,2,3,1\n",
    "header-only": HEADER + "\n",
    "header-only-no-newline": HEADER,
    "header-and-blank-lines": HEADER + "\n\n\n",
    "no-trailing-newline": HEADER + "\n1,0,1,2",
    "bom-header": "\ufeff" + HEADER + "\n1,0,1,2\n",
    "bom-label-first": "\ufefflabel,a,b\n0,1,2\n",
    "quoted-header": '"",label,"a","b"\n1,0,1,2\n',
    "header-newline-in-quotes": '"x\ny",label,a,b\n1,0,1,2\n',
    "header-newline-numeric-tail": 'label,a,b,"c\n0",1,2\n1,3,4\n',
    "nul-in-cell": HEADER + "\n1,0,1\x002,2\n",
    "unterminated-quote": HEADER + '\n1,0,1,"2\n',
    "delimiter-in-quotes": HEADER + '\n1,0,"1,5",2\n',
    "space-before-quote": HEADER + '\n1,0, "1",2\n',
    "hash-cell": HEADER + "\n1,0,#1,2\n",
}


@pytest.mark.parametrize("markers", MARKER_SETS.values(), ids=MARKER_SETS)
@pytest.mark.parametrize("text", CORPUS.values(), ids=CORPUS)
def test_corpus_matches_reference(text, markers, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same(path, SchemaConfig("label", FEATURES, markers))


def test_marker_spelling_a_valid_label(tmp_path):
    """A marker such as "1" marks missing features but is a label like any other."""
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "\n1,1,1,2\n2,0,3,1\n")
    ours = _assert_same(path, SchemaConfig("label", FEATURES, ("1",)))
    assert ours[5] == [1, 0]


def test_invalid_utf8_raises_like_reference(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER + "\n1,0,1,2\n2,1,").encode() + b"\xff\xfe\n")
    _assert_same(path, SchemaConfig("label", FEATURES))


@pytest.mark.parametrize("header, rows", [(HEADER + "\xff", 1), (HEADER, 1), (HEADER, 5000)],
                         ids=["in-header", "in-header-read", "past-header-read"])
def test_invalid_utf8_is_a_data_error_naming_the_file(header, rows, tmp_path):
    """A byte that is not UTF-8 is a DataError whether ``read_header``'s
    buffered read meets it or, further into the file, the row-by-row
    re-read does."""
    path = tmp_path / "data.csv"
    text = (header + "\n1,0,1,2" * rows + "\n2,1,").encode("latin-1") + b"\xff\xfe\n"
    path.write_bytes(text)
    with pytest.raises(DataError, match=r"data\.csv is not UTF-8 text: byte 0xff"):
        load_csv(path, SchemaConfig("label", FEATURES))


def test_repeated_feature_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "\n1,0,1,NA\n2,1,3,4\n")
    _assert_same(path, SchemaConfig("label", ("b", "a", "b")))


def test_converters_get_str_under_the_numpy1_default_encoding(monkeypatch, tmp_path):
    """Before numpy 2, loadtxt's default encoding was "bytes", which hands the
    converters latin1-encoded bytes; load_csv must not rely on the default."""
    real_loadtxt, seen = np.loadtxt, set()

    def loadtxt(*args, converters, encoding="bytes", **kwargs):
        def spy(conv):
            return lambda text: (seen.add(type(text)), conv(text))[1]
        return real_loadtxt(*args, converters={k: spy(c) for k, c in converters.items()},
                            encoding=encoding, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "\n1,0,NA, 2 \n2,1,,4\n", encoding="utf-8")
    _assert_same(path, SchemaConfig("label", FEATURES))
    assert seen == {str}


@pytest.mark.parametrize("subsample", [1, 3, 5, 50])
def test_subsample_matches_reference(subsample, tmp_path):
    rng = np.random.default_rng(subsample)
    path = tmp_path / "data.csv"
    rows = [f"{i},{rng.integers(2)},{rng.standard_normal()!r},NA" for i in range(20)]
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    _assert_same(path, SchemaConfig("label", FEATURES), subsample=subsample, seed=4)


@pytest.mark.parametrize("subsample", [0, -5, 2.5, "3", True])
def test_subsample_outside_none_or_positive_int_is_a_config_error(subsample, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "\n1,0,1,2\n")
    with pytest.raises(ConfigError, match="subsample must be null or an integer >= 1"):
        load_csv(path, SchemaConfig("label", FEATURES), subsample=subsample)


def test_numpy_integer_subsample_is_accepted(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "\n1,0,1,2\n2,1,3,4\n3,0,5,6\n")
    assert load_csv(path, SchemaConfig("label", FEATURES), subsample=np.int64(2)).n_rows == 2


# ---------------------------------------------------------------------------
# random small files
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
# any cell: numbers, markers, NaN/inf spellings, bad labels, quoting and padding
CELLS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "1e0", "-0", "2", "", "NA", "NaN", "nan", "NAN",
                     "+nan", "null", "NULL", "?", "-1", "inf", "-inf", "1e400", "x",
                     " 1 ", "\t0", '"1"', '"1""2"', '"1\n"', '"1,5"', '"', '1"2',
                     "1_0", "#1", " 1"]),
    NUMBERS,
)
# cells that keep a row valid under both marker sets, but for "nan"
VALID = {
    "label": st.sampled_from(["0", "1", " 1 ", "1.0", "0e0", '"1"', "-0"]),
    "a": st.one_of(NUMBERS, st.sampled_from(["NA", " NA ", '"NA"', "nan", "?"])),
    "b": NUMBERS,
    "": CELLS,
}


@st.composite
def csv_files(draw):
    """Text of a small CSV: a header naming label, a and b plus one unnamed
    column, then rows of mostly valid cells with a few drawn from any piece,
    random row lengths, blank lines and line endings."""
    header = draw(st.permutations(["", "label", "a", "b"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        width = draw(st.sampled_from([len(header)] * 8 + [1, 2, len(header) + 1]))
        lines.append(",".join(
            draw(CELLS if draw(st.integers(0, 24)) == 0 else VALID[name])
            for name in [*header, ""][:width]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=300, deadline=None)
@given(csv_files(), st.sampled_from(sorted(MARKER_SETS)))
def test_random_files_match_reference(text, marker_set):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_same(path, SchemaConfig("label", FEATURES, MARKER_SETS[marker_set]))
