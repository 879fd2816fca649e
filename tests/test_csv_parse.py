"""``load_csv``'s streaming parse against the cell-by-cell reading it replaced.

``oracle_load`` is the reading ``load_csv`` defined before the streaming
parse: ``csv.reader`` rows with empty rows dropped, ``float()`` per cell, and
the first row a header when any of its cells fails ``float()``. On every
generated text ``load_csv`` must return a bit-identical array or raise the
same exception class with the same message. The texts include fields around
the csv module's field size limit, which numpy does not apply.
"""

import csv
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from onmfcluster import cli
from onmfcluster.cli import CsvFormatError, NegativeEntryError, load_csv


def oracle_load(path) -> np.ndarray:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")

    def parse(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    start = 1 if any(parse(c) is None for c in rows[0]) else 0
    if len(rows) == start:
        raise CsvFormatError(f"{path}: no data rows below the header")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:]):
        file_row = start + i + 1
        if len(row) != width:
            raise CsvFormatError(f"{path}: row {file_row} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            value = parse(cell)
            if value is None or not math.isfinite(value):
                raise CsvFormatError(
                    f"{path}: non-finite or non-numeric value {cell!r} "
                    f"at (row {file_row}, col {j + 1})"
                )
            if value < 0:
                raise NegativeEntryError(file_row, j + 1, value)
            data[i, j] = value
    return data


def outcome(load, path):
    try:
        X = load(path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    return X.dtype, X.shape, X.tobytes()


# Cells both readers accept, and cells that send a file to the scan: values
# numpy parses but the checks reject, and text only float() reads.
GOOD = ["1", " 2 ", '"3"', "-0", "0.5", "7e-3", "\x0b4", "5\u2028", "\t6 ", '"8"9', '"9\r\n"']
BAD = ["-1", "nan", "inf", "1e400", "1_0", "0x10", "\u0661", "", "2 #c", "a", ' "3"', '1"2"', '"1,2"']
HEADERS = ["a", "b c", '"x,y"', "1", '"p\nq"']


def quoted_lines(n: int, newline: str = "\n") -> str:
    """A quoted number of n characters on three lines, each under half the limit."""
    line = " " * (n // 3) + newline
    return '"' + 2 * line + " " * (n - 2 * len(line) - 1) + '7"'


@st.composite
def long_cells(draw):
    """A numeric field whose text is within a few characters of the limit."""
    n = csv.field_size_limit() + draw(st.integers(-4, 4))
    kind = draw(st.sampled_from(["digits", "padded", "quoted lines"]))
    if kind == "digits":
        return "0" * (n - 1) + "3"
    if kind == "padded":
        return " " * (n // 2) + "5" + " " * (n - n // 2 - 1)
    return quoted_lines(n, draw(st.sampled_from(["\n", "\r\n"])))


@st.composite
def csv_texts(draw):
    clean = draw(st.booleans())
    width = draw(st.integers(1, 3))
    cells = st.sampled_from(GOOD if clean else GOOD * 3 + BAD)
    kinds = ["row"] * 4 + ["blank", "space", "long"] + ([] if clean else ["ragged", "trailing comma"])
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(st.sampled_from(HEADERS), min_size=width, max_size=width))))
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "\x0b", "\u2028"])))
        else:
            n = draw(st.integers(1, 4)) if kind == "ragged" else width
            row = draw(st.lists(cells, min_size=n, max_size=n))
            if kind == "long":
                row[draw(st.integers(0, n - 1))] = draw(long_cells())
            row = ",".join(row)
            lines.append(row + ("," if kind == "trailing comma" else ""))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if endings and draw(st.booleans()):
        endings[-1] = ""
    bom = "\ufeff" * draw(st.integers(0, 2))
    return bom + "".join(line + end for line, end in zip(lines, endings))


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example("1,2\n3,4 #c\n")
@example("a,b\n1,1_0\n3,\u0661\n")
@example('1,2\n1"2",3\n')
@example("1,2\n \n3,4\n")
@example("x\n1\n-0\n-1\n")
@example("1,2\n3,1e400\n")
@example("1,2\n" + "0" * 200000 + "3,4\n")
@example("1,2\n" + "0" * 200000 + "3,-4\n")
@example("1,2\n1," + "0" * csv.field_size_limit() + "3\n")
@example("1\n" + quoted_lines(csv.field_size_limit() + 1) + "\n")
def test_load_csv_matches_the_cell_by_cell_reading(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path) == outcome(oracle_load, path)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,2\n3,4\n", [[1, 2], [3, 4]]),
        ("a,b\r\n\r\n1,2\r\n3,4", [[1, 2], [3, 4]]),
        ("\ufeff\n\n1\r2\r", [[1], [2]]),
        ('"p\nq",r\n"1", 2 \n-0,0.5\n', [[1, 2], [-0.0, 0.5]]),
        ("x\n\n\n7\n", [[7]]),
        pytest.param("1," * 70000 + "2\n", [[1] * 70000 + [2]], id="line over the field limit"),
    ],
)
def test_well_formed_files_never_reach_the_scan(tmp_path, monkeypatch, text, expected):
    def scan(path):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "_scan", scan)
    path = tmp_path / "a.csv"
    path.write_bytes(text.encode("utf-8"))
    X = load_csv(path)
    assert_array_equal(X, expected)
    assert np.signbit(X).tolist() == np.signbit(np.array(expected, dtype=float)).tolist()


def test_load_csv_peaks_at_the_array_plus_two_mebibytes(tmp_path):
    X = np.random.default_rng(0).uniform(0, 10, (10000, 32))
    path = tmp_path / "tall.csv"
    np.savetxt(path, X, fmt="%.6f", delimiter=",")
    tracemalloc.start()
    try:
        loaded = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_array_equal(loaded, oracle_load(path))
    assert peak < X.nbytes + 2 * 2**20
