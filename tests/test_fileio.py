"""Property tests for the trace CSV writer and reader: the writer's text is
fmt() of every cell, finite tables round-trip at the writer's 12 digits,
one corrupt cell or short row is named by its file line and column, and
a file without a charge column integrates its current like the reference
trapezoid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from pairdva import fileio
from pairdva.pairsim import SimTrace

COLUMNS = fileio.TRACE_HEADER.split(",")
# SimTrace fields in the column order of TRACE_HEADER
FIELDS = ("t", "i_total", "i1", "i2", "z1", "z2", "q_pair", "q1", "q2",
          "v_t")

finite = st.floats(allow_nan=False, allow_infinity=False)
tables = st.lists(st.tuples(*[finite] * len(COLUMNS)), min_size=2,
                  max_size=6)
# every float, with -0.0, subnormals, +-1e308 and whole values drawn often
any_float = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.integers(-10**17, 10**17).map(float))
# no letter of nan, inf or an exponent, so float() rejects every word
words = st.text(alphabet="abcdwxyz", min_size=1, max_size=8)
# "1_0" is float()'s underscore digit grouping, which the reader rejects
corruptions = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1_0", "drop"]), words)

deterministic = settings(derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio") / "trace.csv"


def write(rows, path):
    cols = list(zip(*rows))
    fileio.write_trace_csv(SimTrace(**dict(zip(FIELDS, cols))), path)


def reference_trace_csv(rows):
    """The trace CSV text of the per-cell writer that the one-format-per-row
    writer replaced."""
    lines = [fileio.TRACE_HEADER]
    for row in rows:
        lines.append(",".join(fileio.fmt(x) for x in row))
    return "\n".join(lines) + "\n"


@deterministic
@given(rows=st.lists(st.tuples(*[any_float] * len(COLUMNS)), min_size=1,
                     max_size=6))
def test_writer_text_is_fmt_of_each_cell(csv_path, rows):
    write(rows, csv_path)
    text = csv_path.read_text()
    assert text == reference_trace_csv(rows)
    written = [line.split(",") for line in text.splitlines()[1:]]
    assert written == [[fileio.fmt(x) for x in row] for row in rows]


@deterministic
@given(rows=tables)
def test_finite_trace_round_trips(csv_path, rows):
    write(rows, csv_path)
    back = fileio.read_trace_csv(csv_path)
    for field, column in zip(FIELDS, zip(*rows)):
        assert list(getattr(back, field)) == [float(fileio.fmt(x))
                                              for x in column]


@deterministic
@given(rows=tables, data=st.data(), bad=corruptions)
def test_corrupt_cell_names_line_and_column(csv_path, rows, data, bad):
    write(rows, csv_path)
    lines = csv_path.read_text().splitlines()
    row = data.draw(st.integers(1, len(rows)), label="row")
    cells = lines[row].split(",")
    if bad == "drop":
        col = len(COLUMNS) - 1
        del cells[col]
    else:
        col = data.draw(st.integers(0, len(COLUMNS) - 1), label="column")
        cells[col] = bad
    lines[row] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_trace_csv(csv_path)
    message = str(err.value)
    assert f"line {row + 1}:" in message
    assert f"column {COLUMNS[col]} " in message


def write_crlf(path, header, rows):
    """Write four data rows with CRLF line endings and blank or
    whitespace-only lines among them; rows[2] sits on file line 7."""
    lines = [header, "", rows[0], rows[1], " ", "", rows[2], rows[3]]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())


def test_crlf_blank_lines_and_padding_read_like_plain_file(tmp_path):
    rows = [[0.5 * k + c for c in range(len(COLUMNS))] for k in range(4)]
    plain, messy = tmp_path / "plain.csv", tmp_path / "messy.csv"
    write(rows, plain)
    header, *data = plain.read_text().splitlines()
    padded = ["  " + " , ".join(ln.split(",")) + "\t" for ln in data]
    write_crlf(messy, header, padded)
    want = fileio.read_trace_csv(plain)
    got = fileio.read_trace_csv(messy)
    for field in FIELDS:
        assert list(getattr(got, field)) == list(getattr(want, field))

    # a non-finite cell after the blank lines is named at its file line
    cells = padded[2].split(",")
    cells[3] = " inf "
    padded[2] = ",".join(cells)
    write_crlf(messy, header, padded)
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_trace_csv(messy)
    assert f"line 7: column {COLUMNS[3]} holds the non-finite value inf" \
        in str(err.value)


def test_minimal_columns_charge_equals_reference_trapezoid(tmp_path):
    # lab-style: irregular 1-10 s sampling, noisy current, 0.1 mV steps
    rng = np.random.default_rng(11)
    t = np.cumsum(rng.uniform(1.0, 10.0, 2000))
    i = -40.0 + 0.2 * rng.normal(size=t.size)
    v = np.round(4.1 - 1e-4 * t, 4)
    path = tmp_path / "lab.csv"
    np.savetxt(path, np.column_stack((t, i, v)), fmt="%.17g", delimiter=",",
               header="t_s,i_total_A,vt_V", comments="")
    got = fileio.read_trace_csv(path).q_pair
    assert np.array_equal(
        got, cumulative_trapezoid(np.abs(i), t, initial=0.0) / 3600.0)
