"""Property tests for the trace CSV reader: finite tables round-trip at the
writer's 12 digits, and one corrupt cell or short row is named by its file
line and column."""

import pytest
from hypothesis import given, settings, strategies as st

from pairdva import fileio
from pairdva.pairsim import SimTrace

COLUMNS = fileio.TRACE_HEADER.split(",")
# SimTrace fields in the column order of TRACE_HEADER
FIELDS = ("t", "i_total", "i1", "i2", "z1", "z2", "q_pair", "q1", "q2",
          "v_t")

finite = st.floats(allow_nan=False, allow_infinity=False)
tables = st.lists(st.tuples(*[finite] * len(COLUMNS)), min_size=2,
                  max_size=6)
# no letter of nan, inf or an exponent, so float() rejects every word
words = st.text(alphabet="abcdwxyz", min_size=1, max_size=8)
corruptions = st.one_of(st.sampled_from(["nan", "inf", "-inf", "drop"]),
                        words)

deterministic = settings(derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio") / "trace.csv"


def write(rows, path):
    cols = list(zip(*rows))
    fileio.write_trace_csv(SimTrace(**dict(zip(FIELDS, cols))), path)


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
