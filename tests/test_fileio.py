"""Property tests for the trace CSV writer and reader: the writer's text is
fmt() of every cell, finite tables round-trip at the writer's 12 digits,
one corrupt cell or short row is named by its file line and column, and
a file without a charge column integrates its current like the reference
trapezoid. The chunked writer matches a one-shot writer across its chunk
boundaries, its bulk formatter writes the bytes of "%.12g" for every
float (ties, carries, powers of ten and label columns among them), a bad
cell deep in a long file is still named, and both sides stay within a
bound of the trace's array bytes in traced memory, the writer also within
the peak of the one-%-a-chunk writer it replaced."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from pairdva import fileio
from pairdva.pairsim import (SimConfig, SimTrace, make_pair,
                             simulate_cc_discharge)
from pairdva.sweep import FeatureMap, ProductBin, ProductCurve, SweepCell

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


def nudged(x, ulps):
    """x moved ulps floats up, or down for a negative ulps."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# 12-digit decimals N 10^k and the ties (N + 1/2) 10^k between them, of
# either sign, each moved a few ulps: the cells next to a rounding tie
near_ties = st.builds(
    lambda n, half, k, sign, ulps: nudged(sign * (n + half) * 10.0 ** k,
                                          ulps),
    st.integers(10**11, 10**12 - 1), st.sampled_from([0.0, 0.5]),
    st.integers(-16, 1), st.sampled_from([1.0, -1.0]), st.integers(-3, 3))

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
@given(rows=st.lists(st.tuples(*[st.one_of(any_float, near_ties)]
                               * len(COLUMNS)), min_size=1, max_size=6))
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


@pytest.mark.parametrize("mark", ["\x85", "\x0c"],
                         ids=["next_line", "form_feed"])
def test_line_break_characters_inside_a_line_keep_its_number(tmp_path,
                                                             mark):
    # str.splitlines breaks at U+0085 and form feeds; a file's lines end
    # only at a newline or carriage return
    path = tmp_path / "marked.csv"
    path.write_text(f"t_s,i_total_A,vt_V\n0,-40,4.1{mark}\n1,-40,abc\n"
                    "2,-40,4.0\n", encoding="utf-8")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_trace_csv(path)
    assert err.value.stage == "io"
    assert str(err.value) == (f"{path} line 3: column vt_V holds the "
                              f"non-numeric value 'abc'")


def test_first_bad_row_in_file_order_is_named(tmp_path):
    path = tmp_path / "two_bad.csv"
    path.write_text("t_s,i_total_A,vt_V\n0,-40,4.1\n1,-40,nan\n"
                    "2,-40,4.0\n3,-40\n")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_trace_csv(path)
    assert err.value.stage == "io"
    assert str(err.value) == (f"{path} line 3: column vt_V holds the "
                              f"non-finite value nan")


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


def random_trace(n, seed=0):
    """A SimTrace of n rows of random floats over many magnitudes, with
    -0.0 and a subnormal among them; no integration."""
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(len(FIELDS), n)) * 10.0 ** rng.integers(
        -30, 30, size=(len(FIELDS), n))
    cols[:, ::97] = -0.0
    cols[:, 5::101] = 5e-324
    return SimTrace(**dict(zip(FIELDS, cols)))


def one_shot_csv(header, rows, n_floats, tail=""):
    """The CSV text of the writer that formatted the whole file at once."""
    row_format = ",".join(["%.12g"] * n_floats) + tail + "\n"
    return header + "\n" + "".join([row_format % row for row in rows])


C = fileio.CHUNK_ROWS


# each side of one, two, four and eight chunks
@pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 1, 4 * C - 1,
                               4 * C, 4 * C + 1, 8 * C + 1])
def test_chunked_trace_matches_one_shot_writer(tmp_path, n):
    trace = random_trace(n)
    path = tmp_path / "trace.csv"
    fileio.write_trace_csv(trace, path)
    cols = [getattr(trace, field).tolist() for field in FIELDS]
    assert path.read_text() == one_shot_csv(fileio.TRACE_HEADER, zip(*cols),
                                            len(FIELDS))
    if n < 2:
        with pytest.raises(fileio.FormatError, match="has 1 usable data row; "
                           "a trace needs at least 2"):
            fileio.read_trace_csv(path)
        return
    back = fileio.read_trace_csv(path)
    for field, col in zip(FIELDS, cols):
        assert getattr(back, field).tolist() == [float(fileio.fmt(x))
                                                 for x in col]


def test_chunked_feature_map_matches_one_shot_writer(tmp_path):
    # a failed cell writes nan features and its error class as status
    cells = [SweepCell(alpha=0.5 + k / 3.0, beta=1.0 + k / 7.0,
                       status="NoPeakError", stage="peak_height",
                       message="monotone") if k % 5 == 2 else
             SweepCell(alpha=0.5 + k / 3.0, beta=1.0 + k / 7.0,
                       features=SimpleNamespace(height=k / 11.0,
                                                skewness=-k / 13.0))
             for k in range(C + 1)]
    fmap = FeatureMap(alpha_grid=None, beta_grid=None, cells=cells,
                      c_total=100.0, r_parallel=0.01, sim_config=None,
                      smoothing=None)
    path = tmp_path / "featuremap.csv"
    fileio.write_featuremap_csv(fmap, path)
    rows = [(c.alpha, c.beta, c.product,
             c.features.height if c.ok else math.nan,
             c.features.skewness if c.ok else math.nan, c.status)
            for c in cells]
    text = path.read_text()
    assert text == one_shot_csv(fileio.FEATUREMAP_HEADER, rows, 5, ",%s")
    header, *lines = text.splitlines()
    assert header == fileio.FEATUREMAP_HEADER
    for line, row in zip(lines, rows, strict=True):
        *floats, status = line.split(",")
        assert status == row[-1]
        assert np.array_equal([float(x) for x in floats],
                              [float(fileio.fmt(x)) for x in row[:-1]],
                              equal_nan=True)


def test_chunked_product_curve_round_trips(tmp_path):
    bins = [ProductBin(product=0.25 + k / 1000.0, mean_height=k / 7.0,
                       mean_skewness=-k / 9.0, spread_height=k / 11.0,
                       spread_skewness=k / 13.0, n=k % 4 + 1)
            for k in range(C + 1)]
    path = tmp_path / "curve.csv"
    fileio.write_product_curve_csv(ProductCurve(rows=bins), path)
    assert path.read_text() == one_shot_csv(
        fileio.PRODUCT_CURVE_HEADER,
        [(b.product, b.mean_height, b.mean_skewness, b.spread_height,
          b.spread_skewness, b.n) for b in bins], 5, ",%s")
    back = fileio.read_product_curve_csv(path).rows
    assert [b.n for b in back] == [b.n for b in bins]
    assert [b.mean_skewness for b in back] == [
        float(fileio.fmt(b.mean_skewness)) for b in bins]


def written_cells(path, values):
    """The cells the writer makes of values, a one-column table."""
    fileio._write_table(path, "x", [values])
    return path.read_text().splitlines()[1:]


def test_specials_powers_of_ten_and_carries_match_percent_12g(tmp_path):
    # the cells written alone (nan, +-inf, +-0, subnormal and exponent-form
    # magnitudes), 10^k and the values whose 12-digit rounding carries
    # into a 13th digit (or stops one short of it), a few ulps either
    # side, both signs
    edges = [math.nan, math.inf, 0.0, 5e-324, 2.2250738585072014e-308,
             1e-5, 1.5e300]
    edges += [10.0 ** k for k in range(-6, 14)]
    edges += [m * 10.0 ** k for m in (9.9999999999996, 9.99999999999949,
                                      9.9999999999995)
              for k in range(-6, 13)]
    values = [nudged(sign * x, ulps) for x in edges for sign in (1.0, -1.0)
              for ulps in range(-3, 4)]
    assert written_cells(tmp_path / "edges.csv", values) == [
        "%.12g" % v for v in values]


def test_whole_and_constant_columns_match_one_shot_writer(tmp_path):
    # a trace's t_s counts whole seconds from 0 and its i_total_A is one
    # constant; whole values up to 12 digits and past them, zeros too
    n = 2 * C + 3
    k = np.arange(n, dtype=float)
    cols = [k, np.full(n, -40.0), np.full(n, -40.0 / 3.0), k * 1e6,
            np.full(n, 1.0), 1.0 - k / n, k * 0.05, np.zeros(n),
            -(k * 7919.0) ** 3, np.full(n, 4.2)]
    trace = SimTrace(**dict(zip(FIELDS, cols)))
    path = tmp_path / "trace.csv"
    fileio.write_trace_csv(trace, path)
    assert path.read_text() == one_shot_csv(
        fileio.TRACE_HEADER, zip(*[c.tolist() for c in cols]), len(FIELDS))


def test_labels_of_any_width_follow_the_float_cells(tmp_path):
    # the label column goes into the same text layout as the floats,
    # however long its widest item
    labels = ["ok", "NoPeakError", "", "x" * 45, 7, 10**30]
    floats = [[1.5, -0.0, math.nan, 1e300, 0.1, 12345.6789],
              [-2.0, math.inf, 5e-324, 1e-5, 0.000123456789012, 3.0]]
    path = tmp_path / "labelled.csv"
    fileio._write_table(path, "a,b,label", floats, labels)
    assert path.read_text() == one_shot_csv("a,b,label",
                                            zip(*floats, labels), 2, ",%s")


# the tracemalloc peak of write_trace_csv when each 1,024-row chunk was
# formatted by one %, for the (0.7, 1.6) trace at dt_s 1 and 0.1 alike
PERCENT_WRITER_PEAK = 614 * 1024


@pytest.mark.parametrize("dt", [1.0, 0.1])
def test_trace_write_peaks_below_the_percent_writer(tmp_path, dt):
    trace = simulate_cc_discharge(make_pair(0.7, 1.6), SimConfig(dt=dt))
    tracemalloc.start()
    try:
        fileio.write_trace_csv(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PERCENT_WRITER_PEAK


def test_spaced_product_curve_header_reads_like_plain_file(tmp_path):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    rows = ["0.5,0.01,-0.2,0.001,0.01,3", "1,0.016,0,0.001,0.01,3"]
    plain.write_text("\n".join([fileio.PRODUCT_CURVE_HEADER, *rows]) + "\n")
    spaced.write_text("\n".join(ln.replace(",", ", ") for ln in
                                [fileio.PRODUCT_CURVE_HEADER, *rows]) + "\n")
    want = fileio.read_product_curve_csv(plain).rows
    assert fileio.read_product_curve_csv(spaced).rows == want
    assert want[1] == ProductBin(1.0, 0.016, 0.0, 0.001, 0.01, 3)


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory):
    """A 10,000-row trace CSV; data row 7,000 sits on file line 7,001."""
    path = tmp_path_factory.mktemp("long") / "trace.csv"
    fileio.write_trace_csv(random_trace(10_000, seed=1), path)
    return path


@pytest.mark.parametrize("edit,where", [
    (lambda cells: cells[:3] + ["x7"] + cells[4:],
     "column i2_A holds the non-numeric value 'x7'"),
    (lambda cells: cells[:6], "column q_pair_Ah is missing (6 of 10 cells)"),
    (lambda cells: cells[:8] + ["inf"] + cells[9:],
     "column q2_Ah holds the non-finite value inf"),
])
def test_bad_row_deep_in_long_file_is_named(long_csv, tmp_path, edit,
                                            where):
    lines = long_csv.read_text().splitlines()
    lines[7000] = ",".join(edit(lines[7000].split(",")))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_trace_csv(bad)
    assert str(err.value) == f"{bad} line 7001: {where}"


def test_whitespace_line_deep_in_long_file_reads_like_clean_file(long_csv,
                                                                 tmp_path):
    lines = long_csv.read_text().splitlines()
    lines.insert(7000, " \t ")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n".join(lines) + "\n")
    want, got = fileio.read_trace_csv(long_csv), fileio.read_trace_csv(spaced)
    for field in FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_header_only_files_rejected_without_numpy_warning(tmp_path):
    trace, curve = tmp_path / "trace.csv", tmp_path / "curve.csv"
    trace.write_text(f"\n  \n{fileio.TRACE_HEADER}\n\n \n")
    curve.write_text(f"{fileio.PRODUCT_CURVE_HEADER}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fileio.FormatError, match="no usable data rows"):
            fileio.read_trace_csv(trace)
        with pytest.raises(fileio.FormatError, match="has no data rows"):
            fileio.read_product_curve_csv(curve)


def test_byte_order_mark_is_dropped(tmp_path):
    rows = [[0.5 * k + c for c in range(len(COLUMNS))] for k in range(3)]
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write(rows, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = fileio.read_trace_csv(plain), fileio.read_trace_csv(marked)
    for field in FIELDS:
        assert list(getattr(got, field)) == list(getattr(want, field))

    curve = tmp_path / "curve.csv"
    curve.write_bytes(b"\xef\xbb\xbf" + (
        f"{fileio.PRODUCT_CURVE_HEADER}\n1,0.1,0.2,0,0,3\n").encode())
    assert fileio.read_product_curve_csv(curve).rows == [
        ProductBin(1.0, 0.1, 0.2, 0.0, 0.0, 3)]


@pytest.mark.parametrize("where", ["header", "row"])
def test_undecodable_bytes_rejected(tmp_path, where):
    # a Latin-1 degree sign, as a spreadsheet in a Western locale writes it
    header = b"t_s,i_total_A,vt_V"
    rows = [b"%d,-40,4.1" % k for k in range(2000)]
    if where == "header":
        header += b"\xb0"
    else:                       # past the first block the decoder reads
        rows[1500] += b"\xb0"
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join([header, *rows]) + b"\n")
    with pytest.raises(fileio.FormatError, match="cannot read .*utf-8"):
        fileio.read_trace_csv(path)


def test_clean_file_is_never_read_as_text(long_csv, monkeypatch):
    # every pass after the one parse reads the open file again through
    # _reread
    def no_text(csv):
        raise AssertionError(f"{csv.name} read as text")

    monkeypatch.setattr(fileio, "_reread", no_text)
    assert len(fileio.read_trace_csv(long_csv)) == 10_000


def test_memory_stays_bounded_by_array_bytes(tmp_path):
    trace = random_trace(100_000, seed=2)
    array_bytes = sum(getattr(trace, field).nbytes for field in FIELDS)
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        fileio.write_trace_csv(trace, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fileio.read_trace_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # writing the whole text at once peaked near 8x, reading it near 5.7x
    assert write_peak <= 0.25 * array_bytes
    assert read_peak <= 1.5 * array_bytes
