"""CSV and JSON serialization with reproducible float formatting.

Every float is written with 12 significant digits, so identical inputs
produce byte-identical files. Sidecar JSONs echo the fully resolved
configuration so any output can regenerate its run.

CSVs go through memory a bounded piece at a time. One writer serves every
CSV: it formats and writes CHUNK_ROWS rows per write, never the text of
the whole file. It formats a chunk's floats in bulk, to the bytes of
"%.12g" % x: a finite nonzero cell whose decimal exponent E is in
[-4, 11] takes its 12 digits from floor(y + 0.5), y = |x| 10^(11 - E),
when y is in [1e11, 1e12 - 1) and its fraction at least 2^-12 from one
half; every other cell (nan, +-inf, +-0, exponent form, a near-tie, an
exponent off by one) is formatted alone through "%.12g". Every output
is opened by create_text, which reports a
file it cannot write as a FormatError. A reader takes the header line,
then hands the open file to np.loadtxt, so it holds no copy of a regular
file's text; a pipe cannot be rewound, so its text is held in memory
until the read returns. Every later pass reads the same handle from its
start: only a file that parse rejects (a whitespace-only line, a
malformed or a non-finite cell) or that breaks a rule of its format is
read again, line by line, to drop those lines or to name a row's file
line (and column). Every input is opened by open_text, which decodes
UTF-8 and drops a leading byte-order mark, as spreadsheet exports write
one, and its lines are numbered by numbered_lines alone.

Each format is stated once, as a table below: TRACE_COLUMNS for the trace
CSV, FEATURES_KEYS for the features JSON, FEATUREMAP_COLUMNS for the
feature-map CSV and ProductBin's fields for the product-curve CSV. Its
writer, and its reader where it has one, follow the table.
"""

import dataclasses
import io
import json
import math
from collections import Counter
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FormatError
from .features import PeakFeatures, SurrogateFit
from .kernels import backend
from .pairsim import SECONDS_PER_HOUR, PairSpec, SimTrace
from .sweep import FeatureMap, IdentificationResult, ProductBin, ProductCurve

# The trace CSV schema: each column's SimTrace field and its role, in the
# order the writer puts them. A reader needs the "pair" columns, rebuilds
# the "charge" column from the current when it is missing, and zero-fills
# a missing "cell" column; the trace carries both cells only when all six
# are present.
TRACE_COLUMNS = {
    "t_s": ("t", "pair"), "i_total_A": ("i_total", "pair"),
    "i1_A": ("i1", "cell"), "i2_A": ("i2", "cell"),
    "z1": ("z1", "cell"), "z2": ("z2", "cell"),
    "q_pair_Ah": ("q_pair", "charge"),
    "q1_Ah": ("q1", "cell"), "q2_Ah": ("q2", "cell"),
    "vt_V": ("v_t", "pair"),
}
TRACE_HEADER = ",".join(TRACE_COLUMNS)
REQUIRED_TRACE_COLUMNS = tuple(
    name for name, (_, role) in TRACE_COLUMNS.items() if role == "pair")
_CELL_COLUMNS = tuple(
    name for name, (_, role) in TRACE_COLUMNS.items() if role == "cell")

# the fit diagnostics, which files written before them lack
_FIT_DIAGNOSTICS = {
    "fit.n_iter": ("n_iter", "integer"),
    "fit.scaled_gradient": ("scaled_gradient", "number"),
}
# The features JSON: each key, in the order the writer puts them, with the
# PeakFeatures field it holds and its JSON kind. A "fit." key sits in the
# "fit" object and holds a field of the SurrogateFit.
FEATURES_KEYS = {
    "height_V_per_Ah": ("height", "number"),
    "q_at_peak_Ah": ("q_at_peak", "number"),
    "v_at_peak_V": ("v_at_peak", "number"),
    "skewness": ("skewness", "number"),
    **{f"fit.{name}": (name, "number") for name in "abcdef"},
    "fit.residual_rms_V": ("residual_rms", "number"),
    "fit.converged": ("converged", "bool"),
    **_FIT_DIAGNOSTICS,
    "window_V": ("window", "pair"),
}

# The feature-map CSV: each float column and its value from a SweepCell,
# in the order the writer puts them, with nan for a failed cell's
# features; the cell's status is the last column.
FEATUREMAP_COLUMNS = {
    "alpha": lambda c: c.alpha, "beta": lambda c: c.beta,
    "product": lambda c: c.product,
    "height_V_per_Ah": lambda c: c.features.height if c.ok else math.nan,
    "skewness": lambda c: c.features.skewness if c.ok else math.nan,
}
FEATUREMAP_HEADER = ",".join([*FEATUREMAP_COLUMNS, "status"])
# the product-curve CSV's columns are ProductBin's fields, in order
_PRODUCT_CURVE_COLUMNS = [f.name for f in dataclasses.fields(ProductBin)]
PRODUCT_CURVE_HEADER = ",".join(_PRODUCT_CURVE_COLUMNS)

# rows formatted per write; one chunk's text and work arrays are the
# writer's largest buffers
CHUNK_ROWS = 256


def fmt(x) -> str:
    """Canonical 12-significant-digit text form of a float."""
    return f"{float(x):.12g}"


# the longest "%.12g" text, that of -2.22507385851e-308
_CELL_BYTES = 19
# y = |x| 10^(11 - E) is one rounded product, within 2^-14 of the exact
# one, so a y whose fraction is this far from one half rounds as it does
_TIE_MARGIN = 2.0 ** -12
_POW10 = np.array([float(10 ** k) for k in range(16)])     # all exact
_INT_POW10 = 10 ** np.arange(5, dtype=np.int64)
# "%04d" of 0..9999 as the four ASCII bytes of a little-endian uint32, so
# its first digit is its first byte in memory; built from one digit an
# axis, so that no step holds more than the table
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_DIGITS4 = (_DIGIT[:, None, None, None] | _DIGIT[:, None, None] << 8
            | _DIGIT[:, None] << 16 | _DIGIT << 24).ravel().astype("<u4")
_DIGIT_INDEX = np.arange(17, dtype=np.uint8)[:, None]


def _format_cells(x, text):
    """Write "%.12g" % v of each float v of x, a 1-d array, into the
    matching column of text, a uint8 array of one column a cell whose
    first _CELL_BYTES rows are zero: its bytes top-down from row 0, with
    zeros (NULs) where the text has no byte.

    A finite nonzero v whose decimal exponent E (that of v rounded to 12
    digits) is in [-4, 11], the range %g writes without an exponent, is
    formatted in bulk. y = |v| 10^(11 - E) is within 2^-14 of the exact
    product; when 1e11 <= y < 1e12 - 1 and y's fraction is at least
    2^-12 from one half, floor(y + 0.5) is the correctly rounded 12-digit
    significand N that %g writes. Its digits, times 10^(4 + min(E, 0)),
    are 16 digits d (led by zeros when E < 0), written as
    d[:E+1] "." d[E+1:] (d[0] "." d[1:] when E < 0) with the fraction's
    trailing zeros and a bare point dropped, and a "-" in row 0 of a
    negative v. Each step
    works on 0/1 byte masks over the whole block, one row of text a digit
    place. Every other cell (nan, +-inf, +-0, exponent form, a y near a
    tie or one from E off by one) is formatted alone through "%.12g"."""
    mag = np.abs(x)
    # cells outside the bulk range are clamped into it, so every value
    # below stays finite; their text is replaced at the end
    y = np.fmin(np.fmax(mag, 1e-4), 1e12 - 1.0)
    bulk = mag == y
    exp = np.floor(np.log10(y))
    exp = np.clip(exp, -4.0, 11.0, out=exp).astype(np.intp)
    y *= np.take(_POW10, 11 - exp)
    bulk &= (y >= 1e11) & (y < 1e12 - 1.0)
    bulk &= np.abs(y - np.floor(y) - 0.5) >= _TIE_MARGIN
    sig = np.floor(y + 0.5).astype(np.int64)
    sig *= np.take(_INT_POW10, 4 + np.minimum(exp, 0))
    groups = np.empty((4, len(x)), np.int64)      # four digits each
    for k in (3, 2, 1):
        rest = sig // 10000
        groups[k] = sig - rest * 10000
        sig = rest
    groups[0] = sig
    # a cell from an E one too low has a first group past 9999, clipped:
    # its text is replaced
    digits = (np.take(_DIGITS4, groups, mode="clip").view(np.uint8)
              .reshape(4, len(x), 4).transpose(0, 2, 1).reshape(16, -1))
    # kept[c]: a digit at or after place c is not 0
    kept = np.zeros((17, len(x)), np.uint8)
    np.not_equal(digits, ord("0"), out=kept[:16].view(bool))
    for c in range(14, -1, -1):
        kept[c] |= kept[c + 1]
    # before[c]: place c is left of the point, which follows place
    # max(E, 0); those digits go to rows 1.., the rest one row further
    before = (_DIGIT_INDEX <= np.maximum(exp, 0).astype(np.uint8)
              ).view(np.uint8)
    np.multiply(digits, before[:16], out=text[1:17])
    after = before ^ 1
    point = after[1:] & before[:-1]
    point &= kept[1:]
    point *= ord(".")
    text[2:18] += point
    after &= kept
    after[:16] *= digits
    text[2:18] += after[:16]
    text[0] = (x < 0).view(np.uint8) * ord("-")
    alone = np.flatnonzero(~bulk)
    if alone.size:
        cells = np.array(["%.12g" % v for v in x[alone].tolist()],
                         f"S{_CELL_BYTES}")
        text[:_CELL_BYTES, alone] = cells.view(np.uint8).reshape(
            -1, _CELL_BYTES).T


def _write_table(path, header: str, columns, labels=None):
    """Write the header line, then one row per index of the float columns,
    each cell in fmt's 12 digits ("%.12g" % x is the text of f"{x:.12g}"),
    then the row's item of labels, if given, as str() makes it.

    A chunk of CHUNK_ROWS rows is laid out column-major: one uint8 array
    with a row per text byte and a column per cell (the float columns'
    cells, then the labels), zero where a cell's text is shorter, and
    each cell's separator in its last row. _format_cells fills the float
    cells: in bulk each finite nonzero cell whose decimal exponent is in
    [-4, 11] and whose scaled significand is at least 2^-12 from a
    rounding tie, alone through "%.12g" every other. One transpose into
    row order and one drop of the zero bytes make the chunk's text, and
    one write writes it."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    floats = len(cols)
    tail = [] if labels is None else [np.array(
        [str(v).encode() for v in labels], dtype=bytes)]
    width = max([_CELL_BYTES] + [t.itemsize for t in tail]) + 1
    with create_text(path) as out:
        out.write(header + "\n")
        for start in range(0, len(cols[0]), CHUNK_ROWS):
            block = np.stack([c[start:start + CHUNK_ROWS] for c in cols])
            rows = block.shape[1]
            text = np.zeros((width, (floats + len(tail)) * rows), np.uint8)
            text[-1] = ord(",")
            text[-1, -rows:] = ord("\n")
            _format_cells(block.ravel(), text[:, :floats * rows])
            for t in tail:
                text[:t.itemsize, floats * rows:] = (
                    t[start:start + rows].view(np.uint8).reshape(rows, -1).T)
            out.write(text.reshape(width, -1, rows).transpose(2, 1, 0)
                      .tobytes().translate(None, b"\0").decode())


def _rounded(obj):
    """Recursively round floats for JSON output."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def dumps_json(obj) -> str:
    return json.dumps(_rounded(obj), indent=2) + "\n"


def write_json(obj, path):
    with create_text(path) as out:
        out.write(dumps_json(obj))


def provenance() -> dict:
    """The package version and the kernel backend that made an output."""
    return {"pairdva": __version__, "backend": backend()}


def sidecar(kind: str, run_config: dict, **fields) -> dict:
    """Sidecar document: the output kind, its provenance, the given fields
    (dataclasses stored field by field) and the resolved run
    configuration."""
    doc = {"kind": kind, **provenance()}
    for key, value in fields.items():
        doc[key] = (dataclasses.asdict(value)
                    if dataclasses.is_dataclass(value) else value)
    doc["run_config"] = dict(run_config)
    return doc


# --- simulation traces -----------------------------------------------------

def write_trace_csv(trace: SimTrace, path):
    _write_table(path, TRACE_HEADER, [getattr(trace, field)
                                      for field, _ in TRACE_COLUMNS.values()])


def trace_sidecar(trace: SimTrace, run_config: dict) -> dict:
    params = trace.params
    if isinstance(params, PairSpec):        # stored as its two cells
        params = {name: dataclasses.asdict(getattr(params, name))
                  for name in ("cell1", "cell2")}
    return sidecar("sim_trace", run_config, params=params,
                   sim_config=trace.config, termination_reason=trace.reason,
                   single_cell=not trace.has_cell2,
                   current_reversal=trace.current_reversal)


@contextmanager
def create_text(path):
    """The file at path, created or emptied, open for writing as UTF-8
    text. An OSError, on opening or in the with-block, raises
    FormatError("cannot write <path>: ...")."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            yield out
    except OSError as err:
        raise FormatError(f"cannot write {path}: {err}") from err


@contextmanager
def open_text(path, what=""):
    """The file at path, open as UTF-8 text with a leading byte-order mark
    dropped. An OSError or an undecodable byte, on opening or in the
    with-block, raises FormatError("cannot read <what><path>: ...")."""
    try:
        with open(path, encoding="utf-8-sig") as text:
            yield text
    except (OSError, UnicodeDecodeError) as err:
        raise FormatError(f"cannot read {what}{path}: {err}") from err


def numbered_lines(text):
    """(line number, line) of each nonblank line of the open text file text,
    numbered from 1 at its first line, with the line's newline dropped.
    A line ends at "\n", "\r" or "\r\n" and nowhere else: these are the
    lines the open file yields, and the lines np.loadtxt parses."""
    for no, line in enumerate(text, 1):
        if line.strip():
            yield no, line.rstrip("\n")


def _reread(csv):
    """numbered_lines of the open CSV csv past its header, read from its
    start again: only for a file whose rows fail the fast parse or a rule
    of its format."""
    csv.seek(0)
    return islice(numbered_lines(csv), 1, None)


def _is_number(cell: str) -> bool:
    """Whether the fast parser (np.loadtxt) reads cell as a float: the rule
    of float() without its underscore digit grouping and non-ASCII
    digits."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _bad_row(path, header, rows) -> FormatError:
    """The error for the first of rows, (file line number, line) pairs,
    with the wrong cell count, a cell that is not a number or a non-finite
    one, naming its file line (and column)."""
    for no, ln in rows:
        cells = ln.split(",")
        if len(cells) < len(header):
            return FormatError(
                f"{path} line {no}: column {header[len(cells)]} is missing "
                f"({len(cells)} of {len(header)} cells)")
        if len(cells) > len(header):
            return FormatError(
                f"{path} line {no}: {len(cells)} cells, past the last "
                f"column {header[-1]} of the {len(header)}-column header")
        for name, cell in zip(header, cells):
            if not _is_number(cell):
                return FormatError(f"{path} line {no}: column {name} holds "
                                   f"the non-numeric value {cell.strip()!r}")
        for name, cell in zip(header, cells):
            if not math.isfinite(float(cell)):
                return FormatError(f"{path} line {no}: column {name} holds "
                                   f"the non-finite value {float(cell):g}")
    return FormatError(f"{path} has malformed data rows")


def _parse(lines, width):
    """The CSV rows in lines, none of them blank, as a float array of width
    columns, parsed by np.loadtxt as they are read; None when a line fails
    the parse (a whitespace-only line, a malformed row) or a cell is not
    finite."""
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    shaped = data.shape[1] == width
    return data if shaped and np.isfinite(data).all() else None


@contextmanager
def _read_table(path, check_header):
    """While open, the CSV's header names (the first nonblank line's cells
    split at commas and stripped), its data rows as a float array with one
    column per name, and line_no(k), the file line of data row k (from 0).
    check_header(path, names) checks the names before np.loadtxt reads the
    open file from its first data row; a pipe is read into memory first,
    so that every later pass can read the one handle from its start."""
    with open_text(path) as csv:
        if not csv.seekable():
            csv = io.StringIO(csv.read())
        lines = numbered_lines(csv)
        _, line = next(lines, (0, ""))
        if not line:
            raise FormatError(f"{path} is empty")
        header = [name.strip() for name in line.split(",")]
        check_header(path, header)
        first = next(lines, None)       # np.loadtxt warns on an empty input
        data = (np.empty((0, len(header))) if first is None
                else _parse(chain([first[1]], csv), len(header)))
        if data is None:        # a whitespace-only line, or a bad row
            data = _parse((ln for _, ln in _reread(csv)), len(header))
        if data is None:
            raise _bad_row(path, header, _reread(csv))
        yield header, data, lambda k: next(islice(_reread(csv), k, None))[0]


def _trace_header(path, header):
    unknown = set(header) - set(TRACE_COLUMNS)
    if unknown:
        raise FormatError(f"unknown trace columns: {sorted(unknown)}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise FormatError(f"repeated trace columns: {repeated}")
    missing = [c for c in REQUIRED_TRACE_COLUMNS if c not in header]
    if missing:
        raise FormatError(f"trace file missing required columns: {missing}")


def read_trace_csv(path) -> SimTrace:
    """Read a trace CSV; only the pair columns of TRACE_COLUMNS are
    required.

    A missing charge column is rebuilt by integrating |i_total| over time,
    so measured pair-level data fits through the same format; a current
    of the other sign from the first nonzero one (a charge segment inside
    a discharge) raises FormatError naming its file line.
    """
    path = Path(path)
    with _read_table(path, _trace_header) as (header, data, line_no):
        n = data.shape[0]
        if n < 2:
            raise FormatError(f"{path} has {n or 'no'} usable data row"
                              f"{'s' * (n != 1)}; a trace needs at least 2")
        fields = dict(zip((TRACE_COLUMNS[name][0] for name in header),
                          data.T))
        if "q_pair" not in fields:
            i = fields["i_total"]
            sign = np.sign(i)
            first = int(np.argmax(sign != 0.0))   # the first nonzero current
            back = np.flatnonzero(sign == -sign[first]) if sign[first] else []
            if len(back):
                other = back[0]
                raise FormatError(
                    f"{path} line {line_no(other)}: column i_total_A holds "
                    f"{i[other]:g} A, of the other sign from the "
                    f"{i[first]:g} A on line {line_no(first)}; the charge "
                    f"column cannot be rebuilt across a change of current "
                    f"direction")
            # cumulative trapezoid of |i| over t, from 0 at the first sample
            t, i_abs = fields["t"], np.abs(i)
            fields["q_pair"] = np.concatenate((
                [0.0], np.cumsum(np.diff(t) * (i_abs[1:] + i_abs[:-1]) / 2.0)
            )) / SECONDS_PER_HOUR
    zeros = np.zeros(data.shape[0])
    return SimTrace(
        **{f: fields.get(f, zeros) for f, _ in TRACE_COLUMNS.values()},
        reason="unknown", params=None, config=None,
        has_cell2=all(name in header for name in _CELL_COLUMNS))


# --- features ----------------------------------------------------------------

def features_dict(features: PeakFeatures) -> dict:
    doc = provenance()
    for key, (field, kind) in FEATURES_KEYS.items():
        group, _, name = key.rpartition(".")    # group: "" or "fit"
        obj = doc.setdefault(group, {}) if group else doc
        value = getattr(getattr(features, group) if group else features,
                        field)
        obj[name] = list(value) if kind == "pair" else value
    return doc


# the characters of a value that a features-file error echoes
ECHO_CHARS = 80


def _echo(value) -> str:
    """value as JSON text, cut past its first ECHO_CHARS characters."""
    text = json.dumps(value)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


# the Python types json.load gives each kind of JSON value (a bool's type
# is bool, not int)
_JSON_TYPES = {"number": (int, float), "integer": (int,), "bool": (bool,),
               "object": (dict,)}


def _checked(path, key, value, kind):
    """value, the field key of the features file at path holds (the
    document, with key None), once it is a JSON kind (a pair: a list of
    two numbers) and, as a number, finite."""
    what = "the document" if key is None else f"field {key}"
    if kind == "pair":
        if type(value) is not list or len(value) != 2:
            raise FormatError(f"features file {path}: {what} holds "
                              f"{_echo(value)}, not a list of two "
                              f"JSON numbers")
        return tuple(_checked(path, f"{key}[{k}]", v, "number")
                     for k, v in enumerate(value))
    if type(value) not in _JSON_TYPES[kind]:
        raise FormatError(f"features file {path}: {what} holds "
                          f"{_echo(value)}, not a JSON {kind}")
    if kind != "number":
        return value
    try:
        value = float(value)
    except OverflowError:           # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise FormatError(f"features file {path}: {what} holds the "
                          f"non-finite value {value:g}")
    return value


def read_features_json(path) -> PeakFeatures:
    """The features a JSON document at path holds: an object with the keys
    of FEATURES_KEYS, whose "fit" is an object."""
    path = Path(path)
    with open_text(path, "features file ") as file:
        try:
            doc = json.load(file)
        except json.JSONDecodeError as err:
            raise FormatError(
                f"cannot parse features file {path}: {err}") from err

    try:
        doc = _checked(path, None, doc, "object")
        fit = _checked(path, "fit", doc["fit"], "object")
        fields = {"": {}, "fit": {}}
        for key, (field, kind) in FEATURES_KEYS.items():
            group, _, name = key.rpartition(".")
            obj = fit if group else doc
            if key not in _FIT_DIAGNOSTICS or name in obj:
                fields[group][field] = _checked(path, key, obj[name],
                                                kind)
        return PeakFeatures(**fields[""], fit=SurrogateFit(**fields["fit"]))
    except KeyError as err:
        raise FormatError(
            f"features file {path} missing field: {err}") from err


# --- sweeps ------------------------------------------------------------------

def write_featuremap_csv(fmap: FeatureMap, path):
    _write_table(path, FEATUREMAP_HEADER,
                 [[value(c) for c in fmap.cells]
                  for value in FEATUREMAP_COLUMNS.values()],
                 [c.status for c in fmap.cells])


def sweep_sidecar(fmap: FeatureMap, run_config: dict) -> dict:
    """The sweep's record: its grids and settings; the cell counts by
    (status, stage), in grid order of first appearance; the largest fit
    residual of the ok cells (None without one); and each failed cell."""
    counts = Counter((c.status, c.stage) for c in fmap.cells)
    residuals = [c.features.fit.residual_rms for c in fmap.cells if c.ok]
    return sidecar("feature_map", run_config,
                   alpha_grid=[float(a) for a in fmap.alpha_grid],
                   beta_grid=[float(b) for b in fmap.beta_grid],
                   c_total_ah=fmap.c_total, r_parallel_ohm=fmap.r_parallel,
                   sim_config=fmap.sim_config, smoothing=fmap.smoothing,
                   n_ok=len(residuals), n_cells=len(fmap.cells),
                   cell_counts=[{"status": status, "stage": stage, "n": n}
                                for (status, stage), n in counts.items()],
                   worst_residual_rms_V=max(residuals, default=None),
                   failures=[{"alpha": c.alpha, "beta": c.beta,
                              "status": c.status, "stage": c.stage,
                              "message": c.message}
                             for c in fmap.cells if not c.ok])


def write_product_curve_csv(curve: ProductCurve, path):
    # the float columns, then the count n as text
    *floats, counts = ([getattr(r, name) for r in curve.rows]
                       for name in _PRODUCT_CURVE_COLUMNS)
    _write_table(path, PRODUCT_CURVE_HEADER, floats, counts)


def _product_curve_header(path, header):
    if header != _PRODUCT_CURVE_COLUMNS:
        raise FormatError(f"{path} is not a product-curve CSV")


def read_product_curve_csv(path) -> ProductCurve:
    path = Path(path)
    with _read_table(path, _product_curve_header) as (_, data, line_no):
        if data.shape[0] == 0:
            raise FormatError(f"{path} has no data rows")
        # the rules product_curve's rows keep: whole counts of at least one
        # cell, nonnegative spreads, products rising row by row
        rows = []
        for k, cells in enumerate(data.tolist()):
            row = ProductBin(*cells)        # its count n still a float
            n, sh, ss = row.n, row.spread_height, row.spread_skewness
            if n != math.trunc(n):
                problem = f"column n holds the non-integer value {n:g}"
            elif n < 1.0:
                problem = f"column n holds {n:g}, below 1"
            elif sh < 0.0 or ss < 0.0:
                problem = f"a spread is negative ({sh:g}, {ss:g})"
            elif rows and row.product <= rows[-1].product:
                problem = (f"product {row.product:g} is not above the "
                           f"previous row's {rows[-1].product:g}")
            else:
                rows.append(dataclasses.replace(row, n=int(n)))
                continue
            raise FormatError(f"{path} line {line_no(k)}: {problem}")
    return ProductCurve(rows=rows)


def identification_dict(result: IdentificationResult,
                        run_config: dict = None) -> dict:
    doc = {
        **provenance(),
        "p_hat": result.p_hat,
        "ambiguous": result.ambiguous,
        "candidates": [
            {"p": c.p, "skewness": c.skewness, "skew_distance": c.distance}
            for c in result.candidates],
        "note": result.note,
    }
    if run_config is not None:
        doc["run_config"] = dict(run_config)
    return doc
