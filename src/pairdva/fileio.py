"""CSV and JSON serialization with reproducible float formatting.

Every float is written with 12 significant digits, so identical inputs
produce byte-identical files. Sidecar JSONs echo the fully resolved
configuration so any output can regenerate its run.

CSVs go through memory a bounded piece at a time. The writer formats and
writes CHUNK_ROWS rows per write, never the text of the whole file. A
reader takes the header line, then hands the open file to np.loadtxt, so
it holds no copy of the text; only a file that parse rejects (a
whitespace-only line, a malformed or a non-finite cell) is read again as
text, to drop those lines or to name the bad cell's file line and column.
The CSV and features JSON readers decode UTF-8 and drop a leading
byte-order mark, as spreadsheet exports write one.
"""

import dataclasses
import json
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FormatError
from .features import PeakFeatures, SurrogateFit
from .kernels import backend
from .pairsim import PairSpec, SimTrace
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

FEATUREMAP_HEADER = "alpha,beta,product,height_V_per_Ah,skewness,status"
PRODUCT_CURVE_HEADER = ("product,mean_height,mean_skewness,spread_height,"
                        "spread_skewness,n")

_PRODUCT_CURVE_COLUMNS = PRODUCT_CURVE_HEADER.split(",")

# rows formatted per write; one chunk's text is the writer's largest buffer
CHUNK_ROWS = 1024


def fmt(x) -> str:
    """Canonical 12-significant-digit text form of a float."""
    return f"{float(x):.12g}"


def _write_rows(path, header: str, chunks, n_floats: int, tail: str = ""):
    """Write the header line, then the rows of each chunk. A chunk is its
    row count and a tuple of its cells, row after row; a row is n_floats
    cells in fmt's 12 digits ("%.12g" % x is the text of f"{x:.12g}"), then
    tail % the rest of the row. One % formats and one write writes a
    chunk."""
    row_format = ",".join(["%.12g"] * n_floats) + tail + "\n"
    with open(path, "w") as out:
        out.write(header + "\n")
        for n_rows, cells in chunks:
            out.write((row_format * n_rows) % cells)


def _chunks(rows):
    """The rows of a table as _write_rows chunks of CHUNK_ROWS rows."""
    rows = iter(rows)
    while batch := list(islice(rows, CHUNK_ROWS)):
        yield len(batch), tuple(chain.from_iterable(batch))


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
    Path(path).write_text(dumps_json(obj))


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
    cols = [np.asarray(getattr(trace, field), dtype=float)
            for field, _ in TRACE_COLUMNS.values()]
    # a chunk's rows are stacked, and become Python floats, only as it is
    # written
    blocks = (np.column_stack([c[start:start + CHUNK_ROWS] for c in cols])
              for start in range(0, len(cols[0]), CHUNK_ROWS))
    _write_rows(path, TRACE_HEADER,
                ((len(b), tuple(b.ravel().tolist())) for b in blocks),
                len(cols))


def trace_sidecar(trace: SimTrace, run_config: dict) -> dict:
    params = trace.params
    if isinstance(params, PairSpec):        # stored as its two cells
        params = {name: dataclasses.asdict(getattr(params, name))
                  for name in ("cell1", "cell2")}
    return sidecar("sim_trace", run_config, params=params,
                   sim_config=trace.config, termination_reason=trace.reason,
                   single_cell=not trace.has_cell2,
                   current_reversal=trace.current_reversal)


def _numbered_rows(text):
    """(file line number, line) of each data row: the nonblank lines after
    the header."""
    return [(no, ln) for no, ln in enumerate(text.splitlines(), 1)
            if ln.strip()][1:]


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


def _malformed_row(path, text, header) -> FormatError:
    """The error for the first data row with the wrong cell count or a cell
    that is not a number, naming its file line (and column)."""
    for no, ln in _numbered_rows(text):
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
    return FormatError(f"{path} has malformed data rows")


def _numeric_rows(path, text, header):
    """The data rows of text, under its header line, as a float array with
    one column per header name. A malformed row or a non-finite cell raises
    FormatError naming its file line and column."""
    rows = _numbered_rows(text)
    if not rows:
        return np.empty((0, len(header)))
    try:
        data = np.loadtxt([ln for _, ln in rows], delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header):
        raise _malformed_row(path, text, header)
    finite = np.isfinite(data)
    if not finite.all():
        row, c = np.argwhere(~finite)[0]
        raise FormatError(f"{path} line {rows[row][0]}: column {header[c]} "
                          f"holds the non-finite value {data[row, c]:g}")
    return data


def _next_nonblank(csv) -> str:
    """The next line of the open file csv with more than whitespace, or ""
    at its end."""
    for line in csv:
        if line.strip():
            return line
    return ""


def _parse_rest(csv, n_columns):
    """The rest of the open file csv as a float array of n_columns, parsed
    by np.loadtxt as it is read; None when that parse fails or gives a
    non-finite cell."""
    first = _next_nonblank(csv)     # np.loadtxt warns on an empty input
    if not first:
        return np.empty((0, n_columns))
    try:
        data = np.loadtxt(chain([first], csv), delimiter=",", comments=None,
                          ndmin=2)
    except ValueError:
        return None
    if data.shape[1] != n_columns or not np.isfinite(data).all():
        return None
    return data


def _read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8-sig")


def _read_table(path, parse_header):
    """The header names and the data rows of a CSV, as a float array with
    one column per name. parse_header(path, line) checks the first nonblank
    line and returns its names before any row is parsed; the text is read
    for _numeric_rows only when _parse_rest fails."""
    try:
        with open(path, encoding="utf-8-sig") as csv:
            line = _next_nonblank(csv)
            if not line:
                raise FormatError(f"{path} is empty")
            header = parse_header(path, line.rstrip("\n"))
            data = _parse_rest(csv, len(header))
        if data is None:
            data = _numeric_rows(path, _read_text(path), header)
    except (OSError, UnicodeDecodeError) as err:
        raise FormatError(f"cannot read {path}: {err}") from err
    return header, data


def _trace_header(path, line):
    header = [h.strip() for h in line.split(",")]
    unknown = set(header) - set(TRACE_COLUMNS)
    if unknown:
        raise FormatError(f"unknown trace columns: {sorted(unknown)}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise FormatError(f"repeated trace columns: {repeated}")
    missing = [c for c in REQUIRED_TRACE_COLUMNS if c not in header]
    if missing:
        raise FormatError(f"trace file missing required columns: {missing}")
    return header


def read_trace_csv(path) -> SimTrace:
    """Read a trace CSV; only the pair columns of TRACE_COLUMNS are
    required.

    A missing charge column is rebuilt by integrating |i_total| over time,
    so measured pair-level data fits through the same format; a current
    of the other sign from the first nonzero one (a charge segment inside
    a discharge) raises FormatError naming its file line.
    """
    path = Path(path)
    header, data = _read_table(path, _trace_header)
    if data.shape[0] < 2:
        raise FormatError(f"{path} has no usable data rows")
    fields = dict(zip((TRACE_COLUMNS[name][0] for name in header), data.T))
    if "q_pair" not in fields:
        i = fields["i_total"]
        sign = np.sign(i)
        first = int(np.argmax(sign != 0.0))     # the first nonzero current
        back = np.flatnonzero(sign == -sign[first]) if sign[first] else []
        if len(back):
            rows = _numbered_rows(_read_text(path))
            other = back[0]
            raise FormatError(
                f"{path} line {rows[other][0]}: column i_total_A holds "
                f"{i[other]:g} A, of the other sign from the {i[first]:g} A "
                f"on line {rows[first][0]}; the charge column cannot be "
                f"rebuilt across a change of current direction")
        # cumulative trapezoid of |i| over t, from 0 at the first sample
        t, i_abs = fields["t"], np.abs(i)
        fields["q_pair"] = np.concatenate((
            [0.0], np.cumsum(np.diff(t) * (i_abs[1:] + i_abs[:-1]) / 2.0)
        )) / 3600.0
    zeros = np.zeros(data.shape[0])
    return SimTrace(
        **{f: fields.get(f, zeros) for f, _ in TRACE_COLUMNS.values()},
        reason="unknown", params=None, config=None,
        has_cell2=all(name in header for name in _CELL_COLUMNS))


# --- features ----------------------------------------------------------------

def features_dict(features: PeakFeatures) -> dict:
    fit = features.fit
    return {
        **provenance(),
        "height_V_per_Ah": features.height,
        "q_at_peak_Ah": features.q_at_peak,
        "v_at_peak_V": features.v_at_peak,
        "skewness": features.skewness,
        "fit": {
            "a": fit.a, "b": fit.b, "c": fit.c,
            "d": fit.d, "e": fit.e, "f": fit.f,
            "residual_rms_V": fit.residual_rms,
            "converged": fit.converged,
            "n_iter": fit.n_iter,
            "scaled_gradient": fit.scaled_gradient,
        },
        "window_V": [features.window[0], features.window[1]],
    }


# the Python types json.loads gives each kind of JSON value (a bool's type
# is bool, not int)
_JSON_TYPES = {"number": (int, float), "integer": (int,), "bool": (bool,)}


def read_features_json(path) -> PeakFeatures:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise FormatError(f"cannot read features file {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"cannot parse features file {path}: {err}") from err

    def name(key, prefix):
        # a list element is named by its index: window_V[0]
        return f"{prefix}[{key}]" if type(key) is int else prefix + key

    def typed(obj, key, kind, prefix=""):
        value = obj[key]
        if type(value) not in _JSON_TYPES[kind]:
            raise FormatError(f"features file {path}: field "
                              f"{name(key, prefix)} holds "
                              f"{json.dumps(value)}, not a JSON {kind}")
        return value

    def number(obj, key, prefix=""):
        try:
            value = float(typed(obj, key, "number", prefix))
        except OverflowError:           # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            raise FormatError(f"features file {path}: field "
                              f"{name(key, prefix)} holds the non-finite "
                              f"value {value:g}")
        return value

    def pair(key):
        value = doc[key]
        if type(value) is not list or len(value) != 2:
            raise FormatError(f"features file {path}: field {key} holds "
                              f"{json.dumps(value)}, not a list of two "
                              f"JSON numbers")
        return number(value, 0, key), number(value, 1, key)

    try:
        fit = doc["fit"]
        return PeakFeatures(
            height=number(doc, "height_V_per_Ah"),
            q_at_peak=number(doc, "q_at_peak_Ah"),
            v_at_peak=number(doc, "v_at_peak_V"),
            skewness=number(doc, "skewness"),
            fit=SurrogateFit(
                **{key: number(fit, key, "fit.") for key in "abcdef"},
                residual_rms=number(fit, "residual_rms_V", "fit."),
                converged=typed(fit, "converged", "bool", "fit."),
                # diagnostics that older features files do not carry
                **{key: cast(typed(fit, key, kind, "fit."))
                   for key, kind, cast in (("n_iter", "integer", int),
                                           ("scaled_gradient", "number",
                                            float))
                   if key in fit}),
            window=pair("window_V"))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(
            f"features file {path} missing field: {err}") from err


# --- sweeps ------------------------------------------------------------------

def write_featuremap_csv(fmap: FeatureMap, path):
    rows = [(c.alpha, c.beta, c.product,
             # a failed cell's height and skewness are written as nan
             *((c.features.height, c.features.skewness) if c.ok
               else (math.nan, math.nan)),
             c.status) for c in fmap.cells]
    _write_rows(path, FEATUREMAP_HEADER, _chunks(rows), 5, ",%s")


def sweep_sidecar(fmap: FeatureMap, run_config: dict) -> dict:
    return sidecar("feature_map", run_config,
                   alpha_grid=[float(a) for a in fmap.alpha_grid],
                   beta_grid=[float(b) for b in fmap.beta_grid],
                   c_total_ah=fmap.c_total, r_parallel_ohm=fmap.r_parallel,
                   sim_config=fmap.sim_config, smoothing=fmap.smoothing,
                   n_ok=sum(1 for c in fmap.cells if c.ok),
                   n_cells=len(fmap.cells),
                   failures=[{"alpha": c.alpha, "beta": c.beta,
                              "status": c.status, "stage": c.stage,
                              "message": c.message}
                             for c in fmap.cells if not c.ok])


def write_product_curve_csv(curve: ProductCurve, path):
    rows = [(r.product, r.mean_height, r.mean_skewness, r.spread_height,
             r.spread_skewness, r.n) for r in curve.rows]
    _write_rows(path, PRODUCT_CURVE_HEADER, _chunks(rows), 5, ",%s")


def _product_curve_header(path, line):
    if line != PRODUCT_CURVE_HEADER:
        raise FormatError(f"{path} is not a product-curve CSV")
    return _PRODUCT_CURVE_COLUMNS


def read_product_curve_csv(path) -> ProductCurve:
    path = Path(path)
    _, data = _read_table(path, _product_curve_header)
    if data.shape[0] == 0:
        raise FormatError(f"{path} has no data rows")
    # the rules product_curve's rows keep: whole counts of at least one
    # cell, nonnegative spreads, products rising row by row
    rows = []
    for k, (p, mh, ms, sh, ss, n) in enumerate(data.tolist()):
        if n != math.trunc(n):
            problem = f"column n holds the non-integer value {n:g}"
        elif n < 1.0:
            problem = f"column n holds {n:g}, below 1"
        elif sh < 0.0 or ss < 0.0:
            problem = f"a spread is negative ({sh:g}, {ss:g})"
        elif rows and p <= rows[-1].product:
            problem = (f"product {p:g} is not above the previous row's "
                       f"{rows[-1].product:g}")
        else:
            rows.append(ProductBin(product=p, mean_height=mh,
                                   mean_skewness=ms, spread_height=sh,
                                   spread_skewness=ss, n=int(n)))
            continue
        no = _numbered_rows(_read_text(path))[k][0]
        raise FormatError(f"{path} line {no}: {problem}")
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
