"""Command-line front end: simulate | features | sweep | identify.

Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file (--config), then explicit flags. Unknown config
keys are rejected. Any library error is reported as one machine-readable
JSON object on stderr with a nonzero exit code.

Every setting with a library default is a field of a config dataclass;
the schema, the flags and the objects handed to the library are all derived
from those fields. A field's key is its name, or its ``key`` metadata where
the CLI adds a unit suffix, and nested config objects are flattened.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import fileio
from .errors import ConfigError, FormatError, PairDvaError
from .features import AnalysisConfig, extract_features
from .pairsim import PairSpec, SimConfig, make_pair, simulate_cc_discharge
from .sweep import GridConfig, identify_product, product_curve, run_sweep

OUTDIR_ENV = "PAIRDVA_OUTDIR"


def _float_or_none(text):
    if isinstance(text, str) and text.strip().lower() in ("none", ""):
        return None
    return float(text)


def _key(f):
    return f.metadata.get("key", f.name)


def _leaves(cls):
    """(key, field) for each setting of a config class, nested ones
    flattened in field order."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _leaves(f.type)
        else:
            yield _key(f), f


def _keys(*classes):
    return tuple(key for cls in classes for key, _ in _leaves(cls))


def _build(cls, cfg):
    """Config object of class cls from the resolved flat settings."""
    return cls(**{f.name: _build(f.type, cfg)
                  if dataclasses.is_dataclass(f.type)
                  else cfg[_key(f)]
                  for f in dataclasses.fields(cls)})


_CONFIGS = (PairSpec, SimConfig, AnalysisConfig, GridConfig)

# key -> (caster, default); a setting that defaults to None also takes "none"
_SCHEMA = {key: (_float_or_none if f.default is None else f.type, f.default)
           for cls in _CONFIGS for key, f in _leaves(cls)}
_SCHEMA.update(skew_resolution=(_float_or_none, None), outdir=(str, None),
               out=(str, None))


def load_config_file(path) -> dict:
    """Parse a flat key = value file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise FormatError(f"cannot read config file {path}: {err}") from err
    values = {}
    for ln_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(
                f"config line {ln_no}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        caster = _SCHEMA[key][0]
        try:
            values[key] = caster(val)
        except ValueError as err:
            raise ConfigError(
                f"config key {key!r}: bad value {val!r} ({err})") from err
    return values


def resolve_config(args) -> dict:
    """defaults, then config file, then explicit flags (a flag left out
    sets no attribute, so an explicit "none" still wins)."""
    cfg = {key: default for key, (_, default) in _SCHEMA.items()}
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    cfg.update((key, val) for key, val in vars(args).items()
               if key in _SCHEMA)
    return cfg


def _outdir(cfg) -> Path:
    outdir = cfg["outdir"] or os.environ.get(OUTDIR_ENV) or "."
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(text: str, cfg, sidecar: dict = None):
    """Write text to stdout or to <outdir>/<out>, with optional sidecar."""
    out = cfg["out"]
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    path = _outdir(cfg) / out
    path.write_text(text)
    print(path)
    if sidecar is not None:
        side_path = path.with_name(path.stem + ".config.json")
        fileio.write_json(sidecar, side_path)
        print(side_path)


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    pair = make_pair(**dataclasses.asdict(_build(PairSpec, cfg)))
    trace = simulate_cc_discharge(pair, _build(SimConfig, cfg))
    outdir = _outdir(cfg)
    base = cfg["out"] or "trace"
    csv_path = outdir / f"{base}.csv"
    side_path = outdir / f"{base}.json"
    fileio.write_trace_csv(trace, csv_path)
    fileio.write_json(fileio.trace_sidecar(trace, run_config=cfg),
                      side_path)
    print(csv_path)
    print(side_path)
    return 0


def cmd_features(args) -> int:
    cfg = resolve_config(args)
    trace = fileio.read_trace_csv(args.trace)
    feats = extract_features(trace, _build(AnalysisConfig, cfg))
    sidecar = fileio.sidecar("features_config", cfg,
                             input=str(args.trace))
    _emit(fileio.dumps_json(fileio.features_dict(feats)), cfg, sidecar)
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    grid = _build(GridConfig, cfg)
    pair = _build(PairSpec, cfg)
    fmap = run_sweep(grid.alpha_grid, grid.beta_grid, c_total=pair.c_total,
                     r_parallel=pair.r_parallel,
                     sim_config=_build(SimConfig, cfg),
                     analysis=_build(AnalysisConfig, cfg))
    curve = product_curve(fmap, grid.bin_width)
    outdir = _outdir(cfg)
    map_path = outdir / "featuremap.csv"
    curve_path = outdir / "product_curve.csv"
    side_path = outdir / "sweep.json"
    fileio.write_featuremap_csv(fmap, map_path)
    fileio.write_product_curve_csv(curve, curve_path)
    fileio.write_json(fileio.sweep_sidecar(fmap, run_config=cfg),
                      side_path)
    print(map_path)
    print(curve_path)
    print(side_path)
    return 0


def cmd_identify(args) -> int:
    cfg = resolve_config(args)
    feats = fileio.read_features_json(args.features)
    curve = fileio.read_product_curve_csv(args.curve)
    result = identify_product(feats, curve,
                              skew_resolution=cfg["skew_resolution"])
    doc = fileio.identification_dict(result, run_config=cfg)
    doc["inputs"] = {"features": str(args.features), "curve": str(args.curve)}
    _emit(fileio.dumps_json(doc), cfg)
    return 0


def _add_keys(parser, keys):
    for key in keys:
        caster, _ = _SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=caster, metavar=key.upper())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdva",
        description="Simulate parallel cell-pair discharges and diagnose "
                    "capacity/resistance imbalance from dV/dQ peak shape.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # a flag that is not given sets no attribute (see resolve_config)
        p = sub.add_parser(name, help=summary,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None,
                       help="flat key = value settings file")
        p.add_argument("--outdir", dest="outdir",
                       help=f"output directory (default: ${OUTDIR_ENV} or .)")
        p.set_defaults(func=func)
        return p

    p_sim = command("simulate", cmd_simulate,
                    "CC-discharge one pair; write trace CSV")
    _add_keys(p_sim, _keys(PairSpec, SimConfig))
    p_sim.add_argument("--out", dest="out",
                       help="output base name (default: trace)")

    p_feat = command("features", cmd_features,
                     "extract peak features from a trace CSV")
    p_feat.add_argument("trace", help="trace CSV (t_s,i_total_A,vt_V needed)")
    _add_keys(p_feat, _keys(AnalysisConfig))
    p_feat.add_argument("--out", dest="out",
                        help="output file name, or - for stdout (default)")

    p_sweep = command("sweep", cmd_sweep,
                      "sweep the (alpha, beta) grid and bin by product")
    # the grid takes the place of a single pair's ratios
    _add_keys(p_sweep, [key for key in _keys(*_CONFIGS)
                        if key not in ("alpha", "beta")])

    p_id = command("identify", cmd_identify,
                   "estimate the imbalance product from features")
    p_id.add_argument("features", help="features JSON file")
    p_id.add_argument("curve", help="product-curve CSV from a sweep")
    _add_keys(p_id, ("skew_resolution",))
    p_id.add_argument("--out", dest="out",
                      help="output file name, or - for stdout (default)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PairDvaError as err:
        doc = {"error": type(err).__name__, "stage": err.stage,
               "message": str(err)}
        print(json.dumps(doc), file=sys.stderr)
        return 2 if isinstance(err, (ConfigError, FormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
