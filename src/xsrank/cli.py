"""Command line front end: six batch subcommands over file artifacts.

Every command reads CSVs and flags, writes CSVs (plus an SVG for the
backtest) into --out, and drops a manifest.json recording the resolved
configuration, input digests, and artifact list; commands that read a
panel also list the instruments it dropped. With a fixed seed the
CSV/SVG artifacts are byte-identical across runs; only the manifest's
wall_time_seconds field varies.

Config precedence is flags > config file > built-in defaults. Config
files are flat `key=value` text, one pair per line, `#` comments. Every
subcommand accepts --out, --config, and --seed; commands without any
randomness just echo the seed into their manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .backtest import (
    StrategyConfig,
    portfolio_metrics,
    read_backtest_csv,
    run_backtest,
    write_curves_svg,
)
from .data import (
    PredictionSeries,
    SynthConfig,
    _write_rows,
    format_float,
    generate_synthetic,
    load_factors,
    load_membership,
    load_panel,
    standardize_features,
    write_factors,
    write_membership,
    write_panel,
)
from .errors import ConfigError, DataError, NonFiniteError, XsrankError
from .evaluate import (
    _format_metric,
    subgroup_metrics,
    summarize,
    write_daily_metrics,
    write_metric_report,
)
from .factor_reg import ff_regression, write_regression_csv
from .graphs import build_relation_graphs
from .model import ActConfig, load_checkpoint, save_checkpoint
from .training import TrainSettings, predict_sliding, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# schemas: key -> (type, default). A None default marks a key that is
# either optional (may stay None) or checked as required after resolution.
_FIELD_TYPES = {"int": int, "float": float, "str": str, "str | None": str}


def _field_schema(cls, skip: str) -> dict:
    """The schema of every field of dataclass `cls` but `skip`."""
    return {f.name: (_FIELD_TYPES[f.type], None if f.default is MISSING else f.default)
            for f in fields(cls) if f.name != skip}


# seed comes from --seed, and n_features from the panel
SYNTH_SCHEMA = _field_schema(SynthConfig, "seed")
_ACT_SCHEMA = _field_schema(ActConfig, "n_features")
_SETTINGS_SCHEMA = _field_schema(TrainSettings, "seed")
# ActConfig.window has no default, and standardize is a preprocessing step
# rather than a field of any config
TRAIN_SCHEMA = {**_ACT_SCHEMA, **_SETTINGS_SCHEMA,
                "window": (int, 16), "standardize": (bool, True)}

PREDICT_SCHEMA = {
    "start_date": (str, None),
    "standardize": (bool, True),
}

EVALUATE_SCHEMA = {
    "group_by": (str, None),
}

BACKTEST_SCHEMA = {
    "k": (int, None),
    "n_drop": (int, None),
    "cost_bps": (float, 0.0),
}

REGRESS_SCHEMA = {
    "model": (str, "both"),
    "lags": (int, 5),
    "dof_correction": (bool, False),
}

ACT_KEYS = list(_ACT_SCHEMA)
SETTINGS_KEYS = list(_SETTINGS_SCHEMA)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blanks are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}: line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def coerce(raw, typ: type, key: str):
    if isinstance(raw, typ) and not (typ is int and isinstance(raw, bool)):
        return raw
    raw = str(raw)
    if typ is str:
        return raw
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: bad {typ.__name__} value {raw!r}") from exc


def resolve_config(schema, args, file_values) -> dict:
    """flags > config file > defaults; unknown file keys are an error."""
    unknown = sorted(set(file_values) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, (typ, default) in schema.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = coerce(flag, typ, key)
        elif key in file_values:
            out[key] = coerce(file_values[key], typ, key)
        else:
            out[key] = default
    return out


def require(resolved: dict, *keys: str) -> None:
    missing = [k for k in keys if resolved.get(k) is None]
    if missing:
        raise ConfigError(
            f"missing required option(s): {', '.join(missing)} "
            "(set by flag or config file)")


def file_digest(path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_manifest(out_dir: Path, command: str, config: dict,
                   inputs: dict[str, str], artifacts: list[str],
                   seed, started: float, ds=None) -> None:
    """Write manifest.json; `ds` is the panel the command read, if any."""
    payload = {
        "command": command,
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": file_digest(p)}
            for name, p in sorted(inputs.items())
        },
        "artifacts": sorted(artifacts),
        "seed": seed,
        "wall_time_seconds": round(time.monotonic() - started, 3),
    }
    if ds is not None:
        payload["dropped_instruments"] = ds.dropped_instruments
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")


def ensure_out(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{args.out}: {exc}") from exc
    return out


def load_panel_membership(path, instruments: list[str]) -> dict[str, str]:
    """Membership map of `path`; a file naming no panel instrument is refused."""
    labels = load_membership(path)
    if not any(inst in labels for inst in instruments):
        raise DataError(f"{path}: names no instrument of the panel")
    return labels


def load_graphs(ds, industry_path, region_path):
    return build_relation_graphs(
        ds.instruments,
        load_panel_membership(industry_path, ds.instruments),
        load_panel_membership(region_path, ds.instruments),
    )


def input_map(args, *names: str) -> dict[str, str]:
    inputs = {name: getattr(args, name) for name in names}
    if getattr(args, "config", None):
        inputs["config"] = args.config
    return inputs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args, resolved, seed) -> int:
    started = time.monotonic()
    cfg = SynthConfig(seed=seed, **resolved)
    ds, graphs, factors = generate_synthetic(cfg)
    out = ensure_out(args)
    write_panel(ds, out / "features.csv", out / "prices.csv")
    write_membership(out / "industry.csv", graphs.industry_labels)
    write_membership(out / "region.csv", graphs.region_labels)
    write_factors(factors, out / "factors.csv")
    write_manifest(out, "synth", resolved, input_map(args),
                   ["features.csv", "prices.csv", "industry.csv",
                    "region.csv", "factors.csv"],
                   seed, started)
    return EXIT_OK


def cmd_train(args, resolved, seed) -> int:
    started = time.monotonic()
    require(resolved, "valid_start")

    ds = load_panel(args.features, args.prices)
    if resolved["standardize"]:
        ds = standardize_features(ds)
    graphs = load_graphs(ds, args.industry, args.region)
    cfg = ActConfig(n_features=ds.n_features,
                    **{k: resolved[k] for k in ACT_KEYS})
    settings = TrainSettings(seed=seed,
                             **{k: resolved[k] for k in SETTINGS_KEYS})
    model, history = train(ds, graphs, cfg, settings)

    out = ensure_out(args)
    save_checkpoint(model, out / "checkpoint.json")
    _write_rows(
        out / "history.csv",
        ["epoch", "train_loss", "train_ic_term", "train_mse_term",
         "valid_ic", "selected"],
        ([str(e),
          format_float(history.train_loss[e]),
          format_float(history.train_ic_term[e]),
          format_float(history.train_mse_term[e]),
          format_float(history.valid_ic[e]),
          "1" if e == history.selected_epoch else "0"]
         for e in range(len(history.train_loss))),
    )
    _write_rows(
        out / "train_stats.csv",
        ["metric", "value"],
        [["selected_epoch", str(history.selected_epoch)],
         ["skipped_ic_days", str(history.skipped_ic_days)],
         ["n_train_windows", str(history.n_train_windows)],
         ["n_valid_windows", str(history.n_valid_windows)]],
    )
    write_manifest(out, "train", resolved,
                   input_map(args, "features", "prices", "industry",
                             "region"),
                   ["checkpoint.json", "history.csv", "train_stats.csv"],
                   seed, started, ds)
    return EXIT_OK


def cmd_predict(args, resolved, seed) -> int:
    started = time.monotonic()
    model = load_checkpoint(args.checkpoint)
    ds = load_panel(args.features, args.prices)
    if resolved["standardize"]:
        ds = standardize_features(ds)
    graphs = load_graphs(ds, args.industry, args.region)
    preds = predict_sliding(model, ds, graphs,
                            start_date=resolved["start_date"])
    out = ensure_out(args)
    preds.write_csv(out / "predictions.csv")
    write_manifest(out, "predict", resolved,
                   input_map(args, "checkpoint", "features", "prices",
                             "industry", "region"),
                   ["predictions.csv"], seed, started, ds)
    return EXIT_OK


def cmd_evaluate(args, resolved, seed) -> int:
    started = time.monotonic()
    group_by = resolved["group_by"]
    if group_by not in (None, "industry", "region"):
        raise ConfigError("group_by must be industry or region")
    path = None
    if group_by:
        path = args.industry if group_by == "industry" else args.region
        if path is None:
            raise ConfigError(f"--group-by {group_by} needs --{group_by}")
    preds = PredictionSeries.read_csv(args.predictions)
    ds = load_panel(args.features, args.prices)
    # the membership file is checked before any artifact is written
    labels = load_panel_membership(path, ds.instruments) if group_by else None
    report = summarize(preds, ds)
    out = ensure_out(args)
    write_metric_report(report, out / "metrics.csv")
    write_daily_metrics(report, out / "daily_metrics.csv")
    artifacts = ["metrics.csv", "daily_metrics.csv"]
    inputs = input_map(args, "predictions", "features", "prices")

    if group_by:
        groups = subgroup_metrics(preds, ds, labels)
        rows = []
        for category in sorted(groups):
            rep = groups[category]
            if rep is None:
                rows.append([category, "", "", "", "", "", "too_thin"])
            else:
                rows.append([category,
                             _format_metric(rep.ic),
                             _format_metric(rep.icir),
                             _format_metric(rep.rank_ic),
                             _format_metric(rep.rank_icir),
                             str(rep.n_days),
                             ";".join(rep.flags)])
        _write_rows(out / "subgroups.csv",
                    ["category", "ic", "icir", "rank_ic", "rank_icir",
                     "n_days", "flags"],
                    rows)
        artifacts.append("subgroups.csv")
        inputs[group_by] = path

    write_manifest(out, "evaluate", resolved, inputs, artifacts,
                   seed, started, ds)
    return EXIT_OK


def cmd_backtest(args, resolved, seed) -> int:
    started = time.monotonic()
    require(resolved, "k", "n_drop")
    preds = PredictionSeries.read_csv(args.predictions)
    ds = load_panel(args.features, args.prices)
    cfg = StrategyConfig(k=resolved["k"], n_drop=resolved["n_drop"],
                         cost_bps=resolved["cost_bps"])
    result = run_backtest(preds, ds, cfg)
    # metrics refuse a one-day backtest, so they are computed before any
    # artifact is written
    metrics = portfolio_metrics(result.excess, result.portfolio)
    out = ensure_out(args)
    # the chart goes first: its scale can overflow on finite returns, and
    # a refused chart then leaves nothing behind. backtest.csv round-trips
    # these arrays exactly, so the chart is also the file's.
    write_curves_svg(
        out / "curves.svg",
        [("compounded excess", result.dates, result.cum_excess),
         ("compounded portfolio", result.dates, np.cumprod(1.0 + result.portfolio))],
        title=f"top-{cfg.k} dropout-{cfg.n_drop} backtest",
    )
    result.write_csv(out / "backtest.csv")
    write_metric_report(metrics, out / "portfolio_metrics.csv")
    write_manifest(out, "backtest", resolved,
                   input_map(args, "predictions", "features", "prices"),
                   ["backtest.csv", "portfolio_metrics.csv", "curves.svg"],
                   seed, started, ds)
    return EXIT_OK


def cmd_regress(args, resolved, seed) -> int:
    started = time.monotonic()
    if resolved["model"] not in ("ff3", "ff5", "both"):
        raise ConfigError("model must be ff3, ff5, or both")
    dates, portfolio, _ = read_backtest_csv(args.backtest)
    factors = load_factors(args.factors)
    models = (["ff3", "ff5"] if resolved["model"] == "both"
              else [resolved["model"]])
    results = [
        ff_regression(dates, portfolio, factors, model=m,
                      lags=resolved["lags"],
                      dof_correction=resolved["dof_correction"])
        for m in models
    ]
    out = ensure_out(args)
    write_regression_csv(results, out / "regression.csv")
    write_manifest(out, "regress", resolved,
                   input_map(args, "backtest", "factors"),
                   ["regression.csv"], seed, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

COMMANDS = {
    "synth": (cmd_synth, SYNTH_SCHEMA),
    "train": (cmd_train, TRAIN_SCHEMA),
    "predict": (cmd_predict, PREDICT_SCHEMA),
    "evaluate": (cmd_evaluate, EVALUATE_SCHEMA),
    "backtest": (cmd_backtest, BACKTEST_SCHEMA),
    "regress": (cmd_regress, REGRESS_SCHEMA),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsrank",
        description="cross-sectional ranking experiments over CSV panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inputs_by_command = {
        "synth": (),
        "train": ("features", "prices", "industry", "region"),
        "predict": ("checkpoint", "features", "prices", "industry",
                    "region"),
        "evaluate": ("predictions", "features", "prices"),
        "backtest": ("predictions", "features", "prices"),
        "regress": ("backtest", "factors"),
    }
    help_by_command = {
        "synth": "write a seeded synthetic market",
        "train": "fit a ranking model on a panel",
        "predict": "score every date with a checkpoint",
        "evaluate": "rank metrics for a prediction file",
        "backtest": "run the top-k dropout strategy",
        "regress": "factor regression of daily backtest returns",
    }

    for name, (func, schema) in COMMANDS.items():
        p = sub.add_parser(name, help=help_by_command[name])
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None,
                       help="key=value config file")
        p.add_argument("--seed", default=None, metavar="V")
        for inp in inputs_by_command[name]:
            p.add_argument(f"--{inp}", required=True)
        if name == "evaluate":
            p.add_argument("--industry", default=None)
            p.add_argument("--region", default=None)
        for key in schema:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None, metavar="V")
        p.set_defaults(func=func, schema=schema)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = (parse_config_file(args.config)
                       if args.config else {})
        resolved = resolve_config(args.schema, args, file_values)
        seed = coerce(args.seed, int, "seed") if args.seed is not None else 0
        return args.func(args, resolved, seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, XsrankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
