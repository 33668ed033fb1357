"""Command line front end: six batch subcommands over file artifacts.

`COMMANDS` declares each subcommand once: its function, the settings
classes whose fields are its options, input flags, optional input flags
and help. `main` builds the settings from flags and config file, so a
refused option is refused before any other input is read. It then
hashes each named input file, config file included, so a missing one is
refused before any work. Every command reads CSVs, writes CSVs (plus an SVG for
the backtest) into --out, and `main` drops a manifest.json recording the
resolved configuration, input digests, artifact list and the numpy, BLAS
and thread settings it ran under. With a fixed seed the CSV/SVG artifacts are
byte-identical across runs; only the manifest's wall_time_seconds varies.

Config precedence is flags > config file > built-in defaults. Config
files are flat `key=value` text, one pair per line, `#` comments. Every
subcommand accepts --out and --config.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import MISSING, fields, replace
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
    generate_synthetic,
    load_factors,
    load_membership,
    load_panel,
    standardize_features,
    write_factors,
    write_membership,
    write_panel,
)
from .errors import SETTING_KINDS, ConfigError, DataError, NonFiniteError, XsrankError
from .evaluate import (
    EvaluateSettings,
    subgroup_metrics,
    summarize,
    write_daily_metrics,
    write_metric_report,
)
from .factor_reg import RegressSettings, ff_regression, write_regression_csv
from .graphs import build_relation_graphs
from .model import ActConfig, load_checkpoint, save_checkpoint
from .training import PredictSettings, TrainSettings, predict_sliding, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
# environment variables that set the BLAS thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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


def resolve_config(schema, args, file_values) -> dict:
    """Each key of `schema` (key -> (kind, default)) from flags > config
    file > defaults, its text read as its kind and refused, as check_kinds
    refuses a value, when it does not parse. Unknown file keys are an
    error, and so is a key with a MISSING default that neither sets."""
    unknown = sorted(set(file_values) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, (kind, default) in schema.items():
        raw = getattr(args, key, None)
        raw = file_values.get(key) if raw is None else raw
        parse, what, _ = SETTING_KINDS[kind]
        try:
            out[key] = default if raw is None else parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{key} is {raw!r}, not {what}") from None
    missing = [key for key, value in out.items() if value is MISSING]
    if missing:
        raise ConfigError(
            f"missing required option(s): {', '.join(missing)} "
            "(set by flag or config file)")
    return out


def file_digest(path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc


def environment() -> dict:
    """What a run's numbers may depend on beyond its inputs: the numpy
    version, the BLAS it was built with (None where numpy cannot say) and
    the BLAS thread count variables (None where unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def write_manifest(out_dir: Path, command: str, config: dict,
                   inputs: dict[str, dict], artifacts: list[str],
                   started: float) -> None:
    """Write manifest.json; `inputs` maps each input name to its path and digest."""
    payload = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "artifacts": sorted(artifacts),
        "environment": environment(),
        "wall_time_seconds": round(time.monotonic() - started, 3),
    }
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


# ---------------------------------------------------------------------------
# subcommands: each takes (args, *settings) and returns its artifact names
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg):
    ds, graphs, factors = generate_synthetic(cfg)
    out = ensure_out(args)
    write_panel(ds, out / "features.csv", out / "prices.csv")
    write_membership(out / "industry.csv", graphs.industry_labels)
    write_membership(out / "region.csv", graphs.region_labels)
    write_factors(factors, out / "factors.csv")
    return ["features.csv", "prices.csv", "industry.csv", "region.csv",
            "factors.csv"]


def cmd_train(args, act, settings):
    ds = standardize_features(load_panel(args.features, args.prices))
    graphs = load_graphs(ds, args.industry, args.region)
    model, history = train(ds, graphs, act(n_features=ds.n_features), settings)

    out = ensure_out(args)
    save_checkpoint(model, out / "checkpoint.json")
    _write_rows(
        out / "history.csv",
        ["epoch", "train_loss", "train_ic_term", "train_mse_term",
         "valid_ic", "selected"],
        ([e, *row, int(e == history.selected_epoch)]
         for e, row in enumerate(zip(history.train_loss, history.train_ic_term,
                                     history.train_mse_term, history.valid_ic))),
    )
    _write_rows(
        out / "train_stats.csv",
        ["metric", "value"],
        [(key, getattr(history, key)) for key in
         ("selected_epoch", "skipped_ic_days", "n_train_windows", "n_valid_windows")],
    )
    return ["checkpoint.json", "history.csv", "train_stats.csv"]


def cmd_predict(args, settings):
    model = load_checkpoint(args.checkpoint)
    ds = standardize_features(load_panel(args.features, args.prices))
    graphs = load_graphs(ds, args.industry, args.region)
    try:
        preds = predict_sliding(model, ds, graphs, start_date=settings.start_date)
    except NonFiniteError as exc:
        # standardized features are finite z-scores, so only the weights
        # can overflow a forward pass
        raise DataError(f"{args.checkpoint}: its weights overflow a forward pass: {exc}") from exc
    out = ensure_out(args)
    preds.write_csv(out / "predictions.csv")
    return ["predictions.csv"]


def cmd_evaluate(args, settings):
    group_by = settings.group_by
    preds = PredictionSeries.read_csv(args.predictions)
    ds = load_panel(args.features, args.prices)
    # the membership file is checked before any artifact is written
    labels = load_panel_membership(getattr(args, group_by), ds.instruments) if group_by else None
    report = summarize(preds, ds)
    out = ensure_out(args)
    write_metric_report(report, out / "metrics.csv")
    write_daily_metrics(report, out / "daily_metrics.csv")
    if not group_by:
        return ["metrics.csv", "daily_metrics.csv"]

    groups = subgroup_metrics(preds, ds, labels)
    _write_rows(out / "subgroups.csv",
                ["category", "ic", "icir", "rank_ic", "rank_icir",
                 "n_days", "flags"],
                ([cat, *[None] * 5, "too_thin"] if rep is None else
                 [cat, *[None] * 5, "too_few_days"] if isinstance(rep, DataError) else
                 [cat, rep.ic, rep.icir, rep.rank_ic, rep.rank_icir, rep.n_days,
                  ";".join(rep.flags)]
                 for cat, rep in sorted(groups.items())))
    return ["metrics.csv", "daily_metrics.csv", "subgroups.csv"]


def cmd_backtest(args, cfg):
    preds = PredictionSeries.read_csv(args.predictions)
    ds = load_panel(args.features, args.prices)
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
    # the backtest's per-day flags follow the metric flags
    write_metric_report(replace(metrics, flags=metrics.flags + result.flags),
                        out / "portfolio_metrics.csv")
    return ["backtest.csv", "portfolio_metrics.csv", "curves.svg"]


def cmd_regress(args, settings):
    dates, portfolio, _ = read_backtest_csv(args.backtest)
    factors = load_factors(args.factors)
    models = ["ff3", "ff5"] if settings.model == "both" else [settings.model]
    results = [
        ff_regression(dates, portfolio, factors, model=m, lags=settings.lags,
                      dof_correction=settings.dof_correction)
        for m in models
    ]
    out = ensure_out(args)
    write_regression_csv(results, out / "regression.csv")
    return ["regression.csv"]


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

_PANEL = ("features", "prices")
_GRAPHS = ("industry", "region")

# name -> (function, settings classes, input flags, optional input flags, help)
COMMANDS = {
    "synth": (cmd_synth, (SynthConfig,), (), (),
              "write a seeded synthetic market"),
    "train": (cmd_train, (ActConfig, TrainSettings), _PANEL + _GRAPHS, (),
              "fit a ranking model on a panel"),
    "predict": (cmd_predict, (PredictSettings,), ("checkpoint",) + _PANEL + _GRAPHS, (),
                "score every date with a checkpoint"),
    "evaluate": (cmd_evaluate, (EvaluateSettings,), ("predictions",) + _PANEL, _GRAPHS,
                 "rank metrics for a prediction file"),
    "backtest": (cmd_backtest, (StrategyConfig,), ("predictions",) + _PANEL, (),
                 "run the top-k dropout strategy"),
    "regress": (cmd_regress, (RegressSettings,), ("backtest", "factors"), (),
                "factor regression of daily backtest returns"),
}
# the field a command fills from its input: the panel's feature count
FILLED = {ActConfig: "n_features"}


def command_options(name: str) -> dict:
    """Each option of command `name` -> (kind, default): the fields of its
    settings classes but those it fills. A MISSING default marks a
    required option, and a None default one that may stay None."""
    return {f.name: (f.type, f.default)
            for cls in COMMANDS[name][1] for f in fields(cls) if f.name != FILLED.get(cls)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsrank",
        description="cross-sectional ranking experiments over CSV panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, inputs, optional, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None,
                       help="key=value config file")
        for inp in inputs:
            p.add_argument(f"--{inp}", required=True)
        for inp in optional:
            p.add_argument(f"--{inp}", default=None)
        for key in command_options(name):
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None, metavar="V")
    return parser


def build_settings(cls, resolved: dict):
    """`cls` built from its options in `resolved`; a class in FILLED comes
    back unfinished, to be called with the field its command fills, once
    its checks have passed with that field at 1."""
    own = {f.name: resolved[f.name] for f in fields(cls) if f.name != FILLED.get(cls)}
    if cls not in FILLED:
        return cls(**own)
    cls(**own, **{FILLED[cls]: 1})
    return functools.partial(cls, **own)


def main(argv=None) -> int:
    """Resolve the config, build the settings, hash every named input,
    run the command, and write its manifest."""
    args = build_parser().parse_args(argv)
    func, classes, inputs, optional, _ = COMMANDS[args.command]
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        resolved = resolve_config(command_options(args.command), args, file_values)
        settings = [build_settings(cls, resolved) for cls in classes]
        # --group-by names the membership file it scores by
        group_by = resolved.get("group_by")
        if group_by and getattr(args, group_by) is None:
            raise ConfigError(f"--group-by {group_by} needs --{group_by}")
        started = time.monotonic()
        named = {name: getattr(args, name)
                 for name in (*inputs, *optional, "config")}
        digests = {name: {"path": str(path), "sha256": file_digest(path)}
                   for name, path in sorted(named.items()) if path is not None}
        artifacts = func(args, *settings)
        write_manifest(Path(args.out), args.command, resolved, digests,
                       artifacts, started)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # an artifact the command cannot write: the OS message names the path
    except (DataError, XsrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
