import argparse
import base64
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import edit_csv
from xsrank import cli
from xsrank.backtest import StrategyConfig, run_backtest
from xsrank.data import (
    PanelDataset,
    PredictionSeries,
    generate_synthetic,
    load_membership,
    load_panel,
    returns_from_prices,
    write_panel,
)
from xsrank.data import SynthConfig
from xsrank.errors import SETTING_KINDS, ConfigError
from xsrank.model import ActModel
from xsrank.training import TrainHistory


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def metrics_map(path):
    return {row[0]: row[1] for row in read_csv_rows(path)[1:]}


SYNTH_ARGS = ["--n-instruments", "8", "--n-features", "4", "--days", "60",
              "--block-size", "4", "--n-regions", "2", "--seed", "3"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny synth->train->predict pipeline shared by the cheap tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data)] + SYNTH_ARGS) == 0
    panel = ["--features", str(data / "features.csv"),
             "--prices", str(data / "prices.csv")]
    graphs = ["--industry", str(data / "industry.csv"),
              "--region", str(data / "region.csv")]
    assert cli.main(
        ["train", "--out", str(root / "model")] + panel + graphs +
        ["--window", "8", "--hidden", "8", "--knn", "3", "--epochs", "2",
         "--valid-start", "2015-03-01", "--seed", "1"]) == 0
    assert cli.main(
        ["predict", "--out", str(root / "preds"),
         "--checkpoint", str(root / "model" / "checkpoint.json")]
        + panel + graphs) == 0
    return root


def panel_args(root):
    data = root / "data"
    return ["--features", str(data / "features.csv"),
            "--prices", str(data / "prices.csv")]


def graph_args(root):
    data = root / "data"
    return ["--industry", str(data / "industry.csv"),
            "--region", str(data / "region.csv")]


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nhidden = 12\n\nlr=0.01  # inline\n")
    assert cli.parse_config_file(path) == {"hidden": "12", "lr": "0.01"}
    path.write_text("hidden\n")
    with pytest.raises(ConfigError):
        cli.parse_config_file(path)
    path.write_text("a=1\na=2\n")
    with pytest.raises(ConfigError):
        cli.parse_config_file(path)
    path.write_text("hidden=12\n=1\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line 2: empty key$"):
        cli.parse_config_file(path)


def test_a_config_or_out_path_the_os_refuses_is_one_error_line(tmp_path, capsys):
    small = ["--n-instruments", "8", "--days", "30"]
    folder = tmp_path / "cfg"
    folder.mkdir()
    assert cli.main(["synth", "--out", str(tmp_path / "a"), "--config", str(folder),
                     *small]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {folder}: ") and err.count("\n") == 1
    plain = tmp_path / "out.txt"
    plain.write_text("")
    assert cli.main(["synth", "--out", str(plain), *small]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plain}: ") and err.count("\n") == 1


def test_coerce_values():
    # every setting's text is read through the kind table
    def parse(kind, raw):
        return cli.resolve_config({"k": (kind, None)}, None, {"k": raw})["k"]

    assert parse("int", "12") == 12
    assert parse("float", "0.5") == 0.5
    assert parse("bool", "true") is True
    assert parse("bool", "0") is False
    assert parse("str", "abc") == "abc"
    with pytest.raises(ConfigError, match="^k is 'x', not an integer$"):
        parse("int", "x")
    with pytest.raises(ConfigError, match="^k is 'maybe', not true or false$"):
        parse("bool", "maybe")
    # the bool spellings, in any case
    for raw, value in (("TRUE", True), ("1", True), ("Yes", True),
                       ("False", False), ("0", False), ("NO", False)):
        assert parse("bool", raw) is value


def test_resolve_config_precedence():
    schema = {"hidden": ("int", 64), "lr": ("float", 1e-3)}

    class Args:
        hidden = "12"
        lr = None

    resolved = cli.resolve_config(schema, Args(), {"hidden": "8", "lr": "0.5"})
    assert resolved == {"hidden": 12, "lr": 0.5}
    resolved = cli.resolve_config(schema, Args(), {})
    assert resolved == {"hidden": 12, "lr": 1e-3}
    with pytest.raises(ConfigError):
        cli.resolve_config(schema, Args(), {"nope": "1"})


# no option has a default its settings class lacks
CLI_ONLY_DEFAULTS = {}


def test_cli_defaults_are_the_dataclass_defaults():
    cli_only = {}
    for command, (_, classes, *_) in cli.COMMANDS.items():
        by_name = {f.name: f for c in classes for f in fields(c)}
        options = cli.command_options(command)
        # every field is an option but the panel's feature count
        assert set(by_name) - set(options) <= {"n_features"}
        for key, (kind, value) in options.items():
            f = by_name[key]
            assert kind == f.type, (key, kind, f.type)
            if f.default is MISSING and value is not MISSING:
                cli_only[key] = value
            else:
                # a field without a default stays required on the CLI too
                assert value == f.default, (key, value, f.default)
    assert cli_only == CLI_ONLY_DEFAULTS


# text each kind reads, for an option set both ways
KIND_TEXT = {"int": "3", "float": "0.5", "bool": "yes", "str": "mlp",
             "str | None": "2015-03-02"}
OPTIONS = [(command, key) for command in cli.COMMANDS for key in cli.command_options(command)]


@pytest.mark.parametrize("command, key", OPTIONS, ids=[f"{c}-{k}" for c, k in OPTIONS])
def test_every_option_reads_the_same_from_its_flag_and_its_config_key(command, key):
    options = cli.command_options(command)
    text = KIND_TEXT[options[key][0]]
    # the other required options come from the file in both runs
    required = {k: KIND_TEXT[kind] for k, (kind, default) in options.items()
                if default is MISSING and k != key}
    parser = cli.build_parser()
    base = [command, "--out", "out"] + [
        arg for name in cli.COMMANDS[command][2] for arg in (f"--{name}", "in.csv")]
    flag = f"--{key.replace('_', '-')}={text}"
    by_flag = cli.resolve_config(options, parser.parse_args(base + [flag]), required)
    by_file = cli.resolve_config(options, parser.parse_args(base), {**required, key: text})
    assert by_flag == by_file
    assert by_flag[key] == SETTING_KINDS[options[key][0]][0](text)


def test_synth_deterministic(workdir, tmp_path):
    again = tmp_path / "again"
    assert cli.main(["synth", "--out", str(again)] + SYNTH_ARGS) == 0
    for name in ("features.csv", "prices.csv", "industry.csv",
                 "region.csv", "factors.csv"):
        assert digest(again / name) == digest(workdir / "data" / name)


def test_synth_reads_the_seed_from_a_config_file(tmp_path):
    # before: seed was no config key, and synth --config exited 2 on it
    config = tmp_path / "run.cfg"
    config.write_text("seed=5\n")
    small = ["--n-instruments", "8", "--days", "30"]
    runs = {"file": ["--config", str(config)], "flag": ["--seed", "5"], "default": []}
    for name, extra in runs.items():
        assert cli.main(["synth", "--out", str(tmp_path / name), *small, *extra]) == 0
    artifacts = read_manifest(tmp_path / "flag")["artifacts"]
    for name in artifacts:
        assert digest(tmp_path / "file" / name) == digest(tmp_path / "flag" / name)
    assert digest(tmp_path / "file" / "prices.csv") != digest(tmp_path / "default" / "prices.csv")
    assert read_manifest(tmp_path / "file")["config"]["seed"] == 5


def test_synth_block_structure(tmp_path):
    out = tmp_path / "blocks"
    assert cli.main(["synth", "--out", str(out), "--n-instruments", "20",
                     "--n-features", "3", "--days", "8",
                     "--block-size", "5"]) == 0
    labels = load_membership(out / "industry.csv")
    assert len(labels) == 20
    assert len(set(labels.values())) == 4


def test_synth_round_trip(workdir):
    ds = generate_synthetic(SynthConfig(
        n_instruments=8, n_features=4, days=60, block_size=4,
        n_regions=2, seed=3))[0]
    reloaded = load_panel(workdir / "data" / "features.csv",
                          workdir / "data" / "prices.csv")
    assert reloaded.dates == ds.dates
    assert reloaded.instruments == ds.instruments
    assert np.array_equal(reloaded.features, ds.features)
    assert np.array_equal(reloaded.labels, ds.labels, equal_nan=True)


def test_train_artifacts_and_manifest(workdir):
    model_dir = workdir / "model"
    manifest = read_manifest(model_dir)
    assert manifest["command"] == "train"
    assert manifest["config"]["hidden"] == 8
    assert manifest["config"]["pspe"] == "full"
    assert manifest["config"]["seed"] == 1
    assert "seed" not in manifest
    assert sorted(manifest["artifacts"]) == [
        "checkpoint.json", "history.csv", "train_stats.csv"]
    assert set(manifest["inputs"]) == {"features", "prices", "industry",
                                       "region"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64
    history = (model_dir / "history.csv").read_text().splitlines()
    assert history[0] == ("epoch,train_loss,train_ic_term,train_mse_term,"
                          "valid_ic,selected")
    assert len(history) == 3
    assert sum(row.endswith(",1") for row in history[1:]) == 1
    # both reports as written when each cell was formatted by hand
    assert digest(model_dir / "history.csv") == (
        "979aacef1e53dd18d51bc81619e70f5e0ca8dc158b3666136d591049e156b5b1")
    assert digest(model_dir / "train_stats.csv") == (
        "298265e08ed7821ab6e473bf9df225194883d901c8aeaa36e2bf0c8d4d290b94")


def test_train_writes_an_epoch_without_a_validation_ic(workdir, tmp_path, monkeypatch):
    # before: the -inf that marks an epoch with no validation IC was
    # refused by the history writer, and train exited 3 after training
    def fake_train(ds, graphs, cfg, settings):
        history = TrainHistory(train_loss=[0.5, 0.25], train_ic_term=[0.5, 0.25],
                               train_mse_term=[1.0, 0.5], valid_ic=[float("-inf"), 0.125],
                               selected_epoch=1, n_train_windows=3, n_valid_windows=2)
        return ActModel(cfg, seed=settings.seed), history

    monkeypatch.setattr(cli, "train", fake_train)
    out = tmp_path / "model"
    assert cli.main(["train", "--out", str(out)] + panel_args(workdir) + graph_args(workdir)
                    + ["--window", "8", "--hidden", "8", "--knn", "3",
                       "--valid-start", "2015-03-01"]) == cli.EXIT_OK
    assert (out / "history.csv").read_text().splitlines()[1:] == [
        "0,0.5,0.5,1.0,-inf,0", "1,0.25,0.25,0.5,0.125,1"]
    assert (out / "train_stats.csv").read_text().splitlines()[1:] == [
        "selected_epoch,1", "skipped_ic_days,0", "n_train_windows,3", "n_valid_windows,2"]
    assert read_manifest(out)["command"] == "train"


def test_train_refuses_a_validation_span_with_nothing_to_score(workdir, tmp_path, capsys):
    # before: every epoch ran, and train exited 3 only when the history
    # writer refused the -inf validation IC, leaving a checkpoint behind.
    # Only S000 has prices from 2015-02-19 on, so no validation day has
    # two observed labels.
    data = workdir / "data"
    prices = tmp_path / "prices.csv"
    header, *rows = (data / "prices.csv").read_text().splitlines()
    prices.write_text("\n".join([header] + [
        row for row in rows if row < "2015-02-19" or row.split(",")[1] == "S000"]) + "\n")
    out = tmp_path / "model"
    rc = cli.main(["train", "--out", str(out), "--features", str(data / "features.csv"),
                   "--prices", str(prices)] + graph_args(workdir)
                  + ["--window", "8", "--hidden", "8", "--knn", "3", "--epochs", "3",
                     "--patience", "2", "--valid-start", "2015-02-20"])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: no validation window from valid_start 2015-02-20 to test_start None "
        "has two observed stocks whose labels differ\n")
    assert not out.exists()


def test_train_ablation_recorded(workdir, tmp_path):
    out = tmp_path / "ablate"
    assert cli.main(
        ["train", "--out", str(out)] + panel_args(workdir)
        + graph_args(workdir)
        + ["--window", "8", "--hidden", "8", "--knn", "3", "--epochs", "1",
           "--valid-start", "2015-03-01", "--sci", "mlp"]) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["sci"] == "mlp"
    assert manifest["config"]["fci"] == "tcn"
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["config"]["sci"] == "mlp"


def test_config_file_feeds_train(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=8\nhidden=8\nknn=3\nepochs=1\n"
                   "valid_start=2015-03-01\n")
    out = tmp_path / "from_file"
    assert cli.main(["train", "--out", str(out), "--config", str(cfg),
                     "--hidden", "12"] + panel_args(workdir)
                    + graph_args(workdir)) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["hidden"] == 12   # flag wins
    assert manifest["config"]["window"] == 8    # file beats default
    assert manifest["config"]["epochs"] == 1


def test_predict_deterministic(workdir, tmp_path):
    again = tmp_path / "preds2"
    assert cli.main(
        ["predict", "--out", str(again),
         "--checkpoint", str(workdir / "model" / "checkpoint.json")]
        + panel_args(workdir) + graph_args(workdir)) == 0
    assert digest(again / "predictions.csv") == digest(
        workdir / "preds" / "predictions.csv")


def test_evaluate_outputs(workdir, tmp_path):
    out = tmp_path / "eval"
    assert cli.main(
        ["evaluate", "--out", str(out),
         "--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir)
        + ["--group-by", "industry",
           "--industry", str(workdir / "data" / "industry.csv")]) == 0
    metrics = metrics_map(out / "metrics.csv")
    assert -1.0 <= float(metrics["ic"]) <= 1.0
    daily = (out / "daily_metrics.csv").read_text().splitlines()
    assert daily[0] == "datetime,ic,rank_ic"
    sub = (out / "subgroups.csv").read_text().splitlines()
    assert sub[0] == "category,ic,icir,rank_ic,rank_icir,n_days,flags"
    # 4-stock industries fall below the subgroup floor
    assert all(row.endswith("too_thin") for row in sub[1:])
    assert read_manifest(out)["artifacts"] == [
        "daily_metrics.csv", "metrics.csv", "subgroups.csv"]


def test_evaluate_writes_infinite_subgroup_ratios(tmp_path):
    # scores equal to the labels rank every 5-stock industry perfectly on
    # every day, so each daily RankIC is the same and rank_icir is inf
    data = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(data), "--n-instruments", "30",
                     "--days", "30", "--seed", "5"]) == 0
    ds = load_panel(data / "features.csv", data / "prices.csv")
    PredictionSeries([(d, s, float(ds.labels[t, i]))
                      for t, d in enumerate(ds.dates)
                      for i, s in enumerate(ds.instruments)
                      if ds.observed_mask[t, i]]
                     ).write_csv(tmp_path / "predictions.csv")
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--out", str(out),
                     "--predictions", str(tmp_path / "predictions.csv"),
                     "--features", str(data / "features.csv"),
                     "--prices", str(data / "prices.csv"),
                     "--group-by", "industry",
                     "--industry", str(data / "industry.csv")]) == cli.EXIT_OK
    rows = [line.split(",") for line in
            (out / "subgroups.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert all(row[4] == "inf" for row in rows)
    assert all("rank_icir_undefined_zero_std" in row[6] for row in rows)
    assert read_manifest(out)["artifacts"] == [
        "daily_metrics.csv", "metrics.csv", "subgroups.csv"]


def test_evaluate_flags_a_category_with_too_few_days_apart_from_a_thin_one(tmp_path):
    # before: IND00, whose six members are observed every day but scored
    # alike, so that no day has a correlation, was flagged too_thin
    data = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(data), "--n-instruments", "30", "--days", "30",
                     "--block-size", "6", "--seed", "11"]) == cli.EXIT_OK
    ds = load_panel(data / "features.csv", data / "prices.csv")
    industry = dict(read_csv_rows(data / "industry.csv")[1:])
    rng = np.random.default_rng(0)
    PredictionSeries([(d, s, float(t) if industry[s] == "IND00" else float(rng.normal()))
                      for t, d in enumerate(ds.dates) for s in ds.instruments]
                     ).write_csv(tmp_path / "predictions.csv")
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--out", str(out),
                     "--predictions", str(tmp_path / "predictions.csv"),
                     "--features", str(data / "features.csv"),
                     "--prices", str(data / "prices.csv"),
                     "--group-by", "industry",
                     "--industry", str(data / "industry.csv")]) == cli.EXIT_OK
    assert ds.observed_mask[:-1][:, [industry[s] == "IND00" for s in ds.instruments]].all()
    rows = read_csv_rows(out / "subgroups.csv")[1:]
    assert rows[0] == ["IND00", "", "", "", "", "", "too_few_days"]
    assert all(row[6] == "" for row in rows[1:])


def test_group_by_needs_membership(workdir, tmp_path):
    rc = cli.main(
        ["evaluate", "--out", str(tmp_path / "x"),
         "--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir) + ["--group-by", "region"])
    assert rc == cli.EXIT_CONFIG


def hand_panel(tmp_path):
    dates = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04",
             "2020-01-05"]
    instruments = ["A", "B", "C", "D"]
    step = np.array([
        [0.01, 0.02, -0.01, 0.03],
        [0.02, -0.02, 0.01, 0.04],
        [-0.01, 0.03, 0.02, -0.02],
        [0.01, 0.01, -0.03, 0.02],
    ])
    vwap = np.empty((5, 4))
    vwap[0] = [100.0, 50.0, 80.0, 60.0]
    for t in range(4):
        vwap[t + 1] = vwap[t] * (1.0 + step[t])
    labels = returns_from_prices(vwap)
    ds = PanelDataset(
        dates=dates,
        instruments=instruments,
        features=np.zeros((5, 4, 3)),
        labels=labels,
        vwap=vwap,
        volume=np.full((5, 4), 1000.0),
    )
    write_panel(ds, tmp_path / "features.csv", tmp_path / "prices.csv")
    scores = {
        "2020-01-01": {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0},
        "2020-01-02": {"D": 10.0, "A": 3.0, "B": 2.0, "C": 1.0},
        "2020-01-03": {"C": 10.0, "D": 9.0, "A": 8.0, "B": 1.0},
        "2020-01-04": {"A": 5.0, "B": 5.0, "C": 5.0, "D": 5.0},
        "2020-01-05": {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0},
    }
    preds = PredictionSeries(
        [(d, i, s) for d, m in scores.items() for i, s in m.items()])
    preds.write_csv(tmp_path / "predictions.csv")


def test_backtest_cli_matches_hand_ledger(tmp_path):
    hand_panel(tmp_path)
    out = tmp_path / "bt"
    assert cli.main(
        ["backtest", "--out", str(out),
         "--predictions", str(tmp_path / "predictions.csv"),
         "--features", str(tmp_path / "features.csv"),
         "--prices", str(tmp_path / "prices.csv"),
         "--k", "3", "--n-drop", "1"]) == 0

    lines = (out / "backtest.csv").read_text().splitlines()
    assert lines[0] == ("datetime,portfolio_ret,benchmark_ret,excess_ret,"
                        "cum_excess")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2020-01-02", "2020-01-03",
                                    "2020-01-04", "2020-01-05"]
    want_port = np.array([
        (0.01 + 0.02 - 0.01) / 3.0,
        (0.02 - 0.02 + 0.04) / 3.0,
        (-0.01 + 0.02 - 0.02) / 3.0,
        (0.01 + 0.01 - 0.03) / 3.0,
    ])
    want_bench = np.array([0.05 / 4.0, 0.05 / 4.0, 0.02 / 4.0, 0.01 / 4.0])
    got_port = np.array([float(r[1]) for r in rows])
    got_bench = np.array([float(r[2]) for r in rows])
    got_excess = np.array([float(r[3]) for r in rows])
    got_cum = np.array([float(r[4]) for r in rows])
    assert np.max(np.abs(got_port - want_port)) < 1e-12
    assert np.max(np.abs(got_bench - want_bench)) < 1e-12
    assert np.max(np.abs(got_excess - (want_port - want_bench))) < 1e-12
    assert np.max(np.abs(got_cum -
                         np.cumprod(1.0 + want_port - want_bench))) < 1e-12

    svg = (out / "curves.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "compounded excess" in svg


def test_backtest_refuses_a_chart_it_cannot_scale(tmp_path, capsys):
    # a price of 1 and then 1e308: a finite return of 1e308 that the
    # compounded portfolio curve carries past what the y scale can hold
    hand_panel(tmp_path)
    prices = tmp_path / "prices.csv"
    new = {"2020-01-01": "1.0", "2020-01-02": "1e308"}
    rows = [line.split(",") for line in prices.read_text().splitlines()]
    for row in rows:
        if row[1] == "A" and row[0] in new:
            row[2] = new[row[0]]
    prices.write_text("".join(",".join(row) + "\n" for row in rows))
    files = ["--predictions", str(tmp_path / "predictions.csv"),
             "--features", str(tmp_path / "features.csv"), "--prices", str(prices)]
    ds = load_panel(tmp_path / "features.csv", prices)
    result = run_backtest(PredictionSeries.read_csv(tmp_path / "predictions.csv"), ds,
                          StrategyConfig(k=3, n_drop=1))
    big = float(np.max(np.cumprod(1.0 + result.portfolio)))
    out = tmp_path / "bt"
    assert cli.main(["backtest", "--out", str(out), *files,
                     "--k", "3", "--n-drop", "1"]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {out / 'curves.svg'}: cannot scale the chart to curve "
        f"'compounded portfolio', whose largest value is {big!r}\n")
    assert list(out.iterdir()) == []


def test_regress_cli(workdir, tmp_path):
    hand_panel(tmp_path)
    out = tmp_path / "bt"
    assert cli.main(
        ["backtest", "--out", str(out),
         "--predictions", str(tmp_path / "predictions.csv"),
         "--features", str(tmp_path / "features.csv"),
         "--prices", str(tmp_path / "prices.csv"),
         "--k", "2", "--n-drop", "1"]) == 0
    # 4 observations cannot support the default lag depth
    rc = cli.main(["regress", "--out", str(tmp_path / "reg"),
                   "--backtest", str(out / "backtest.csv"),
                   "--factors", str(workdir / "data" / "factors.csv")])
    assert rc == cli.EXIT_DATA

    # a longer series from the shared pipeline fits cleanly
    bt2 = tmp_path / "bt2"
    assert cli.main(
        ["backtest", "--out", str(bt2),
         "--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir) + ["--k", "3", "--n-drop", "1"]) == 0
    reg = tmp_path / "reg2"
    assert cli.main(["regress", "--out", str(reg),
                     "--backtest", str(bt2 / "backtest.csv"),
                     "--factors", str(workdir / "data" / "factors.csv"),
                     "--lags", "2"]) == 0
    lines = (reg / "regression.csv").read_text().splitlines()
    assert lines[0] == ("model,alpha,t_alpha,beta_m,beta_s,beta_h,beta_r,"
                        "beta_c,r2,obs")
    assert lines[1].startswith("ff3,") and lines[2].startswith("ff5,")
    assert cli.main(["regress", "--out", str(tmp_path / "reg3"),
                     "--backtest", str(bt2 / "backtest.csv"),
                     "--factors", str(workdir / "data" / "factors.csv"),
                     "--model", "ff6"]) == cli.EXIT_CONFIG


def test_exit_codes(workdir, tmp_path):
    # unknown config key
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    assert cli.main(["synth", "--out", str(tmp_path / "a"),
                     "--config", str(bad)]) == cli.EXIT_CONFIG
    # invalid value
    assert cli.main(["synth", "--out", str(tmp_path / "b"),
                     "--days", "two"]) == cli.EXIT_CONFIG
    # missing required setting
    assert cli.main(["train", "--out", str(tmp_path / "c")]
                    + panel_args(workdir) + graph_args(workdir)
                    + ["--epochs", "1"]) == cli.EXIT_CONFIG
    # missing input file
    assert cli.main(["evaluate", "--out", str(tmp_path / "d"),
                     "--predictions", str(tmp_path / "nope.csv")]
                    + panel_args(workdir)) == cli.EXIT_DATA
    # numeric blow-up during training
    assert cli.main(["train", "--out", str(tmp_path / "e")]
                    + panel_args(workdir) + graph_args(workdir)
                    + ["--window", "8", "--hidden", "8", "--knn", "3",
                       "--epochs", "1", "--valid-start", "2015-03-01",
                       "--lr", "1e150"]) == cli.EXIT_NUMERIC


# every float option of each command, non-finite, and the day settings
# that are not calendar days
REFUSED_SETTINGS = [
    (command, key.replace("_", "-"), value)
    for command in cli.COMMANDS for key, (kind, _) in cli.command_options(command).items()
    if kind == "float" for value in ("nan", "inf", "-inf")
] + [("train", "valid-start", "2015-02-30"), ("train", "valid-start", "abc"),
     ("synth", "start-date", "20150105")]


@pytest.mark.parametrize("command, flag, value", REFUSED_SETTINGS,
                         ids=[f"{flag}-{value}" for _, flag, value in REFUSED_SETTINGS])
def test_train_refuses_a_setting_it_cannot_use(workdir, tmp_path, capsys, command, flag,
                                               value):
    # each was accepted before: a bad number failed or ran on mid-training
    # (train), wrote a partial panel (synth --noise nan) or failed drawing
    # the chart (backtest), and a date that is not a day was compared as
    # a string (train) or read in another form (synth)
    out = tmp_path / "out"
    argv = {
        "synth": SYNTH_ARGS,
        "train": panel_args(workdir) + graph_args(workdir)
        + ["--window", "8", "--hidden", "8", "--knn", "3", "--epochs", "1",
           "--valid-start", "2015-03-01"],
        "backtest": ["--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir) + ["--k", "3", "--n-drop", "1"],
    }[command]
    # --flag=value, since argparse reads a bare -inf as an option
    assert cli.main([command, "--out", str(out), *argv, f"--{flag}={value}"]
                    ) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag.replace('-', '_')} ") and err.count("\n") == 1
    assert not out.exists()


# the settings classes of every command, and a value for each field
# without a default
SETTINGS_CLASSES = sorted({c for _, classes, *_ in cli.COMMANDS.values() for c in classes},
                          key=lambda c: c.__name__)
REQUIRED_VALUES = {"n_features": 4, "valid_start": "2015-03-02", "k": 3, "n_drop": 1}
# a value of another kind for each kind, and what the kind must be
WRONG_KINDS = {"int": (True, "an integer"), "float": ("1", "a finite number"),
               "bool": (1, "true or false"), "str": (1, "a string"),
               "str | None": (1, "a string")}


@pytest.mark.parametrize("cls", SETTINGS_CLASSES, ids=lambda c: c.__name__)
def test_settings_refuse_a_value_of_another_kind(cls):
    # before: ActConfig(hidden=True) and ActConfig(hidden=8.0) were accepted
    required = {f.name: REQUIRED_VALUES[f.name] for f in fields(cls) if f.default is MISSING}
    for f in fields(cls):
        bad, kind = WRONG_KINDS[f.type]
        with pytest.raises(ConfigError, match=f"^{f.name} is {bad!r}, not {kind}$"):
            cls(**{**required, f.name: bad})


def _refuse(*_args, **_kwargs):
    raise AssertionError("an input was parsed")


def test_regress_refuses_its_settings_before_parsing_an_input(workdir, tmp_path, capsys,
                                                              monkeypatch):
    # before: --lags -1 was refused inside newey_west_se, after both files
    # were read and the first model was fit
    monkeypatch.setattr(cli, "read_backtest_csv", _refuse)
    monkeypatch.setattr(cli, "load_factors", _refuse)
    # any files that exist: main hashes them, and nothing may parse them
    files = ["--backtest", str(workdir / "data" / "prices.csv"),
             "--factors", str(workdir / "data" / "factors.csv")]
    for flag, error in (("--lags=-1", "lags must be >= 0"),
                        ("--dof-correction=maybe", "dof_correction is 'maybe', not true or false"),
                        ("--model=ff6", "model must be ff3, ff5, or both")):
        out = tmp_path / flag.split("=")[0][2:]
        assert cli.main(["regress", "--out", str(out), *files, flag]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


# per command that reads inputs: a refused option, the options it needs,
# and the optional inputs it names (none of the named files exists)
REFUSED_OPTIONS = [
    pytest.param("regress", ["--lags=-1"], "lags must be >= 0", id="regress"),
    pytest.param("backtest", ["--k", "0", "--n-drop", "1"], "k must be >= 1", id="backtest"),
    pytest.param("train", ["--lr", "0", "--valid-start", "2015-03-01"], "lr must be positive",
                 id="train"),
    # before: ActConfig was checked only once the panel was read, so these
    # exited 3 on the missing features file
    pytest.param("train", ["--dropout-rate", "1.5", "--valid-start", "2015-03-01"],
                 "dropout_rate must be in [0, 1)", id="train-dropout-rate"),
    pytest.param("train", ["--hidden", "0", "--valid-start", "2015-03-01"],
                 "hidden size must be >= 1", id="train-hidden"),
    pytest.param("train", ["--pspe", "both", "--valid-start", "2015-03-01"],
                 "pspe must be one of ('full', 'gat_only')", id="train-pspe"),
    pytest.param("train", ["--leaky-slope", "1.5", "--valid-start", "2015-03-01"],
                 "leaky_slope must be in [0, 1)", id="train-leaky-slope"),
    # before: numpy's ValueError and a traceback, exit 1, once the inputs
    # were hashed (train) or at once (synth)
    pytest.param("train", ["--seed", "-2", "--valid-start", "2015-03-01"],
                 "seed must be >= 0", id="train-seed"),
    pytest.param("synth", ["--seed", "-1"], "seed must be >= 0", id="synth-seed"),
    pytest.param("evaluate", ["--group-by", "sector", "--industry", "industry.csv",
                              "--region", "region.csv"],
                 "group_by must be industry or region", id="evaluate"),
    # before: checked by the command, after every input was hashed
    pytest.param("evaluate", ["--group-by", "industry", "--region", "region.csv"],
                 "--group-by industry needs --industry", id="evaluate-unnamed-membership"),
]


@pytest.mark.parametrize("command, flags, error", REFUSED_OPTIONS)
def test_a_refused_option_exits_2_before_any_input_is_hashed(tmp_path, capsys, monkeypatch,
                                                             command, flags, error):
    # before: main hashed every named input first, so a missing one
    # exited 3 and the refused option was never reported
    monkeypatch.setattr(cli, "file_digest", _refuse)
    missing = [arg for name in cli.COMMANDS[command][2]
               for arg in (f"--{name}", str(tmp_path / f"{name}.csv"))]
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), *missing, *flags]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_evaluate_refuses_an_unknown_group_before_parsing_an_input(workdir, tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(cli.PredictionSeries, "read_csv", _refuse)
    monkeypatch.setattr(cli, "load_panel", _refuse)
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--out", str(out),
                     "--predictions", str(workdir / "preds" / "predictions.csv")]
                    + panel_args(workdir) + ["--group-by", "sector"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: group_by must be industry or region\n"
    assert not out.exists()


def test_readme_usage_flags_are_cli_options():
    # the usage block names each command at the start of its first line,
    # and every flag on that line or the indented ones under it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    flags = {}
    for line in block.strip().splitlines():
        if line.startswith("xsrank "):
            command = line.split()[1]
        flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(flags) == set(cli.COMMANDS)
    for command, named in flags.items():
        accepted = set(subparsers[command]._option_string_actions)
        assert named <= accepted, (command, sorted(named - accepted))


def test_out_of_memory_is_one_error_line(monkeypatch, tmp_path, capsys):
    # before: train --hidden 100000000 ended in a MemoryError traceback
    def exhausted(args, cfg):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "synth", (exhausted, *cli.COMMANDS["synth"][1:]))
    out = tmp_path / "out"
    assert cli.main(["synth", "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: out of memory running synth\n"
    assert not out.exists()


def test_an_artifact_that_cannot_be_written_is_one_error_line(workdir, tmp_path, capsys):
    # before: the writer's IsADirectoryError escaped main as a traceback
    # and exit code 1
    synth = tmp_path / "synth"
    (synth / "features.csv").mkdir(parents=True)
    model = tmp_path / "model"
    (model / "checkpoint.json").mkdir(parents=True)
    runs = [(synth / "features.csv", ["synth", "--out", str(synth), "--n-instruments", "8",
                                      "--days", "8"]),
            (model / "checkpoint.json",
             ["train", "--out", str(model)] + _command_args("train", workdir, tmp_path))]
    for path, argv in runs:
        assert cli.main(argv) == cli.EXIT_DATA, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0], err


def test_pipeline_noise_free_recovers_signal(tmp_path):
    """synth -> train -> predict -> evaluate on a noiseless panel."""
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--n-instruments", "10",
                     "--n-features", "4", "--days", "90", "--noise", "0",
                     "--block-size", "5", "--n-regions", "2",
                     "--seed", "7"]) == 0
    args = ["--features", str(data / "features.csv"),
            "--prices", str(data / "prices.csv"),
            "--industry", str(data / "industry.csv"),
            "--region", str(data / "region.csv")]
    assert cli.main(["train", "--out", str(tmp_path / "model")] + args
                    + ["--window", "8", "--hidden", "24", "--knn", "4",
                       "--dropout-rate", "0", "--lr", "5e-3",
                       "--epochs", "80", "--patience", "80",
                       "--valid-start", "2015-04-09", "--seed", "0"]) == 0
    assert cli.main(["predict", "--out", str(tmp_path / "preds"),
                     "--checkpoint",
                     str(tmp_path / "model" / "checkpoint.json")]
                    + args) == 0
    assert cli.main(["evaluate", "--out", str(tmp_path / "eval"),
                     "--predictions",
                     str(tmp_path / "preds" / "predictions.csv"),
                     "--features", str(data / "features.csv"),
                     "--prices", str(data / "prices.csv")]) == 0
    metrics = metrics_map(tmp_path / "eval" / "metrics.csv")
    assert float(metrics["ic"]) > 0.95


def test_membership_naming_no_panel_instrument_is_refused(workdir, tmp_path, capsys):
    stranger = tmp_path / "stranger.csv"
    stranger.write_text("instrument,category\nZZZ,X\n")
    rc = cli.main(["train", "--out", str(tmp_path / "t")] + panel_args(workdir)
                  + ["--industry", str(stranger),
                     "--region", str(workdir / "data" / "region.csv"),
                     "--valid-start", "2015-03-01", "--epochs", "1"])
    assert rc == cli.EXIT_DATA
    assert f"{stranger}: names no instrument of the panel" in capsys.readouterr().err
    rc = cli.main(["evaluate", "--out", str(tmp_path / "e"),
                   "--predictions", str(workdir / "preds" / "predictions.csv")]
                  + panel_args(workdir)
                  + ["--group-by", "industry", "--industry", str(stranger)])
    assert rc == cli.EXIT_DATA
    assert f"{stranger}: names no instrument of the panel" in capsys.readouterr().err


def test_evaluate_quotes_a_category_that_holds_a_comma(workdir, tmp_path):
    # before: the category "IND,00" was written as is, an 8-cell row under
    # the 7-column subgroups.csv header
    industry = tmp_path / "industry.csv"
    text = (workdir / "data" / "industry.csv").read_text()
    industry.write_text(text.replace(",IND00\n", ',"IND,00"\n'))
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--out", str(out),
                     "--predictions", str(workdir / "preds" / "predictions.csv")]
                    + panel_args(workdir)
                    + ["--group-by", "industry", "--industry", str(industry)]) == cli.EXIT_OK
    rows = read_csv_rows(out / "subgroups.csv")
    assert {len(row) for row in rows} == {7}
    assert [row[0] for row in rows[1:]] == ["IND,00", "IND01"]


@pytest.mark.parametrize("name, what", [("predictions", "instrument")])
def test_evaluate_refuses_a_name_the_writers_cannot_write(workdir, tmp_path, capsys,
                                                          name, what):
    # before: the instrument "S0,01" was refused at load as a name the
    # writers cannot write; they now quote it, so it reads back whole and
    # is refused only as a name the panel lacks
    source = workdir / "preds" / f"{name}.csv"
    header, first, *rest = source.read_text().splitlines()
    cells = first.split(",")
    cell = cells[1][:1] + "," + cells[1][1:]
    cells[1] = f'"{cell}"'
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    preds = PredictionSeries.read_csv(path)
    assert cell in preds.instruments
    preds.write_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    out = tmp_path / "eval"
    capsys.readouterr()
    rc = cli.main(["evaluate", "--out", str(out), "--predictions", str(path)]
                  + panel_args(workdir))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: prediction {what} {cell} not in the panel\n"
    assert not out.exists()


@pytest.mark.parametrize("day", ["2020-13-01", '"2020-01-01,x"'], ids=["month-13", "comma"])
def test_evaluate_refuses_a_prediction_date_that_is_not_a_day(workdir, tmp_path, capsys, day):
    # before: the month-13 date was refused only as "prediction date
    # 2020-13-01 not in the panel", with no file or line
    header, first, *rest = (workdir / "preds" / "predictions.csv").read_text().splitlines()
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("\n".join([header, day + first[first.index(","):], *rest]) + "\n")
    out = tmp_path / "eval"
    capsys.readouterr()
    rc = cli.main(["evaluate", "--out", str(out), "--predictions", str(predictions)]
                  + panel_args(workdir))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        f"error: {predictions}: line 2: date {day.strip(chr(34))!r} is not a YYYY-MM-DD day"]
    assert not out.exists()


def test_backtest_writes_its_per_day_flags(workdir, tmp_path):
    # before: BacktestResult.flags reached no artifact
    data = workdir / "data"
    ds = load_panel(data / "features.csv", data / "prices.csv")
    d = ds.dates
    # S000 has no price on d[2], so it earns no return over d[1] -> d[2]
    prices = tmp_path / "prices.csv"
    with (data / "prices.csv").open() as fh:
        prices.write_text("".join(line for line in fh if not line.startswith(f"{d[2]},S000,")))
    predictions = tmp_path / "predictions.csv"
    PredictionSeries([(d[1], s, float(-k)) for k, s in enumerate(ds.instruments)]
                     + [(d[3], "S001", 1.0), (d[3], "S002", 0.5)]).write_csv(predictions)
    out = tmp_path / "bt"
    assert cli.main(["backtest", "--out", str(out), "--predictions", str(predictions),
                     "--features", str(data / "features.csv"), "--prices", str(prices),
                     "--k", "3", "--n-drop", "1"]) == cli.EXIT_OK
    flags = run_backtest(PredictionSeries.read_csv(predictions),
                         load_panel(data / "features.csv", prices),
                         StrategyConfig(k=3, n_drop=1)).flags
    assert flags == [f"{d[1]}: no realized return for S000, frozen",
                     f"{d[3]}: only 2 scored names, holding 2"]
    rows = read_csv_rows(out / "portfolio_metrics.csv")
    assert {len(row) for row in rows} == {2}
    assert rows[-2:] == [["flag", flag] for flag in flags]


def panel_commands(root):
    """The arguments, besides --out and the panel, of one small run of
    each command that loads a panel."""
    predictions = ["--predictions", str(root / "preds" / "predictions.csv")]
    return {
        "train": ["--window", "8", "--hidden", "8", "--knn", "3", "--epochs", "1",
                  "--valid-start", "2015-03-01"] + graph_args(root),
        "predict": ["--checkpoint", str(root / "model" / "checkpoint.json")]
        + graph_args(root),
        "evaluate": predictions,
        "backtest": predictions + ["--k", "2", "--n-drop", "1"],
    }


def test_commands_refuse_a_features_file_missing_a_row(workdir, tmp_path, capsys):
    # before: S003 was dropped from the whole panel, so its last-date gap
    # removed it from every earlier date's scores and moved the others',
    # and each command exited 0 with the name in the manifest
    data = workdir / "data"
    header, *rows = (data / "features.csv").read_text().splitlines()
    last = rows[-1].split(",")[0]
    features = tmp_path / "features.csv"
    features.write_text("\n".join([header] + [row for row in rows
                                              if not row.startswith(f"{last},S003,")]) + "\n")
    panel = ["--features", str(features), "--prices", str(data / "prices.csv")]
    for command, args in panel_commands(workdir).items():
        out = tmp_path / command
        assert cli.main([command, "--out", str(out)] + panel + args) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {features}: S003 has no row on {last}\n"
        assert not out.exists()
    assert cli.main(["evaluate", "--out", str(tmp_path / "full"), "--predictions",
                     str(workdir / "preds" / "predictions.csv")]
                    + panel_args(workdir)) == cli.EXIT_OK
    assert set(read_manifest(tmp_path / "full")) == {
        "artifacts", "command", "config", "environment", "inputs", "wall_time_seconds"}


def test_train_and_predict_refuse_a_feature_they_cannot_standardize(workdir, tmp_path, capsys):
    # before: numpy warned of the overflow and predict exited 0, with
    # 2015-02-27's f1 standardized to -0.0 for every instrument
    data = workdir / "data"
    features = tmp_path / "features.csv"
    text = (data / "features.csv").read_text()
    row = next(k for k, line in enumerate(text.splitlines()[1:])
               if line.startswith("2015-02-27,S007,"))
    features.write_text(edit_csv(text, "cell", row, 3, "1e200"))
    panel = ["--features", str(features), "--prices", str(data / "prices.csv")]
    runs = {
        "train": ["--window", "8", "--hidden", "8", "--knn", "3", "--epochs", "1",
                  "--valid-start", "2015-03-01"],
        "predict": ["--checkpoint", str(workdir / "model" / "checkpoint.json")],
    }
    for command, args in runs.items():
        out = tmp_path / command
        assert cli.main([command, "--out", str(out)] + panel + graph_args(workdir)
                        + args) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "error: feature f1 on 2015-02-27: mean or spread overflows, so it cannot be "
            "standardized\n")
        assert not out.exists()


def test_backtest_refuses_a_day_no_instrument_earns(workdir, tmp_path, capsys):
    # a skipped return day would let regress run its Newey-West lags across
    # the gap, as a missing factors.csv day would; evaluate skips the dates
    # that lost their labels
    data = workdir / "data"
    dates = load_panel(data / "features.csv", data / "prices.csv").dates
    gap = dates[20]
    prices = tmp_path / "prices.csv"
    with (data / "prices.csv").open() as fh:
        prices.write_text("".join(line for line in fh if not line.startswith(f"{gap},")))
    panel = ["--features", str(data / "features.csv"), "--prices", str(prices)]
    predictions = ["--predictions", str(workdir / "preds" / "predictions.csv")]
    assert cli.main(["evaluate", "--out", str(tmp_path / "eval")] + predictions
                    + panel) == cli.EXIT_OK
    out = tmp_path / "bt"
    assert cli.main(["backtest", "--out", str(out)] + predictions + panel
                    + ["--k", "2", "--n-drop", "1"]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: no realized returns on {dates[19]}\n"
    assert not out.exists()


# sha256 of every artifact of the chain below, as written before the CSV
# readers and writers worked a column at a time; the chain must keep them.
# metrics.csv differs from that run only in n_excluded_days, 1 -> 0: the
# final date, which has no label, is no longer counted as excluded.
CHAIN_DIGESTS = {
    "backtest/backtest.csv": "d452988f9667e6a3ef8ed040099b64c659a6f9ada8c4496993ab723fef5259de",
    "backtest/curves.svg": "b9ee59711eb6469816d82ce4dd13755a94473b21487b498cb04f5d5f36a09694",
    "backtest/portfolio_metrics.csv": "f665a85dbff7c986e5344452fbdc650eb2de21c7dc276167f90bcee6851428f7",
    "evaluate/daily_metrics.csv": "f5a74f1f657bc90416cc1c4ed6b099ed93d94941e54beee01760c04867e61f7b",
    "evaluate/metrics.csv": "fb427a7e0943eaae17641e1975a8cf3637a51c7da0e427d74edfcb904af1dd11",
    "evaluate/subgroups.csv": "04828e8075a074a17c3be85b08ad76d0d7da1157b0ead9e81360502728e3591f",
    "predictions.csv": "f855ff058177d7394a80c22ac56c5d7f91ab7a92871eb7cd80640f1837ca7f10",
    "regress/regression.csv": "59a84e1789e0931cb51dc5f10acfdb14570902cf60d07afdabe56ed13af66d84",
    "synth/factors.csv": "8fb005487b80c189645c7e577f0a53b45826fbd04338d5ffe4de25ce4b8a4258",
    "synth/features.csv": "c772d76c93a45a4c037afbcf203183b4a176ba83731a5c3118434ccfbced7b22",
    "synth/industry.csv": "5031e101bccfc86c504e9cff54dc7a66b13950c3484bc2c83e320cd500dbadc0",
    "synth/prices.csv": "5a26d73df9d5c053057b5bd987a122f4b061dba78ec158369be3fa36b9fa3d2b",
    "synth/region.csv": "518aab71a94d7425a645672eb8206e0552e65c6f87478fcb1df89d2c47437135",
}


def test_cli_chain_artifacts_are_byte_stable(tmp_path):
    data = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(data), "--n-instruments", "30",
                     "--days", "30", "--block-size", "6", "--n-regions", "3",
                     "--seed", "11"]) == 0
    ds, _, _ = generate_synthetic(SynthConfig(
        n_instruments=30, days=30, block_size=6, n_regions=3, seed=11))
    # scores of order 1e-4 and below take the exponent-free fallback
    noise = np.random.default_rng(11).normal(0.0, 1e-4, ds.labels.shape)
    scores = 1e-3 * np.where(np.isfinite(ds.labels), ds.labels, 0.0) + noise
    PredictionSeries([(d, s, float(scores[t, i])) for t, d in enumerate(ds.dates)
                      for i, s in enumerate(ds.instruments)]
                     ).write_csv(tmp_path / "predictions.csv")
    panel = ["--predictions", str(tmp_path / "predictions.csv"),
             "--features", str(data / "features.csv"),
             "--prices", str(data / "prices.csv")]
    assert cli.main(["evaluate", "--out", str(tmp_path / "evaluate"), *panel,
                     "--group-by", "industry",
                     "--industry", str(data / "industry.csv")]) == 0
    assert cli.main(["backtest", "--out", str(tmp_path / "backtest"), *panel,
                     "--k", "5", "--n-drop", "1"]) == 0
    assert cli.main(["regress", "--out", str(tmp_path / "regress"),
                     "--backtest", str(tmp_path / "backtest" / "backtest.csv"),
                     "--factors", str(data / "factors.csv")]) == 0
    got = {str(p.relative_to(tmp_path)): digest(p)
           for p in sorted(tmp_path.rglob("*"))
           if p.is_file() and p.name != "manifest.json"}
    assert got == CHAIN_DIGESTS


def test_regress_reports_a_malformed_backtest_cell(workdir, tmp_path, capsys):
    bt = tmp_path / "bt"
    assert cli.main(
        ["backtest", "--out", str(bt),
         "--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir) + ["--k", "3", "--n-drop", "1"]) == 0
    lines = (bt / "backtest.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "abc"
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["regress", "--out", str(tmp_path / "reg"),
                   "--backtest", str(bad),
                   "--factors", str(workdir / "data" / "factors.csv"),
                   "--lags", "2"])
    assert rc == cli.EXIT_DATA
    assert f"{bad}: line 4: unparseable number 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "reg" / "regression.csv").exists()


def _swap_rows(lines):
    lines[3], lines[4] = lines[4], lines[3]


def _set_cell(column, value):
    def edit(lines):
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
    return edit


@pytest.mark.parametrize("edit, fault", [
    # before: the row was dropped when aligned with factors.csv, one obs fewer
    (_set_cell(0, "2099-13-01"), "line 4: date '2099-13-01' is not a YYYY-MM-DD day"),
    # before: the Newey-West lags ran over days out of order
    (_swap_rows, "dates must be unique and ascending"),
    # before: benchmark_ret was never parsed
    (_set_cell(2, "xyz"), "line 4: unparseable number 'xyz'"),
], ids=["bad_day", "swapped_rows", "bad_benchmark_ret"])
def test_regress_refuses_a_malformed_backtest_csv(workdir, tmp_path, capsys, edit, fault):
    bt = tmp_path / "bt"
    assert cli.main(
        ["backtest", "--out", str(bt),
         "--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir) + ["--k", "3", "--n-drop", "1"]) == 0
    lines = (bt / "backtest.csv").read_text().splitlines()
    edit(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["regress", "--out", str(tmp_path / "reg"),
                   "--backtest", str(bad),
                   "--factors", str(workdir / "data" / "factors.csv"),
                   "--lags", "2"])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {fault}"]
    assert not (tmp_path / "reg").exists()


def test_evaluate_checks_group_by_before_writing(workdir, tmp_path):
    stranger = tmp_path / "stranger.csv"
    stranger.write_text("instrument,category\nZZZ,X\n")
    base = (["evaluate", "--predictions", str(workdir / "preds" / "predictions.csv")]
            + panel_args(workdir))
    for name, extra, code in (
        ("no_path", ["--group-by", "industry"], cli.EXIT_CONFIG),
        ("stranger", ["--group-by", "industry", "--industry", str(stranger)],
         cli.EXIT_DATA),
    ):
        out = tmp_path / name
        assert cli.main(base + ["--out", str(out)] + extra) == code
        assert not (out / "metrics.csv").exists()
        assert not (out / "daily_metrics.csv").exists()


def test_predict_refuses_a_checkpoint_with_another_feature_count(workdir, tmp_path, capsys):
    # the workdir model takes 4 features; this panel has 5
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--n-instruments", "8",
                     "--n-features", "5", "--days", "60", "--seed", "3"]) == 0
    capsys.readouterr()
    out = tmp_path / "preds"
    rc = cli.main(["predict", "--out", str(out),
                   "--checkpoint", str(workdir / "model" / "checkpoint.json"),
                   "--features", str(data / "features.csv"),
                   "--prices", str(data / "prices.csv"),
                   "--industry", str(data / "industry.csv"),
                   "--region", str(data / "region.csv")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "model takes 4 features, panel has 5" in err[0]
    assert not (out / "predictions.csv").exists()


def test_regress_refuses_a_factor_date_that_is_not_a_calendar_day(workdir, tmp_path, capsys):
    # before: the last two days, renamed 2015-13-01 and 2015-13-02 (still
    # ascending as strings), were dropped and regress exited 0 with fewer obs
    bt = tmp_path / "bt"
    assert cli.main(
        ["backtest", "--out", str(bt),
         "--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir) + ["--k", "3", "--n-drop", "1"]) == 0
    lines = (workdir / "data" / "factors.csv").read_text().splitlines()
    for k, day in ((-2, "2015-13-01"), (-1, "2015-13-02")):
        lines[k] = day + lines[k][len(day):]
    factors = tmp_path / "factors.csv"
    factors.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["regress", "--out", str(tmp_path / "reg"),
                   "--backtest", str(bt / "backtest.csv"),
                   "--factors", str(factors), "--lags", "2"])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {factors}: line {len(lines) - 1}: "
                   "date '2015-13-01' is not a YYYY-MM-DD day"], err
    assert not (tmp_path / "reg" / "regression.csv").exists()


def test_regress_refuses_a_backtest_day_missing_from_the_factors(workdir, tmp_path, capsys):
    # before: the day was dropped by intersecting dates, regress exited 0
    # with one obs fewer and the Newey-West lags ran across the gap
    bt = tmp_path / "bt"
    assert cli.main(
        ["backtest", "--out", str(bt),
         "--predictions", str(workdir / "preds" / "predictions.csv")]
        + panel_args(workdir) + ["--k", "3", "--n-drop", "1"]) == 0
    bt_lines = (bt / "backtest.csv").read_text().splitlines()
    day = bt_lines[5].split(",")[0]
    lines = [line for line in (workdir / "data" / "factors.csv").read_text().splitlines()
             if not line.startswith(day + ",")]
    factors = tmp_path / "factors.csv"
    factors.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["regress", "--out", str(tmp_path / "reg"),
                   "--backtest", str(bt / "backtest.csv"),
                   "--factors", str(factors), "--lags", "2"])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: 1 of {len(bt_lines) - 1} return days have no factor row; "
                   f"the first is {day}"], err
    assert not (tmp_path / "reg").exists()


UNPRICED = "prices no (date, instrument) cell of"


@pytest.mark.parametrize("old, new, fault", [
    ("2015-01-02,", "2015-13-02,", "is not a YYYY-MM-DD day"),
    (None, "-1.5", "price -1.5 is not positive and finite"),
    (None, "0", "price 0.0 is not positive and finite"),
    (None, "inf", "price inf is not positive and finite"),
    # an int names the column of line 6 to set; line 5 is S003's on the same date
    pytest.param(1, "S003", "prices.csv: line 6: duplicate (date, instrument) pair",
                 id="duplicate-row"),
    pytest.param(3, "0", "prices.csv: line 6: volume 0.0 is not positive and finite",
                 id="volume-0"),
    pytest.param(3, "-3", "prices.csv: line 6: volume -3.0 is not positive and finite",
                 id="volume-minus-3"),
    pytest.param(3, "inf", "prices.csv: line 6: volume inf is not positive and finite",
                 id="volume-inf"),
    # a callable rewrites the price lines into a file that prices no cell
    # of the panel, which every command refuses naming both files
    pytest.param(lambda lines: lines[:1], None, UNPRICED, id="header-only"),
    pytest.param(lambda lines: [line.replace("2015-", "2014-") for line in lines], None,
                 UNPRICED, id="other-dates"),
    pytest.param(lambda lines: [line.replace(",S0", ",T0") for line in lines], None,
                 UNPRICED, id="other-instruments"),
])
def test_bad_dates_and_prices_exit_3_with_one_error_line(workdir, tmp_path, capsys,
                                                         old, new, fault):
    # before: a repeated row was averaged into its cell by volume, and a
    # volume of zero or below was refused naming no file or line; and a
    # prices.csv with only its header failed each command differently:
    # train exited 2 naming the validation window, predict named a
    # start_date it was not given, and evaluate and backtest named days
    data = workdir / "data"
    features = tmp_path / "features.csv"
    prices = tmp_path / "prices.csv"
    feat_text = (data / "features.csv").read_text()
    price_lines = (data / "prices.csv").read_text().splitlines()
    if callable(old):
        price_lines = old(price_lines)
    elif not isinstance(old, str):
        cells = price_lines[5].split(",")
        cells[2 if old is None else old] = new
        price_lines[5] = ",".join(cells)
    features.write_text(feat_text.replace(old, new) if isinstance(old, str) else feat_text)
    prices.write_text("\n".join(price_lines) + "\n")
    panel = ["--features", str(features), "--prices", str(prices)]
    for command, args in panel_commands(workdir).items():
        out = tmp_path / command
        assert cli.main([command, "--out", str(out)] + panel + args) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        if callable(old):
            assert err == [f"error: {prices}: {fault} {features}"], err
        else:
            assert len(err) == 1 and err[0].startswith("error:") and fault in err[0], err
            assert "line " in err[0]
        assert not out.exists()


def _command_args(command, root, tmp_path):
    """Arguments for one small run of `command` over the shared pipeline;
    evaluate also names the optional --region it does not group by."""
    predictions = ["--predictions", str(root / "preds" / "predictions.csv")]
    if command == "regress":
        bt = tmp_path / "bt"
        assert cli.main(["backtest", "--out", str(bt)] + predictions + panel_args(root)
                        + ["--k", "3", "--n-drop", "1"]) == cli.EXIT_OK
        return ["--backtest", str(bt / "backtest.csv"),
                "--factors", str(root / "data" / "factors.csv"), "--lags", "2"]
    return {
        "synth": ["--n-instruments", "8", "--days", "8"],
        "train": panel_args(root) + graph_args(root)
        + ["--window", "8", "--hidden", "8", "--knn", "3", "--epochs", "1",
           "--valid-start", "2015-03-01"],
        "predict": ["--checkpoint", str(root / "model" / "checkpoint.json")]
        + panel_args(root) + graph_args(root),
        "evaluate": predictions + panel_args(root)
        + ["--region", str(root / "data" / "region.csv")],
        "backtest": predictions + panel_args(root) + ["--k", "3", "--n-drop", "1"],
    }[command]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_manifest_hashes_every_named_input(workdir, tmp_path, command):
    config = tmp_path / "run.cfg"
    config.write_text("# no keys\n")
    argv = _command_args(command, workdir, tmp_path) + ["--config", str(config)]
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out)] + argv) == cli.EXIT_OK
    _, _, inputs, optional, _ = cli.COMMANDS[command]
    given = [name for name in optional if f"--{name}" in argv]
    assert given == (["region"] if command == "evaluate" else [])
    manifest = read_manifest(out)
    assert sorted(manifest["inputs"]) == sorted([*inputs, *given, "config"])
    for name, entry in manifest["inputs"].items():
        path = argv[argv.index(f"--{name}") + 1]
        assert entry == {"path": path, "sha256": digest(Path(path))}
    # and the numpy, BLAS and thread settings the run had
    env = manifest["environment"]
    assert env == cli.environment()
    assert env["numpy"] == np.__version__
    assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
    assert env["threads"] == {var: os.environ.get(var) for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_manifest_environment_without_blas_details(tmp_path, monkeypatch):
    # numpy before 1.26 has a show_config() that takes no mode and only
    # prints; its BLAS is recorded as unknown
    def old_show_config():
        return None

    monkeypatch.setattr(np, "show_config", old_show_config)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "out"
    assert cli.main(["synth", "--out", str(out), "--n-instruments", "8", "--days", "8"]) == 0
    env = read_manifest(out)["environment"]
    assert env["blas"] is None
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_synth_refuses_a_calendar_past_9999(tmp_path, capsys):
    # before: an OverflowError traceback and exit 1
    out = tmp_path / "d"
    assert cli.main(["synth", "--out", str(out), "--start-date", "9999-12-01",
                     "--days", "600"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: start_date 9999-12-01 with days 600 runs past 9999-12-31"]
    assert not out.exists()


def test_evaluate_refuses_a_missing_named_input_before_any_work(workdir, tmp_path, capsys):
    # before: an --industry that evaluate does not group by was never read,
    # and the run exited 0
    out = tmp_path / "eval"
    missing = [tmp_path / "industry.csv", tmp_path / "region.csv"]
    assert cli.main(["evaluate", "--out", str(out),
                     "--predictions", str(workdir / "preds" / "predictions.csv")]
                    + panel_args(workdir)
                    + ["--region", str(missing[1]), "--industry", str(missing[0])]
                    ) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    # of several missing inputs, the first by name is reported
    assert len(err) == 1 and err[0].startswith(f"error: {missing[0]}: [Errno 2] "), err
    assert not out.exists()


def _values(entry):
    """A checkpoint entry's data as a writable float64 array."""
    return np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()


def _set_values(entry, values):
    entry["data"] = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _bit_pattern(value):
    # the entry with its fourth value set to `value`
    def edit(entry):
        values = _values(entry)
        values[3] = value
        _set_values(entry, values)
    return edit


def _without(key):
    def edit(payload):
        del payload[key]
        return payload
    return edit


def _seed(value):
    def edit(payload):
        payload["seed"] = value
        return payload
    return edit


def _config(key, value):
    def edit(payload):
        payload["config"][key] = value
        return payload
    return edit


def _without_setting(key):
    # a default would stand in for the setting the weights were trained with
    def edit(payload):
        del payload["config"][key]
        return payload
    return edit


def _without_param(payload):
    del payload["params"]["out_w"]
    return payload


def _param(edit_entry):
    def edit(payload):
        edit_entry(payload["params"]["out_w"])
        return payload
    return edit


NOT_BASE64 = "checkpoint field 'params.out_w': data is not valid base64"
NOT_A_STRING = "checkpoint field 'params.out_w': data is not a string"
NON_FINITE = "checkpoint field 'params.out_w' holds a non-finite number"


@pytest.mark.parametrize("edit, fault", [
    (_param(lambda e: _set_values(e, _values(e)[:-1])),
     "checkpoint field 'params.out_w': data holds 56 bytes, not 8 per value of shape [8, 1]"),
    (_without("params"), "checkpoint field 'params' is missing"),
    (_without("config"), "checkpoint field 'config' is missing"),
    (_param(lambda e: e.update(data="x")), NOT_BASE64),
    (_seed("abc"), "checkpoint field 'seed' is 'abc', not an integer"),
    (_seed(-7), "checkpoint field 'seed' is -7, not an integer >= 0"),
    (_without("seed"), "checkpoint field 'seed' is missing"),
    (lambda payload: [payload], "not a valid checkpoint: expected a JSON object"),
    (_config("hidden", 8.0), "checkpoint field 'config': hidden is 8.0, not an integer"),
    (_config("knn", 3.0), "checkpoint field 'config': knn is 3.0, not an integer"),
    (_config("window", 8.5), "checkpoint field 'config': window is 8.5, not an integer"),
    (_config("hidden", True), "checkpoint field 'config': hidden is True, not an integer"),
    (_config("hidden", "8"), "checkpoint field 'config': hidden is '8', not an integer"),
    (_config("dropout_rate", "0.1"),
     "checkpoint field 'config': dropout_rate is '0.1', not a finite number"),
    (_config("pspe", 1), "checkpoint field 'config': pspe is 1, not a string"),
    (_config("hidden", 0), "checkpoint field 'config': hidden size must be >= 1"),
    (_config("depth", 2), "checkpoint field 'config.depth' is not a model setting"),
    (_without_setting("knn"), "checkpoint field 'config.knn' is missing"),
    (_without_setting("leaky_slope"), "checkpoint field 'config.leaky_slope' is missing"),
    (_without_param, "checkpoint field 'params.out_w' is missing"),
    (_param(lambda e: e.update(shape=[1, 8])),
     "checkpoint field 'params.out_w': shape [1, 8] is not [8, 1]"),
    (_param(_bit_pattern(np.nan)), NON_FINITE),
    (_param(lambda e: e.update(data=True)), NOT_A_STRING),
    (_param(lambda e: e.update(data="0.5")), NOT_BASE64),
    (_param(lambda e: e.update(data=[e["data"]])), NOT_A_STRING),
    (_param(lambda e: e.update(data=10**400)), NOT_A_STRING),
    (_param(_bit_pattern(np.inf)), NON_FINITE),
    (_param(_bit_pattern(-np.inf)), NON_FINITE),
    # a quiet NaN with payload bits and a signalling one
    (_param(_bit_pattern(np.uint64(0x7FF8_0000_DEAD_BEEF).view(np.float64))), NON_FINITE),
    (_param(_bit_pattern(np.uint64(0xFFF0_0000_0000_0001).view(np.float64))), NON_FINITE),
    (_param(lambda e: e.update(data=e["data"][:40] + "\n" + e["data"][40:])), NOT_BASE64),
    (_param(lambda e: e.update(data=e["data"][:40] + " " + e["data"][40:])), NOT_BASE64),
    (_param(lambda e: e.update(data=e["data"].rstrip("="))), NOT_BASE64),
    (_param(lambda e: e.update(data=e["data"] + "=")), NOT_BASE64),
    (_param(lambda e: e.update(data=e["data"] + e["data"])), NOT_BASE64),
    (_param(lambda e: e.update(data=e["data"][:-4] + "é===")), NOT_BASE64),
    (_param(lambda e: _set_values(e, np.append(_values(e), 0.5))),
     "checkpoint field 'params.out_w': data holds 72 bytes, not 8 per value of shape [8, 1]"),
    (_param(lambda e: e.update(data="", shape=[0, 1])),
     "checkpoint field 'params.out_w': shape [0, 1] is not [8, 1]"),
    (_param(lambda e: e.update(shape=[8.0, 1])),
     "checkpoint field 'params.out_w': shape [8.0, 1] is not [8, 1]"),
    (_param(lambda e: e.update(shape=[8, True])),
     "checkpoint field 'params.out_w': shape [8, True] is not [8, 1]"),
    (_param(lambda e: e.update(shape="8,1")),
     "checkpoint field 'params.out_w': shape '8,1' is not [8, 1]"),
], ids=["short_param", "no_params", "no_config", "string_in_param", "seed_abc",
        "negative_seed", "no_seed", "list",
        "hidden_float", "knn_float", "window_fraction", "hidden_bool", "hidden_string",
        "rate_string", "pspe_int", "hidden_zero", "unknown_setting", "no_knn",
        "no_leaky_slope", "no_out_w",
        "wrong_shape", "nan_param", "bool_param", "numeric_string_param", "nested_param",
        "huge_int_param", "inf_param", "minus_inf_param", "nan_payload_param",
        "signalling_nan_param", "newline_in_base64", "space_in_base64", "missing_padding",
        "extra_padding", "data_after_padding", "non_ascii_base64", "long_param",
        "empty_param", "float_shape", "bool_shape", "string_shape"])
def test_predict_refuses_a_malformed_checkpoint(workdir, tmp_path, capsys, edit, fault):
    # before: each raised a traceback out of predict, exited 2 without
    # naming the file, or (nan_param) exited 4 while scoring; no_seed
    # loaded as seed 0, and negative_seed raised numpy's ValueError. With data
    # as a list of numbers, bool_param, numeric_string_param and
    # nested_param exited 0, scoring with the value numpy made of them,
    # and huge_int_param raised an OverflowError
    payload = json.loads((workdir / "model" / "checkpoint.json").read_text())
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(edit(payload)))
    out = tmp_path / "preds"
    rc = cli.main(["predict", "--out", str(out), "--checkpoint", str(bad)]
                  + panel_args(workdir) + graph_args(workdir))
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: {fault}"), err
    assert not out.exists()


def test_predict_refuses_a_version_1_checkpoint(workdir, tmp_path, capsys):
    # version 1 wrote each parameter as a list of decimal numbers
    payload = json.loads((workdir / "model" / "checkpoint.json").read_text())
    for entry in payload["params"].values():
        entry["data"] = _values(entry).tolist()
    payload["format_version"] = 1
    old = tmp_path / "checkpoint.json"
    old.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    out = tmp_path / "preds"
    rc = cli.main(["predict", "--out", str(out), "--checkpoint", str(old)]
                  + panel_args(workdir) + graph_args(workdir))
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {old}: unsupported checkpoint version 1, not 2; re-run train to write one\n")
    assert not out.exists()


def test_predict_refuses_weights_that_overflow_a_forward_pass(workdir, tmp_path, capsys):
    # a finite 1e308 gamma loads, then overflows the first layer norm;
    # before, predict exited 4 without naming the file
    payload = json.loads((workdir / "model" / "checkpoint.json").read_text())
    entry = payload["params"]["trend_in_ln_g"]
    _set_values(entry, np.full_like(_values(entry), 1e308))
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "preds"
    rc = cli.main(["predict", "--out", str(out), "--checkpoint", str(bad)]
                  + panel_args(workdir) + graph_args(workdir))
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: {bad}: its weights overflow a forward pass: "), err
    assert not out.exists()


@pytest.mark.parametrize("day", ["2015-01-32", "2015-1-20"])
def test_predict_refuses_a_start_date_that_is_not_a_day(workdir, tmp_path, capsys, day):
    # before: the dates were compared as strings, so 2015-01-32 scored from
    # February on and exited 0, and 2015-1-20 came after every date
    out = tmp_path / "preds"
    rc = cli.main(["predict", "--out", str(out),
                   "--checkpoint", str(workdir / "model" / "checkpoint.json"),
                   "--start-date", day] + panel_args(workdir) + graph_args(workdir))
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: start_date {day!r} is not a YYYY-MM-DD day\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# input fuzz: predict, evaluate, backtest and regress on mutated files
# ---------------------------------------------------------------------------

FUZZ_FILES = ["features.csv", "prices.csv", "industry.csv", "region.csv", "factors.csv",
              "predictions.csv", "backtest.csv"]
FUZZ_CELLS = ["", "nan", "inf", "-inf", "x", "0", "-1.0", "1e308", "2015-13-01",
              "20150105", "S999", "IND99"]
# JSON values a checkpoint edit may write in place of any value
FUZZ_VALUES = [None, True, 1.5, -1, 1e30, "x", [], {}]
BASE64_DIGITS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
FUZZ_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(FUZZ_FILES),
              st.sampled_from(["drop", "dup", "move", "cell", "cell", "cell", "cut", "grow",
                               "column", "universe", "dates"]),
              st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(FUZZ_CELLS)),
    st.tuples(st.just("checkpoint.json"), st.sampled_from(["key", "retype", "base64", "cut"]),
              st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(FUZZ_VALUES))),
    min_size=1, max_size=3)


def edit_checkpoint(text: str, kind: str, a: int, b: int, value) -> str:
    """One edit to a checkpoint's JSON text, for input fuzzing: drop a key
    (key) or set its value to `value` (retype), the key picked by `a`
    among the keys of every object; change character `b` of parameter
    `a`'s base64 data to the next base64 digit (base64); or cut the text
    to `a` characters (cut). Text that is no longer JSON takes only cuts."""
    if kind == "cut":
        return text[: a % (len(text) + 1)]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return text

    def keys(node):
        for key, child in node.items():
            yield node, key
            if isinstance(child, dict):
                yield from keys(child)

    if kind == "base64":
        data = [entry for entry in (payload.get("params") or {}).values()
                if isinstance(entry, dict) and isinstance(entry.get("data"), str)
                and entry["data"]]
        if data:
            entry = data[a % len(data)]
            k = b % len(entry["data"])
            digit = BASE64_DIGITS[(BASE64_DIGITS.find(entry["data"][k]) + 1)
                                  % len(BASE64_DIGITS)]
            entry["data"] = entry["data"][:k] + digit + entry["data"][k + 1:]
    elif places := list(keys(payload)):
        node, key = places[a % len(places)]
        if kind == "key":
            del node[key]
        else:
            node[key] = value
    return json.dumps(payload)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Texts of a small synth set, a one-epoch checkpoint trained on it, a
    predictions file scoring every cell with next-day returns plus noise,
    and the backtest of those scores."""
    root = tmp_path_factory.mktemp("fuzz")
    synth = root / "synth"
    assert cli.main(["synth", "--out", str(synth), "--n-instruments", "12",
                     "--n-features", "3", "--days", "16", "--block-size", "6",
                     "--n-regions", "2", "--seed", "5"]) == 0
    ds = load_panel(synth / "features.csv", synth / "prices.csv")
    noise = np.random.default_rng(5).normal(0.0, 0.02, ds.labels.shape)
    scores = np.where(np.isfinite(ds.labels), ds.labels, 0.0) + noise
    PredictionSeries([(d, s, float(scores[t, i])) for t, d in enumerate(ds.dates)
                      for i, s in enumerate(ds.instruments)]
                     ).write_csv(root / "predictions.csv")
    assert cli.main(["backtest", "--out", str(root / "bt"),
                     "--predictions", str(root / "predictions.csv"),
                     "--features", str(synth / "features.csv"),
                     "--prices", str(synth / "prices.csv"), "--k", "3", "--n-drop", "1"]) == 0
    assert cli.main(["train", "--out", str(root / "model"),
                     "--features", str(synth / "features.csv"),
                     "--prices", str(synth / "prices.csv"),
                     "--industry", str(synth / "industry.csv"),
                     "--region", str(synth / "region.csv"), "--valid-start", "2015-01-16",
                     "--window", "8", "--hidden", "4", "--knn", "3", "--epochs", "1"]) == 0
    paths = {name: synth / name for name in ("features.csv", "prices.csv", "industry.csv",
                                             "region.csv", "factors.csv")}
    paths["checkpoint.json"] = root / "model" / "checkpoint.json"
    paths["predictions.csv"] = root / "predictions.csv"
    paths["backtest.csv"] = root / "bt" / "backtest.csv"
    return {name: path.read_text() for name, path in paths.items()}


def _unflagged_non_finite(path):
    """Non-finite numbers in a CSV artifact other than a metric its file
    flags as undefined with a `{name}_undefined_` flag. A metric file
    (metric,value) names each value by its row, any other file by its
    column."""
    header, *rows = read_csv_rows(path)
    flags = {flag for row in rows for cell in row for flag in cell.split(";")}
    found = []
    for row in rows:
        for col, cell in zip(header, row):
            if col in ("category", "datetime", "model"):
                continue
            try:
                value = float(cell)
            except ValueError:
                continue
            name = row[0] if header == ["metric", "value"] else col
            if not np.isfinite(value) and not any(
                    flag.startswith(f"{name}_undefined_") for flag in flags):
                found.append((row, col))
    return found


def test_backtest_refused_after_running_leaves_no_artifact(fuzz_inputs, tmp_path, capsys):
    # before: backtest.csv was written before the metrics refused a
    # single return day, and was left in --out without a manifest
    for name, text in fuzz_inputs.items():
        (tmp_path / name).write_text(edit_csv(text, "dates", 1, 0, "")
                                     if name == "predictions.csv" else text)
    out = tmp_path / "out"
    assert cli.main(["backtest", "--out", str(out),
                     "--predictions", str(tmp_path / "predictions.csv"),
                     "--features", str(tmp_path / "features.csv"),
                     "--prices", str(tmp_path / "prices.csv"),
                     "--k", "3", "--n-drop", "1"]) == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: need at least 2 aligned daily returns\n"
    assert not out.exists()


@settings(max_examples=150, deadline=None)
@given(edits=FUZZ_EDITS)
# a one-stock universe: portfolio_metrics.csv flags its nan ratios
@example(edits=[("features.csv", "universe", 0, 0, ""),
                ("predictions.csv", "universe", 0, 0, "")])
# a 1e308 price: finite returns whose chart scale overflows
@example(edits=[("prices.csv", "cell", 28, 2, "1e308")])
# a 1e308 portfolio return: a regression whose sums of squares overflow
@example(edits=[("backtest.csv", "cell", 0, 1, "1e308")])
# a 1e308 feature: a spread whose square overflows in standardization
@example(edits=[("features.csv", "cell", 40, 3, "1e308")])
def test_mutated_inputs_exit_cleanly_with_one_error_line(fuzz_inputs, edits):
    texts = dict(fuzz_inputs)
    for name, kind, a, b, cell in edits:
        edit = edit_checkpoint if name == "checkpoint.json" else edit_csv
        texts[name] = edit(texts[name], kind, a, b, cell)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in texts.items():
            (root / name).write_text(text, encoding="utf-8")
        panel = ["--features", str(root / "features.csv"), "--prices", str(root / "prices.csv")]
        runs = {
            "predict": ["--checkpoint", str(root / "checkpoint.json"), *panel,
                        "--industry", str(root / "industry.csv"),
                        "--region", str(root / "region.csv")],
            "evaluate": ["--predictions", str(root / "predictions.csv"), *panel,
                         "--group-by", "industry", "--industry", str(root / "industry.csv")],
            "backtest": ["--predictions", str(root / "predictions.csv"), *panel,
                         "--k", "3", "--n-drop", "1"],
            "regress": ["--backtest", str(root / "backtest.csv"),
                        "--factors", str(root / "factors.csv")],
        }
        for command, argv in runs.items():
            out = root / f"out_{command}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--out", str(out), *argv])
            written = sorted(p.name for p in out.iterdir()) if out.exists() else []
            if code != cli.EXIT_OK:
                lines = err.getvalue().splitlines()
                assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA), (command, code, lines)
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
                assert written == [], (command, lines, written)
                continue
            artifacts = read_manifest(out)["artifacts"]
            assert written == sorted(artifacts + ["manifest.json"]), (command, written)
            for name in artifacts:
                if name.endswith(".csv"):
                    assert _unflagged_non_finite(out / name) == [], (command, name)
