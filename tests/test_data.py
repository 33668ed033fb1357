"""Panel IO, next-day price labels, windowing, and synthetic generator tests."""

import re
import tempfile
import tracemalloc
import warnings
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from _helpers import edit_csv
from xsrank import data
from xsrank.backtest import StrategyConfig, read_backtest_csv, run_backtest
from xsrank.data import (
    PanelDataset,
    PredictionSeries,
    SynthConfig,
    format_float,
    format_floats,
    generate_synthetic,
    load_factors,
    load_membership,
    load_panel,
    make_windows,
    returns_from_prices,
    standardize_features,
    trading_dates,
    write_factors,
    write_membership,
    write_panel,
)
from xsrank.errors import ConfigError, DataError
from xsrank.graphs import build_relation_graphs


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


FEATURES_2x2x3 = (
    "datetime,instrument,f0,f1,f2\n"
    "2020-01-01,A,1.0,2.0,3.0\n"
    "2020-01-01,B,4.0,5.0,6.0\n"
    "2020-01-02,A,7.0,8.0,9.0\n"
    "2020-01-02,B,10.0,11.0,12.0\n"
)

PRICES_2x2 = (
    "datetime,instrument,price,volume\n"
    "2020-01-01,A,100.0,1000.0\n"
    "2020-01-01,B,50.0,1000.0\n"
    "2020-01-02,A,105.0,1000.0\n"
    "2020-01-02,B,49.0,1000.0\n"
)


def test_format_float_plain_decimal_roundtrip():
    assert format_float(0.05) == "0.05"
    assert format_float(11.0) == "11.0"
    assert format_float(-3.25) == "-3.25"
    tiny = 3.2e-07
    s = format_float(tiny)
    assert "e" not in s and "E" not in s
    assert float(s) == tiny
    assert float(format_float(0.1 + 0.2)) == 0.1 + 0.2
    with pytest.raises(DataError):
        format_float(float("nan"))


def test_write_rows_formats_each_cell_by_type(tmp_path):
    path = tmp_path / "table.csv"
    data._write_rows(path, ["a", "b"], [
        ["x", None],
        [3, 0.1],
        [float("nan"), float("inf")],
        [float("-inf"), np.float64(0.00001)],
    ])
    assert path.read_text() == "a,b\nx,\n3,0.1\nnan,inf\n-inf,0.00001\n"
    for refused in (True, np.int64(3)):
        with pytest.raises(TypeError, match="as a table cell"):
            data._write_rows(path, ["a"], [[refused]])


def test_load_panel_shapes_and_labels(tmp_path):
    fpath = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    ppath = _write(tmp_path / "prices.csv", PRICES_2x2)
    ds = load_panel(fpath, ppath)
    assert ds.features.shape == (2, 2, 3)
    assert ds.dates == ["2020-01-01", "2020-01-02"]
    assert ds.instruments == ["A", "B"]
    assert ds.labels[0, 0] == pytest.approx(0.05)
    assert ds.labels[0, 1] == pytest.approx(-0.02)
    # final date never has a label
    assert not ds.observed_mask[1].any()
    assert np.isnan(ds.labels[1]).all()


def test_load_panel_missing_next_price_masks(tmp_path):
    fpath = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    prices = (
        "datetime,instrument,price,volume\n"
        "2020-01-01,A,100.0,1000.0\n"
        "2020-01-01,B,50.0,1000.0\n"
        "2020-01-02,B,49.0,1000.0\n"
    )
    ppath = _write(tmp_path / "prices.csv", prices)
    ds = load_panel(fpath, ppath)
    assert not ds.observed_mask[0, 0]   # A has no next-day price
    assert ds.observed_mask[0, 1]
    assert not ds.present_mask[1, 0]


def test_load_panel_shuffled_rows_equal_sorted(tmp_path):
    lines = FEATURES_2x2x3.strip().split("\n")
    shuffled = "\n".join([lines[0], lines[4], lines[2], lines[1], lines[3]]) + "\n"
    f1 = _write(tmp_path / "sorted.csv", FEATURES_2x2x3)
    f2 = _write(tmp_path / "shuffled.csv", shuffled)
    p = _write(tmp_path / "prices.csv", PRICES_2x2)
    a = load_panel(f1, p)
    b = load_panel(f2, p)
    assert a.dates == b.dates and a.instruments == b.instruments
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels[a.observed_mask], b.labels[b.observed_mask])


def test_load_panel_refuses_an_instrument_missing_a_date(tmp_path):
    # before: B was dropped from the whole panel, so a row missing on the
    # last date rewrote every earlier cross-section
    feats = (
        "datetime,instrument,f0\n"
        "2020-01-01,A,1.0\n"
        "2020-01-01,B,2.0\n"
        "2020-01-02,A,3.0\n"
    )
    fpath = _write(tmp_path / "features.csv", feats)
    ppath = _write(tmp_path / "prices.csv", PRICES_2x2)
    with pytest.raises(DataError, match=f"^{re.escape(str(fpath))}: B has no row on 2020-01-02$"):
        load_panel(fpath, ppath)
    # a row of empty cells is a row: its features are missing, not its date
    ds = load_panel(_write(tmp_path / "g.csv", feats + "2020-01-02,B,\n"), ppath)
    assert ds.instruments == ["A", "B"] and np.isnan(ds.features[1, 1, 0])


def test_load_panel_errors(tmp_path):
    p = _write(tmp_path / "prices.csv", PRICES_2x2)
    ragged = "datetime,instrument,f0,f1\n2020-01-01,A,1.0\n"
    with pytest.raises(DataError):
        load_panel(_write(tmp_path / "r.csv", ragged), p)
    dup = (
        "datetime,instrument,f0\n"
        "2020-01-01,A,1.0\n"
        "2020-01-01,A,2.0\n"
    )
    with pytest.raises(DataError):
        load_panel(_write(tmp_path / "d.csv", dup), p)
    garbled = "datetime,instrument,f0\n2020-01-01,A,xyz\n"
    with pytest.raises(DataError):
        load_panel(_write(tmp_path / "g.csv", garbled), p)
    badhdr = "date,inst,f0\n2020-01-01,A,1.0\n"
    with pytest.raises(DataError):
        load_panel(_write(tmp_path / "h.csv", badhdr), p)


def test_load_panel_refuses_an_empty_file_and_one_with_no_rows(tmp_path):
    p = _write(tmp_path / "prices.csv", PRICES_2x2)
    empty = _write(tmp_path / "empty.csv", "")
    with pytest.raises(DataError, match=f"^{re.escape(empty)}: empty file$"):
        load_panel(empty, p)
    bare = _write(tmp_path / "bare.csv", "datetime,instrument,f0,f1,f2\n")
    with pytest.raises(DataError, match=f"^{re.escape(bare)}: no data rows$"):
        load_panel(bare, p)


def test_panel_dataset_refuses_each_inconsistency():
    arrays = dict(features=np.zeros((2, 2, 1)), labels=np.zeros((2, 2)),
                  vwap=np.ones((2, 2)), volume=np.ones((2, 2)))
    PanelDataset(dates=["2020-01-01", "2020-01-02"], instruments=["A", "B"], **arrays)
    with pytest.raises(DataError, match="^dates must be strictly increasing and unique$"):
        PanelDataset(dates=["2020-01-02", "2020-01-01"], instruments=["A", "B"], **arrays)
    with pytest.raises(DataError, match="^instruments must be unique$"):
        PanelDataset(dates=["2020-01-01", "2020-01-02"], instruments=["A", "A"], **arrays)
    with pytest.raises(DataError, match=re.escape("features shape (2, 2) != [2,2,F]")):
        PanelDataset(dates=["2020-01-01", "2020-01-02"], instruments=["A", "B"],
                     **{**arrays, "features": np.zeros((2, 2))})
    for name in ("labels", "vwap", "volume"):
        with pytest.raises(DataError, match=re.escape(f"{name} shape (2, 3) != [2,2]")):
            PanelDataset(dates=["2020-01-01", "2020-01-02"], instruments=["A", "B"],
                         **{**arrays, name: np.ones((2, 3))})


def test_factor_series_refuses_each_inconsistency():
    dates = ["2020-01-01", "2020-01-02"]
    factors = {name: np.zeros(2) for name in data.FACTOR_NAMES}
    data.FactorSeries(dates, np.zeros(2), factors)
    with pytest.raises(DataError, match="^risk_free length does not match dates$"):
        data.FactorSeries(dates, np.zeros(3), factors)
    with pytest.raises(DataError, match="^factor column 'hml' missing$"):
        data.FactorSeries(dates, np.zeros(2),
                          {k: v for k, v in factors.items() if k != "hml"})
    with pytest.raises(DataError, match="^factor 'smb' length does not match dates$"):
        data.FactorSeries(dates, np.zeros(2), {**factors, "smb": np.zeros(1)})
    with pytest.raises(DataError, match="^factor 'cma' has missing values$"):
        data.FactorSeries(dates, np.zeros(2), {**factors, "cma": np.array([0.0, np.nan])})
    with pytest.raises(DataError, match="^risk_free has missing values$"):
        data.FactorSeries(dates, np.array([np.nan, 0.0]), factors)


def test_compute_vwap_returns_three_dates(tmp_path):
    # labels[t] = price[t + 1] / price[t] - 1, and the last date has none
    f = _write(tmp_path / "features.csv", "datetime,instrument,f0\n" + "".join(
        f"2020-01-0{d},A,1.0\n" for d in (1, 2, 3)))
    p = _write(tmp_path / "prices.csv", "datetime,instrument,price,volume\n"
               "2020-01-01,A,100.0,1\n2020-01-02,A,105.0,2\n2020-01-03,A,84.0,3\n")
    ds = load_panel(f, p)
    np.testing.assert_array_equal(ds.vwap[:, 0], [100.0, 105.0, 84.0])
    np.testing.assert_array_equal(ds.volume[:, 0], [1.0, 2.0, 3.0])
    assert ds.labels[0, 0] == pytest.approx(0.05)
    assert ds.labels[1, 0] == pytest.approx(-0.2)
    assert np.isnan(ds.labels[2, 0])


def test_membership_loaders(tmp_path):
    path = _write(
        tmp_path / "m.csv", "instrument,category\na,X\nb,X\nc,Y\n"
    )
    def codes(p, insts):
        labels = load_membership(p)
        return build_relation_graphs(insts, labels, labels).industry.tolist()

    assert codes(path, ["a", "b", "c"]) == [0, 0, 1]

    # all-distinct categories: every instrument alone
    path2 = _write(tmp_path / "m2.csv", "instrument,category\na,1\nb,2\nc,3\n")
    assert codes(path2, ["a", "b", "c"]) == [0, 1, 2]

    # one shared category: one clique
    path3 = _write(tmp_path / "m3.csv", "instrument,category\na,Z\nb,Z\nc,Z\nd,Z\n")
    assert codes(path3, ["a", "b", "c", "d"]) == [0, 0, 0, 0]

    # an instrument absent from the file is a category of its own
    assert codes(path, ["a", "zz", "b", "c"]) == [0, 1, 0, 2]

    conflict = _write(tmp_path / "c.csv", "instrument,category\na,X\na,Y\n")
    with pytest.raises(DataError, match="c.csv: line 3: instrument 'a' mapped to both"):
        load_membership(conflict)


@pytest.mark.parametrize("text, line", [
    ("A,\nB,\n", 2), ("A,X\nB, \n", 3), (",X\nA,X\n", 2), ("A,X\n\t,Y\nB,\n", 3),
], ids=["blank-categories", "space-category", "blank-instrument", "tab-instrument"])
def test_membership_refuses_an_empty_cell(tmp_path, text, line):
    # before: a blank category was a category named "", so A and B, each
    # missing one, shared an industry code and a clique
    path = _write(tmp_path / "industry.csv", "instrument,category\n" + text)
    with pytest.raises(DataError, match=rf"industry.csv: line {line}: empty instrument"):
        load_membership(path)


@pytest.mark.parametrize("text, line, cell", [
    ("A,X\nB, X\nC,X\n", 3, "category ' X'"), ("A,X\nB,X \n", 3, "category 'X '"),
    ("A,X\n B,X\n", 3, "instrument ' B'"), ("A\t,X\n", 2, r"instrument 'A\\t'"),
], ids=["leading-category", "trailing-category", "leading-instrument", "tab-instrument"])
def test_membership_refuses_a_padded_cell(tmp_path, text, line, cell):
    # before: ' X' was a category apart from 'X', so B left A and C's
    # clique (industry codes [0, 1, 0]), and ' B' matched no instrument
    path = _write(tmp_path / "industry.csv", "instrument,category\n" + text)
    with pytest.raises(DataError, match=rf"industry.csv: line {line}: {cell} has leading "):
        load_membership(path)


# characters a cell is quoted for
UNWRITABLE = [",", '"', "\r", "\n"]
UNWRITABLE_IDS = ["comma", "quote", "carriage-return", "newline"]


@pytest.mark.parametrize("char", UNWRITABLE, ids=UNWRITABLE_IDS)
def test_loaders_refuse_a_name_the_writers_cannot_write(tmp_path, char):
    # the writers quote an instrument or category but write a date as is,
    # so a date holding `char` is refused where it enters: at construction
    # (before: it constructed, and the written line did not read back),
    # and by every dated loader, quoted so csv.reader reads it whole
    day = "2020-01-02" + char
    quoted = '"' + day.replace('"', '""') + '"'
    with pytest.raises(DataError, match=re.escape(
            f"row ({day}, A): date {day!r} is not a YYYY-MM-DD day")):
        PredictionSeries([(day, "A", 1.0)])

    def refused(path, line):
        return re.escape(f"{path}: line {line}: date {day!r} is not a YYYY-MM-DD day")

    prices = _write(tmp_path / "prices.csv", PRICES_2x2)
    features = _write(tmp_path / "features.csv",
                      FEATURES_2x2x3 + f"{quoted},A,1.0,2.0,3.0\n")
    with pytest.raises(DataError, match=refused(features, 6)):
        load_panel(features, prices)
    features = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    prices = _write(tmp_path / "prices.csv", PRICES_2x2 + f"{quoted},A,100.0,1000.0\n")
    with pytest.raises(DataError, match=refused(prices, 6)):
        load_panel(features, prices)
    preds = _write(tmp_path / "predictions.csv",
                   f"datetime,instrument,score\n2020-01-01,A,1.0\n{quoted},A,2.0\n")
    with pytest.raises(DataError, match=refused(preds, 3)):
        PredictionSeries.read_csv(preds)
    factors = _write(tmp_path / "factors.csv", ",".join(data.FACTORS_HEADER) + "\n"
                     + f"2020-01-01{',0.0' * 6}\n{quoted}{',0.0' * 6}\n")
    with pytest.raises(DataError, match=refused(factors, 3)):
        load_factors(factors)


# names that hold every character a cell is quoted for, and spaces
NAMES = st.text(alphabet='A ,"\r\n', min_size=1, max_size=5)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
# prices whose day-to-day returns cannot overflow
PRICES = st.floats(min_value=1e-6, max_value=1e6)


@settings(max_examples=60, deadline=None)
@given(names=st.lists(NAMES, min_size=1, max_size=4, unique=True), data_=st.data())
def test_names_and_values_round_trip_through_every_writer(names, data_):
    # before: each writer put a name holding a comma, quote or line break
    # in the file as is, so it came back split or on two lines
    names = sorted(names)
    dates = ["2020-01-01", "2020-01-02"]
    shape = (len(dates), len(names))

    def draw(elements, size):
        return np.array(data_.draw(st.lists(elements, min_size=size, max_size=size)))

    vwap = draw(PRICES, 2 * len(names)).reshape(shape)
    volume = draw(POSITIVE, 2 * len(names)).reshape(shape)
    ds = PanelDataset(dates=dates, instruments=names,
                      features=draw(FINITE, 2 * len(names) * 3).reshape(*shape, 3),
                      labels=returns_from_prices(vwap), vwap=vwap, volume=volume)
    preds = PredictionSeries([(d, s, score) for (d, s), score in zip(
        [(d, s) for d in dates for s in names], draw(FINITE, 2 * len(names)).tolist())])
    # a membership cell may not start or end with whitespace, CR and LF included
    labels = {f"A{s}A": f"A{c}A" for s, c in zip(names, reversed(names))}
    with tempfile.TemporaryDirectory() as tmp:
        f, p, q, m = (Path(tmp, name) for name in ("f.csv", "p.csv", "q.csv", "m.csv"))
        write_panel(ds, f, p)
        preds.write_csv(q)
        write_membership(m, labels)
        panel, again = load_panel(f, p), PredictionSeries.read_csv(q)
        assert load_membership(m) == labels
    assert panel.instruments == names and again.instruments == names
    for name in ("features", "vwap", "volume"):
        assert getattr(panel, name).tobytes() == getattr(ds, name).tobytes()
    assert again.scores.tobytes() == preds.scores.tobytes()


def test_a_quoted_name_keeps_the_earliest_line_rule(tmp_path):
    prices = _write(tmp_path / "prices.csv", PRICES_2x2)
    # a bad number before a duplicate is reported, by its line
    feats = (FEATURES_2x2x3.replace("2020-01-01,B,4.0", "2020-01-01,B,inf")
             + '2020-01-02,"C,1",1.0,2.0,3.0\n2020-01-01,A,1.0,2.0,3.0\n')
    with pytest.raises(DataError, match="f1.csv: line 3: feature f0 is 'inf'"):
        load_panel(_write(tmp_path / "f1.csv", feats), prices)
    # and a duplicate before a bad number
    feats = (FEATURES_2x2x3 + '2020-01-02,"C,1",1.0,2.0,3.0\n2020-01-01,A,1.0,2.0,3.0\n'
             + "2020-01-02,B,inf,2.0,3.0\n")
    with pytest.raises(DataError, match="f2.csv: line 7: duplicate"):
        load_panel(_write(tmp_path / "f2.csv", feats), prices)
    # a line counts rows from the header, so after a quoted line break it
    # is one less than the line of the file
    feats = FEATURES_2x2x3 + '2020-01-02,"C\n1",1.0,2.0,3.0\n2020-01-02,D,inf,2.0,3.0\n'
    with pytest.raises(DataError, match="f3.csv: line 7: feature f0 is 'inf'"):
        load_panel(_write(tmp_path / "f3.csv", feats), prices)


@pytest.mark.parametrize("day", ["2020-13-01", '"2020-01-01,x"'], ids=["month-13", "comma"])
def test_read_csv_refuses_a_prediction_date_that_is_not_a_day(tmp_path, day):
    # before: both loaded; the quoted one was then written back as a
    # 4-cell row, and evaluate refused the other only as a date not in
    # the panel, with no file or line
    path = _write(tmp_path / "predictions.csv",
                  f"datetime,instrument,score\n2020-01-01,A,1.0\n{day},A,2.0\n")
    with pytest.raises(DataError, match=re.escape(
            f"predictions.csv: line 3: date {day.strip(chr(34))!r} is not a YYYY-MM-DD day")):
        PredictionSeries.read_csv(path)


def test_membership_roundtrip(tmp_path):
    labels = {"b": "Y", "a": "X"}
    path = tmp_path / "m.csv"
    write_membership(path, labels)
    assert load_membership(path) == labels
    assert path.read_text() == "instrument,category\na,X\nb,Y\n"


def test_factors_roundtrip(tmp_path):
    _, _, fs = generate_synthetic(SynthConfig(days=10, seed=3))
    path = tmp_path / "factors.csv"
    write_factors(fs, path)
    fs2 = load_factors(path)
    assert fs2.dates == fs.dates
    np.testing.assert_array_equal(fs2.risk_free, fs.risk_free)
    for name in fs.factors:
        np.testing.assert_array_equal(fs2.factors[name], fs.factors[name])
    write_factors(fs2, tmp_path / "factors2.csv")
    assert (tmp_path / "factors.csv").read_bytes() == (tmp_path / "factors2.csv").read_bytes()


def test_panel_roundtrip_byte_identical(tmp_path):
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=5, days=8, seed=1))
    f1, p1 = tmp_path / "f1.csv", tmp_path / "p1.csv"
    write_panel(ds, f1, p1)
    ds2 = load_panel(f1, p1)
    f2, p2 = tmp_path / "f2.csv", tmp_path / "p2.csv"
    write_panel(ds2, f2, p2)
    assert f1.read_bytes() == f2.read_bytes()
    assert p1.read_bytes() == p2.read_bytes()


def test_make_windows_counts_and_alignment():
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=4, days=42, seed=2))
    ends = make_windows(ds, 40)
    # a window is its end row t: features[t-39 .. t], labels[t], observed_mask[t]
    np.testing.assert_array_equal(ends, [39, 40, 41])
    assert ds.observed_mask[ends[0]].all()
    # the final date is a window for prediction, with nothing to score
    assert not ds.observed_mask[ends[-1]].any()

    ds40, _, _ = generate_synthetic(SynthConfig(n_instruments=4, days=40, seed=2))
    (only,) = make_windows(ds40, 40)
    assert only == 39 and not ds40.observed_mask[only].any()
    with pytest.raises(DataError, match="a window needs 41 dates, the panel has 40"):
        make_windows(ds40, 41)


def test_standardize_features_zscores_and_imputes():
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=8, days=6, seed=4))
    ds.features[2, 3, 1] = np.nan
    out = standardize_features(ds)
    assert np.isfinite(out.features).all()
    mu = out.features.mean(axis=1)
    sd = out.features.std(axis=1)
    np.testing.assert_allclose(mu, 0.0, atol=1e-10)
    np.testing.assert_allclose(sd, 1.0, atol=1e-10)
    # input untouched
    assert np.isnan(ds.features[2, 3, 1])

    # imputed value equals the daily median of the rest, pre-scaling
    col = np.delete(ds.features[2, :, 1], 3)
    med = np.median(col)
    filled = np.append(col, med)
    want = (med - filled.mean()) / filled.std()
    got = out.features[2, 3, 1]
    assert got == pytest.approx(want, abs=1e-10)


def test_trading_dates_weekdays_only():
    dates = trading_dates("2015-01-01", 10)
    assert dates[0] == "2015-01-01"
    assert len(dates) == len(set(dates)) == 10
    import datetime

    for d in dates:
        assert datetime.date.fromisoformat(d).weekday() < 5
    assert dates == sorted(dates)


def test_synthetic_deterministic_per_seed():
    a_ds, a_g, a_f = generate_synthetic(SynthConfig(days=30, seed=7))
    b_ds, b_g, b_f = generate_synthetic(SynthConfig(days=30, seed=7))
    assert a_ds.features.tobytes() == b_ds.features.tobytes()
    assert a_ds.vwap.tobytes() == b_ds.vwap.tobytes()
    assert a_ds.volume.tobytes() == b_ds.volume.tobytes()
    np.testing.assert_array_equal(a_g.industry, b_g.industry)
    for name in a_f.factors:
        assert a_f.factors[name].tobytes() == b_f.factors[name].tobytes()

    c_ds, _, _ = generate_synthetic(SynthConfig(days=30, seed=8))
    assert a_ds.features.tobytes() != c_ds.features.tobytes()


def test_synthetic_noise_zero_linear_r2():
    cfg = SynthConfig(n_instruments=12, n_features=6, days=120, noise=0.0, seed=5)
    ds, _, _ = generate_synthetic(cfg)
    x = ds.features[:-1].reshape(-1, cfg.n_features)
    y = ds.labels[:-1].reshape(-1)
    coef, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    r2 = 1.0 - resid.var() / y.var()
    assert r2 > 0.999


def test_synthetic_industry_blocks():
    cfg = SynthConfig(n_instruments=20, days=5, seed=6)
    ds, graphs, _ = generate_synthetic(cfg)
    # 4 blocks of 5 following contiguous index ranges; regions interleave
    np.testing.assert_array_equal(graphs.industry, np.arange(20) // 5)
    np.testing.assert_array_equal(graphs.region, np.arange(20) % cfg.n_regions)
    assert np.issubdtype(graphs.industry.dtype, np.integer)


def test_synthetic_rejects_bad_config():
    with pytest.raises(ConfigError):
        SynthConfig(n_instruments=3)
    with pytest.raises(ConfigError):
        SynthConfig(days=2)
    with pytest.raises(ConfigError):
        SynthConfig(noise=-0.1)
    # before: numpy's default_rng raised "expected non-negative integer"
    with pytest.raises(ConfigError, match="^seed must be >= 0$"):
        SynthConfig(seed=-1)
    with pytest.raises(ConfigError, match="^need at least 3 features$"):
        SynthConfig(n_features=2)
    for over in (dict(block_size=0), dict(n_regions=0)):
        with pytest.raises(ConfigError, match="^block_size and n_regions must be >= 1$"):
            SynthConfig(**over)


def test_synthetic_refuses_a_calendar_past_9999():
    # before: 600 trading days from 9999-12-01 raised an OverflowError
    with pytest.raises(ConfigError, match="^start_date 9999-12-01 with days 600 "
                                          "runs past 9999-12-31$"):
        SynthConfig(start_date="9999-12-01", days=600)
    # 9999-12-31 is a Friday, the 23rd weekday of its month
    assert trading_dates("9999-12-01", 23)[-1] == "9999-12-31"
    assert trading_dates("9999-12-31", 1) == ["9999-12-31"]
    # before: the library calendar ran on to five-digit years, which every
    # loader refuses (and which, as strings, sort before 9999)
    for start, days in (("9999-12-01", 24), ("9999-12-01", 30), ("9999-12-31", 2),
                        ("2015-01-01", 10**30)):
        with pytest.raises(ConfigError, match=f"^start_date {start} with days {days} "
                                              "runs past 9999-12-31$"):
            trading_dates(start, days)
    SynthConfig(start_date="9999-12-01", days=23)
    with pytest.raises(ConfigError, match="with days 24 runs past"):
        SynthConfig(start_date="9999-12-01", days=24)


# ---------------------------------------------------------------------------
# the synthetic market against its day-by-day oracles
# ---------------------------------------------------------------------------


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       days=st.integers(1, 700),
       tau=st.one_of(st.just(data.SIGNAL_TAU), st.floats(0.05, 1e4)),
       seed=st.integers(0, 2**32 - 1))
def test_ar1_paths_equal_the_day_by_day_loop(counts, days, tau, seed):
    got = data._ar1_paths(np.random.default_rng(seed), tuple(counts), days, tau)
    rng = np.random.default_rng(seed)
    want = [oracle.ar1_loop(rng, n, days, tau) for n in counts]
    assert len(got) == len(want)
    assert all(_bits_equal(g.T, w) for g, w in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), days=st.integers(1, 700),
       scale=st.sampled_from([1e-3, 0.02, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_compound_equals_the_day_by_day_loop(n, days, scale, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 100.0, n)
    returns = rng.uniform(-scale, scale, (days, n))
    assert _bits_equal(data._compound(base, returns), oracle.vwap_loop(base, returns))


# a start on each day of the week, across a year end, and anywhere up to
# 9996, so that 700 weekdays stay within 9999, past which the loop oracle
# overflows
START_DAYS = st.one_of(
    st.builds(lambda year, k: _date(year, 12, 24) + timedelta(days=k),
              st.integers(1, 9995), st.integers(0, 13)),
    st.dates(_date(1, 1, 1), _date(9996, 12, 31)),
)


@settings(max_examples=300, deadline=None)
@given(start=START_DAYS, count=st.integers(0, 700))
def test_trading_dates_equal_the_day_by_day_loop(start, count):
    assert trading_dates(start.isoformat(), count) == oracle.trading_dates_loop(
        start.isoformat(), count)


@settings(max_examples=200, deadline=None)
@given(back=st.integers(0, 1100), over=st.integers(-2, 2))
def test_synth_config_accepts_exactly_the_calendars_that_fit(back, over):
    # `fits` weekdays run from `start` to 9999-12-31; ask for about that many
    start = _date(9999, 12, 31) - timedelta(days=back)
    fits = sum((start + timedelta(days=k)).weekday() < 5 for k in range(back + 1))
    days = max(3, fits + over)
    try:
        SynthConfig(start_date=start.isoformat(), days=days)
    except ConfigError:
        assert days > fits
        return
    assert days <= fits
    dates = trading_dates(start.isoformat(), days)
    assert dates[-1] <= data.LAST_DAY and all(map(data._is_day, dates))


@pytest.mark.parametrize("cfg", [
    SynthConfig(),
    SynthConfig(n_instruments=30, days=30, block_size=6, n_regions=3, seed=11),
    SynthConfig(n_instruments=7, n_features=3, days=3, block_size=3, n_regions=1,
                seed=2, start_date="2016-02-27"),
    SynthConfig(n_instruments=41, n_features=11, days=701, noise=0.0, block_size=1,
                n_regions=9, seed=99, start_date="2019-12-28"),
], ids=["default", "chain", "smallest", "wide"])
def test_generate_synthetic_equals_the_day_by_day_oracle(cfg):
    ds, _, factors = generate_synthetic(cfg)
    want = oracle.synthetic_loop(cfg)
    assert ds.dates == want.dates == factors.dates
    for name in ("features", "vwap", "labels", "volume"):
        assert _bits_equal(getattr(ds, name), getattr(want, name)), name
    assert factors.factors.keys() == want.factors.keys()
    assert all(_bits_equal(factors.factors[k], want.factors[k]) for k in want.factors)
    assert _bits_equal(standardize_features(ds).features,
                       oracle.standardize_loop(want.features))


def test_prediction_series_roundtrip(tmp_path):
    preds = PredictionSeries(
        rows=[
            ("2020-01-02", "B", -0.25),
            ("2020-01-01", "A", 1.5),
            ("2020-01-01", "B", 0.125),
        ]
    )
    assert preds.rows[0] == ("2020-01-01", "A", 1.5)
    path = tmp_path / "preds.csv"
    preds.write_csv(path)
    again = PredictionSeries.read_csv(path)
    assert again.rows == preds.rows
    assert preds.dates == ["2020-01-01", "2020-01-02"]
    assert preds.instruments == ["A", "B"]
    np.testing.assert_array_equal(preds.scores, [[1.5, 0.125], [np.nan, -0.25]])

    assert all(type(s) is float for _, _, s in preds.rows)

    d, d1, d2 = "2021-01-01", "2021-01-04", "2021-01-05"
    with pytest.raises(DataError, match=rf"row \({d}, i\): duplicate"):
        PredictionSeries(rows=[(d, "i", 0.0), (d, "i", 1.0)])
    # before: grid order named the duplicate, and then the pair (d1, b);
    # now the first offending row is named, as a file's earliest line is
    with pytest.raises(DataError, match=rf"row \({d}, i\): score is nan"):
        PredictionSeries(rows=[(d, "i", float("nan")), (d, "i", 1.0)])
    with pytest.raises(DataError, match=rf"row \({d2}, a\): score is nan"):
        PredictionSeries(rows=[(d2, "a", float("nan")), (d1, "c", float("inf")),
                               (d1, "b", float("-inf")), (d1, "a", 0.0)])
    empty = PredictionSeries([])
    assert empty.rows == [] and empty.scores.shape == (0, 0)


@pytest.mark.parametrize("rows, error", [
    ([("2020-13-01", "A", 1.0)], r"row \(2020-13-01, A\): date '2020-13-01' is not"),
    ([("2020-01-01", "A", 1.0), ("2020-01-01", "A", 2.0), ("2020-13-01", "B", 1.0)],
     r"row \(2020-01-01, A\): duplicate"),
    ([("2020-02-30", "B", 1.0), ("2020-01-01", "A", 1.0), ("2020-01-01", "A", 2.0)],
     r"row \(2020-02-30, B\): date '2020-02-30' is not"),
    ([("2020-01-01", "A", float("inf")), ("x", "B", 1.0)], r"row \(2020-01-01, A\): score"),
    ([("20200101", "A", float("nan"))], r"row \(20200101, A\): score is nan"),
], ids=["month-13", "duplicate-then-date", "date-then-duplicate", "inf-then-date",
        "nan-and-date-on-one-row"])
def test_prediction_rows_refuse_a_date_that_is_not_a_day(rows, error):
    # before: every one of these dates constructed, and `write_csv` then
    # wrote lines `read_csv` refuses; the first faulty row is named, and on
    # one row the score is checked before the date, as in a file
    with pytest.raises(DataError, match=f"^{error}"):
        PredictionSeries(rows)


@pytest.mark.parametrize("lines, error", [
    (["2020-01-01,A,1.0", "2020-01-01,A,2.0", "2020-01-01,B,abc"],
     r"line 3: duplicate \(date, instrument\) pair"),
    (["2020-01-01,A,1.0", "2020-01-01,B,nan", "2020-01-02,A,abc"],
     r"line 3: score is 'nan'"),
    (["2020-01-01,A,nan", "2020-01-01,B,1.0", "2020-01-01,A,2.0"],
     r"line 2: score is 'nan'"),
    (["2020-01-01,A,nan", "2020-01-01,B,inf"], r"line 2: score is 'nan'"),
], ids=["duplicate-then-unparseable", "nan-then-unparseable", "nan-then-duplicate",
        "nan-then-inf"])
def test_predictions_csv_reports_the_earliest_line(tmp_path, lines, error):
    # before: the later unparseable cell won, and a duplicate or a
    # non-finite score was named with no file and no line
    path = _write(tmp_path / "predictions.csv",
                  "\n".join(["datetime,instrument,score", *lines]) + "\n")
    with pytest.raises(DataError, match=rf"predictions.csv: {error}"):
        PredictionSeries.read_csv(path)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_format_floats_equals_dragon4_positional(values):
    specials = [0.0, -0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 9999999999999998.0, 1e-4, 0.00009999999999999999,
                -9999999999999998.0, -1e-4, -0.00009999999999999999, 1.0000000000000002e16]
    for vals in (values, specials):
        want = [np.format_float_positional(np.float64(v), unique=True, trim="0")
                for v in vals]
        assert format_floats(np.array(vals, dtype=np.float64)) == want
        assert [format_float(v) for v in vals] == want


def test_format_floats_rejects_first_non_finite():
    with pytest.raises(DataError, match="non-finite value inf"):
        format_floats([1.0, float("inf"), float("nan")])
    with pytest.raises(DataError, match="non-finite value nan"):
        format_floats(np.array([[0.5, float("nan")], [float("-inf"), 2.0]]))


def _refused_write(case, tmp_path):
    """A write of a synthetic market's file, or of its panel's two, whose
    arrays were changed so that it is refused, the file it names, and the
    value and row it names."""
    ds, _, fs = generate_synthetic(SynthConfig(n_instruments=8, days=300))
    day = ds.dates[200]
    preds = PredictionSeries([(d, s, float(ds.features[t, i, 0]))
                              for t, d in enumerate(ds.dates)
                              for i, s in enumerate(ds.instruments)])
    result = run_backtest(preds, ds, StrategyConfig(k=2, n_drop=1))
    f, p, path = tmp_path / "f.csv", tmp_path / "p.csv", tmp_path / f"{case}.csv"
    if case == "features":
        ds.features[200, 3, 1] = np.nan
        return lambda: write_panel(ds, f, p), f, f"f1 nan of row ({day}, S003)"
    if case == "prices":
        ds.volume[200, 5] = np.inf
        return lambda: write_panel(ds, f, p), p, f"volume inf of row ({day}, S005)"
    if case == "predictions":
        preds.scores[200, 2] = -np.inf
        return lambda: preds.write_csv(path), path, f"score -inf of row ({day}, S002)"
    if case == "factors":
        fs.factors["hml"][200] = np.nan
        return lambda: write_factors(fs, path), path, f"hml nan of row ({day})"
    result.cum_excess[199] = np.inf
    return (lambda: result.write_csv(path), path,
            f"cum_excess inf of row ({result.dates[199]})")


@pytest.mark.parametrize("case", ["features", "prices", "predictions", "factors", "backtest"])
def test_a_refused_write_leaves_no_file_and_names_it(tmp_path, case):
    # before: write_panel opened features.csv before it checked a value, so
    # a NaN feature truncated the earlier file and an infinite volume left
    # prices.csv with only its header; no refusal named a file or a row.
    # Then it checked the prices only after it wrote features.csv, so an
    # infinite volume left a new features.csv beside the earlier prices.csv
    write, path, refused = _refused_write(case, tmp_path)
    files = [tmp_path / "f.csv", tmp_path / "p.csv"] if case in ("features", "prices") else [path]
    refusal = "^" + re.escape(f"{path}: refusing to write {refused}") + "$"
    with pytest.raises(DataError, match=refusal):
        write()
    assert not any(file.exists() for file in files)
    for k, file in enumerate(files):
        file.write_bytes(b"earlier,file%d\n" % k)
    with pytest.raises(DataError, match=refusal):
        write()
    assert [file.read_bytes() for file in files] == [b"earlier,file%d\n" % k
                                                     for k in range(len(files))]


def test_bad_number_reports_its_line_and_empty_cell_is_nan(tmp_path):
    p = _write(tmp_path / "prices.csv", PRICES_2x2)
    lines = FEATURES_2x2x3.splitlines()
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        cells[3] = "1.x"
        bad = lines[:k] + [",".join(cells)] + lines[k + 1:]
        path = _write(tmp_path / f"bad{k}.csv", "\n".join(bad) + "\n")
        with pytest.raises(DataError, match=rf"line {k + 1}: unparseable number '1\.x'"):
            load_panel(path, p)

    for cell in ("", " "):
        gap = FEATURES_2x2x3.replace("2020-01-02,A,7.0,8.0,9.0", f"2020-01-02,A,7.0,{cell},9.0")
        ds = load_panel(_write(tmp_path / "gap.csv", gap), p)
        missing = np.isnan(ds.features)
        assert missing.sum() == 1 and missing[1, 0, 1]

    preds = _write(tmp_path / "preds.csv",
                   "datetime,instrument,score\n2020-01-01,A,0.5\n2020-01-01,B,oops\n")
    with pytest.raises(DataError, match=r"line 3: unparseable number 'oops'"):
        PredictionSeries.read_csv(preds)


def test_load_panel_reports_the_earliest_fault(tmp_path):
    p = _write(tmp_path / "prices.csv", PRICES_2x2)
    feats = (
        "datetime,instrument,f0\n"
        "2020-01-01,A,1.0\n"
        "2020-01-01,A,2.0\n"      # duplicate on line 3
        "2020-01-02,A,x\n"        # unparseable on line 4
        "2020-01-02,B\n"          # ragged on line 5
    )
    with pytest.raises(DataError, match=r"f1.csv: line 3: duplicate \(date, instrument\)"):
        load_panel(_write(tmp_path / "f1.csv", feats), p)
    no_dup = feats.replace("2020-01-01,A,2.0", "2020-01-01,B,2.0")
    with pytest.raises(DataError, match="line 4: unparseable"):
        load_panel(_write(tmp_path / "f2.csv", no_dup), p)
    with pytest.raises(DataError, match="line 5: ragged row of 2 columns"):
        load_panel(_write(tmp_path / "f3.csv", no_dup.replace(",x", ",3.0")), p)
    dup_after_bad = "datetime,instrument,f0\n2020-01-01,A,1.0\n2020-01-01,B,x\n2020-01-01,A,2.0\n"
    with pytest.raises(DataError, match="line 3: unparseable"):
        load_panel(_write(tmp_path / "f4.csv", dup_after_bad), p)

    f = _write(tmp_path / "f.csv", FEATURES_2x2x3)
    prices = (
        "datetime,instrument,price,volume\n"
        "2020-01-01,A,100.0,\n"       # missing volume on line 2
        "2020-01-01,B,bad,1000.0\n"   # unparseable on line 3
    )
    with pytest.raises(DataError, match="line 2: missing price/volume"):
        load_panel(f, _write(tmp_path / "p1.csv", prices))
    with pytest.raises(DataError, match="line 3: unparseable number 'bad'"):
        load_panel(f, _write(tmp_path / "p2.csv", prices.replace("100.0,\n", "100.0,5\n")))


@pytest.mark.parametrize("day", ["2020-13-01", "2020-02-30", "20200103", "2020-1-03",
                                 "2020-01-03T00:00", " 2020-01-03"])
def test_load_panel_refuses_a_date_that_is_not_a_calendar_day(tmp_path, day):
    # a malformed date would sort as a string, out of time order
    feats = FEATURES_2x2x3 + f"{day},A,1.0,2.0,3.0\n{day},B,4.0,5.0,6.0\n"
    f = _write(tmp_path / "features.csv", feats)
    with pytest.raises(DataError, match=rf"features.csv: line 6: date '{day}' is not"):
        load_panel(f, _write(tmp_path / "prices.csv", PRICES_2x2))


def test_load_panel_refuses_a_price_row_whose_datetime_is_not_a_day(tmp_path):
    # before: the universe filter dropped the row unchecked, so A's
    # 2020-01-02 price went missing and both of A's labels were unobserved
    feats = "".join(["datetime,instrument,f0\n"] + [
        f"2020-01-0{d},{s},1.0\n" for d in (1, 2, 3) for s in "AB"])
    f = _write(tmp_path / "features.csv", feats)
    prices = "".join(["datetime,instrument,price,volume\n"] + [
        f"2020-01-0{d},{s},{10 + d},1\n" for d in (1, 2, 3) for s in "AB"])
    typo = prices.replace("2020-01-02,A", "2020-0l-02,A")
    with pytest.raises(DataError, match=r"prices.csv: line 4: date '2020-0l-02' is not"):
        load_panel(f, _write(tmp_path / "prices.csv", typo))
    # a row of an instrument outside the universe is checked too, and the
    # earliest line's fault is reported
    outside = prices.replace("2020-01-03,A,13,1\n", "2020-01-03,A,x,1\n") + "2020-13-01,C,1,1\n"
    with pytest.raises(DataError, match="p1.csv: line 6: unparseable number 'x'"):
        load_panel(f, _write(tmp_path / "p1.csv", outside))
    before = prices.replace("2020-01-01,B,11,1\n", "2020-01-01,B,11,1\n20200102,C,x,1\n")
    with pytest.raises(DataError, match="p2.csv: line 4: date '20200102' is not"):
        load_panel(f, _write(tmp_path / "p2.csv", before + "2020-01-03,A\n"))
    # a valid day that the features lack stays ignored
    extra = load_panel(f, _write(tmp_path / "p3.csv", prices + "2020-01-06,A,99,1\n"))
    assert np.array_equal(extra.vwap, load_panel(
        f, _write(tmp_path / "p4.csv", prices)).vwap)


def test_bad_date_and_duplicate_report_the_earlier_line(tmp_path):
    p = _write(tmp_path / "prices.csv", PRICES_2x2)
    dup_first = FEATURES_2x2x3 + "2020-01-02,B,1.0,2.0,3.0\n2020-13-01,A,1.0,2.0,3.0\n"
    with pytest.raises(DataError, match="duplicate"):
        load_panel(_write(tmp_path / "f1.csv", dup_first), p)
    date_first = FEATURES_2x2x3 + "2020-13-01,A,1.0,2.0,3.0\n2020-01-02,B,1.0,2.0,3.0\n"
    with pytest.raises(DataError, match="line 6: date '2020-13-01'"):
        load_panel(_write(tmp_path / "f2.csv", date_first), p)


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", " -INF"])
def test_load_panel_refuses_an_infinite_feature(tmp_path, cell):
    # before: inf was imputed by standardization like an empty cell
    p = _write(tmp_path / "prices.csv", PRICES_2x2)
    feats = FEATURES_2x2x3.replace("2020-01-02,A,7.0,8.0,9.0", f"2020-01-02,A,7.0,{cell},9.0")
    with pytest.raises(DataError, match=rf"features.csv: line 4: feature f1 is '{cell}'"):
        load_panel(_write(tmp_path / "features.csv", feats), p)
    # of several faults, the earliest line's is reported
    dup_after = feats + "2020-01-01,A,1.0,2.0,3.0\n"
    with pytest.raises(DataError, match="line 4: feature f1"):
        load_panel(_write(tmp_path / "f1.csv", dup_after), p)
    dup_before = feats.replace("2020-01-01,B,", "2020-01-01,A,")
    with pytest.raises(DataError, match="duplicate"):
        load_panel(_write(tmp_path / "f2.csv", dup_before), p)
    day_before = feats + "2020-13-01,A,1.0,2.0,3.0\n"
    with pytest.raises(DataError, match="line 4: feature f1"):
        load_panel(_write(tmp_path / "f3.csv", day_before), p)
    unparseable_after = feats.replace("2020-01-02,B,10.0", "2020-01-02,B,x")
    with pytest.raises(DataError, match="line 4: feature f1"):
        load_panel(_write(tmp_path / "f4.csv", unparseable_after), p)


@pytest.mark.parametrize("day", ["2015-13-01", "2015-02-30", "20150105", " 2015-01-05"])
def test_load_factors_refuses_a_date_that_is_not_a_calendar_day(tmp_path, day):
    _, _, fs = generate_synthetic(SynthConfig(days=10, seed=3))
    path = tmp_path / "factors.csv"
    write_factors(fs, path)
    lines = path.read_text().splitlines()
    lines[4] = day + lines[4][len(fs.dates[3]):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"factors.csv: line 5: date '{day}' is not"):
        load_factors(path)


@pytest.mark.parametrize("price", ["-5.0", "0", "0.0", "inf", "-inf"])
def test_load_panel_refuses_a_price_that_is_not_positive_and_finite(tmp_path, price):
    # before: a negative price gave a label of -200%, a zero price silently
    # made the cell unobserved, and inf was reported as a missing price
    f = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    prices = PRICES_2x2.replace("2020-01-02,A,105.0,", f"2020-01-02,A,{price},")
    with pytest.raises(DataError,
                       match=rf"prices.csv: line 4: price {float(price)!r} is not positive"):
        load_panel(f, _write(tmp_path / "prices.csv", prices))


def test_load_panel_refuses_an_infinite_volume(tmp_path):
    f = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    prices = PRICES_2x2.replace("2020-01-02,B,49.0,1000.0", "2020-01-02,B,49.0,inf")
    with pytest.raises(DataError, match="line 5: volume inf is not positive and finite$"):
        load_panel(f, _write(tmp_path / "prices.csv", prices))


def test_a_second_price_row_for_a_cell_is_refused(tmp_path):
    # before: the rows of a cell were averaged by volume, so a repeated
    # row silently moved the cell's price and both labels around it
    f = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    repeated = PRICES_2x2 + "2020-01-01,A,80.0,1000.0\n"
    with pytest.raises(DataError,
                       match=r"prices.csv: line 6: duplicate \(date, instrument\) pair$"):
        load_panel(f, _write(tmp_path / "prices.csv", repeated))
    # the repeat is refused wherever it stands, the same as an exact copy
    moved = PRICES_2x2.replace("2020-01-02,B,", "2020-01-01,A,")
    with pytest.raises(DataError, match="p1.csv: line 5: duplicate"):
        load_panel(f, _write(tmp_path / "p1.csv", moved))


def test_vwap_errors_name_the_first_bad_cell(tmp_path):
    # before: a negative or all-zero volume was refused with no file or
    # line, and only once the whole file was read
    f = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    prices = (
        "datetime,instrument,price,volume\n"
        "2020-01-02,A,100.0,7.0\n"
        "2020-01-01,B,50.0,0.0\n"
        "2020-01-01,B,51.0,-1.0\n"
        "2020-01-01,A,50.0,-3.0\n"
    )
    with pytest.raises(DataError, match=r"p.csv: line 3: volume 0.0 is not positive and finite$"):
        load_panel(f, _write(tmp_path / "p.csv", prices))
    # a bad volume is reported before a duplicate on the same line
    positive = prices.replace(",0.0\n", ",2.0\n")
    with pytest.raises(DataError, match=r"line 4: volume -1.0 is not positive and finite$"):
        load_panel(f, _write(tmp_path / "p1.csv", positive))
    with pytest.raises(DataError, match=r"line 4: duplicate \(date, instrument\) pair$"):
        load_panel(f, _write(tmp_path / "p2.csv", positive.replace("-1.0", "1.0")))
    unique = positive.replace("2020-01-01,B,51.0,-1.0", "2020-01-02,B,51.0,1.0")
    with pytest.raises(DataError, match=r"line 5: volume -3.0 is not positive and finite$"):
        load_panel(f, _write(tmp_path / "p3.csv", unique))


def test_vwap_of_a_huge_price(tmp_path):
    # before: a one-bar cell's price * volume overflowed with a warning,
    # though the cell takes its price alone
    f = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    prices = PRICES_2x2.replace("2020-01-02,B,49.0,", "2020-01-02,B,1e308,")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_panel(f, _write(tmp_path / "p.csv", prices))
    assert ds.vwap[1, 1] == 1e308
    # a second such row for the cell is a repeated pair, not a sum
    prices += "2020-01-02,B,1e308,1000.0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="p2.csv: line 6: duplicate"):
            load_panel(f, _write(tmp_path / "p2.csv", prices))


def test_load_panel_refuses_a_return_that_overflows(tmp_path):
    # before: 5e-324 then 1.0 warned "overflow encountered in divide" and
    # left an inf label that observed_mask silently dropped
    f = _write(tmp_path / "features.csv", FEATURES_2x2x3)
    prices = _write(tmp_path / "p.csv", PRICES_2x2.replace("2020-01-01,B,50.0,",
                                                           "2020-01-01,B,5e-324,")
                    .replace("2020-01-02,B,49.0,", "2020-01-02,B,1.0,"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=re.escape(
                f"{prices}: the return of B from 2020-01-01 to 2020-01-02 overflows")):
            load_panel(f, prices)
        assert returns_from_prices(np.array([[5e-324], [1.0]]))[0, 0] == np.inf


def test_masks_are_read_off_the_arrays_and_refuse_writes():
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=4, days=5))
    ds.labels[1, 2] = np.nan
    ds.vwap[3, 0] = np.nan
    assert not ds.observed_mask[1, 2] and ds.observed_mask.sum() == 4 * 4 - 1
    assert not ds.present_mask[3, 0] and ds.present_mask.sum() == 4 * 5 - 1
    for mask in (ds.observed_mask, ds.present_mask):
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = False


def test_load_panel_names_the_first_missing_pair(tmp_path):
    # C lacks 2020-01-02 and Aa lacks 2020-01-01: in (date, instrument)
    # order, Aa's gap comes first
    feats = FEATURES_2x2x3 + "2020-01-01,C,1.0,1.0,1.0\n2020-01-02,Aa,1.0,1.0,1.0\n"
    f = _write(tmp_path / "f.csv", feats)
    with pytest.raises(DataError, match=f"^{re.escape(str(f))}: Aa has no row on 2020-01-01$"):
        load_panel(f, _write(tmp_path / "p.csv", PRICES_2x2))
    # every instrument of a complete file is kept, a price-less one too
    full = load_panel(_write(tmp_path / "g.csv", feats + "2020-01-02,C,1.0,1.0,1.0\n"
                             "2020-01-01,Aa,1.0,1.0,1.0\n"),
                      _write(tmp_path / "q.csv", PRICES_2x2))
    assert full.instruments == ["A", "Aa", "B", "C"]
    assert not full.present_mask[:, [1, 3]].any()


def test_standardize_features_matches_loop_oracle():
    rng = np.random.default_rng(9)
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=24, days=30, seed=9))
    holes = ds.features.copy()
    holes[rng.random(holes.shape) < 0.1] = np.nan
    holes[3, 5, 2] = np.inf
    holes[4, :, 1] = np.nan        # all-missing column
    holes[5, :, 0] = 2.5           # constant column
    holes[6, :, 3] = np.nan
    holes[6, 7, 3] = -1.0          # one finite value left
    # columns longer than numpy's 8192-element reduction buffer
    d, n = 2, 10_000
    long = PanelDataset(
        dates=trading_dates("2020-01-01", d), instruments=[f"S{i:05d}" for i in range(n)],
        features=rng.normal(size=(d, n, 3)) * 1e3, labels=np.full((d, n), np.nan),
        vwap=np.ones((d, n)), volume=np.ones((d, n)))
    for panel, feats in ((ds, ds.features), (ds, holes), (long, long.features)):
        panel.features = feats
        got = standardize_features(panel).features
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, oracle.standardize_loop(feats))


@pytest.mark.parametrize("column", [
    [1.0, 1e200, -2.0, 0.5],
    [1e308, 1e308, 1e308, 1e308],
    [1.7e308, -1.7e308, -1.7e308, 0.0],
    [1.7e308, 1.7e308, np.nan, 0.0],
], ids=["square", "mean", "deviation", "median"])
def test_standardize_features_refuses_a_column_it_cannot_standardize(column):
    # before: numpy warned of the overflow and the spread's square became
    # inf, so the column was scaled to -0.0 and 0.0 everywhere
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=4, n_features=3, days=5))
    ds.features[3, :, 2] = column
    ds.features[4, :, 1] = column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^feature f2 on {ds.dates[3]}: mean or spread "
                           "overflows, so it cannot be standardized$"):
            standardize_features(ds)


# ---------------------------------------------------------------------------
# streaming readers against the row-based reference
# ---------------------------------------------------------------------------

# cells a mutation may write: missing, non-finite, garbled, malformed
# dates, non-positive prices and an instrument outside the universe
BAD_CELLS = ["", " ", "nan", "inf", "-inf", "x", "1.5", " 2.5", "0", "-1.0",
             "2015-13-01", "20150105", "S999"]
EDITS = st.lists(st.tuples(st.sampled_from(["drop", "dup", "move", "cell", "cell", "cell",
                                            "cut", "grow", "column", "universe", "dates"]),
                           st.integers(0, 10**6), st.integers(0, 10**6),
                           st.sampled_from(BAD_CELLS)),
                 max_size=3)


def _panel_outcome(fn, *args):
    try:
        ds = fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"
    arrays = [getattr(ds, name) for name in ("features", "labels", "vwap", "volume")]
    return (ds.dates, ds.instruments,
            *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def _predictions_outcome(fn, path):
    try:
        preds = fn(path)
    except DataError as exc:
        return f"DataError: {exc}"
    return preds.dates, preds.instruments, preds.scores.shape, preds.scores.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 50), chunk_cells=st.integers(1, 15),
       feature_edits=EDITS, price_edits=EDITS, prediction_edits=EDITS)
def test_streaming_loaders_equal_row_reference(seed, chunk_cells, feature_edits,
                                               price_edits, prediction_edits):
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=4, n_features=3, days=4,
                                              seed=seed))
    preds = PredictionSeries([(d, s, float(k)) for k, (d, s) in enumerate(
        (d, s) for d in ds.dates for s in ds.instruments)])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        f, p, q = Path(tmp, "features.csv"), Path(tmp, "prices.csv"), Path(tmp, "preds.csv")
        write_panel(ds, f, p)
        preds.write_csv(q)
        for path, edits in ((f, feature_edits), (p, price_edits), (q, prediction_edits)):
            text = path.read_text()
            for edit in edits:
                text = edit_csv(text, *edit)
            path.write_text(text, encoding="utf-8")
        # blocks of 1 to 3 rows, so faults straddle block boundaries
        mp.setattr(data, "CHUNK_CELLS", chunk_cells)
        assert (_panel_outcome(load_panel, f, p)
                == _panel_outcome(oracle.load_panel_rows, f, p))
        assert (_predictions_outcome(PredictionSeries.read_csv, q)
                == _predictions_outcome(oracle.read_predictions_rows, q))


def _table_outcome(fn, path):
    try:
        value = fn(path)
    except DataError as exc:
        return f"DataError: {exc}"
    if isinstance(value, data.FactorSeries):
        value = value.dates, value.risk_free, *value.factors.values()
    if isinstance(value, dict):
        return sorted(value.items())
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in value]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 50), chunk_cells=st.integers(1, 15),
       factor_edits=EDITS, membership_edits=EDITS, backtest_edits=EDITS)
def test_dated_and_membership_loaders_do_not_depend_on_block_size(
        seed, chunk_cells, factor_edits, membership_edits, backtest_edits):
    ds, graphs, fs = generate_synthetic(SynthConfig(n_instruments=4, n_features=3, days=6,
                                                    seed=seed))
    preds = PredictionSeries([(d, s, float(ds.features[t, i, 0]))
                              for t, d in enumerate(ds.dates)
                              for i, s in enumerate(ds.instruments)])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        f, m, b = Path(tmp, "factors.csv"), Path(tmp, "industry.csv"), Path(tmp, "backtest.csv")
        write_factors(fs, f)
        write_membership(m, graphs.industry_labels)
        run_backtest(preds, ds, StrategyConfig(k=2, n_drop=1)).write_csv(b)
        for path, edits in ((f, factor_edits), (m, membership_edits), (b, backtest_edits)):
            text = path.read_text()
            for edit in edits:
                text = edit_csv(text, *edit)
            path.write_text(text, encoding="utf-8")
        cases = ((load_factors, f), (load_membership, m), (read_backtest_csv, b))
        whole = [_table_outcome(fn, path) for fn, path in cases]
        # blocks of 1 to 15 cells, so faults straddle block boundaries
        mp.setattr(data, "CHUNK_CELLS", chunk_cells)
        assert [_table_outcome(fn, path) for fn, path in cases] == whole


@settings(max_examples=20, deadline=None)
@given(n_lines=st.integers(0, 7), per_write=st.integers(1, 4))
def test_writers_do_not_depend_on_lines_per_write(n_lines, per_write):
    ds, _, fs = generate_synthetic(SynthConfig(n_instruments=4, n_features=3, days=8,
                                              seed=n_lines))
    preds = PredictionSeries([(d, s, float(ds.features[t, i, 0]))
                              for t, d in enumerate(ds.dates[:n_lines])
                              for i, s in enumerate(ds.instruments)])
    result = run_backtest(PredictionSeries([(d, s, float(ds.features[t, i, 0]))
                                            for t, d in enumerate(ds.dates)
                                            for i, s in enumerate(ds.instruments)]),
                          ds, StrategyConfig(k=2, n_drop=1))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        paths = [Path(tmp, name) for name in ("features.csv", "prices.csv", "preds.csv",
                                              "factors.csv", "backtest.csv")]

        def written():
            write_panel(ds, *paths[:2])
            preds.write_csv(paths[2])
            write_factors(fs, paths[3])
            result.write_csv(paths[4])
            return [path.read_bytes() for path in paths]

        whole = written()
        mp.setattr(data, "LINES_PER_WRITE", per_write)
        assert written() == whole
    assert whole[2].count(b"\n") == 1 + 4 * n_lines


def test_loaders_hold_their_arrays_and_one_block(tmp_path):
    # before: every cell was held as a str in per-row lists, about 16x
    # the bytes of the arrays load_panel returns, and more for read_csv
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=400, days=120, seed=4))
    f, p, q = tmp_path / "features.csv", tmp_path / "prices.csv", tmp_path / "preds.csv"
    preds = PredictionSeries([(d, s, float(ds.features[t, i, 0]))
                              for t, d in enumerate(ds.dates)
                              for i, s in enumerate(ds.instruments)])

    def peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the writers hold their code arrays and one block of lines; before,
    # write_csv held every line of the file, 17x its score grid
    _, used = peak(write_panel, ds, f, p)
    written = sum(getattr(ds, name).nbytes for name in ("features", "vwap", "volume"))
    assert used <= written, (used, written)
    _, used = peak(preds.write_csv, q)
    assert used <= 5 * preds.scores.nbytes, (used, preds.scores.nbytes)

    panel, used = peak(load_panel, f, p)
    arrays = sum(getattr(panel, name).nbytes for name in (
        "features", "labels", "vwap", "volume"))
    assert used <= 4 * arrays, (used, arrays)
    grid, used = peak(PredictionSeries.read_csv, q)
    assert used <= 4 * grid.scores.nbytes, (used, grid.scores.nbytes)
