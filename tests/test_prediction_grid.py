"""The date x instrument score grid against the row-based reference.

`summarize`, `subgroup_metrics` and `run_backtest` read one score grid;
`_oracles` keeps the row-walking versions they replaced. On random
sparse panels, with shuffled rows, tied scores, dates and instruments
the panel lacks and instruments missing from the grouping, both must
give bitwise-equal reports and ledgers, or the same DataError message.
All three, and the `evaluate` and `backtest` commands, accept or refuse
a scored pair outside the panel alike, on any date.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracle
from xsrank import cli
from xsrank.backtest import StrategyConfig, run_backtest
from xsrank.data import (
    PanelDataset,
    PredictionSeries,
    SynthConfig,
    generate_synthetic,
    load_panel,
    write_panel,
)
from xsrank.errors import DataError
from xsrank.evaluate import subgroup_metrics, summarize


def _outcome(fn, *args):
    """repr of the value, exact for the float fields of a MetricReport,
    or the DataError message."""
    try:
        return repr(fn(*args))
    except DataError as exc:
        return f"DataError: {exc}"


def _ledger(fn, *args):
    try:
        r = fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"
    return (r.dates, r.holdings_ledger, r.flags,
            *(a.tobytes() for a in (r.portfolio, r.benchmark, r.excess, r.cum_excess)))


def _case(n, d, density, ties, gap, stray_date, stray_inst, seed):
    rng = np.random.default_rng(seed)
    # every other day, so a stray day can fall between two panel dates
    dates = [f"2022-01-{2 * t + 10:02d}" for t in range(d)]
    instruments = [f"S{i}" for i in range(n)]
    labels = rng.normal(0, 0.02, size=(d, n))
    labels[rng.random((d, n)) < 0.1] = np.nan
    labels[-1] = np.nan
    # a tenth more of the cells go unobserved
    labels[rng.random((d, n)) >= 0.9] = np.nan
    ds = PanelDataset(
        dates=dates, instruments=instruments, features=np.zeros((d, n, 1)),
        labels=labels, vwap=np.ones((d, n)), volume=np.ones((d, n)),
    )

    # a stray_* of 0, 4 or 5 adds nothing, so most cases keep inside the panel
    pred_dates = list(dates)
    if 1 <= stray_date <= 3:
        # before, inside or after the panel's dates
        pred_dates.append(["2022-01-01", "2022-01-11", "2022-02-01"][stray_date - 1])
    pred_insts = list(instruments)
    if 1 <= stray_inst <= 3:
        pred_insts.append(["A", "S1b", "Z"][stray_inst - 1])
    cats = ["EAST", "WEST", "NORTH"][: int(rng.integers(1, 4))]
    grouping = {inst: cats[int(rng.integers(len(cats)))]
                for inst in pred_insts if rng.random() < 0.85}

    scored = rng.random((len(pred_dates), len(pred_insts))) < density
    if gap:
        # one category goes unscored on one date that others still score
        members = [k for k, inst in enumerate(pred_insts) if grouping.get(inst) == cats[0]]
        scored[int(rng.integers(len(pred_dates))), members] = False
    if ties:
        values = rng.integers(0, 4, size=scored.shape).astype(float)
    else:
        values = rng.normal(size=scored.shape)
    rows = [(pred_dates[t], pred_insts[i], float(values[t, i]))
            for t, i in zip(*np.nonzero(scored))]
    rng.shuffle(rows)
    return ds, rows, grouping


CASES = dict(
    n=st.integers(1, 30), d=st.integers(2, 7), density=st.floats(0.6, 1.0),
    ties=st.booleans(), gap=st.booleans(),
    stray_date=st.integers(0, 5), stray_inst=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=200, deadline=None)
@given(**CASES)
def test_grid_metrics_equal_row_reference(n, d, density, ties, gap, stray_date,
                                          stray_inst, seed):
    ds, rows, grouping = _case(n, d, density, ties, gap, stray_date, stray_inst, seed)
    if not rows:
        return
    preds = PredictionSeries(rows)
    assert preds.rows == sorted(rows)
    assert _outcome(summarize, preds, ds) == _outcome(oracle.summarize_rows, rows, ds)
    assert (_outcome(subgroup_metrics, preds, ds, grouping)
            == _outcome(oracle.subgroup_metrics_rows, rows, ds, grouping))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 5), drop_frac=st.floats(0.0, 1.0), **CASES)
def test_grid_backtest_equals_row_reference(k, drop_frac, n, d, density, ties, gap,
                                            stray_date, stray_inst, seed):
    ds, rows, _ = _case(n, d, density, ties, gap, stray_date, stray_inst, seed)
    if not rows:
        return
    # at zero cost the fixed turnover count does not reach the returns
    cfg = StrategyConfig(k=k, n_drop=1 + int(drop_frac * (k - 1)))
    preds = PredictionSeries(rows)
    assert _ledger(run_backtest, preds, ds, cfg) == _ledger(
        oracle.run_backtest_rows, rows, ds, cfg)


@pytest.fixture(scope="module")
def panel_files(tmp_path_factory):
    """A written 6-instrument, 12-day panel and the dataset read from it."""
    root = tmp_path_factory.mktemp("panel")
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=6, n_features=3, days=12,
                                              seed=2))
    files = root / "features.csv", root / "prices.csv"
    write_panel(ds, *files)
    return load_panel(*files), files


def _refusal(fn, *args):
    """The DataError message of the call, or None when it returns."""
    try:
        fn(*args)
    except DataError as exc:
        return str(exc)
    return None


# (date, instrument) choices: the panel's first, next-to-last and final
# dates, and a date before, inside (a Saturday) and after them; two panel
# instruments and three it lacks
STRAY_DATES = [0, -2, -1, "2014-12-31", "2015-01-10", "2100-01-04"]
STRAY_INSTRUMENTS = [0, -1, "A", "S003x", "ZZ"]


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.tuples(st.sampled_from(STRAY_DATES),
                                st.sampled_from(STRAY_INSTRUMENTS)), max_size=3),
       seed=st.integers(0, 2**16))
# an instrument the panel lacks, scored only on the final panel date
@example(cells=[(-1, "A")], seed=0)
def test_evaluate_and_backtest_refuse_the_same_predictions(panel_files, cells, seed):
    ds, files = panel_files
    rng = np.random.default_rng(seed)
    scores = {(d, s): float(rng.normal()) for d in ds.dates for s in ds.instruments}
    for d, s in cells:
        day = ds.dates[d] if isinstance(d, int) else d
        name = ds.instruments[s] if isinstance(s, int) else s
        scores[day, name] = float(rng.normal())
    rows = [(d, s, v) for (d, s), v in scores.items()]
    preds = PredictionSeries(rows)

    outside = [(d, s) for d, s, _ in sorted(rows)
               if d not in ds.dates or s not in ds.instruments]
    expected = None
    if outside:
        d, s = outside[0]
        expected = (f"prediction date {d} not in the panel" if d not in ds.dates else
                    f"prediction instrument {s} not in the panel")
    grouping = {s: "ALL" for _, s, _ in rows}
    assert _refusal(summarize, preds, ds) == expected
    assert _refusal(subgroup_metrics, preds, ds, grouping) == expected
    assert _refusal(run_backtest, preds, ds, StrategyConfig(k=2, n_drop=1)) == expected

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.csv"
        preds.write_csv(path)
        common = ["--predictions", str(path), "--features", str(files[0]),
                  "--prices", str(files[1])]
        codes = {cli.main(["evaluate", "--out", str(Path(tmp) / "eval"), *common]),
                 cli.main(["backtest", "--out", str(Path(tmp) / "bt"), *common,
                           "--k", "2", "--n-drop", "1"])}
    assert codes == {cli.EXIT_OK if expected is None else cli.EXIT_DATA}
