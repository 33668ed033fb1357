import _oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsrank.backtest import (
    BacktestResult,
    PortfolioMetrics,
    StrategyConfig,
    portfolio_metrics,
    run_backtest,
    topk_dropout_rebalance,
    write_curves_svg,
)
from xsrank.data import PanelDataset, PredictionSeries
from xsrank.errors import ConfigError, DataError
from xsrank.evaluate import write_metric_report


def panel_from_labels(dates, instruments, labels):
    labels = np.asarray(labels, dtype=np.float64)
    d, n = labels.shape
    return PanelDataset(
        dates=list(dates),
        instruments=list(instruments),
        features=np.zeros((d, n, 1)),
        labels=labels,
        vwap=np.ones((d, n)),
        volume=np.ones((d, n)),
    )


def test_strategy_config_validation():
    with pytest.raises(ConfigError):
        StrategyConfig(k=0, n_drop=1)
    with pytest.raises(ConfigError):
        StrategyConfig(k=3, n_drop=0)
    with pytest.raises(ConfigError):
        StrategyConfig(k=3, n_drop=4)
    with pytest.raises(ConfigError):
        StrategyConfig(k=3, n_drop=1, cost_bps=-1)


def rebalance(names, scores, held, cfg):
    """`topk_dropout_rebalance` on the sorted columns `names`, with
    `scores` a {name: score} dict and `held` a set of names; returns the
    book, the names sold (prev & ~new) and those bought (new & ~prev)."""
    cols = np.array(list(names), dtype=object)
    row = np.array([scores.get(name, np.nan) for name in cols])
    prev = np.isin(cols, sorted(held))
    new = topk_dropout_rebalance(row, prev, cfg)
    assert new.dtype == bool and new.shape == prev.shape
    return set(cols[new]), set(cols[prev & ~new]), set(cols[new & ~prev])


def test_rebalance_cold_start_buys_top_k():
    cfg = StrategyConfig(k=3, n_drop=1)
    scores = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    book, sold, bought = rebalance("ABCD", scores, set(), cfg)
    assert book == {"A", "B", "C"}
    assert sold == set()
    assert bought == {"A", "B", "C"}


def test_rebalance_drops_worst_and_buys_best_outsider():
    cfg = StrategyConfig(k=3, n_drop=1)
    scores = {"D": 10.0, "A": 3.0, "B": 2.0, "C": 1.0}
    book, sold, bought = rebalance("ABCD", scores, {"A", "B", "C"}, cfg)
    assert book == {"A", "B", "D"}
    assert sold == {"C"}
    assert bought == {"D"}


def test_rebalance_sold_name_can_reenter_on_merit():
    # the dropped name goes back into the global pool; with the top
    # score it is bought right back
    cfg = StrategyConfig(k=2, n_drop=1)
    scores = {"A": 5.0, "B": 1.0, "C": 3.0}
    book, sold, bought = rebalance("ABC", scores, {"A", "B"}, cfg)
    assert sold == {"B"}
    assert bought == {"C"}
    assert book == {"A", "C"}

    # B is sold and bought back: the book, the only effect any output
    # shows, is unchanged
    scores2 = {"A": 5.0, "B": 4.0, "C": 3.0}
    book2, sold2, bought2 = rebalance("ABC", scores2, {"A", "B"}, cfg)
    assert book2 == {"A", "B"}
    assert sold2 == bought2 == set()


def test_rebalance_full_turnover_when_n_drop_equals_k():
    cfg = StrategyConfig(k=2, n_drop=2)
    scores = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0}
    book, _, _ = rebalance("ABCD", scores, {"A", "B"}, cfg)
    assert book == {"C", "D"}


def test_rebalance_unscored_holdings_sold_first():
    cfg = StrategyConfig(k=3, n_drop=1)
    scores = {"A": 9.0, "B": 8.0, "Y": 7.0}
    book, sold, bought = rebalance("ABXYZ", scores, {"X", "Y", "Z"}, cfg)
    assert sold == {"Z"}
    assert bought == {"A"}
    assert book == {"A", "X", "Y"}


def test_rebalance_ties_break_to_lower_id():
    cfg = StrategyConfig(k=3, n_drop=1)
    scores = {"A": 5.0, "B": 5.0, "C": 5.0, "D": 5.0}
    book, sold, bought = rebalance("ABCD", scores, {"A", "C", "D"}, cfg)
    # among tied holdings the highest column ranks worst; among tied
    # candidates the lowest column is bought first
    assert sold == {"D"}
    assert bought == {"B"}
    assert book == {"A", "B", "C"}


def test_rebalance_under_capacity_flags():
    # fewer scored names than k: the book holds every one of them, and
    # run_backtest flags the day (test_run_backtest_under_capacity_flagged)
    cfg = StrategyConfig(k=3, n_drop=1)
    scores = {"A": 2.0, "B": 1.0}
    book, _, bought = rebalance("ABCD", scores, set(), cfg)
    assert book == bought == {"A", "B"}


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(st.sampled_from([np.nan, -0.0, 0.0, 1.0, 2.0]),
                                st.booleans()), min_size=1, max_size=9),
       k=st.integers(1, 6), drop_frac=st.floats(0.0, 1.0))
def test_rebalance_equals_dict_oracle(cells, k, drop_frac):
    # random books over few distinct scores: tied scores, unscored held
    # names, and books larger than k or than the scored count
    cfg = StrategyConfig(k=k, n_drop=1 + int(drop_frac * (k - 1)))
    names = [f"S{i}" for i in range(len(cells))]
    scores = {name: s for name, (s, _) in zip(names, cells) if np.isfinite(s)}
    held = {name for name, (_, h) in zip(names, cells) if h}
    want, trade = oracle.rebalance_dict(scores, frozenset(held), cfg)
    book, sold, bought = rebalance(names, scores, held, cfg)
    assert book == set(want)
    # the oracle's trade record counts a name sold and bought back twice
    assert sold == set(trade["sold"]) - set(trade["bought"])
    assert bought == set(trade["bought"]) - set(trade["sold"])


def hand_scenario():
    dates = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04",
             "2020-01-05"]
    instruments = ["A", "B", "C", "D"]
    labels = np.array([
        [0.01, 0.02, -0.01, 0.03],
        [0.02, -0.02, 0.01, 0.04],
        [-0.01, 0.03, 0.02, -0.02],
        [0.01, 0.01, -0.03, 0.02],
        [np.nan, np.nan, np.nan, np.nan],
    ])
    score_rows = {
        "2020-01-01": {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0},
        "2020-01-02": {"D": 10.0, "A": 3.0, "B": 2.0, "C": 1.0},
        "2020-01-03": {"C": 10.0, "D": 9.0, "A": 8.0, "B": 1.0},
        "2020-01-04": {"A": 5.0, "B": 5.0, "C": 5.0, "D": 5.0},
        "2020-01-05": {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0},
    }
    rows = [(d, i, s) for d, m in score_rows.items() for i, s in m.items()]
    return panel_from_labels(dates, instruments, labels), PredictionSeries(rows)


def test_run_backtest_matches_hand_ledger():
    # worked by hand: day 1 cold start buys A,B,C; day 2 drops C for D;
    # day 3 drops B for C; day 4 all tied, drops D (highest id among
    # held), buys B (lowest id outside); day 5 has no next day
    ds, preds = hand_scenario()
    result = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1))

    assert result.holdings_ledger == [
        ("2020-01-01", ("A", "B", "C")),
        ("2020-01-02", ("A", "B", "D")),
        ("2020-01-03", ("A", "C", "D")),
        ("2020-01-04", ("A", "B", "C")),
    ]
    assert result.dates == ["2020-01-02", "2020-01-03", "2020-01-04",
                            "2020-01-05"]
    want_port = [
        (0.01 + 0.02 - 0.01) / 3.0,
        (0.02 - 0.02 + 0.04) / 3.0,
        (-0.01 + 0.02 - 0.02) / 3.0,
        (0.01 + 0.01 - 0.03) / 3.0,
    ]
    want_bench = [0.05 / 4.0, 0.05 / 4.0, 0.02 / 4.0, 0.01 / 4.0]
    assert np.max(np.abs(result.portfolio - want_port)) < 1e-15
    assert np.max(np.abs(result.benchmark - want_bench)) < 1e-15
    assert np.max(np.abs(result.excess -
                         (np.array(want_port) - want_bench))) < 1e-15
    assert np.allclose(result.turnover, [1.0, 2 / 3, 2 / 3, 2 / 3])
    assert result.flags == []
    want_cum = np.cumprod(1.0 + result.excess)
    assert np.array_equal(result.cum_excess, want_cum)


def test_run_backtest_costs_scale_with_turnover():
    ds, preds = hand_scenario()
    free = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1))
    paid = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1, cost_bps=10.0))
    drag = free.portfolio - paid.portfolio
    assert np.max(np.abs(drag - free.turnover * 10.0 / 1e4)) < 1e-15
    assert free.holdings_ledger == paid.holdings_ledger


def test_run_backtest_sell_and_rebuy_costs_nothing():
    # day 2 sells B and buys it straight back: the book stays {A, B}, so
    # the day has no turnover and no cost drag
    dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
    labels = np.array([[0.01, 0.02, 0.03], [0.02, -0.01, 0.0],
                       [np.nan, np.nan, np.nan]])
    ds = panel_from_labels(dates, ["A", "B", "C"], labels)
    preds = PredictionSeries([(d, i, s) for d in dates[:2]
                              for i, s in (("A", 5.0), ("B", 4.0), ("C", 3.0))])
    cfg = StrategyConfig(k=2, n_drop=1, cost_bps=10.0)
    result = run_backtest(preds, ds, cfg)
    assert result.holdings_ledger == [("2020-01-01", ("A", "B")),
                                      ("2020-01-02", ("A", "B"))]
    assert np.array_equal(result.turnover, [1.0, 0.0])
    free = run_backtest(preds, ds, StrategyConfig(k=2, n_drop=1))
    assert free.portfolio[1] == result.portfolio[1] == (0.02 - 0.01) / 2.0
    assert free.portfolio[0] - result.portfolio[0] == pytest.approx(10.0 / 1e4)


def test_run_backtest_single_stock_passthrough():
    dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
    labels = np.array([[0.05], [-0.02], [np.nan]])
    ds = panel_from_labels(dates, ["A"], labels)
    preds = PredictionSeries([(d, "A", 1.0) for d in dates])
    result = run_backtest(preds, ds, StrategyConfig(k=1, n_drop=1))
    assert np.array_equal(result.portfolio, [0.05, -0.02])
    assert np.array_equal(result.excess, np.zeros(2))


def test_run_backtest_no_lookahead():
    rng = np.random.default_rng(0)
    for trial in range(10):
        dates = [f"2021-01-{d:02d}" for d in range(1, 13)]
        instruments = [f"S{i}" for i in range(6)]
        labels = rng.normal(0, 0.02, size=(12, 6))
        labels[-1] = np.nan
        ds = panel_from_labels(dates, instruments, labels)
        rows = [(d, i, float(rng.normal()))
                for d in dates for i in instruments]
        preds = PredictionSeries(rows)
        cfg = StrategyConfig(k=3, n_drop=1)
        full = run_backtest(preds, ds, cfg)

        cut = 7
        trunc_rows = [(d, i, s) for d, i, s in preds.rows if d <= dates[cut]]
        part = run_backtest(PredictionSeries(trunc_rows), ds, cfg)
        n = len(part.dates)
        assert part.holdings_ledger == full.holdings_ledger[:n]
        assert np.array_equal(part.portfolio, full.portfolio[:n])
        assert np.array_equal(part.excess, full.excess[:n])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), d=st.integers(2, 9), k=st.integers(1, 6),
       drop_frac=st.floats(0.0, 1.0), scored_frac=st.floats(0.2, 1.0),
       seed=st.integers(0, 2**16))
def test_backtest_ledger_invariants(n, d, k, drop_frac, scored_frac, seed):
    rng = np.random.default_rng(seed)
    n_drop = 1 + int(drop_frac * (k - 1))
    cfg = StrategyConfig(k=k, n_drop=n_drop, cost_bps=5.0)
    dates = [f"2022-01-{t + 1:02d}" for t in range(d)]
    instruments = [f"S{i}" for i in range(n)]
    labels = rng.normal(0, 0.02, size=(d, n))
    labels[-1] = np.nan
    ds = panel_from_labels(dates, instruments, labels)
    # few distinct values, so rank ties are common; some cells unscored
    scored = rng.random((d, n)) < scored_frac
    scored[0, 0] = True
    values = rng.integers(0, 4, size=(d, n)).astype(float)
    preds = PredictionSeries([(dates[t], instruments[i], values[t, i])
                              for t, i in zip(*np.nonzero(scored))])
    full = run_backtest(preds, ds, cfg)

    prev = frozenset()
    for (date, book), turnover in zip(full.holdings_ledger, full.turnover):
        book = frozenset(book)
        row = preds.scores[preds.dates.index(date)]
        names = {preds.instruments[i] for i in np.flatnonzero(np.isfinite(row))}
        # the book refills to min(k, scored names), but a day with fewer
        # scored names than the book holds sheds at most n_drop of them
        assert len(book) == max(min(k, len(names)), len(prev) - n_drop)
        sold, bought = prev - book, book - prev
        assert len(sold) <= n_drop
        assert bought <= names
        # turnover is the net book change: a name sold and bought back
        # the same day is not counted
        assert round(turnover * k) == len(sold) + len(bought)
        prev = book

    # cut the scores after day c (day 0 is always scored) and redraw
    # every later return: the ledger and returns through return day
    # c + 1 are unchanged
    c = int(rng.integers(0, d - 1))
    cut_rows = [row for row in preds.rows if row[0] <= dates[c]]
    later = labels.copy()
    later[c + 1:-1] = rng.normal(0, 0.02, size=later[c + 1:-1].shape)
    part = run_backtest(PredictionSeries(cut_rows),
                        panel_from_labels(dates, instruments, later), cfg)
    m = len(part.dates)
    assert part.dates == full.dates[:m]
    assert part.holdings_ledger == full.holdings_ledger[:m]
    assert np.array_equal(part.portfolio, full.portfolio[:m])
    assert np.array_equal(part.excess, full.excess[:m])


def test_run_backtest_frozen_position_flagged():
    ds, preds = hand_scenario()
    ds.labels[1, 1] = np.nan  # B has no realized return on day 2
    result = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1))
    want_day2 = (0.02 + 0.04) / 3.0  # B frozen at zero
    assert abs(result.portfolio[1] - want_day2) < 1e-15
    assert any("frozen" in f for f in result.flags)


def test_run_backtest_under_capacity_flagged():
    dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
    instruments = ["A", "B", "C", "D"]
    rng = np.random.default_rng(1)
    labels = rng.normal(0, 0.02, size=(3, 4))
    labels[-1] = np.nan
    ds = panel_from_labels(dates, instruments, labels)
    preds = PredictionSeries(
        [(d, i, 1.0 + k) for d in dates for k, i in enumerate(["A", "B"])]
    )
    result = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1))
    assert result.holdings_ledger[0][1] == ("A", "B")
    assert any("only 2 scored" in f for f in result.flags)


def test_run_backtest_rejects_unknown_keys():
    ds, preds = hand_scenario()
    bad = PredictionSeries(preds.rows + [("2020-02-01", "A", 1.0)])
    with pytest.raises(DataError):
        run_backtest(bad, ds, StrategyConfig(k=3, n_drop=1))
    bad2 = PredictionSeries(preds.rows + [("2020-01-01", "Z", 1.0)])
    with pytest.raises(DataError):
        run_backtest(bad2, ds, StrategyConfig(k=3, n_drop=1))


def test_portfolio_metrics_constant_excess():
    excess = np.full(10, 1e-4)
    m = portfolio_metrics(excess, excess)
    assert abs(m.ar - 0.0252) < 1e-12
    assert m.md == 0.0
    assert m.calmar == float("inf")
    assert "calmar_undefined_zero_drawdown" in m.flags
    assert "information_ratio_undefined_zero_std" in m.flags


def test_portfolio_metrics_two_step_drawdown():
    m = portfolio_metrics(np.array([0.01, -0.01]), np.array([0.0, 0.0]))
    # curve 1.01 then 1.01*0.99; trough over peak is exactly 0.99
    assert abs(m.md - (0.9999 / 1.01 - 1.0)) < 1e-15
    assert abs(m.md + 0.01) < 1e-12


def test_portfolio_metrics_compounded_return():
    m = portfolio_metrics(np.array([0.0, 0.0]), np.array([0.1, -0.05]))
    assert abs(m.cr - 0.045) < 1e-15


def test_portfolio_metrics_zero_excess_flagged():
    rng = np.random.default_rng(2)
    port = rng.normal(0, 0.01, size=20)
    m = portfolio_metrics(np.zeros(20), port)
    assert np.isnan(m.ir)
    assert "information_ratio_undefined_zero_std" in m.flags
    assert np.isfinite(m.sharpe)


def test_portfolio_metrics_overflow_flagged():
    # before: the squared deviations overflowed, so the standard deviation
    # was inf and ir = sharpe = 0.0 with no flag; ar = calmar = inf, unflagged
    series = np.array([0.01, 1e308, -0.5])
    m = portfolio_metrics(series, series)
    assert np.isnan(m.ar) and np.isnan(m.ir) and np.isnan(m.sharpe) and np.isnan(m.calmar)
    assert m.md == -0.5 and np.isfinite(m.cr)
    assert m.flags == ["annualized_excess_return_undefined_overflow",
                       "information_ratio_undefined_overflow", "sharpe_undefined_overflow",
                       "calmar_undefined_overflow"]
    # before: the mean, the drawdown curve and the product overflowed
    # outside any guard, each with a RuntimeWarning
    big, small = np.array([1e308, 1e308]), np.array([0.1, 0.2])
    m = portfolio_metrics(big, small)
    assert np.isnan(m.ar) and np.isnan(m.md) and np.isnan(m.calmar) and m.cr == 1.1 * 1.2 - 1.0
    assert m.flags == ["annualized_excess_return_undefined_overflow",
                       "information_ratio_undefined_overflow",
                       "max_drawdown_undefined_overflow", "calmar_undefined_overflow"]
    m = portfolio_metrics(small, big)
    assert np.isnan(m.cr) and m.ar == float(small.mean()) * 252
    assert m.flags == ["sharpe_undefined_overflow", "cumulative_return_undefined_overflow",
                       "calmar_undefined_zero_drawdown"]


def test_portfolio_metrics_identities():
    rng = np.random.default_rng(3)
    for _ in range(10):
        excess = rng.normal(0, 0.01, size=30)
        port = excess + rng.normal(0, 0.005, size=30)
        m = portfolio_metrics(excess, port)
        assert m.ar == float(excess.mean()) * 252
        assert m.md < 0.0
        assert m.calmar == m.ar / abs(m.md)
        want_ir = excess.mean() / excess.std(ddof=1) * np.sqrt(252)
        assert abs(m.ir - want_ir) < 1e-12
        want_sharpe = port.mean() / port.std(ddof=1) * np.sqrt(252)
        assert abs(m.sharpe - want_sharpe) < 1e-12


def test_portfolio_metrics_needs_two_days():
    with pytest.raises(DataError):
        portfolio_metrics(np.array([0.01]), np.array([0.01]))
    with pytest.raises(DataError):
        portfolio_metrics(np.zeros(3), np.zeros(2))


def test_backtest_csv_and_metrics_csv(tmp_path):
    ds, preds = hand_scenario()
    result = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1))
    path = tmp_path / "bt.csv"
    result.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "datetime,portfolio_ret,benchmark_ret,excess_ret,cum_excess"
    assert len(lines) == 5
    cells = lines[1].split(",")
    assert cells[0] == "2020-01-02"
    assert float(cells[1]) == result.portfolio[0]
    assert float(cells[4]) == result.cum_excess[0]

    m = portfolio_metrics(result.excess, result.portfolio)
    mpath = tmp_path / "pm.csv"
    write_metric_report(m, mpath)
    mlines = mpath.read_text().splitlines()
    assert mlines[0] == "metric,value"
    assert mlines[1].startswith("annualized_excess_return,")


def test_svg_chart_is_deterministic(tmp_path):
    ds, preds = hand_scenario()
    result = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1))
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    curves = [("model", result.dates, result.cum_excess)]
    write_curves_svg(a, curves)
    write_curves_svg(b, curves)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 1
    assert "model" in text
    assert "2020-01-02" in text and "2020-01-05" in text

    two = tmp_path / "two.svg"
    write_curves_svg(
        two,
        [("run_a", result.dates, result.cum_excess),
         ("run_b", result.dates, result.cum_excess * 1.01)],
    )
    assert two.read_text().count("<polyline") == 2
    with pytest.raises(DataError):
        write_curves_svg(tmp_path / "c.svg", [])
