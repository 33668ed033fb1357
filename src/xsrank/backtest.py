"""TopKDropout long-only backtest over a prediction series.

Each day the strategy ranks its holdings by that day's scores, sells
the worst few, and refills from the highest-scored names it does not
hold, keeping K equal-weighted positions. Scores dated t earn the
t -> t+1 returns, so there is no lookahead by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PanelDataset, PredictionSeries, _read_dated, _write_tables, format_float
from .errors import ConfigError, DataError, check_kinds
from .evaluate import _ratio

TRADING_DAYS = 252
BACKTEST_HEADER = ["datetime", "portfolio_ret", "benchmark_ret", "excess_ret", "cum_excess"]


@dataclass
class StrategyConfig:
    """Holdings count K, per-day turnover N_drop, one-way cost in bps."""

    k: int
    n_drop: int
    cost_bps: float = 0.0

    def __post_init__(self):
        check_kinds(self)
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 1 <= self.n_drop <= self.k:
            raise ConfigError("n_drop must satisfy 1 <= n_drop <= k")
        if self.cost_bps < 0:
            raise ConfigError("cost_bps must be >= 0")


def topk_dropout_rebalance(scores: np.ndarray, held: np.ndarray,
                           cfg: StrategyConfig) -> np.ndarray:
    """One rebalance step: the book after trading on one grid row.

    `scores` is the row, NaN where a column is unscored, and `held` the
    [M] bool book over the same columns. Held names without a score
    rank below every scored name, so the dropout pushes them out first.
    Just-sold names sit in the same buy pool as everyone else and
    re-enter only on score merit. All ties break toward the lower
    column, which is the lower instrument id.
    """
    scored = np.isfinite(scores)
    target = min(cfg.k, int(np.count_nonzero(scored)))
    cols = np.flatnonzero(held)
    # worst last: scored first, then score descending, then column
    ranked = cols[np.lexsort((cols, np.where(scored, -scores, 0.0)[cols], ~scored[cols]))]
    # a book short of its target sells n_drop less the free slots
    n_sell = min(len(cols), max(0, cfg.n_drop - max(0, target - len(cols))))
    n_kept = len(cols) - n_sell
    new = np.zeros_like(held)
    new[ranked[:n_kept]] = True
    pool = np.flatnonzero(scored & ~new)
    pool = pool[np.argsort(-scores[pool], kind="stable")]
    new[pool[:max(0, target - n_kept)]] = True
    return new


@dataclass
class BacktestResult:
    """Daily series keyed by return day, plus the holdings ledger.

    `holdings_ledger` records, per score date, the post-rebalance book
    that earns the following day's returns. `cum_excess` compounds the
    excess series from a 1.0 baseline.
    """

    dates: list[str]
    portfolio: np.ndarray
    benchmark: np.ndarray
    excess: np.ndarray
    cum_excess: np.ndarray
    turnover: np.ndarray
    holdings_ledger: list[tuple[str, tuple[str, ...]]]
    flags: list[str] = field(default_factory=list)

    def write_csv(self, path) -> None:
        _write_tables((path, BACKTEST_HEADER, [(self.dates, np.arange(len(self.dates)))],
                       np.c_[self.portfolio, self.benchmark, self.excess, self.cum_excess]))


def read_backtest_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Dates, portfolio returns and compounded excess of a backtest.csv.

    Every return day is a calendar day, unique and ascending, and every
    number is present and finite, as in factors.csv.
    """
    dates, table = _read_dated(path, BACKTEST_HEADER)
    return dates, table[:, 0].copy(), table[:, 3].copy()


def run_backtest(
    preds: PredictionSeries,
    ds: PanelDataset,
    cfg: StrategyConfig,
) -> BacktestResult:
    """Simulate the strategy over every scored date with a next day.

    A scored pair outside the panel is refused, on any date, as
    `evaluate.summarize` refuses it. The benchmark is the equal-weighted
    mean return of the observed universe. A held name with no realized
    return freezes at zero for that day and is flagged. A day's turnover
    is the number of names that entered or left the book over k, and
    costs turnover * cost_bps / 1e4.
    """
    t_pos, i_pos = preds.panel_positions(ds)
    names = np.array(preds.instruments, dtype=object)
    observed = ds.observed_mask

    held = np.zeros(len(names), dtype=bool)
    dates_out: list[str] = []
    port_out: list[float] = []
    bench_out: list[float] = []
    turnover_out: list[float] = []
    ledger: list[tuple[str, tuple[str, ...]]] = []
    flags: list[str] = []

    for d, date in enumerate(preds.dates):
        t = t_pos[d]
        if t + 1 >= len(ds.dates):
            continue  # nothing left to earn after the final panel date
        prev = held
        held = topk_dropout_rebalance(preds.scores[d], held, cfg)
        cols = np.flatnonzero(held)
        n_scored = int(np.count_nonzero(np.isfinite(preds.scores[d])))
        if n_scored < cfg.k:
            flags.append(f"{date}: only {n_scored} scored names, holding {len(cols)}")
        ledger.append((date, tuple(names[cols])))

        # a name sold and bought back the same day leaves the book as it was
        day_turnover = np.count_nonzero(held ^ prev) / cfg.k
        earns = observed[t, i_pos[cols]]
        flags += [f"{date}: no realized return for {inst}, frozen" for inst in names[cols[~earns]]]
        weight = 1.0 / len(cols)
        # summed one name at a time in column order: np.sum's pairwise
        # order would move the last bits once more than 8 names are held
        ret = 0.0
        for label in ds.labels[t, i_pos[cols[earns]]]:
            ret += weight * label
        ret -= day_turnover * cfg.cost_bps / 1e4

        realized = ds.labels[t][observed[t]]
        if realized.size == 0:
            raise DataError(f"no realized returns on {date}")

        dates_out.append(ds.dates[t + 1])
        port_out.append(ret)
        bench_out.append(float(realized.mean()))
        turnover_out.append(day_turnover)

    if not dates_out:
        raise DataError("no scored date has a following return day")
    portfolio = np.array(port_out)
    bench_arr = np.array(bench_out)
    excess = portfolio - bench_arr
    return BacktestResult(
        dates=dates_out,
        portfolio=portfolio,
        benchmark=bench_arr,
        excess=excess,
        cum_excess=np.cumprod(1.0 + excess),
        turnover=np.array(turnover_out),
        holdings_ledger=ledger,
        flags=flags,
    )


@dataclass
class PortfolioMetrics:
    """Annualized excess statistics; flags mark undefined ratios."""

    ar: float
    ir: float
    md: float
    cr: float
    sharpe: float
    calmar: float
    flags: list[str] = field(default_factory=list)

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("annualized_excess_return", self.ar),
            ("information_ratio", self.ir),
            ("max_drawdown", self.md),
            ("cumulative_return", self.cr),
            ("sharpe", self.sharpe),
            ("calmar", self.calmar),
        ]


def _finite(value: float, name: str, flags: list[str]) -> float:
    """`value`, or NaN flagged `{name}_undefined_overflow` if it overflowed."""
    if np.isfinite(value):
        return value
    flags.append(f"{name}_undefined_overflow")
    return float("nan")


def portfolio_metrics(
    excess: np.ndarray, portfolio: np.ndarray
) -> PortfolioMetrics:
    """AR, IR, and drawdown facts of the daily excess series.

    AR annualizes arithmetically (x252); the drawdown runs on the
    compounded excess curve from a 1.0 baseline; CR compounds the raw
    portfolio returns; Sharpe applies the IR formula to raw portfolio
    returns with a zero risk-free rate. A metric whose arithmetic
    overflows is NaN and flagged, as `_ratio` does for IR and Sharpe.
    """
    excess = np.asarray(excess, dtype=np.float64)
    portfolio = np.asarray(portfolio, dtype=np.float64)
    if excess.size < 2 or portfolio.size != excess.size:
        raise DataError("need at least 2 aligned daily returns")
    flags: list[str] = []

    with np.errstate(over="ignore", invalid="ignore"):
        ar = _finite(float(excess.mean()) * TRADING_DAYS, "annualized_excess_return", flags)
        ir = _ratio(excess, "information_ratio", flags) * np.sqrt(TRADING_DAYS)
        sharpe = _ratio(portfolio, "sharpe", flags) * np.sqrt(TRADING_DAYS)

        curve = np.cumprod(1.0 + excess)
        peak = np.maximum.accumulate(np.concatenate(([1.0], curve)))[1:]
        md = _finite(float(np.min(curve / peak - 1.0)), "max_drawdown", flags)
        cr = _finite(float(np.prod(1.0 + portfolio) - 1.0), "cumulative_return", flags)
    if md == 0.0:
        flags.append("calmar_undefined_zero_drawdown")
        calmar = float("inf") if ar > 0 else (float("-inf") if ar < 0 else float("nan"))
    else:
        calmar = _finite(ar / abs(md), "calmar", flags)
    return PortfolioMetrics(ar=ar, ir=ir, md=md, cr=cr, sharpe=sharpe,
                            calmar=calmar, flags=flags)


SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def write_curves_svg(path, curves: list[tuple[str, list[str], np.ndarray]],
                     title: str = "cumulative excess return") -> None:
    """Minimal deterministic line chart: one polyline per labeled curve.

    curves is a list of (label, dates, values); all floats go through
    the shortest round-trip formatter so reruns are byte-identical. A
    curve too large for the y scale to stay finite raises DataError
    naming it, before anything is written.
    """
    if not curves:
        raise DataError("nothing to plot")
    width, height = 860.0, 420.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    lo = min(float(np.min(v)) for _, _, v in curves)
    hi = max(float(np.max(v)) for _, _, v in curves)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    # every y offset is at most plot_h * (hi - lo), so a finite bound
    # keeps every coordinate finite
    if not np.isfinite(plot_h * (hi - lo)):
        label, _, values = max(curves, key=lambda c: float(np.max(np.abs(c[2]))))
        big = float(values[np.argmax(np.abs(values))])
        raise DataError(f"{path}: cannot scale the chart to curve {label!r}, "
                        f"whose largest value is {big!r}")

    def x_at(i, n):
        if n == 1:
            return left + plot_w / 2.0
        return left + plot_w * i / (n - 1)

    def y_at(v):
        return top + plot_h * (hi - v) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{format_float(width)}" '
        f'height="{format_float(height)}" '
        f'viewBox="0 0 {format_float(width)} {format_float(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{format_float(left)}" y="24" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<line x1="{format_float(left)}" y1="{format_float(top)}" '
        f'x2="{format_float(left)}" y2="{format_float(top + plot_h)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{format_float(left)}" y1="{format_float(top + plot_h)}" '
        f'x2="{format_float(left + plot_w)}" y2="{format_float(top + plot_h)}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="8" y="{format_float(y_at(hi - pad) + 4)}" '
        f'font-family="monospace" font-size="11">{format_float(round(hi - pad, 4))}</text>',
        f'<text x="8" y="{format_float(y_at(lo + pad) + 4)}" '
        f'font-family="monospace" font-size="11">{format_float(round(lo + pad, 4))}</text>',
    ]
    longest = max(curves, key=lambda c: len(c[1]))
    if longest[1]:
        parts.append(
            f'<text x="{format_float(left)}" y="{format_float(height - 12)}" '
            f'font-family="monospace" font-size="11">{longest[1][0]}</text>'
        )
        parts.append(
            f'<text x="{format_float(left + plot_w - 80)}" '
            f'y="{format_float(height - 12)}" font-family="monospace" '
            f'font-size="11">{longest[1][-1]}</text>'
        )
    for idx, (label, dates, values) in enumerate(curves):
        color = SVG_COLORS[idx % len(SVG_COLORS)]
        pts = " ".join(
            f"{format_float(round(x_at(i, len(values)), 2))},"
            f"{format_float(round(y_at(float(v)), 2))}"
            for i, v in enumerate(values)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        ly = top + 16.0 * idx
        parts.append(
            f'<line x1="{format_float(left + plot_w - 150)}" '
            f'y1="{format_float(ly)}" x2="{format_float(left + plot_w - 120)}" '
            f'y2="{format_float(ly)}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{format_float(left + plot_w - 112)}" '
            f'y="{format_float(ly + 4)}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
