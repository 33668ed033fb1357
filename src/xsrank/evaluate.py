"""Cross-sectional ranking metrics over a prediction series.

Daily Pearson and Spearman correlations between scores and realized
forward returns, aggregated into IC / ICIR / RankIC / RankICIR, plus
the same metrics restricted to instrument subgroups. Only `_correlations`
decides whether a day has a correlation, here and in `train`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PanelDataset, PredictionSeries, _write_rows
from .errors import ConfigError, DataError, check_kinds

MIN_SUBGROUP_SIZE = 5


@dataclass
class EvaluateSettings:
    """The membership, industry or region, whose categories are also scored."""

    group_by: str | None = None

    def __post_init__(self):
        check_kinds(self)
        if self.group_by not in (None, "industry", "region"):
            raise ConfigError("group_by must be industry or region")


def _pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Correlation of each row pair along the last axis, NaN where a side
    is constant or a sum overflows. A row's sums are the pairwise sums of
    a 1-D call on it, so stacking rows changes no bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        da = a - a.mean(axis=-1, keepdims=True)
        db = b - b.mean(axis=-1, keepdims=True)
        denom = np.sqrt((da * da).sum(axis=-1)) * np.sqrt((db * db).sum(axis=-1))
        num = (da * db).sum(axis=-1)
    defined = (denom != 0.0) & np.isfinite(denom) & np.isfinite(num)
    return np.divide(num, denom, out=np.full(num.shape, np.nan), where=defined)


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis; tied values share the average
    of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    # sorted positions i..j of one tie group all get (i + j) / 2 + 1
    first = np.ones(x.shape, dtype=bool)
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    last = np.ones(x.shape, dtype=bool)
    last[..., :-1] = first[..., 1:]
    pos = np.arange(x.shape[-1])
    starts = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
    ends = np.minimum.accumulate(np.where(last, pos, x.shape[-1])[..., ::-1], axis=-1)
    ranks = np.empty(x.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, (starts + ends[..., ::-1]) / 2.0 + 1.0, axis=-1)
    return ranks


def _correlations(pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """Pearson and Spearman correlation of each (a, b) 1-D pair, NaN for
    fewer than 2 values, a constant side or an overflowing sum. Pairs of
    one length are stacked, with the bits of one call per pair."""
    sizes = np.array([a.size for a, _ in pairs], dtype=np.intp)
    ic = np.full(len(pairs), np.nan)
    rank = np.full(len(pairs), np.nan)
    # np.unique would import numpy.ma, 1.1 MB of RSS that training never needed
    for m in sorted(set(sizes[sizes >= 2].tolist())):
        rows = np.flatnonzero(sizes == m)
        a = np.stack([pairs[k][0] for k in rows])
        b = np.stack([pairs[k][1] for k in rows])
        ic[rows] = _pearson_rows(a, b)
        rank[rows] = _pearson_rows(average_ranks(a), average_ranks(b))
    return ic, rank


@dataclass
class MetricReport:
    """IC-family summary; ratios use the sample (n-1) standard deviation."""

    ic: float
    icir: float
    rank_ic: float
    rank_icir: float
    daily_ic: list[tuple[str, float]]
    daily_rank_ic: list[tuple[str, float]]
    n_days: int
    n_excluded_days: int = 0
    flags: list[str] = field(default_factory=list)

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("ic", self.ic),
            ("icir", self.icir),
            ("rank_ic", self.rank_ic),
            ("rank_icir", self.rank_icir),
            ("n_days", float(self.n_days)),
            ("n_excluded_days", float(self.n_excluded_days)),
        ]


def _ratio(values: np.ndarray, name: str, flags: list[str]) -> float:
    """mean / sample std, flagged undefined on an overflow or a zero std."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std = float(values.std(ddof=1))
    if not (np.isfinite(mean) and np.isfinite(std)):
        flags.append(f"{name}_undefined_overflow")
        return float("nan")
    if std == 0.0:
        flags.append(f"{name}_undefined_zero_std")
        if mean > 0:
            return float("inf")
        if mean < 0:
            return float("-inf")
        return float("nan")
    return mean / std


def _reports(preds: PredictionSeries, t: np.ndarray, i: np.ndarray,
             col_sets: list[np.ndarray], ds: PanelDataset) -> list:
    """Daily correlations over each set of grid columns, ascending: one
    MetricReport per set, or the DataError of a set with fewer than 2
    valid dates.

    `t` and `i` are the grid's panel positions. A date without a scored
    cell in a set, or on which no panel instrument has an observed label
    (such as the final panel date), is neither evaluated nor counted as
    excluded. Every other date's jointly observed pair goes to one
    `_correlations` call, and counts as excluded if either is NaN.
    """
    pairs, owner, dates = [], [], []
    labelled = ds.observed_mask.any(axis=1)
    for s, cols in enumerate(col_sets):
        for d, row in enumerate(preds.scores[:, cols]):
            scored = np.isfinite(row)
            if not scored.any() or not labelled[t[d]]:
                continue
            actual = ds.labels[t[d], i[cols[scored]]]
            joint = np.isfinite(actual)
            pairs.append((row[scored][joint], actual[joint]))
            owner.append(s)
            dates.append(preds.dates[d])
    ic, rank = _correlations(pairs)
    owner = np.array(owner, dtype=np.intp)
    valid = ~(np.isnan(ic) | np.isnan(rank))
    excluded = np.bincount(owner[~valid], minlength=len(col_sets))

    out = []
    for s in range(len(col_sets)):
        days = np.flatnonzero(valid & (owner == s))
        if days.size < 2:
            out.append(DataError(f"need at least 2 valid evaluation dates, got {days.size}"))
            continue
        flags: list[str] = []
        ic_values, rank_values = ic[days], rank[days]
        out.append(MetricReport(
            ic=float(ic_values.mean()),
            icir=_ratio(ic_values, "icir", flags),
            rank_ic=float(rank_values.mean()),
            rank_icir=_ratio(rank_values, "rank_icir", flags),
            daily_ic=[(dates[k], v) for k, v in zip(days.tolist(), ic_values.tolist())],
            daily_rank_ic=[(dates[k], v) for k, v in zip(days.tolist(), rank_values.tolist())],
            n_days=int(days.size),
            n_excluded_days=int(excluded[s]),
            flags=flags,
        ))
    return out


def summarize(preds: PredictionSeries, ds: PanelDataset) -> MetricReport:
    """Daily correlations of scores against the panel's forward returns.

    A date enters only when at least two instruments are jointly scored
    and observed and neither side is degenerate; exclusions are counted.
    The first scored pair outside the panel, in (date, instrument)
    order, raises DataError naming its date, or else its instrument
    (`PredictionSeries.panel_positions`).
    """
    t, i = preds.panel_positions(ds)
    (report,) = _reports(preds, t, i, [np.arange(len(preds.instruments))], ds)
    if isinstance(report, DataError):
        raise report
    return report


def subgroup_metrics(
    preds: PredictionSeries,
    ds: PanelDataset,
    grouping: dict[str, str],
) -> dict[str, MetricReport | DataError | None]:
    """Per-category reports on the restricted cross-section.

    A category averaging fewer than 5 jointly-observed stocks per
    labelled date is None (the final panel date, with no label, does not
    thin it); one with fewer than 2 valid dates gets the DataError
    `summarize` would raise. Instruments missing from the grouping are
    skipped. A scored pair outside the panel is refused, as `summarize`
    refuses it.
    """
    categories = sorted(set(grouping.values()))
    code = {cat: k for k, cat in enumerate(categories)}
    col_cat = np.array([code.get(grouping.get(s), -1) for s in preds.instruments],
                       dtype=np.intp)
    t, i = preds.panel_positions(ds)
    observed = np.isfinite(preds.scores) & np.isfinite(ds.labels[np.ix_(t, i)])
    labelled = ds.observed_mask.any(axis=1)[t]

    out: dict[str, MetricReport | DataError | None] = {}
    judged = []
    for k, cat in enumerate(categories):
        cols = np.flatnonzero(col_cat == k)
        out[cat] = None
        counts = observed[np.ix_(labelled, cols)].sum(axis=1)
        if not counts.size or float(np.mean(counts)) < MIN_SUBGROUP_SIZE:
            continue
        judged.append((cat, cols))
    out.update(zip([cat for cat, _ in judged],
                   _reports(preds, t, i, [cols for _, cols in judged], ds)))
    return out


def write_metric_report(report, path) -> None:
    """One metric,value row per entry of `report.rows()`, then one
    flag row per flag: the layout of both metrics.csv (a MetricReport)
    and portfolio_metrics.csv (a backtest.PortfolioMetrics)."""
    _write_rows(path, ["metric", "value"],
                [*report.rows(), *(("flag", f) for f in report.flags)])


def write_daily_metrics(report: MetricReport, path) -> None:
    """One datetime,ic,rank_ic row per evaluated date."""
    _write_rows(path, ["datetime", "ic", "rank_ic"],
                ((day, ic, rank)
                 for (day, ic), (_, rank) in zip(report.daily_ic, report.daily_rank_ic)))
