"""Cross-sectional ranking metrics over a prediction series.

Daily Pearson and Spearman correlations between scores and realized
forward returns, aggregated into IC / ICIR / RankIC / RankICIR, plus
the same metrics restricted to instrument subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PanelDataset, PredictionSeries, _write_rows, format_float
from .errors import DataError

MIN_SUBGROUP_SIZE = 5


def pearson(a: np.ndarray, b: np.ndarray):
    """Correlation, or None when either side has zero variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2:
        return None
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum()) * np.sqrt((db * db).sum())
    if denom == 0.0:
        return None
    return float((da * db).sum() / denom)


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # sorted positions i..j of one tie group all get (i + j) / 2 + 1
    new_group = np.empty(x.size, dtype=bool)
    new_group[:1] = True
    new_group[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], x.size) - 1
    group = np.cumsum(new_group) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = ((starts + ends) / 2.0 + 1.0)[group]
    return ranks


def spearman(a: np.ndarray, b: np.ndarray):
    """Pearson on average ranks; None when either side is all ties."""
    if np.asarray(a).size < 2:
        return None
    return pearson(average_ranks(a), average_ranks(b))


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
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    if std == 0.0:
        flags.append(f"{name}_undefined_zero_std")
        if mean > 0:
            return float("inf")
        if mean < 0:
            return float("-inf")
        return float("nan")
    return mean / std


def _report(preds: PredictionSeries, t: np.ndarray, i: np.ndarray,
            cols: np.ndarray, ds: PanelDataset) -> MetricReport:
    """Daily correlations over the grid columns `cols`, ascending.

    `t` and `i` are the grid's panel positions; every scored cell in
    `cols` must be in the panel. A date without a scored cell there, or
    on which no panel instrument has an observed label (such as the
    final panel date), is neither evaluated nor counted as excluded.
    """
    daily_ic: list[tuple[str, float]] = []
    daily_rank: list[tuple[str, float]] = []
    excluded = 0
    for d, row in enumerate(preds.scores[:, cols]):
        scored = np.isfinite(row)
        if not scored.any() or not ds.observed_mask[t[d]].any():
            continue
        day, pos = t[d], i[cols[scored]]
        actual = ds.labels[day, pos]
        joint = ds.observed_mask[day, pos] & np.isfinite(actual)
        if joint.sum() < 2:
            excluded += 1
            continue
        a = row[scored][joint]
        b = actual[joint]
        ic = pearson(a, b)
        rank = spearman(a, b)
        if ic is None or rank is None:
            excluded += 1
            continue
        daily_ic.append((preds.dates[d], ic))
        daily_rank.append((preds.dates[d], rank))

    if len(daily_ic) < 2:
        raise DataError(
            f"need at least 2 valid evaluation dates, got {len(daily_ic)}"
        )
    flags: list[str] = []
    ic_values = np.array([v for _, v in daily_ic])
    rank_values = np.array([v for _, v in daily_rank])
    return MetricReport(
        ic=float(ic_values.mean()),
        icir=_ratio(ic_values, "icir", flags),
        rank_ic=float(rank_values.mean()),
        rank_icir=_ratio(rank_values, "rank_icir", flags),
        daily_ic=daily_ic,
        daily_rank_ic=daily_rank,
        n_days=len(daily_ic),
        n_excluded_days=excluded,
        flags=flags,
    )


def _outside(preds: PredictionSeries, t: np.ndarray, i: np.ndarray) -> np.ndarray:
    """[D, M] mask of the scored cells whose date or instrument is not
    in the panel."""
    return np.isfinite(preds.scores) & ((t < 0)[:, None] | (i < 0))


def summarize(preds: PredictionSeries, ds: PanelDataset) -> MetricReport:
    """Daily correlations of scores against the panel's forward returns.

    A date enters only when at least two instruments are jointly scored
    and observed and neither side is degenerate; exclusions are counted.
    The first scored pair outside the panel, in (date, instrument)
    order, raises DataError naming its date, or else its instrument.
    """
    t, i = preds.panel_positions(ds)
    outside = _outside(preds, t, i)
    if outside.any():
        d, k = np.unravel_index(np.argmax(outside), outside.shape)
        if t[d] < 0:
            raise DataError(f"prediction date {preds.dates[d]} not in the panel")
        raise DataError(f"prediction instrument {preds.instruments[k]} not in the panel")
    return _report(preds, t, i, np.arange(len(preds.instruments)), ds)


def subgroup_metrics(
    preds: PredictionSeries,
    ds: PanelDataset,
    grouping: dict[str, str],
) -> dict[str, MetricReport | None]:
    """Per-category reports on the restricted cross-section.

    A category averaging fewer than 5 jointly-observed stocks per
    prediction date is marked absent (None), as is one without enough
    valid dates or with a scored pair outside the panel. The average
    runs over the dates that observe some label in the panel, so the
    final panel date, which never has one, does not thin it.
    Instruments missing from the grouping are skipped.
    """
    categories = sorted(set(grouping.values()))
    code = {cat: k for k, cat in enumerate(categories)}
    col_cat = np.array([code.get(grouping.get(s), -1) for s in preds.instruments],
                       dtype=np.intp)
    t, i = preds.panel_positions(ds)
    outside = _outside(preds, t, i)
    dd, kk = np.nonzero(np.isfinite(preds.scores) & ~outside)
    observed = np.zeros(outside.shape, dtype=bool)
    observed[dd, kk] = ds.observed_mask[t[dd], i[kk]]
    labelled = ds.observed_mask[t].any(axis=1) & (t >= 0)

    out: dict[str, MetricReport | None] = {}
    for k, cat in enumerate(categories):
        cols = np.flatnonzero(col_cat == k)
        if not np.isfinite(preds.scores[:, cols]).any():
            out[cat] = None
            continue
        counts = observed[np.ix_(labelled, cols)].sum(axis=1)
        if (not counts.size or float(np.mean(counts)) < MIN_SUBGROUP_SIZE
                or outside[:, cols].any()):
            out[cat] = None
            continue
        try:
            out[cat] = _report(preds, t, i, cols, ds)
        except DataError:
            out[cat] = None
    return out


def _format_metric(v: float) -> str:
    if np.isfinite(v):
        return format_float(v)
    if np.isnan(v):
        return "nan"
    return "inf" if v > 0 else "-inf"


def write_metric_report(report: MetricReport, path) -> None:
    rows = [[name, _format_metric(value)] for name, value in report.rows()]
    for flag in report.flags:
        rows.append(["flag", flag])
    _write_rows(path, ["metric", "value"], rows)


def write_daily_metrics(report: MetricReport, path) -> None:
    rank_by_date = dict(report.daily_rank_ic)
    rows = [
        [date, format_float(ic), format_float(rank_by_date[date])]
        for date, ic in report.daily_ic
    ]
    _write_rows(path, ["datetime", "ic", "rank_ic"], rows)
