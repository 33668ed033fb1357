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


def _row_positions(preds: PredictionSeries, ds: PanelDataset):
    """Panel date and instrument positions of every prediction row (-1
    where the panel lacks it) and the scores, in row order."""
    date_index = {d: i for i, d in enumerate(ds.dates)}
    inst_index = {s: i for i, s in enumerate(ds.instruments)}
    t = np.array([date_index.get(d, -1) for d, _, _ in preds.rows], dtype=np.intp)
    i = np.array([inst_index.get(s, -1) for _, s, _ in preds.rows], dtype=np.intp)
    scores = np.array([s for _, _, s in preds.rows], dtype=np.float64)
    return t, i, scores


def _report(t: np.ndarray, i: np.ndarray, scores: np.ndarray,
            ds: PanelDataset) -> MetricReport:
    """Daily correlations over rows at panel cells (t, i), sorted by date
    and then instrument, as a PredictionSeries keeps them."""
    daily_ic: list[tuple[str, float]] = []
    daily_rank: list[tuple[str, float]] = []
    excluded = 0
    starts = np.flatnonzero(np.diff(t, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [t.size]):
        day, cols = t[lo], i[lo:hi]
        actual = ds.labels[day, cols]
        joint = ds.observed_mask[day, cols] & np.isfinite(actual)
        if joint.sum() < 2:
            excluded += 1
            continue
        a = scores[lo:hi][joint]
        b = actual[joint]
        ic = pearson(a, b)
        rank = spearman(a, b)
        if ic is None or rank is None:
            excluded += 1
            continue
        daily_ic.append((ds.dates[day], ic))
        daily_rank.append((ds.dates[day], rank))

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


def summarize(preds: PredictionSeries, ds: PanelDataset) -> MetricReport:
    """Daily correlations of scores against the panel's forward returns.

    A date enters only when at least two instruments are jointly scored
    and observed and neither side is degenerate; exclusions are counted.
    """
    t, i, scores = _row_positions(preds, ds)
    unknown = np.flatnonzero((t < 0) | (i < 0))
    if unknown.size:
        date, inst, _ = preds.rows[unknown[0]]
        if t[unknown[0]] < 0:
            raise DataError(f"prediction date {date} not in the panel")
        raise DataError(f"prediction instrument {inst} not in the panel")
    return _report(t, i, scores, ds)


def subgroup_metrics(
    preds: PredictionSeries,
    ds: PanelDataset,
    grouping: dict[str, str],
) -> dict[str, MetricReport | None]:
    """Per-category reports on the restricted cross-section.

    A category averaging fewer than 5 jointly-observed stocks per
    prediction date is marked absent (None), as is one without enough
    valid dates or with a row outside the panel. Instruments missing
    from the grouping are skipped.
    """
    categories = sorted(set(grouping.values()))
    code = {cat: k for k, cat in enumerate(categories)}
    row_cat = np.array([code.get(grouping.get(s), -1) for _, s, _ in preds.rows],
                       dtype=np.intp)
    t, i, scores = _row_positions(preds, ds)
    dates = preds.dates()
    date_pos = {d: k for k, d in enumerate(dates)}
    row_date = np.array([date_pos[d] for d, _, _ in preds.rows], dtype=np.intp)
    known = (t >= 0) & (i >= 0)
    observed = np.zeros(t.size, dtype=bool)
    observed[known] = ds.observed_mask[t[known], i[known]]

    # one stable split of the rows by category keeps each group in row order
    order = np.argsort(row_cat, kind="stable")
    bounds = np.searchsorted(row_cat[order], np.arange(len(categories) + 1))
    out: dict[str, MetricReport | None] = {}
    for k, cat in enumerate(categories):
        rows = order[bounds[k]: bounds[k + 1]]
        if not rows.size:
            out[cat] = None
            continue
        counts = np.bincount(row_date[rows][observed[rows]], minlength=len(dates))
        if float(np.mean(counts)) < MIN_SUBGROUP_SIZE or not known[rows].all():
            out[cat] = None
            continue
        try:
            out[cat] = _report(t[rows], i[rows], scores[rows], ds)
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
