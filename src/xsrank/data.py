"""Panel data IO: feature/price/membership/factor CSVs, VWAP labels,
windowing, and a seeded synthetic market generator with planted structure.

All files are UTF-8 with LF line endings and ISO-8601 dates. Floats are
written in shortest round-trip positional notation: the digits of `repr`,
never exponent notation, so a load/write cycle of canonical files is
byte-identical. Writers work a whole column or day at a time. Every reader
streams its file through `_read_table` in blocks of at most CHUNK_CELLS
cells, so a loader holds its output arrays and one block of rows, however
long the file is, and of several faults reports the one on the earliest
line.

A file the program reads back (features, prices, predictions, factors,
backtest.csv, the checkpoint) refuses a non-finite number; a report table,
written by `_write_rows`, writes it as nan, inf or -inf.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date as _date, timedelta
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError, check_kinds
from .graphs import RelationGraphs, build_relation_graphs

FEATURE_PREFIX = "f"
PRICES_HEADER = ["datetime", "instrument", "price", "volume"]
MEMBERSHIP_HEADER = ["instrument", "category"]
FACTORS_HEADER = ["datetime", "rf", "mktrf", "smb", "hml", "rmw", "cma"]
PREDICTIONS_HEADER = ["datetime", "instrument", "score"]
FACTOR_NAMES = ["mktrf", "smb", "hml", "rmw", "cma"]
# cells per block a reader parses at once: counting cells, not rows, keeps
# the bound on a panel with many feature columns
CHUNK_CELLS = 1 << 11


def format_floats(values) -> list[str]:
    """Shortest decimal strings that round-trip to the same fp64 values.

    `repr` gives the shortest round-trip digits but switches to exponent
    notation below 1e-4 and from 1e16; only those strings are redone
    positionally. Raises DataError on the first non-finite value.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(arr)
    if not finite.all():
        bad = float(arr[np.argmin(finite)])
        raise DataError(f"refusing to write non-finite value {bad!r}")
    out = list(map(repr, arr.tolist()))
    if "e" in "".join(out):
        out = [
            np.format_float_positional(v, unique=True, trim="0") if "e" in s else s
            for s, v in zip(out, arr)
        ]
    return out


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same fp64."""
    return format_floats([v])[0]


def _write_lines(path, header, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _cell(value) -> str:
    """A report-table cell: a str as is, None empty, an int in decimal, a
    finite float in `format_float` digits and any other as nan, inf or
    -inf. A bool, or a value of any other type, is refused, so no table
    reads True."""
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cannot write {value!r} as a table cell")
    if isinstance(value, int) or not np.isfinite(value):
        return str(value)
    return format_float(value)


def _write_rows(path, header, rows):
    _write_lines(path, header, (",".join(map(_cell, row)) for row in rows))


def _is_day(s: str) -> bool:
    """True for a real calendar day written YYYY-MM-DD."""
    try:
        return _date.fromisoformat(s).isoformat() == s
    except ValueError:
        return False


def _check_day(name: str, day: str | None) -> None:
    """Refuse a day-valued setting `name` that is set and not a day."""
    if day is not None and not _is_day(day):
        raise ConfigError(f"{name} {day!r} is not a YYYY-MM-DD day")


def _floats(cells: list[str]) -> tuple[np.ndarray, int]:
    """The number cells as floats, an empty or blank cell as NaN, up to
    the first one that does not parse, and that cell's index (len(cells)
    when all parse)."""
    try:
        return np.array(list(map(float, cells)), dtype=np.float64), len(cells)
    except ValueError:
        pass
    values = []
    for raw in cells:
        try:
            values.append(float(raw))
        except ValueError:
            if raw.strip():
                break
            values.append(float("nan"))
    return np.array(values, dtype=np.float64), len(values)


def _read_table(path, header, keys: int, days: bool = False, keep=None):
    """Stream the data rows of a CSV file in blocks of at most CHUNK_CELLS
    cells, or of one row when a row is wider than that.

    The first `keys` columns of a row are strings and the rest numbers.
    A row is faulty if it has the wrong width; failing that, if a number
    cell does not parse; failing that, with `days`, if its first cell is
    not a YYYY-MM-DD calendar day. `keep`, if given, drops the well-formed
    rows it is false for before their numbers are parsed.

    Yields (line numbers, rows, [rows, numbers] floats, fault) per block:
    the kept rows before the first faulty one, and that row's DataError,
    or None. A block with a fault is the last. The file's first row must
    equal `header`; with `header=None` that row is yielded first,
    unchecked, for the caller to check, and a ragged row is reported with
    its own width.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise DataError(f"{path}: empty file")
            if header is None:
                yield found
            elif found != header:
                raise DataError(
                    f"{path}: header {found!r} does not match expected {header!r}"
                )
            width, n_num = len(found), len(found) - keys
            size = max(1, CHUNK_CELLS // max(1, width))
            known_days: set[str] = set()
            line = 2
            while block := list(islice(reader, size)):
                fault = None
                n = next((k for k, row in enumerate(block) if len(row) != width), len(block))
                if n < len(block):
                    fault = (line + n, f"expected {width} columns" if header is not None else
                             f"ragged row of {len(block[n])} columns")
                lines, rows = range(line, line + n), block[:n]
                if keep is not None:
                    lines = [k for k in lines if keep(block[k - line])]
                    rows = [block[k - line] for k in lines]
                # one number column (predictions) needs no per-row slice
                cells = ([row[keys] for row in rows] if n_num == 1 else
                         [v for row in rows for v in row[keys:]])
                values, n_cells = _floats(cells)
                if n_cells < len(cells):
                    n = n_cells // n_num
                    fault = (lines[n], f"unparseable number {cells[n_cells].strip()!r}")
                else:
                    n = len(rows)
                if days:
                    fresh = {row[0] for row in rows[:n]} - known_days
                    bad = {d for d in fresh if not _is_day(d)}
                    known_days |= fresh
                    if bad:
                        n = next(k for k, row in enumerate(rows) if row[0] in bad)
                        fault = (lines[n], f"date {rows[n][0]!r} is not a YYYY-MM-DD day")
                yield (lines[:n], rows[:n], values[: n * n_num].reshape(n, n_num),
                       fault and DataError(f"{path}: line {fault[0]}: {fault[1]}"))
                if fault:
                    return
                line += len(block)
    except (OSError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _write_dated(path, header, dates: list[str], columns) -> None:
    """Write the table `_read_dated` reads: per day, the day and then one
    number from each of `columns`."""
    cells = format_floats(np.column_stack(columns))
    width = len(columns)
    _write_lines(path, header, (",".join([day, *cells[t * width: (t + 1) * width]])
                                for t, day in enumerate(dates)))


def _read_dated(path, header) -> tuple[list[str], np.ndarray]:
    """The days and [days, numbers] table of a CSV keyed by its first
    column. Refuses, besides `_read_table`'s faults, a missing or
    non-finite number and days that are not unique and ascending."""
    dates, blocks = [], [np.empty((0, len(header) - 1))]
    for lines, rows, values, fault in _read_table(path, header, keys=1, days=True):
        missing = np.flatnonzero(~np.isfinite(values))
        if missing.size:
            row, col = divmod(int(missing[0]), values.shape[1])
            raise DataError(f"{path}: line {lines[row]}: missing {header[1 + col]}")
        if fault is not None:
            raise fault
        dates += [row[0] for row in rows]
        blocks.append(values)
    if dates != sorted(set(dates)):
        raise DataError(f"{path}: dates must be unique and ascending")
    return dates, np.concatenate(blocks)


class _Coder:
    """Integer codes for the distinct strings of a column read in blocks,
    numbered in order of first appearance. Each distinct string is held
    once, however many rows repeat it."""

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}

    def __call__(self, column: list[str]) -> np.ndarray:
        code = self._code
        for name in dict.fromkeys(column):
            if name not in code:
                code[name] = len(self.names)
                self.names.append(name)
        return np.fromiter(map(code.__getitem__, column), dtype=np.int32, count=len(column))

    def ranked(self) -> tuple[list[str], np.ndarray]:
        """The distinct strings sorted, and each code's position among them."""
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return [self.names[k] for k in order], rank


def _positions(names: list[str], universe: list[str]) -> np.ndarray:
    """Position of each name in `universe`, -1 where it is absent."""
    pos = {name: k for k, name in enumerate(universe)}
    return np.fromiter((pos.get(name, -1) for name in names), dtype=np.intp,
                       count=len(names))


def _frozen(mask: np.ndarray) -> np.ndarray:
    """`mask`, read-only: a write into a derived mask raises."""
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class PanelDataset:
    """Aligned panel of features, VWAP prices and the labels they give.

    labels[t, i] is the t -> t+1 return, so the final date is always
    unobserved. Which cells count is read off the arrays, never stored
    beside them: a cell is observed (in the loss set) when its label is
    finite and present when it has a price at t. `dropped_instruments`
    lists the names a loader left out of the universe.
    """

    dates: list[str]
    instruments: list[str]
    features: np.ndarray       # [D, N, F]
    labels: np.ndarray         # [D, N], NaN where missing
    vwap: np.ndarray           # [D, N], NaN where missing
    volume: np.ndarray         # [D, N], NaN where missing
    dropped_instruments: list[str] = field(default_factory=list)

    def __post_init__(self):
        if list(self.dates) != sorted(set(self.dates)):
            raise DataError("dates must be strictly increasing and unique")
        if len(set(self.instruments)) != len(self.instruments):
            raise DataError("instruments must be unique")
        d, n = len(self.dates), len(self.instruments)
        if self.features.shape[:2] != (d, n) or self.features.ndim != 3:
            raise DataError(f"features shape {self.features.shape} != [{d},{n},F]")
        for name in ("labels", "vwap", "volume"):
            arr = getattr(self, name)
            if arr.shape != (d, n):
                raise DataError(f"{name} shape {arr.shape} != [{d},{n}]")

    @property
    def n_features(self) -> int:
        return self.features.shape[2]

    @property
    def observed_mask(self) -> np.ndarray:
        """[D, N] read-only: the cells with a finite label."""
        return _frozen(np.isfinite(self.labels))

    @property
    def present_mask(self) -> np.ndarray:
        """[D, N] read-only: the cells with a price."""
        return _frozen(np.isfinite(self.vwap))


@dataclass
class FactorSeries:
    """Daily factor returns and the risk-free rate."""

    dates: list[str]
    risk_free: np.ndarray           # [D]
    factors: dict[str, np.ndarray]  # name -> [D]

    def __post_init__(self):
        d = len(self.dates)
        if self.risk_free.shape != (d,):
            raise DataError("risk_free length does not match dates")
        for name in FACTOR_NAMES:
            if name not in self.factors:
                raise DataError(f"factor column {name!r} missing")
            if self.factors[name].shape != (d,):
                raise DataError(f"factor {name!r} length does not match dates")
            if not np.isfinite(self.factors[name]).all():
                raise DataError(f"factor {name!r} has missing values")
        if not np.isfinite(self.risk_free).all():
            raise DataError("risk_free has missing values")


class PredictionSeries:
    """Scores on a date x instrument grid, built from (date, instrument,
    score) rows in any order.

    `dates` and `instruments` are sorted and unique; `scores[t, i]` is
    the score of (dates[t], instruments[i]), NaN where no row gave one.
    """

    def __init__(self, rows):
        rows = list(rows)
        dates, instruments = _Coder(), _Coder()
        self._fill(dates, instruments,
                   [(dates([row[0] for row in rows]), instruments([row[1] for row in rows]),
                     np.array([row[2] for row in rows], dtype=np.float64))])

    def _fill(self, dates: "_Coder", instruments: "_Coder", parts: list) -> None:
        """Build the grid from (date codes, instrument codes, scores)
        blocks, emptying `parts` as it goes."""
        self.dates, rank_t = dates.ranked()
        self.instruments, rank_i = instruments.ranked()
        m = len(self.instruments)
        scores = np.full(len(self.dates) * m, np.nan)
        seen = np.zeros(scores.size, dtype=bool)
        n_rows, first_bad = 0, scores.size
        while parts:
            t, i, values = parts.pop()
            cell = rank_t[t] * m + rank_i[i]
            seen[cell] = True
            n_rows += cell.size
            scores[cell] = values
            bad = ~np.isfinite(values)
            if bad.any():
                first_bad = min(first_bad, int(cell[bad].min()))
        if np.count_nonzero(seen) < n_rows:
            raise DataError("duplicate (date, instrument) prediction")
        if first_bad < scores.size:
            d, k = divmod(first_bad, m)
            raise DataError(f"non-finite score at ({self.dates[d]}, {self.instruments[k]})")
        self.scores = scores.reshape(len(self.dates), m)

    @property
    def rows(self) -> list[tuple[str, str, float]]:
        """A new list of the scored (date, instrument, score) triples, as
        Python floats in (date, instrument) order."""
        t, i = np.nonzero(np.isfinite(self.scores))
        return [(self.dates[a], self.instruments[b], s)
                for a, b, s in zip(t.tolist(), i.tolist(), self.scores[t, i].tolist())]

    def panel_positions(self, ds: PanelDataset) -> tuple[np.ndarray, np.ndarray]:
        """Panel index of every grid date and of every grid instrument,
        -1 where the panel lacks it."""
        return _positions(self.dates, ds.dates), _positions(self.instruments, ds.instruments)

    def write_csv(self, path) -> None:
        t, i = np.nonzero(np.isfinite(self.scores))
        cells = format_floats(self.scores[t, i])
        _write_lines(
            path,
            PREDICTIONS_HEADER,
            (f"{self.dates[a]},{self.instruments[b]},{s}"
             for a, b, s in zip(t.tolist(), i.tolist(), cells)),
        )

    @classmethod
    def read_csv(cls, path) -> "PredictionSeries":
        dates, instruments = _Coder(), _Coder()

        def part(lines, rows, scores, fault):
            if fault is not None:
                raise fault
            return (dates([row[0] for row in rows]), instruments([row[1] for row in rows]),
                    scores.ravel())

        # no block of rows outlives its part while the grid is built
        preds = cls.__new__(cls)
        preds._fill(dates, instruments,
                    [part(*block) for block in _read_table(path, PREDICTIONS_HEADER, keys=2)])
        return preds


@dataclass
class WindowSample:
    """One training/inference sample: a lookback window ending at `date`."""

    date: str
    end_index: int
    features: np.ndarray  # [T, N, F]
    labels: np.ndarray    # [N], NaN where unobserved
    # [N] read-only: the loss set for this date, the finite labels, read
    # off them once when the window is built; a mask made on every read in
    # the training loop raised the train_n24 benchmark's peak RSS
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mask = _frozen(np.isfinite(self.labels))


# ---------------------------------------------------------------------------
# VWAP labels
# ---------------------------------------------------------------------------


def vwap_matrix(
    t: np.ndarray,
    i: np.ndarray,
    price: np.ndarray,
    volume: np.ndarray,
    dates: list[str],
    instruments: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell VWAP and total volume of bars k at cell (dates[t[k]], instruments[i[k]]).

    A cell is sum(price * volume) / sum(volume) over its bars, each sum
    taken one bar at a time in the order given; a one-bar cell is its
    price exactly, with no product formed. Cells without bars are NaN.
    The first cell in (date, instrument) order with a negative or
    all-zero volume, or with sums that overflow, raises DataError.
    """
    shape = (len(dates), len(instruments))
    price = np.asarray(price, dtype=np.float64)
    volume = np.asarray(volume, dtype=np.float64)
    cell = np.ravel_multi_index((np.asarray(t, dtype=np.intp),
                                 np.asarray(i, dtype=np.intp)), shape)
    size = shape[0] * shape[1]
    count = np.bincount(cell, minlength=size)
    shared = count[cell] > 1
    num = np.zeros(size)
    den = np.zeros(size)
    # a cell whose sums overflow is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(num, cell[shared], price[shared] * volume[shared])
        np.add.at(den, cell, volume)

    negative = np.zeros(size, dtype=bool)
    negative[cell[volume < 0]] = True
    many = count > 1
    overflow = many & ~(np.isfinite(num) & np.isfinite(den))
    bad = negative | ((count > 0) & (den <= 0)) | overflow
    if bad.any():
        first = int(np.argmax(bad))
        if negative[first]:
            k = np.flatnonzero((cell == first) & (volume < 0))[0]
            raise DataError(f"negative volume {float(volume[k])}")
        if not overflow[first]:
            raise DataError("non-positive VWAP denominator (all-zero volume)")
        row, col = np.unravel_index(first, shape)
        raise DataError(f"the VWAP sums of {instruments[col]} on {dates[row]} overflow")

    vwap = np.full(size, np.nan)
    vwap[many] = num[many] / den[many]
    # one bar: its exact price, avoiding the (p*v)/v rounding so
    # canonical files round-trip
    vwap[cell[~shared]] = price[~shared]
    total = np.where(count > 0, den, np.nan)
    return vwap.reshape(shape), total.reshape(shape)


def returns_from_prices(prices: np.ndarray) -> np.ndarray:
    """Forward one-step returns of a [D, N] price matrix, NaN-propagating."""
    labels = np.full_like(prices, np.nan)
    if prices.shape[0] < 2:
        return labels
    cur = prices[:-1]
    nxt = prices[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = (nxt - cur) / cur
    ok = np.isfinite(cur) & np.isfinite(nxt) & (cur != 0)
    labels[:-1][ok] = ratio[ok]
    return labels


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------


def load_panel(features_path, prices_path) -> PanelDataset:
    """Read feature and price CSVs into an aligned PanelDataset.

    The instrument universe is the set present on every feature date;
    entering/exiting names are dropped and listed, sorted, in
    `dropped_instruments`. Labels come from VWAP returns, and cells
    without a next-day price are simply unobserved. Of several faults the
    one on the earliest line is reported.
    """
    table = _read_table(features_path, None, keys=2, days=True)
    header = next(table)
    if len(header) < 3 or header[:2] != ["datetime", "instrument"]:
        raise DataError(f"{features_path}: header must start datetime,instrument")
    n_feat = len(header) - 2
    want = [f"{FEATURE_PREFIX}{i}" for i in range(n_feat)]
    if header[2:] != want:
        raise DataError(f"{features_path}: feature columns must be f0..f{n_feat - 1}")

    day_codes, name_codes = _Coder(), _Coder()
    parts = []  # (date codes, instrument codes, [rows, F] features) per block

    def check_duplicates(limit):
        """Raise for the first row read that repeats an earlier (date,
        instrument) pair, if it comes before row `limit`."""
        t = np.concatenate([part[0] for part in parts])
        i = np.concatenate([part[1] for part in parts])
        _, first = np.unique(t.astype(np.int64) * len(name_codes.names) + i,
                             return_index=True)
        if first.size < t.size:
            seen = np.zeros(t.size, dtype=bool)
            seen[first] = True
            dup = int(np.argmin(seen))
            if dup < limit:
                raise DataError(f"{features_path}: duplicate "
                                f"({day_codes.names[t[dup]]}, {name_codes.names[i[dup]]})")

    n_read = 0
    for lines, rows, values, fault in table:
        parts.append((day_codes([row[0] for row in rows]),
                      name_codes([row[1] for row in rows]), values))
        n_read += len(rows)
        # only an empty cell stands for a missing feature; inf is refused. The
        # NaN-skipping extremes find one without a mask the size of the block.
        cells = values.ravel()
        bad = cells.size
        if cells.size and np.isinf([np.fmax.reduce(cells), np.fmin.reduce(cells)]).any():
            bad = int(np.argmax(np.isinf(cells)))
        if fault is None and bad == cells.size:
            continue
        row, col = divmod(bad, n_feat)
        # a duplicate of an earlier line, in this block or before it, is
        # reported first
        check_duplicates(n_read - len(rows) + row)
        if bad < cells.size:
            raise DataError(f"{features_path}: line {lines[row]}: feature "
                            f"{header[2 + col]} is {rows[row][2 + col]!r}; "
                            f"leave a missing value empty")
        raise fault
    if not parts:
        raise DataError(f"{features_path}: no data rows")
    check_duplicates(float("inf"))

    dates, day_pos = day_codes.ranked()
    names, name_pos = name_codes.ranked()
    present = np.zeros((len(dates), len(names)), dtype=bool)
    for t, i, _ in parts:
        present[day_pos[t], name_pos[i]] = True
    keep = present.all(axis=0)
    if not keep.any():
        raise DataError(f"{features_path}: no instrument present on every date")
    instruments = [names[j] for j in np.flatnonzero(keep)]
    dropped = [names[j] for j in np.flatnonzero(~keep)]
    # sorted name position -> column among the kept instruments
    column = np.cumsum(keep) - 1
    features = np.empty((len(dates), len(instruments), n_feat))
    while parts:
        t, i, values = parts.pop()
        kept = keep[name_pos[i]]
        features[day_pos[t[kept]], column[name_pos[i[kept]]]] = values[kept]

    date_pos = {d: k for k, d in enumerate(dates)}
    inst_pos = {s: k for k, s in enumerate(instruments)}
    bar_t, bar_i, bar_values = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty((0, 2))]
    # rows outside the universe are dropped before their cells are parsed
    for lines, rows, bars, fault in _read_table(
            prices_path, PRICES_HEADER, keys=2,
            keep=lambda row: row[0] in date_pos and row[1] in inst_pos):
        price_ok = np.isfinite(bars[:, 0]) & (bars[:, 0] > 0)
        bad = np.flatnonzero(~price_ok | ~np.isfinite(bars[:, 1]))
        if bad.size:
            k = bad[0]
            at = f"{prices_path}: line {lines[k]}"
            if np.isnan(bars[k]).any():
                raise DataError(f"{at}: missing price/volume")
            if not price_ok[k]:
                raise DataError(f"{at}: price {float(bars[k, 0])!r} is not positive and finite")
            raise DataError(f"{at}: volume {float(bars[k, 1])!r} is not finite")
        if fault is not None:
            raise fault
        bar_t.append(np.fromiter((date_pos[row[0]] for row in rows), np.intp, len(rows)))
        bar_i.append(np.fromiter((inst_pos[row[1]] for row in rows), np.intp, len(rows)))
        bar_values.append(bars)

    bars = np.concatenate(bar_values)
    vwap, volume = vwap_matrix(np.concatenate(bar_t), np.concatenate(bar_i),
                               bars[:, 0], bars[:, 1], dates, instruments)
    return PanelDataset(
        dates=dates,
        instruments=instruments,
        features=features,
        labels=returns_from_prices(vwap),
        vwap=vwap,
        volume=volume,
        dropped_instruments=dropped,
    )


def write_panel(ds: PanelDataset, features_path, prices_path) -> None:
    """Write the canonical CSV pair: sorted rows, one price bar per cell."""
    n_feat = ds.n_features
    feat_header = ["datetime", "instrument"] + [
        f"{FEATURE_PREFIX}{i}" for i in range(n_feat)
    ]

    def feature_lines():
        for ti, dt in enumerate(ds.dates):
            cells = format_floats(ds.features[ti])
            for ii, inst in enumerate(ds.instruments):
                yield ",".join([dt, inst, *cells[ii * n_feat: (ii + 1) * n_feat]])

    _write_lines(features_path, feat_header, feature_lines())
    present = ds.present_mask

    def price_lines():
        for ti, dt in enumerate(ds.dates):
            cols = np.flatnonzero(present[ti])
            prices = format_floats(ds.vwap[ti, cols])
            volumes = format_floats(ds.volume[ti, cols])
            for ii, price, volume in zip(cols.tolist(), prices, volumes):
                yield f"{dt},{ds.instruments[ii]},{price},{volume}"

    _write_lines(prices_path, PRICES_HEADER, price_lines())


def load_membership(path) -> dict[str, str]:
    """instrument -> category map; conflicting duplicates are an error."""
    out: dict[str, str] = {}
    for _, rows, _, fault in _read_table(path, MEMBERSHIP_HEADER, keys=2):
        for inst, cat in rows:
            if out.setdefault(inst, cat) != cat:
                raise DataError(
                    f"{path}: instrument {inst!r} mapped to both {out[inst]!r} and {cat!r}"
                )
        if fault is not None:
            raise fault
    return out


def write_membership(path, labels: dict[str, str]) -> None:
    _write_rows(path, MEMBERSHIP_HEADER, ([i, c] for i, c in sorted(labels.items())))


def load_factors(path) -> FactorSeries:
    dates, table = _read_dated(path, FACTORS_HEADER)
    return FactorSeries(
        dates=dates,
        risk_free=table[:, 0].copy(),
        factors={name: table[:, k + 1].copy() for k, name in enumerate(FACTOR_NAMES)},
    )


def write_factors(fs: FactorSeries, path) -> None:
    _write_dated(path, FACTORS_HEADER, fs.dates,
                 [fs.risk_free] + [fs.factors[name] for name in FACTOR_NAMES])


# ---------------------------------------------------------------------------
# transforms and windowing
# ---------------------------------------------------------------------------


def standardize_features(ds: PanelDataset) -> PanelDataset:
    """Impute daily cross-sectional medians, then z-score per day/feature.

    A zero-variance (date, feature) column is centered and left unscaled.
    Returns a new dataset; the input is untouched.
    """
    # [D, F, N], so each (date, feature) column is a contiguous last-axis
    # row and mean/std reduce it with the same pairwise sum as a 1-D call
    cols = ds.features.transpose(0, 2, 1).copy()
    bad = ~np.isfinite(cols)
    for ti, fi in zip(*np.nonzero(bad.any(axis=2))):
        col, miss = cols[ti, fi], bad[ti, fi]
        # an all-missing column becomes 0, which centering leaves at 0
        col[miss] = 0.0 if miss.all() else np.median(col[~miss])
    mu = cols.mean(axis=2, keepdims=True)
    sd = cols.std(axis=2, keepdims=True)
    cols -= mu
    np.divide(cols, sd, out=cols, where=sd > 0)
    return PanelDataset(
        dates=list(ds.dates),
        instruments=list(ds.instruments),
        features=np.ascontiguousarray(cols.transpose(0, 2, 1)),
        labels=ds.labels.copy(),
        vwap=ds.vwap.copy(),
        volume=ds.volume.copy(),
        dropped_instruments=list(ds.dropped_instruments),
    )


def make_windows(ds: PanelDataset, window: int) -> list[WindowSample]:
    """Sliding lookback samples: one per date index in [window-1, D-1].

    The sample at index t sees features[t-window+1 .. t] and targets the
    t -> t+1 return stored at labels[t]. The final date's sample has an
    empty mask, since its label cannot exist: prediction scores it,
    training and validation skip it.
    """
    d = len(ds.dates)
    if window > d:
        raise DataError(f"a window needs {window} dates, the panel has {d}")
    return [
        WindowSample(
            date=ds.dates[t],
            end_index=t,
            features=ds.features[t - window + 1: t + 1],
            labels=ds.labels[t],
        )
        for t in range(window - 1, d)
    ]


# ---------------------------------------------------------------------------
# synthetic market generator
# ---------------------------------------------------------------------------

# time constant, in days, of the AR(1) industry trends and region factors
SIGNAL_TAU = 60.0


@dataclass
class SynthConfig:
    """Planted-structure market: industry blocks share an AR(1) trend.

    Feature layout: the first min(3, F-2) columns carry linear return
    weights, column F-2 observes a region factor that never enters
    returns (a structural distractor), and column F-1 observes the
    industry trend contaminated by that same region factor.
    """

    n_instruments: int = 24
    n_features: int = 8
    days: int = 600
    noise: float = 0.02
    seed: int = 0
    block_size: int = 5
    n_regions: int = 4
    start_date: str = "2015-01-01"

    def __post_init__(self):
        check_kinds(self)
        if self.n_instruments < 4:
            raise ConfigError("need at least 4 instruments")
        if self.days < 3:
            raise ConfigError("need at least 3 days")
        if self.n_features < 3:
            raise ConfigError("need at least 3 features")
        if self.noise < 0:
            raise ConfigError("noise must be >= 0")
        if self.block_size < 1 or self.n_regions < 1:
            raise ConfigError("block_size and n_regions must be >= 1")
        _check_day("start_date", self.start_date)


def trading_dates(start: str, count: int) -> list[str]:
    """`count` consecutive weekdays starting at or after the day `start`."""
    cur = _date.fromisoformat(start)
    out = []
    while len(out) < count:
        if cur.weekday() < 5:
            out.append(cur.isoformat())
        cur += timedelta(days=1)
    return out


def _ar1_paths(rng, n_paths: int, days: int, tau: float) -> np.ndarray:
    """Unit-variance stationary AR(1) paths with decay exp(-1/tau)."""
    rho = float(np.exp(-1.0 / tau))
    innov_scale = float(np.sqrt(1.0 - rho * rho))
    paths = np.empty((n_paths, days))
    paths[:, 0] = rng.standard_normal(n_paths)
    shocks = rng.standard_normal((n_paths, days))
    for t in range(1, days):
        paths[:, t] = rho * paths[:, t - 1] + innov_scale * shocks[:, t]
    return paths


def generate_synthetic(
    cfg: SynthConfig,
) -> tuple[PanelDataset, RelationGraphs, FactorSeries]:
    """Deterministic synthetic market with recoverable planted signal.

    Returns are a fixed linear readout of the named feature columns plus
    i.i.d. noise of scale cfg.noise; prices follow the compounded VWAP
    path so reloading files reproduces the labels.
    """
    rng = np.random.default_rng(cfg.seed)
    n, f, d = cfg.n_instruments, cfg.n_features, cfg.days
    dates = trading_dates(cfg.start_date, d)
    instruments = [f"S{i:03d}" for i in range(n)]

    n_industries = (n + cfg.block_size - 1) // cfg.block_size
    industry_of = np.arange(n) // cfg.block_size
    region_of = np.arange(n) % cfg.n_regions
    industry_labels = {
        inst: f"IND{industry_of[i]:02d}" for i, inst in enumerate(instruments)
    }
    region_labels = {
        inst: f"REG{region_of[i]:d}" for i, inst in enumerate(instruments)
    }
    graphs = build_relation_graphs(instruments, industry_labels, region_labels)

    trend = _ar1_paths(rng, n_industries, d, SIGNAL_TAU)      # g per industry
    region_factor = _ar1_paths(rng, cfg.n_regions, d, SIGNAL_TAU)

    n_sig = min(3, f - 2)
    features = rng.standard_normal((d, n, f))
    obs_noise = 0.3
    features[:, :, f - 2] = region_factor[region_of].T + obs_noise * rng.standard_normal((d, n))
    features[:, :, f - 1] = (
        trend[industry_of].T
        + 0.5 * region_factor[region_of].T
        + obs_noise * rng.standard_normal((d, n))
    )

    # fixed linear readout; the region factor cancels out of returns
    sig_weights = np.array([0.006, 0.005, 0.004][:n_sig])
    trend_beta = 0.012
    returns = features[:, :, :n_sig] @ sig_weights
    returns += trend_beta * features[:, :, f - 1]
    returns -= 0.5 * trend_beta * features[:, :, f - 2]
    returns += cfg.noise * rng.standard_normal((d, n))
    returns = np.clip(returns, -0.5, 0.5)

    base = 40.0 + 2.0 * np.arange(n)
    vwap = np.empty((d, n))
    vwap[0] = base
    for t in range(1, d):
        vwap[t] = vwap[t - 1] * (1.0 + returns[t - 1])
    volume = rng.integers(100_000, 1_000_000, size=(d, n)).astype(np.float64)

    ds = PanelDataset(
        dates=dates,
        instruments=instruments,
        features=features,
        labels=returns_from_prices(vwap),
        vwap=vwap,
        volume=volume,
    )

    factors = FactorSeries(
        dates=dates,
        risk_free=np.full(d, 1e-4),
        factors={
            name: 0.01 * rng.standard_normal(d) for name in FACTOR_NAMES
        },
    )
    return ds, graphs, factors
