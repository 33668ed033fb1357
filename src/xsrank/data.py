"""Panel data IO: feature/price/membership/factor CSVs, next-day price
labels, windowing, and a seeded synthetic market generator with planted
structure.

Every CSV has one dialect: UTF-8, a header row, LF line endings, and a
cell wrapped in double quotes, its own doubled, only when it holds `,`,
`"`, CR or LF (`_quote`), which is what `csv.reader` reads. Dates are
ISO-8601, and a file whose first column is `datetime` has a calendar day
in every row. Floats are written in shortest round-trip positional
notation: the digits of `repr`, never exponent notation, so a load/write
cycle of canonical files is byte-identical. Writers work a whole column or
day at a time. Every reader streams its file through `_read_table` in
blocks of at most CHUNK_CELLS cells, so a loader holds its output arrays
and one block of rows, however long the file is, and of several faults
reports the one on the earliest line.

A file the program reads back (features, prices, predictions, factors,
backtest.csv, the checkpoint) refuses a non-finite number; a report table,
written by `_write_rows`, writes it as nan, inf or -inf.
"""

from __future__ import annotations

import csv
import re
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date as _date
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
# lines a writer joins into one write call
LINES_PER_WRITE = 1 << 10
# characters that make a cell need quotes
_SPECIAL = re.compile(r'[,"\r\n]')


def format_floats(values) -> list[str]:
    """Shortest decimal strings that round-trip to the same fp64 values.

    `repr` gives the shortest round-trip digits but switches to exponent
    notation exactly for magnitudes in (0, 1e-4) and from 1e16; only
    those strings are redone positionally. Raises DataError on the first
    non-finite value.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(arr)
    if not finite.all():
        bad = float(arr[np.argmin(finite)])
        raise DataError(f"refusing to write non-finite value {bad!r}")
    out = list(map(repr, arr.tolist()))
    size = np.abs(arr)
    for k in np.flatnonzero(((size < 1e-4) & (size > 0)) | (size >= 1e16)).tolist():
        out[k] = np.format_float_positional(arr[k], unique=True, trim="0")
    return out


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same fp64."""
    return format_floats([v])[0]


def _write_lines(path, header, lines):
    """Write the header and `lines`, LINES_PER_WRITE lines per write call."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(lines, LINES_PER_WRITE)):
            fh.write("\n".join(block) + "\n")


def _quote(cell: str) -> str:
    """`cell` as written: in double quotes, with its own doubled, when it
    holds `,`, `"`, CR or LF, and as is otherwise."""
    if _SPECIAL.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cell(value) -> str:
    """A report-table cell: a str `_quote`d, None empty, an int in decimal,
    a finite float in `format_float` digits and any other as nan, inf or
    -inf. A bool, or a value of any other type, is refused, so no table
    reads True."""
    if value is None or isinstance(value, str):
        return _quote(value or "")
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


def _read_table(path, header, keys: int, keep=None):
    """Stream the data rows of a CSV file in blocks of at most CHUNK_CELLS
    cells, or of one row when a row is wider than that.

    The first `keys` columns of a row are strings and the rest numbers.
    A row is faulty if it has the wrong width; failing that, if a number
    cell does not parse; failing that, in a file whose first header cell
    is `datetime`, if its first cell is not a YYYY-MM-DD calendar day.
    `keep`, if given, drops the well-formed rows it is false for before
    their numbers are parsed; their days are still checked. Rows are
    counted as lines from the header, line 1.

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
            days = found[0] == "datetime"
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
                    kept_lines = [k for k in lines if keep(block[k - line])]
                    rows = [block[k - line] for k in kept_lines]
                    # an array: a grid reader holds every block's line numbers
                    lines = np.array(kept_lines, dtype=np.intp)
                # one number column (predictions) needs no per-row slice
                cells = ([row[keys] for row in rows] if n_num == 1 else
                         [v for row in rows for v in row[keys:]])
                values, n_cells = _floats(cells)
                kept = len(rows)
                if n_cells < len(cells):
                    kept = n_cells // n_num
                    fault = (lines[kept], f"unparseable number {cells[n_cells].strip()!r}")
                    n = lines[kept] - line
                if days:
                    fresh = {row[0] for row in block[:n]} - known_days
                    bad = {d for d in fresh if not _is_day(d)}
                    known_days |= fresh
                    if bad:
                        n = next(k for k, row in enumerate(block) if row[0] in bad)
                        fault = (line + n, f"date {block[n][0]!r} is not a YYYY-MM-DD day")
                        kept = bisect_left(lines, line + n)
                yield (lines[:kept], rows[:kept], values[: kept * n_num].reshape(kept, n_num),
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
    for lines, rows, values, fault in _read_table(path, header, keys=1):
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


def _read_grid(blocks, names: list[str], missing_ok: bool, path=None):
    """The date x instrument grid of keyed rows, read block by block: the
    one reader of features.csv, prices.csv and predictions.csv.

    `blocks` is a two-key `_read_table` stream of `path`, or, for rows
    that come from no file (`path` None), one (None, rows, values, fault)
    block whose last row is the faulty one, if any. `names` labels the
    number columns. Returns the sorted dates, the sorted instruments, the
    [D, M, C] values, NaN where no row gave a cell, and the [D, M] mask of
    the cells some row gave.

    Refuses an infinite number, a NaN unless `missing_ok`, and a row that
    repeats an earlier (date, instrument) pair. An error names the file
    and line, or a row by its pair; of these faults and the stream's own,
    the one on the earliest line is raised, a bad number before a
    duplicate on the same line.
    """
    day_codes, name_codes = _Coder(), _Coder()
    parts = []  # (lines, date codes, instrument codes, values) per block

    def at(lines, k: int, t: int, i: int) -> str:
        if path is None:
            return f"row ({day_codes.names[t]}, {name_codes.names[i]})"
        return f"{path}: line {lines[k]}"

    def check_duplicates(limit):
        """Raise for the first row read that repeats an earlier pair, if it
        comes before row `limit`."""
        t = np.concatenate([part[1] for part in parts])
        i = np.concatenate([part[2] for part in parts])
        _, first = np.unique(t.astype(np.int64) * len(name_codes.names) + i,
                             return_index=True)
        repeats = np.setdiff1d(np.arange(t.size), first)
        if not repeats.size or repeats[0] >= limit:
            return
        dup = int(repeats[0])
        for lines, t, i, _ in parts:
            if dup < t.size:
                raise DataError(f"{at(lines, dup, t[dup], i[dup])}: "
                                f"duplicate (date, instrument) pair")
            dup -= t.size

    n_rows = 0
    for lines, rows, values, fault in blocks:
        t = day_codes([row[0] for row in rows])
        i = name_codes([row[1] for row in rows])
        parts.append((lines, t, i, values))
        n_rows += len(rows)
        bad = np.isinf(values) if missing_ok else ~np.isfinite(values)
        k, col = divmod(int(np.argmax(bad)), len(names)) if bad.any() else (len(rows), 0)
        if k < len(rows):
            check_duplicates(n_rows - len(rows) + k)
            raw = float(values[k, col]) if path is None else rows[k][2 + col]
            raise DataError(f"{at(lines, k, t[k], i[k])}: {names[col]} is {raw!r}; " +
                            ("leave a missing value empty" if missing_ok else
                             "give a finite number"))
        if fault is not None:
            check_duplicates(n_rows)
            raise fault
    rows = None  # the grid is built without the last block's strings

    dates, rank_t = day_codes.ranked()
    instruments, rank_i = name_codes.ranked()
    grid = np.full((len(dates), len(instruments), len(names)), np.nan)
    mask = np.zeros(grid.shape[:2], dtype=bool)
    for _, t, i, values in parts:
        cell = rank_t[t], rank_i[i]
        mask[cell] = True
        grid[cell] = values
    # the mask counts fewer cells than rows only when a pair repeats
    if np.count_nonzero(mask) < n_rows:
        check_duplicates(n_rows)
    return dates, instruments, grid, mask


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
    """Aligned panel of features, daily prices and the labels they give.

    `vwap` and `volume` hold each cell's one price row of prices.csv.
    labels[t, i] is the t -> t+1 return, so the final date is always
    unobserved. Which cells count is read off the arrays, never stored
    beside them: a cell is observed (in the loss set) when its label is
    finite and present when it has a price at t.
    """

    dates: list[str]
    instruments: list[str]
    features: np.ndarray       # [D, N, F]
    labels: np.ndarray         # [D, N], NaN where missing
    vwap: np.ndarray           # [D, N], NaN where missing
    volume: np.ndarray         # [D, N], NaN where missing

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
    score) rows in any order, each date a YYYY-MM-DD day.

    `dates` and `instruments` are sorted and unique; `scores[t, i]` is
    the score of (dates[t], instruments[i]), NaN where no row gave one.
    """

    def __init__(self, rows):
        rows = list(rows)
        scores = np.array([row[2] for row in rows], dtype=np.float64).reshape(-1, 1)
        bad = {day for day in {row[0] for row in rows} if not _is_day(day)}
        n = next((k for k, row in enumerate(rows) if row[0] in bad), len(rows))
        fault = (DataError(f"row ({rows[n][0]}, {rows[n][1]}): date {rows[n][0]!r} is not "
                           "a YYYY-MM-DD day") if n < len(rows) else None)
        # that row's score is checked before its date, as a file's number is
        self._grid([(None, rows[:n + 1], scores[:n + 1], fault)])

    def _grid(self, blocks, path=None) -> None:
        """Set the grid from `_read_grid` blocks of rows of `path`."""
        self.dates, self.instruments, scores, _ = _read_grid(
            blocks, ["score"], missing_ok=False, path=path)
        self.scores = scores[:, :, 0]

    @property
    def rows(self) -> list[tuple[str, str, float]]:
        """A new list of the scored (date, instrument, score) triples, as
        Python floats in (date, instrument) order."""
        t, i = np.nonzero(np.isfinite(self.scores))
        return [(self.dates[a], self.instruments[b], s)
                for a, b, s in zip(t.tolist(), i.tolist(), self.scores[t, i].tolist())]

    def panel_positions(self, ds: PanelDataset) -> tuple[np.ndarray, np.ndarray]:
        """Panel index of every grid date and of every grid instrument.

        The one place a prediction grid meets a panel: the first scored
        cell outside it, in (date, instrument) order, raises DataError
        naming its date, or else its instrument. Every grid date and
        instrument holds a score, so every position returned is >= 0.
        """
        t = _positions(self.dates, ds.dates)
        i = _positions(self.instruments, ds.instruments)
        outside = np.isfinite(self.scores) & ((t < 0)[:, None] | (i < 0))
        if outside.any():
            d, k = np.unravel_index(np.argmax(outside), outside.shape)
            if t[d] < 0:
                raise DataError(f"prediction date {self.dates[d]} not in the panel")
            raise DataError(f"prediction instrument {self.instruments[k]} not in the panel")
        return t, i

    def write_csv(self, path) -> None:
        t, i = np.nonzero(np.isfinite(self.scores))
        cells = format_floats(self.scores[t, i])
        dates = map(self.dates.__getitem__, t.tolist())
        instruments = map(list(map(_quote, self.instruments)).__getitem__, i.tolist())
        _write_lines(path, PREDICTIONS_HEADER, map(",".join, zip(dates, instruments, cells)))

    @classmethod
    def read_csv(cls, path) -> "PredictionSeries":
        preds = cls.__new__(cls)
        preds._grid(_read_table(path, PREDICTIONS_HEADER, keys=2), path)
        return preds


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def returns_from_prices(prices: np.ndarray) -> np.ndarray:
    """Forward one-step returns of a [D, N] price matrix, NaN-propagating;
    a return too large for a float, such as 5e-324 then 1.0, is inf."""
    labels = np.full_like(prices, np.nan)
    if prices.shape[0] < 2:
        return labels
    cur = prices[:-1]
    nxt = prices[1:]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ratio = (nxt - cur) / cur
    ok = np.isfinite(cur) & np.isfinite(nxt) & (cur != 0)
    labels[:-1][ok] = ratio[ok]
    return labels


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------


def _positive_prices(blocks, path):
    """`_read_table` blocks of a prices file, each cut before its first row
    whose price or volume is missing or not positive and finite, with that
    row's DataError as the block's fault. A block holds only rows before
    its own fault, so the row's fault is the earlier one."""
    for lines, rows, values, fault in blocks:
        bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)).all(axis=1))
        if bad.size:
            k = int(bad[0])
            price, volume = values[k].tolist()
            fault = DataError(f"{path}: line {lines[k]}: " + (
                "missing price/volume" if np.isnan(values[k]).any() else
                f"price {price!r} is not positive and finite" if not 0 < price < np.inf else
                f"volume {volume!r} is not positive and finite"))
            lines, rows, values = lines[:k], rows[:k], values[:k]
        yield lines, rows, values, fault
        if fault is not None:
            return


def load_panel(features_path, prices_path) -> PanelDataset:
    """Read feature and price CSVs into an aligned PanelDataset.

    The instrument universe is every instrument of the features file, and
    each needs a row on every feature date: the first missing (date,
    instrument) pair is refused. The prices file is a date x instrument
    grid too, one row per cell, read by `_read_grid` like the features:
    a repeated pair, and a price or volume that is missing or not
    positive and finite, are refused by line. Labels are next-day price
    returns, and cells without a next-day price are simply unobserved;
    the first return, in (date, instrument) order, too large for a float
    is refused. Of several faults the one on the earliest line is
    reported.
    """
    table = _read_table(features_path, None, keys=2)
    header = next(table)
    if len(header) < 3 or header[:2] != ["datetime", "instrument"]:
        raise DataError(f"{features_path}: header must start datetime,instrument")
    n_feat = len(header) - 2
    want = [f"{FEATURE_PREFIX}{i}" for i in range(n_feat)]
    if header[2:] != want:
        raise DataError(f"{features_path}: feature columns must be f0..f{n_feat - 1}")

    dates, instruments, features, present = _read_grid(
        table, [f"feature {name}" for name in header[2:]], missing_ok=True,
        path=features_path)
    if not dates:
        raise DataError(f"{features_path}: no data rows")
    if not present.all():
        t, i = np.unravel_index(np.argmin(present), present.shape)
        raise DataError(f"{features_path}: {instruments[i]} has no row on {dates[t]}")

    days, names = set(dates), set(instruments)
    # rows outside the universe skip number parsing, not the day check
    table = _read_table(prices_path, PRICES_HEADER, keys=2,
                        keep=lambda row: row[0] in days and row[1] in names)
    price_dates, price_names, cells, _ = _read_grid(
        _positive_prices(table, prices_path), ["price", "volume"], missing_ok=False,
        path=prices_path)
    at = np.ix_(_positions(price_dates, dates), _positions(price_names, instruments))
    vwap, volume = np.full((2, len(dates), len(instruments)), np.nan)
    vwap[at], volume[at] = cells[..., 0], cells[..., 1]
    labels = returns_from_prices(vwap)
    overflow = np.isinf(labels)
    if overflow.any():
        t, i = np.unravel_index(np.argmax(overflow), overflow.shape)
        raise DataError(f"{prices_path}: the return of {instruments[i]} from {dates[t]} "
                        f"to {dates[t + 1]} overflows")
    return PanelDataset(
        dates=dates,
        instruments=instruments,
        features=features,
        labels=labels,
        vwap=vwap,
        volume=volume,
    )


def write_panel(ds: PanelDataset, features_path, prices_path) -> None:
    """Write the canonical CSV pair: sorted rows, one price row per priced
    cell."""
    n_feat = ds.n_features
    feat_header = ["datetime", "instrument"] + [
        f"{FEATURE_PREFIX}{i}" for i in range(n_feat)
    ]
    names = list(map(_quote, ds.instruments))

    def feature_lines():
        for ti, dt in enumerate(ds.dates):
            cells = format_floats(ds.features[ti])
            for ii, inst in enumerate(names):
                yield ",".join([dt, inst, *cells[ii * n_feat: (ii + 1) * n_feat]])

    _write_lines(features_path, feat_header, feature_lines())
    present = ds.present_mask

    def price_lines():
        for ti, dt in enumerate(ds.dates):
            cols = np.flatnonzero(present[ti])
            prices = format_floats(ds.vwap[ti, cols])
            volumes = format_floats(ds.volume[ti, cols])
            for ii, price, volume in zip(cols.tolist(), prices, volumes):
                yield f"{dt},{names[ii]},{price},{volume}"

    _write_lines(prices_path, PRICES_HEADER, price_lines())


def load_membership(path) -> dict[str, str]:
    """instrument -> category map. An empty or blank cell is an error, not
    a category named "" that would relate every instrument missing one;
    so is a cell with leading or trailing whitespace, which would name a
    category or instrument apart from its unpadded twin, and so are
    conflicting duplicates."""
    out: dict[str, str] = {}
    for lines, rows, _, fault in _read_table(path, MEMBERSHIP_HEADER, keys=2):
        for line, (inst, cat) in zip(lines, rows):
            if not (inst.strip() and cat.strip()):
                raise DataError(f"{path}: line {line}: empty instrument or category")
            for name, cell in zip(MEMBERSHIP_HEADER, (inst, cat)):
                if cell != cell.strip():
                    raise DataError(f"{path}: line {line}: {name} {cell!r} has leading "
                                    "or trailing whitespace")
            if out.setdefault(inst, cat) != cat:
                raise DataError(f"{path}: line {line}: instrument {inst!r} mapped to "
                                f"both {out[inst]!r} and {cat!r}")
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

    A zero-variance (date, feature) column is centered and left unscaled;
    the first one whose mean or spread overflows, such as one holding
    1e200, is refused. Returns a new dataset; the input is untouched.
    """
    # [D, F, N], so each (date, feature) column is a contiguous last-axis
    # row and mean/std reduce it with the same pairwise sum as a 1-D call
    cols = ds.features.transpose(0, 2, 1).copy()
    bad = ~np.isfinite(cols)
    # an overflow below leaves its column's spread non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for ti, fi in zip(*np.nonzero(bad.any(axis=2))):
            col, miss = cols[ti, fi], bad[ti, fi]
            # an all-missing column becomes 0, which centering leaves at 0
            col[miss] = 0.0 if miss.all() else np.median(col[~miss])
        cols -= cols.mean(axis=2, keepdims=True)
        # np.std's own arithmetic on the centred columns, without its second
        # mean pass: sqrt(sum(x * x) / n)
        sd = np.sqrt(np.square(cols).sum(axis=2, keepdims=True) / cols.shape[2])
    if not np.isfinite(sd).all():
        t, f, _ = np.unravel_index(np.argmin(np.isfinite(sd)), sd.shape)
        raise DataError(f"feature {FEATURE_PREFIX}{f} on {ds.dates[t]}: mean or spread "
                        "overflows, so it cannot be standardized")
    np.divide(cols, sd, out=cols, where=sd > 0)
    return PanelDataset(
        dates=list(ds.dates),
        instruments=list(ds.instruments),
        features=np.ascontiguousarray(cols.transpose(0, 2, 1)),
        labels=ds.labels.copy(),
        vwap=ds.vwap.copy(),
        volume=ds.volume.copy(),
    )


def make_windows(ds: PanelDataset, window: int) -> np.ndarray:
    """Sliding lookback windows as their end indices: [window-1, D-1].

    The window ending at index t sees features[t-window+1 .. t] and
    targets the t -> t+1 return stored at labels[t], on the loss set
    observed_mask[t]. The final date's window has an empty mask, since
    its label cannot exist: prediction scores it, training and
    validation skip it.
    """
    d = len(ds.dates)
    if window > d:
        raise DataError(f"a window needs {window} dates, the panel has {d}")
    return np.arange(window - 1, d)


# ---------------------------------------------------------------------------
# synthetic market generator
# ---------------------------------------------------------------------------

# time constant, in days, of the AR(1) industry trends and region factors
SIGNAL_TAU = 60.0
# the last day a synthetic calendar may reach: ISO dates have four-digit years
LAST_DAY = "9999-12-31"


@dataclass
class SynthConfig:
    """Planted-structure market: industry blocks share an AR(1) trend.

    Feature layout: the first min(3, F-2) columns carry linear return
    weights, column F-2 observes a region factor that never enters
    returns (a structural distractor), and column F-1 observes the
    industry trend contaminated by that same region factor. The trading
    calendar, `days` weekdays from `start_date` on, ends by LAST_DAY.
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
        for name in ("noise", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.block_size < 1 or self.n_regions < 1:
            raise ConfigError("block_size and n_regions must be >= 1")
        _check_day("start_date", self.start_date)
        _check_calendar(self.start_date, self.days)


def _check_calendar(start: str, count: int) -> None:
    """Refuse `count` weekdays from `start` on that run past LAST_DAY."""
    if int(np.busday_count(start, np.datetime64(LAST_DAY) + 1)) < count:
        raise ConfigError(f"start_date {start} with days {count} runs past {LAST_DAY}")


def trading_dates(start: str, count: int) -> list[str]:
    """`count` consecutive weekdays starting at or after the day `start`;
    a calendar that runs past LAST_DAY is a ConfigError naming both."""
    _check_calendar(start, count)
    return np.busday_offset(start, np.arange(count), roll="forward").astype(str).tolist()


def _ar1_paths(rng, counts: tuple[int, ...], days: int, tau: float) -> list[np.ndarray]:
    """Unit-variance stationary AR(1) paths with decay exp(-1/tau): one
    time-major [days, n] array per n in `counts`, drawn in that order,
    each its starting values and then its [n, days] shocks."""
    rho = float(np.exp(-1.0 / tau))
    innov_scale = float(np.sqrt(1.0 - rho * rho))
    draws = [(rng.standard_normal(n), rng.standard_normal((n, days))) for n in counts]
    # every relation's paths in one [days, paths] recursion; day 0's
    # shocks are drawn but unused
    paths = np.concatenate([shocks.T for _, shocks in draws], axis=1)
    paths *= innov_scale
    paths[0] = np.concatenate([start for start, _ in draws])
    for prev, row in zip(paths, paths[1:]):
        row += rho * prev
    return np.split(paths, np.cumsum(counts)[:-1], axis=1)


def _compound(base: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """[D, N] prices from day 0's `base`, each day's the previous day's
    times (1 + that day's return): out[t] = out[t - 1] * (1 + returns[t - 1]),
    multiplied in that order. The last day's return is not used."""
    growth = np.empty(returns.shape)
    growth[0] = base
    np.add(1.0, returns[:-1], out=growth[1:])
    return np.multiply.accumulate(growth, axis=0)


def generate_synthetic(
    cfg: SynthConfig,
) -> tuple[PanelDataset, RelationGraphs, FactorSeries]:
    """Deterministic synthetic market with recoverable planted signal.

    Returns are a fixed linear readout of the named feature columns plus
    i.i.d. noise of scale cfg.noise; prices compound those returns, so
    reloading files reproduces the labels.
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

    # [days, industries] trends g and [days, regions] factors
    trend, region_factor = _ar1_paths(rng, (n_industries, cfg.n_regions), d, SIGNAL_TAU)

    n_sig = min(3, f - 2)
    features = rng.standard_normal((d, n, f))
    obs_noise = 0.3
    features[:, :, f - 2] = region_factor[:, region_of] + obs_noise * rng.standard_normal((d, n))
    features[:, :, f - 1] = (
        trend[:, industry_of]
        + 0.5 * region_factor[:, region_of]
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

    vwap = _compound(40.0 + 2.0 * np.arange(n), returns)
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
