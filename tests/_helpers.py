"""Small helpers the tests share and the library does not need."""

from xsrank.decompose import decompose
from xsrank.model import act_forward_parts


def act_forward(window, graphs, model, training=False):
    """Decompose one [T, N, F] window and run the model on it."""
    cfg = model.cfg
    parts = decompose(window, cfg.trend_window, cfg.fluct_window)
    return act_forward_parts(parts, graphs, model, training=training)


def item(t) -> float:
    """The value of a one-element Tensor as a Python float."""
    return float(t.data.reshape(-1)[0])


def edit_csv(text: str, kind: str, a: int, b: int, cell: str) -> str:
    """One edit to the data rows of a CSV text, for input fuzzing.

    `a` and `b` pick rows or cells modulo their count. Kinds: drop,
    duplicate (dup) or move a row; write `cell` into a cell; cut a row
    short or grow it by `cell`; drop a column, header included; keep the
    rows of the first few instruments (universe) or of the last few
    dates (dates) only.
    """
    header, *rows = text.splitlines()
    if kind == "column":
        drop = b % len(header.split(","))
        rows = [",".join(c for j, c in enumerate(row.split(",")) if j != drop)
                for row in [header, *rows]]
        return "\n".join(rows) + "\n"
    if not rows:
        return text
    k, j = a % len(rows), b % len(rows)
    if kind in ("universe", "dates"):
        # a one-column row counts as its own key
        def key(row):
            cells = row.split(",")
            return cells[min(int(kind == "universe"), len(cells) - 1)]
        keys = sorted({key(row) for row in rows})
        keep = set(keys[: 1 + a % 4] if kind == "universe" else keys[-1 - a % 3:])
        rows = [row for row in rows if key(row) in keep]
    elif kind == "drop":
        del rows[k]
    elif kind == "dup":
        rows.insert(j, rows[k])
    elif kind == "move":
        rows.insert(j, rows.pop(k))
    else:
        cells = rows[k].split(",")
        if kind == "cell":
            cells[b % len(cells)] = cell
        elif kind == "cut":
            del cells[b % len(cells):]
        else:
            cells.append(cell)
        rows[k] = ",".join(cells)
    return "\n".join([header, *rows]) + "\n"
