"""Per-layer tracing from outside the program.

The tracer swaps functions of the ``xsrank`` modules for timing wrappers,
each in the namespace its caller looks it up in (``xsrank.model.topk_graph``,
not ``xsrank.graphs.topk_graph``), runs one root span, and puts every
original back. Nothing under ``src/`` is edited.

A span is ``[id, parent, root, name, start_ns, end_ns, mb]``. Spans stay in
memory and are written out once, when the run ends. A span's self time is
its duration minus the part of it that its child spans cover. All work is
single-threaded with no queue, so no layer waits on another and no waiting
time is recorded.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import time

from xsrank import (backtest, cli, data, evaluate, factor_reg, graphs, model, tensor,
                    training)

# Primitive kinds the model uses; a kind added later is counted as OTHER.
KINDS = (
    "MATMUL", "ADD", "SUB", "MUL", "DIV", "CONCAT_LAST", "CAUSAL_CONV1D",
    "LAYER_NORM", "LEAKY_RELU", "RELU", "SIGMOID", "TANH", "SOFTMAX",
    "DROPOUT", "MEAN", "SUM", "SQRT", "GATHER_ROWS", "MASKED_SELECT", "OTHER",
)

# Spans reported as self seconds and calls.
TIMED = (
    "graphs.topk_graph", "graphs.cosine_similarity_matrix",
    "graphs.gat_layer", "graphs.gcn_layer",
    "decompose.decompose",
    "model.act_forward_parts.train", "model.act_forward_parts.eval",
    "model.pspe_forward", "model.fci_forward", "model.sci_forward",
    "model.acf_forward",
    "training.ic_loss", "training.mse_loss", "training.Adam.step",
    "data.generate_synthetic", "data.write_panel", "data.load_panel",
    "data.standardize_features", "data.make_windows",
    "data.PredictionSeries.read_csv", "data.PredictionSeries.write_csv",
    "evaluate.summarize", "evaluate.subgroup_metrics",
    "backtest.run_backtest", "backtest.topk_dropout_rebalance",
    "backtest.write_curves_svg",
    "factor_reg.ff_regression", "factor_reg.newey_west_se",
    "cli.file_digest",
)
# Spans reported as self seconds only.
SELF_ONLY = (
    "tensor.backward",
    "cli.cmd_synth", "cli.cmd_evaluate", "cli.cmd_backtest", "cli.cmd_regress",
)
WINDOW_SPANS = ("model.act_forward_parts.train", "model.act_forward_parts.eval")
READ_SPANS = ("data.load_panel", "data.PredictionSeries.read_csv")
WRITE_SPANS = ("data.write_panel", "data.PredictionSeries.write_csv")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit.

    ``MB_computed`` values come from array and file sizes, not from
    measured traffic.
    """
    units: dict[str, str] = {}
    for kind in KINDS:
        units[f"tensor.{kind}.s"] = "s"
        units[f"tensor.{kind}.calls"] = "count"
        units[f"tensor.{kind}.out_mb"] = "MB_computed"
    units["tensor.backward.s"] = "s"
    units["tensor.primitives_per_window"] = "calls/window"
    units["graphs.normalized_adjacency.calls_per_window"] = "calls/window"
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in SELF_ONLY[1:]:
        units[f"{name}.s"] = "s"
    units["data.read_mb"] = "MB_computed"
    units["data.written_mb"] = "MB_computed"
    units["trace.op_s"] = "s"
    return units


def _file_mb(*paths) -> float:
    return sum(os.path.getsize(p) for p in paths) / 1e6


def _primitive_name(args, kwargs) -> str:
    kind = args[0] if args else kwargs["kind"]
    name = getattr(kind, "name", "OTHER")
    return f"tensor.{name if name in KINDS else 'OTHER'}"


def _act_name(args, kwargs) -> str:
    flag = kwargs.get("training", args[3] if len(args) > 3 else False)
    return "model.act_forward_parts." + ("train" if flag else "eval")


def _out_mb(bound, out) -> float:
    return out.data.nbytes / 1e6


def _panel_mb(bound, out) -> float:
    return _file_mb(bound.arguments["features_path"], bound.arguments["prices_path"])


def _path_mb(bound, out) -> float:
    return _file_mb(bound.arguments["path"])


def wrap_table():
    """(owner, key, span name or namer, MB function or None).

    ``owner`` is the module, class or dict the caller reads ``key`` from.
    """
    cmds = cli.COMMANDS
    return [
        (tensor, "apply_primitive", _primitive_name, _out_mb),
        (training, "backward", "tensor.backward", None),
        (model, "topk_graph", "graphs.topk_graph", None),
        (model, "cosine_similarity_matrix", "graphs.cosine_similarity_matrix", None),
        (model, "gat_layer", "graphs.gat_layer", None),
        (model, "gcn_layer", "graphs.gcn_layer", None),
        (model, "decompose", "decompose.decompose", None),
        (training, "decompose", "decompose.decompose", None),
        (model, "act_forward_parts", _act_name, None),
        (training, "act_forward_parts", _act_name, None),
        (model, "pspe_forward", "model.pspe_forward", None),
        (model, "fci_forward", "model.fci_forward", None),
        (model, "sci_forward", "model.sci_forward", None),
        (model, "acf_forward", "model.acf_forward", None),
        (training, "ic_loss", "training.ic_loss", None),
        (training, "mse_loss", "training.mse_loss", None),
        (training.Adam, "step", "training.Adam.step", None),
        (data, "generate_synthetic", "data.generate_synthetic", None),
        (cli, "generate_synthetic", "data.generate_synthetic", None),
        (cli, "write_panel", "data.write_panel", _panel_mb),
        (cli, "load_panel", "data.load_panel", _panel_mb),
        (data, "standardize_features", "data.standardize_features", None),
        (cli, "standardize_features", "data.standardize_features", None),
        (training, "make_windows", "data.make_windows", None),
        (data.PredictionSeries, "read_csv", "data.PredictionSeries.read_csv", _path_mb),
        (data.PredictionSeries, "write_csv", "data.PredictionSeries.write_csv", _path_mb),
        (cli, "summarize", "evaluate.summarize", None),
        (evaluate, "summarize", "evaluate.summarize", None),
        (cli, "subgroup_metrics", "evaluate.subgroup_metrics", None),
        (cli, "run_backtest", "backtest.run_backtest", None),
        (backtest, "topk_dropout_rebalance", "backtest.topk_dropout_rebalance", None),
        (cli, "write_curves_svg", "backtest.write_curves_svg", None),
        (cli, "ff_regression", "factor_reg.ff_regression", None),
        (factor_reg, "newey_west_se", "factor_reg.newey_west_se", None),
        (cli, "file_digest", "cli.file_digest", None),
        (cmds, "synth", "cli.cmd_synth", None),
        (cmds, "evaluate", "cli.cmd_evaluate", None),
        (cmds, "backtest", "cli.cmd_backtest", None),
        (cmds, "regress", "cli.cmd_regress", None),
        (graphs, "normalized_adjacency", "graphs.normalized_adjacency", "count"),
    ]


class _Slot:
    """One patchable name: a module or class attribute, or a COMMANDS entry.

    ``cli.main`` dispatches through ``cli.COMMANDS[name][0]``, so a
    subcommand is patched by replacing its dict entry.
    """

    def __init__(self, owner, key):
        self.owner = owner
        self.key = key
        self.is_dict = isinstance(owner, dict)
        table = owner if self.is_dict else vars(owner)
        self.original = table.get(key)

    @property
    def present(self) -> bool:
        return self.original is not None

    @property
    def label(self) -> str:
        return "xsrank.cli.COMMANDS" if self.is_dict else self.owner.__name__

    def function(self):
        raw = self.original[0] if self.is_dict else self.original
        return raw.__func__ if isinstance(raw, classmethod) else raw

    def install(self, wrapper) -> None:
        if self.is_dict:
            self.owner[self.key] = (wrapper,) + tuple(self.original[1:])
        elif isinstance(self.original, classmethod):
            setattr(self.owner, self.key, classmethod(wrapper))
        else:
            setattr(self.owner, self.key, wrapper)

    def restore(self) -> None:
        if self.is_dict:
            self.owner[self.key] = self.original
        else:
            setattr(self.owner, self.key, self.original)

    def restored(self) -> bool:
        table = self.owner if self.is_dict else vars(self.owner)
        return table.get(self.key) is self.original


class Tracer:
    """Records spans for the traced calls made inside ``root()`` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], int] = {}
        self.missing: list[str] = []
        self.restore_failures: list[str] = []
        self._stack: list[int] = []
        self.slots = []
        for owner, key, name, mb in wrap_table():
            slot = _Slot(owner, key)
            if not slot.present:
                self.missing.append(f"{slot.label}.{key}")
                continue
            self.slots.append((slot, self._wrapper(slot.function(), name, mb)))

    def _wrapper(self, fn, name, mb):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        if mb == "count":
            def counted(*args, **kwargs):
                key = (stack[0], name)
                counters[key] = counters.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        # only the file-size functions read the call's arguments
        signature = inspect.signature(fn) if mb not in (None, _out_mb) else None
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1], stack[0],
                   fixed or name(args, kwargs), 0, 0, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if mb is not None:
                rec[6] = mb(signature and signature.bind(*args, **kwargs), out)
            return out

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """Install every wrapper, record one root span, then restore all."""
        sid = len(self.spans)
        rec = [sid, -1, sid, name, 0, 0, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        for slot, wrapper in self.slots:
            slot.install(wrapper)
        try:
            rec[4] = time.perf_counter_ns()
            yield
        finally:
            rec[5] = time.perf_counter_ns()
            for slot, _ in self.slots:
                slot.restore()
                if not slot.restored():
                    self.restore_failures.append(slot.key)
            self._stack.pop()

    def write_csv(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,root,name,start_ns,end_ns,self_ns,mb\n")
            for rec, own in zip(self.spans, selfs):
                sid, parent, root, name, t0, t1, mb = rec
                fh.write(f"{sid},{parent},{root},{name},{t0},{t1},{own},{mb!r}\n")


def self_times(spans) -> list[int]:
    """Duration of each span minus the durations of its child spans.

    This is the time the children leave uncovered as long as the spans
    nest, which ``check_nesting`` verifies.
    """
    own = [rec[5] - rec[4] for rec in spans]
    for rec in spans:
        if rec[1] >= 0:
            own[rec[1]] -= rec[5] - rec[4]
    return own


def check_nesting(spans) -> bool:
    """Every child span lies inside its parent and after its previous sibling."""
    last_end: dict[int, int] = {}
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent < 0:
            continue
        p_start, p_end = spans[parent][4], spans[parent][5]
        if not p_start <= t0 <= t1 <= p_end or t0 < last_end.get(parent, p_start):
            return False
        last_end[parent] = t1
    return True


def per_layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer values for one set-up plus one operation.

    Each value is the median over the run's ``setup`` roots plus the
    median over its ``op`` roots. Per-window counts and ``trace.op_s``
    use the ``op`` roots only.
    """
    roots = {rec[0]: rec[3] for rec in spans if rec[1] < 0}
    per_root: dict[int, dict[str, float]] = {sid: {} for sid in roots}
    for rec, own in zip(spans, self_times(spans)):
        sid, parent, root, name, _, _, mb = rec
        if parent < 0:
            continue
        acc = per_root[root]
        acc[name + ".s"] = acc.get(name + ".s", 0.0) + own / 1e9
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        if name.startswith("tensor.") and name != "tensor.backward":
            acc[name + ".out_mb"] = acc.get(name + ".out_mb", 0.0) + mb
        elif name in READ_SPANS:
            acc["data.read_mb"] = acc.get("data.read_mb", 0.0) + mb
        elif name in WRITE_SPANS:
            acc["data.written_mb"] = acc.get("data.written_mb", 0.0) + mb
    for (root, name), count in counters.items():
        per_root[root][name + ".calls"] = count

    def median_over(kind, key):
        values = [per_root[sid].get(key, 0.0) for sid, k in roots.items() if k == kind]
        return statistics.median(values) if values else 0.0

    out = {}
    for key in per_layer_units():
        out[key] = median_over("setup", key) + median_over("op", key)

    op_roots = [sid for sid, k in roots.items() if k == "op"]
    per_window = []
    for sid in op_roots:
        acc = per_root[sid]
        windows = sum(acc.get(n + ".calls", 0) for n in WINDOW_SPANS)
        prims = sum(acc.get(f"tensor.{k}.calls", 0) for k in KINDS)
        norm = acc.get("graphs.normalized_adjacency.calls", 0)
        per_window.append((prims / windows, norm / windows) if windows else (0.0, 0.0))
    if per_window:
        out["tensor.primitives_per_window"] = statistics.median(p for p, _ in per_window)
        out["graphs.normalized_adjacency.calls_per_window"] = statistics.median(
            n for _, n in per_window)
    durations = [(rec[5] - rec[4]) / 1e9 for rec in spans if rec[1] < 0 and rec[3] == "op"]
    out["trace.op_s"] = statistics.median(durations) if durations else 0.0
    return out
