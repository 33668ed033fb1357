"""Work ledger: the exact work a small `train` and `predict_sliding` ask of the tape.

`work_ledger()` wraps every builder in `tensor._BUILDERS` and records,
per PrimitiveKind and per run: calls, output MB (array bytes / 1e6),
VJP calls, and for MATMUL the multiply-adds (output cells times the
inner dimension). These depend on the code and the seed alone, never
on the clock or the BLAS thread count, so two ledgers of one tree are
equal and two trees' ledgers differ exactly by the work they changed.

    PYTHONPATH=src python tests/_ledger.py [--full]

prints the ledger as JSON; `--full` runs the benchmark's full-size
train_n24 and predict_n800 operations instead of the tiny ones.
"""

import contextlib
import json
import sys
from collections import Counter, defaultdict

import numpy as np

from xsrank import tensor as tz
from xsrank.data import SynthConfig, generate_synthetic, standardize_features
from xsrank.model import ActConfig, ActModel
from xsrank.training import TrainSettings, predict_sliding, train

TINY = dict(train=dict(synth=dict(n_instruments=12, n_features=4, days=40),
                       window=8, hidden=8, knn=4, n_train=8, n_valid=4, epochs=1),
            predict=dict(n_instruments=16, window=8, windows=3, hidden=8, knn=4))
FULL = dict(train=dict(synth={}, window=16, hidden=64, knn=10, n_train=48, n_valid=24,
                       epochs=2),
            predict=dict(n_instruments=800, window=16, windows=6, hidden=64, knn=10))


@contextlib.contextmanager
def _counting(ledger):
    builders = dict(tz._BUILDERS)

    def counted(kind, build):
        def run(inputs, needs, **attrs):
            out, vjp = build(inputs, needs, **attrs)
            out = np.asarray(out)
            row = ledger[kind.name]
            row["calls"] += 1
            row["out_bytes"] += out.nbytes
            if kind is tz.PrimitiveKind.MATMUL:
                row["madds"] += out.size * inputs[0].shape[-1]

            def counted_vjp(g):
                row["vjp_calls"] += 1
                return vjp(g)

            return out, counted_vjp
        return run

    tz._BUILDERS.update({kind: counted(kind, build) for kind, build in builders.items()})
    try:
        yield
    finally:
        tz._BUILDERS.update(builders)


def _train(size, seed):
    ds, graphs, _ = generate_synthetic(SynthConfig(seed=seed, **size["synth"]))
    ds = standardize_features(ds)
    cfg = ActConfig(n_features=ds.n_features, window=size["window"], hidden=size["hidden"],
                    knn=size["knn"])
    first = size["window"] - 1 + size["n_train"]
    train(ds, graphs, cfg, TrainSettings(
        valid_start=ds.dates[first], test_start=ds.dates[first + size["n_valid"]],
        epochs=size["epochs"], patience=size["epochs"], seed=seed))


def _predict(size, seed):
    ds, graphs, _ = generate_synthetic(SynthConfig(
        n_instruments=size["n_instruments"], days=size["window"] + size["windows"] - 1,
        seed=seed))
    ds = standardize_features(ds)
    cfg = ActConfig(n_features=ds.n_features, window=size["window"], hidden=size["hidden"],
                    knn=size["knn"])
    predict_sliding(ActModel(cfg, seed=seed), ds, graphs)


def work_ledger(sizes=TINY, seed=5) -> dict:
    """{"train" | "predict": {kind name: {calls, out_mb, vjp_calls, madds}}}."""
    ledger = {}
    for name, run in (("train", _train), ("predict", _predict)):
        rows = defaultdict(Counter)
        with _counting(rows):
            run(sizes[name], seed)
        ledger[name] = {kind: dict(calls=row["calls"], out_mb=row["out_bytes"] / 1e6,
                                   vjp_calls=row["vjp_calls"], madds=row["madds"])
                        for kind, row in sorted(rows.items())}
    return ledger


if __name__ == "__main__":
    print(json.dumps(work_ledger(FULL if "--full" in sys.argv[1:] else TINY), indent=1))
