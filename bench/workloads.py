"""The benchmark workloads: set-up, one timed operation, output check.

Each workload builds its inputs from the workload seed alone. ``setup``
returns a state; ``op`` does one unit of the work a user waits for and
returns its output; ``check`` raises ``OutputError`` when that output is
wrong and otherwise returns its sha256 digest and the figures read off
it. ``figures`` turns the median operation time into the workload's own
end-to-end figures. Figures map a name to ``(value, unit)``.
``full_cycle_s`` and ``tiny_cycle_s`` are the seconds one set-up plus one
operation takes at each size on a 2-vCPU Xeon VM; ``run.py`` divides
``--seconds`` by them to fix how many operations a run times.

The benchmark calls the program through module attributes
(``data.generate_synthetic``, ``training.train``, ``cli.main``) so the
traced run sees those calls too.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from xsrank import cli, data, model, training


class OutputError(Exception):
    """An operation finished but its output is wrong."""


def _sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class TrainN24:
    """``train()`` on the default synthetic market, fixed epoch count.

    The split holds 48 training and 24 validation windows, and patience
    equals the epoch count, so every operation does the same work. The
    second epoch reuses the decompositions cached by the first.
    """

    full = dict(synth={}, window=16, hidden=64, knn=10, n_train=48, n_valid=24, epochs=2)
    tiny = dict(synth=dict(n_instruments=12, n_features=4, days=40),
                window=8, hidden=8, knn=4, n_train=8, n_valid=4, epochs=1)
    full_cycle_s, tiny_cycle_s = 3.0, 0.1

    def setup(self, seed: int, size: dict, work: Path):
        ds, graphs, _ = data.generate_synthetic(data.SynthConfig(seed=seed, **size["synth"]))
        ds = data.standardize_features(ds)
        cfg = model.ActConfig(n_features=ds.n_features, window=size["window"],
                              hidden=size["hidden"], knn=size["knn"])
        first = size["window"] - 1 + size["n_train"]
        settings = training.TrainSettings(
            valid_start=ds.dates[first],
            test_start=ds.dates[first + size["n_valid"]],
            epochs=size["epochs"], patience=size["epochs"], seed=seed,
        )
        return dict(ds=ds, graphs=graphs, cfg=cfg, settings=settings)

    def op(self, state):
        return training.train(state["ds"], state["graphs"], state["cfg"], state["settings"])

    def check(self, state, out):
        fitted, history = out
        curves = (history.train_loss, history.train_ic_term,
                  history.train_mse_term, history.valid_ic)
        if len(history.valid_ic) != state["settings"].epochs:
            raise OutputError(f"ran {len(history.valid_ic)} epochs, "
                              f"expected {state['settings'].epochs}")
        if not all(np.isfinite(curve).all() for curve in curves):
            raise OutputError("training history has a non-finite value")
        h = hashlib.sha256(json.dumps(history.to_dict(), sort_keys=True).encode())
        for name, arr in sorted(fitted.state_arrays().items()):
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest(), {"valid_ic": (max(history.valid_ic), "IC")}

    def figures(self, size, median_s: float) -> dict:
        return {"epoch_s": (median_s / size["epochs"], "s")}


class PredictN800:
    """``predict_sliding()`` over six windows of an N=800 panel.

    The model is seeded, saved and reloaded through the checkpoint
    format; no tape is active, and every window rebuilds its graph.
    """

    full = dict(n_instruments=800, window=16, windows=6, hidden=64, knn=10)
    tiny = dict(n_instruments=16, window=8, windows=3, hidden=8, knn=4)
    full_cycle_s, tiny_cycle_s = 3.0, 0.1

    def setup(self, seed: int, size: dict, work: Path):
        ds, graphs, _ = data.generate_synthetic(data.SynthConfig(
            n_instruments=size["n_instruments"],
            days=size["window"] + size["windows"] - 1, seed=seed))
        ds = data.standardize_features(ds)
        cfg = model.ActConfig(n_features=ds.n_features, window=size["window"],
                              hidden=size["hidden"], knn=size["knn"])
        seeded = model.ActModel(cfg, seed=seed)
        path = work / "checkpoint.json"
        model.save_checkpoint(seeded, path)
        loaded = model.load_checkpoint(path)
        for name, arr in seeded.state_arrays().items():
            if not np.array_equal(arr, loaded.params[name].data):
                raise OutputError(f"checkpoint round trip changed {name}")
        return dict(ds=ds, graphs=graphs, model=loaded, windows=size["windows"])

    def op(self, state):
        return training.predict_sliding(state["model"], state["ds"], state["graphs"])

    def check(self, state, out):
        ds = state["ds"]
        scored = ds.dates[-state["windows"]:]
        expected = [(d, inst) for d in scored
                    for inst, present in zip(ds.instruments, ds.present_mask[ds.dates.index(d)])
                    if present]
        got = [(d, inst) for d, inst, _ in out.rows]
        if got != expected:
            raise OutputError("predictions are not one per present instrument per window")
        if not all(np.isfinite(score) for _, _, score in out.rows):
            raise OutputError("a prediction is not finite")
        digest = _sha256_lines(f"{d},{inst},{score!r}" for d, inst, score in out.rows)
        return digest, {}

    def figures(self, size, median_s: float) -> dict:
        return {"predict_windows_per_s": (size["windows"] / median_s, "1/s")}


# Artifacts each subcommand writes, as in the README table, plus the manifest.
CLI_ARTIFACTS = {
    "synth": ["features.csv", "prices.csv", "industry.csv", "region.csv", "factors.csv"],
    "evaluate": ["metrics.csv", "daily_metrics.csv", "subgroups.csv"],
    "backtest": ["backtest.csv", "portfolio_metrics.csv", "curves.svg"],
    "regress": ["regression.csv"],
}


class CliN800:
    """In-process ``xsrank.cli.main``: synth, evaluate, backtest, regress.

    Set-up writes a predictions CSV from the same seed: next-day returns
    plus noise, so the reports are not degenerate. Industries of 20 keep
    every ``--group-by industry`` subgroup above the minimum size.
    """

    full = dict(n_instruments=800, days=30, block_size=20, k=50, n_drop=5)
    tiny = dict(n_instruments=20, days=30, block_size=5, k=5, n_drop=1)
    full_cycle_s, tiny_cycle_s = 3.4, 0.1

    def setup(self, seed: int, size: dict, work: Path):
        synth = data.SynthConfig(n_instruments=size["n_instruments"], days=size["days"],
                                 block_size=size["block_size"], seed=seed)
        ds, _, _ = data.generate_synthetic(synth)
        noise = np.random.default_rng(seed).normal(0.0, 0.05, ds.labels.shape)
        scores = np.where(np.isfinite(ds.labels), ds.labels, 0.0) + noise
        preds = data.PredictionSeries([
            (d, inst, float(scores[t, i]))
            for t, d in enumerate(ds.dates) for i, inst in enumerate(ds.instruments)
        ])
        predictions = work / "predictions.csv"
        preds.write_csv(predictions)
        out = {name: work / name for name in CLI_ARTIFACTS}
        panel = ["--features", str(out["synth"] / "features.csv"),
                 "--prices", str(out["synth"] / "prices.csv")]
        argvs = [
            ["synth", "--out", str(out["synth"]), "--seed", str(seed),
             "--n-instruments", str(size["n_instruments"]), "--days", str(size["days"]),
             "--block-size", str(size["block_size"])],
            ["evaluate", "--out", str(out["evaluate"]), "--predictions", str(predictions),
             *panel, "--group-by", "industry",
             "--industry", str(out["synth"] / "industry.csv")],
            ["backtest", "--out", str(out["backtest"]), "--predictions", str(predictions),
             *panel, "--k", str(size["k"]), "--n-drop", str(size["n_drop"])],
            ["regress", "--out", str(out["regress"]),
             "--backtest", str(out["backtest"] / "backtest.csv"),
             "--factors", str(out["synth"] / "factors.csv")],
        ]
        return dict(out=out, argvs=argvs)

    def op(self, state):
        return [cli.main(argv) for argv in state["argvs"]]

    def check(self, state, out):
        lines = []
        try:
            for (name, names), code in zip(CLI_ARTIFACTS.items(), out):
                if code != cli.EXIT_OK:
                    raise OutputError(f"{name} exited with {code}")
                folder = state["out"][name]
                manifest = json.loads((folder / "manifest.json").read_text(encoding="utf-8"))
                if manifest["artifacts"] != sorted(names):
                    raise OutputError(f"{name} lists artifacts {manifest['artifacts']}")
                for artifact in names:
                    path = folder / artifact
                    if not path.is_file():
                        raise OutputError(f"{name} did not write {artifact}")
                    lines.append(f"{name}/{artifact} "
                                 + hashlib.sha256(path.read_bytes()).hexdigest())
        finally:
            # the next operation starts from empty output folders
            for folder in state["out"].values():
                shutil.rmtree(folder, ignore_errors=True)
        return _sha256_lines(lines), {}

    def figures(self, size, median_s: float) -> dict:
        return {"cli_s": (median_s, "s")}


WORKLOADS = {
    "train_n24": TrainN24(),
    "predict_n800": PredictN800(),
    "cli_n800": CliN800(),
}
