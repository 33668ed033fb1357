"""The benchmark's calls into the package, run in-process at tiny size,
and the names its tracer wraps.

`bench/workloads.py` builds its inputs through `PredictionSeries(rows)`,
`.rows`, `write_csv`, `train`, `predict_sliding`, the checkpoint format
and `cli.main`. Each workload runs set-up, one operation and its output
check twice with one seed, so a change to any of those calls that the
benchmark would trip over fails here first. Each also runs once at full
size and seed 5, against that run's pinned digest.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from xsrank import cli, data, tensor
from xsrank.model import ActConfig, ActModel
from xsrank.training import TrainSettings, predict_sliding, train

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_bench("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_repeats_at_tiny_size(name, tmp_path):
    workload = WORKLOADS[name]
    digests = []
    for run in ("a", "b"):
        work = tmp_path / run
        work.mkdir()
        state = workload.setup(3, workload.tiny, work)
        digest, figures = workload.check(state, workload.op(state))
        assert len(digest) == 64
        assert isinstance(figures, dict)
        digests.append(digest)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_command_runs_each_workload_at_tiny_size(name, tmp_path):
    # the benchmark's own command, from a copy of bench/ and src/, since a
    # run writes its reports and work files under bench/
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    skip = shutil.ignore_patterns("__pycache__", "results", "work")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


# the digest of each workload's full-size operation at seed 5, as the
# benchmark's warm-up computes it; a change that moves any output bit
# fails here
FULL_SIZE_SEED5_DIGESTS = {
    "cli_n800": "5227b7f0b2c2bcc39b4a3675517ed1af0e7c551e48cf563c5ba5cd8a92167096",
    "predict_n800": "d7aca4cba6abafb97165a62c0dc1925bf7c3f13eb95cae8a9446a6e18040a8a5",
    "train_n24": "34fd3cfe28323f0ada2facc180e1f085a8dd5beb437906d050a8b0c5172ebe93",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_full_size_seed5_digest_is_pinned(name, tmp_path):
    workload = WORKLOADS[name]
    state = workload.setup(5, workload.full, tmp_path)
    digest, _ = workload.check(state, workload.op(state))
    assert digest == FULL_SIZE_SEED5_DIGESTS[name]


def test_tracer_finds_and_wraps_every_cli_name(tmp_path):
    # the tracer patches cli functions and the COMMANDS entries that
    # cli.main dispatches through; a cli change that moves one fails here
    # rather than in the next traced run. So does a library edit that drops
    # any other wrapped name, such as training.make_windows, .decompose or
    # .act_forward_parts, which would zero its span silently; only these
    # two names are known to be stale
    tracing = _load_bench("tracing")
    tracer = tracing.Tracer()
    assert set(tracer.missing) <= {"xsrank.model.decompose",
                                   "xsrank.graphs.normalized_adjacency"}
    config = tmp_path / "synth.cfg"
    config.write_text("days=8\n")
    with tracer.root("op"):
        assert cli.main(["synth", "--out", str(tmp_path / "synth"),
                         "--config", str(config), "--n-instruments", "8"]) == cli.EXIT_OK
    assert tracer.restore_failures == []
    names = {span[3] for span in tracer.spans}
    assert {"cli.cmd_synth", "cli.file_digest", "data.write_panel"} <= names



def test_tracer_records_one_rebalance_span_per_traded_day(tmp_path):
    # run_backtest calls topk_dropout_rebalance once per scored day that
    # has a next return day, each call inside the run_backtest span
    tracing = _load_bench("tracing")
    tracer = tracing.Tracer()
    config = tmp_path / "synth.cfg"
    config.write_text("days=8\n")
    synth = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(synth), "--config", str(config),
                     "--n-instruments", "8"]) == cli.EXIT_OK
    ds = data.load_panel(synth / "features.csv", synth / "prices.csv")
    # every other day scored, the last panel day among them, and some
    # names unscored on each
    scored = ds.dates[::-2]
    rows = [(day, inst, float((t * 7 + i * 3) % 5))
            for t, day in enumerate(scored) for i, inst in enumerate(ds.instruments)
            if (t + i) % 3]
    data.PredictionSeries(rows).write_csv(tmp_path / "predictions.csv")
    with tracer.root("op"):
        assert cli.main(["backtest", "--out", str(tmp_path / "bt"),
                         "--predictions", str(tmp_path / "predictions.csv"),
                         "--features", str(synth / "features.csv"),
                         "--prices", str(synth / "prices.csv"),
                         "--k", "3", "--n-drop", "1"]) == cli.EXIT_OK
    assert tracer.restore_failures == []
    [run] = [span for span in tracer.spans if span[3] == "backtest.run_backtest"]
    steps = [span for span in tracer.spans if span[3] == "backtest.topk_dropout_rebalance"]
    assert len(steps) == len(scored) - 1
    assert all(span[1] == run[0] for span in steps)


def test_tracer_records_one_knn_span_pair_per_block_of_each_window(tmp_path, monkeypatch):
    # pspe_forward builds a window's k-NN lists one block of rows at a
    # time through model.cosine_similarity_matrix and model.topk_graph,
    # the names the tracer wraps, so each block is one span of each,
    # inside its window's pspe_forward span
    tracing = _load_bench("tracing")
    tracer = tracing.Tracer()
    ds, relations = data.generate_synthetic(data.SynthConfig(n_instruments=12, days=24,
                                                             seed=1))[:2]
    model = ActModel(ActConfig(n_features=ds.n_features, knn=3), seed=1)
    monkeypatch.setattr(tensor, "TOPK_BLOCK_CELLS", 5 * 12)  # blocks of 5, 5 and 2 rows
    with tracer.root("op"):
        predict_sliding(model, ds, relations, start_date=ds.dates[-3])
    assert tracer.restore_failures == []
    windows = [span[0] for span in tracer.spans if span[3] == "model.pspe_forward"]
    assert len(windows) == 3
    for name in ("graphs.cosine_similarity_matrix", "graphs.topk_graph"):
        parents = [span[1] for span in tracer.spans if span[3] == name]
        assert sorted(parents) == sorted(windows * 3), name

    # a training step forwards a batch of 4 windows, and each window takes
    # its own blocks, here of 6 and 6 rows, so each training forward's
    # pspe_forward has two of each span per window, eight in all
    monkeypatch.setattr(tensor, "TOPK_BLOCK_CELLS", 6 * 12)
    tracer = tracing.Tracer()
    cfg = ActConfig(n_features=ds.n_features, window=8, knn=3)
    # 8 training windows, two batches of 4, and 8 validation windows
    settings = TrainSettings(valid_start=ds.dates[15], epochs=1, batch_size=4, seed=1)
    with tracer.root("op"):
        train(ds, relations, cfg, settings)
    assert tracer.restore_failures == []
    steps = [span[0] for span in tracer.spans if span[3] == "model.act_forward_parts.train"]
    assert len(steps) == 2
    step_of = {span[0]: span[1] for span in tracer.spans if span[3] == "model.pspe_forward"}
    for name in ("graphs.cosine_similarity_matrix", "graphs.topk_graph"):
        parents = [step_of[span[1]] for span in tracer.spans if span[3] == name]
        assert sorted(p for p in parents if p in steps) == sorted(steps * 4 * 2), name
