"""The benchmark's calls into the package, run in-process at tiny size.

`bench/workloads.py` builds its inputs through `PredictionSeries(rows)`,
`.rows`, `write_csv`, `train`, `predict_sliding`, the checkpoint format
and `cli.main`. Each workload runs set-up, one operation and its output
check twice with one seed, so a change to any of those calls that the
benchmark would trip over fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


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
