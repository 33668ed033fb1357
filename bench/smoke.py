"""Smoke test for the benchmark harness itself.

    python3 bench/smoke.py

Checks, and exits non-zero at the first failure, that:

- ``BENCHMARK.json`` names exactly the workloads ``run.py`` knows and
  exactly the metrics, with units, that its results carry;
- every workload, run at its tiny size under two seeds, untraced and
  traced, prints a correct result naming exactly those metrics, and the
  traced run's output digest equals the untraced run's;
- self time is a span's duration minus the time its child spans cover,
  and spans that do not nest are caught;
- the tracer puts back every attribute it wrapped, also after an error;
- in a folder that holds only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != run.py workloads {list(WORKLOADS)}")
    for key, expected in (("end_to_end", run.END_TO_END),
                          ("per_layer", tracing.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != expected:
            fail(f"BENCHMARK.json {key} differs from the harness: "
                 f"{sorted(set(listed.items()) ^ set(expected.items()))}")


def check_results() -> None:
    for workload in WORKLOADS:
        for seed in SEEDS:
            digests = []
            for trace, expected in ((0, run.END_TO_END), (1, tracing.per_layer_units())):
                proc, report, result = run.invoke(ROOT, workload, seed, 1, trace, tiny=True)
                if result is None:
                    fail(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr[-3000:]}")
                where = f"{workload} seed {seed} trace {trace}"
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    fail(f"{where}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    fail(f"{where}: not correct\n{proc.stderr[-3000:]}")
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected:
                    fail(f"{where}: metrics {sorted(set(units.items()) ^ set(expected.items()))}")
                for name, m in result["metrics"].items():
                    value = m["value"]
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        fail(f"{where}: {name} = {value!r}")
                    if trace == 0 and value <= 0:
                        fail(f"{where}: end-to-end {name} = {value!r}")
                digests.append(report["digest"])
            if digests[0] != digests[1]:
                fail(f"{workload} seed {seed}: traced digest {digests[1]} "
                     f"!= untraced {digests[0]}")
            print(f"ok {workload} seed {seed}: {digests[0][:16]}")


def check_self_time() -> None:
    spans = [
        [0, -1, 0, "op", 0, 100, 0.0],
        [1, 0, 0, "a", 10, 40, 0.0],
        [2, 1, 0, "b", 20, 30, 0.0],
        [3, 0, 0, "c", 50, 60, 0.0],
    ]
    if tracing.self_times(spans) != [100 - 30 - 10, 30 - 10, 10, 10]:
        fail(f"self times {tracing.self_times(spans)}")
    if not tracing.check_nesting(spans):
        fail("nested spans reported as not nested")
    overlapping = [rec[:] for rec in spans]
    overlapping[3][4] = 35  # "c" starts before its sibling "a" ends
    outside = [rec[:] for rec in spans]
    outside[2][5] = 45  # "b" ends after its parent "a"
    if tracing.check_nesting(overlapping) or tracing.check_nesting(outside):
        fail("spans that do not nest reported as nested")
    print("ok self time")


def check_restore() -> None:
    tracer = tracing.Tracer()
    if tracer.missing:
        fail(f"attributes not found to wrap: {tracer.missing}")
    before = [slot.original for slot, _ in tracer.slots]
    try:
        with tracer.root("op"):
            if any(slot.restored() for slot, _ in tracer.slots):
                fail("an attribute was not wrapped inside the root span")
            raise KeyError("raised inside the root span")
    except KeyError:
        pass
    if tracer.restore_failures or not all(slot.restored() for slot, _ in tracer.slots):
        fail(f"attributes not restored: {tracer.restore_failures}")
    if before != [slot.original for slot, _ in tracer.slots]:
        fail("the originals changed")
    print("ok restore")


def check_bare_folder() -> None:
    bare = BENCH_DIR / "work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc, _, _ = run.invoke(bare, next(iter(WORKLOADS)), 1, 1, 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail(f"bare folder run exited {proc.returncode} with {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)
    print("ok bare folder")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_self_time()
    check_restore()
    check_bare_folder()
    check_results()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
