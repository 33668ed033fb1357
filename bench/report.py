"""Run every workload untraced and traced and print all metrics by name.

    python3 bench/report.py --seed 1 --seconds 20

Each run is its own ``run.py`` process. For every workload this prints
the end-to-end metrics and the workload's own figures from the untraced
run, the non-zero per-layer metrics from the traced run, the tracing
overhead (traced against untraced median operation time) and whether
the two runs' output digests agree. Exits non-zero if a run fails, is
not correct, or the digests differ.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int):
    proc, report, result = run.invoke(BENCH_DIR.parent, workload, seed, seconds, trace)
    if result is None:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}")
    return report, result


def show(rows) -> None:
    for name, entry in rows:
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        plain, plain_result = run_once(workload, args.seed, args.seconds, 0)
        traced, traced_result = run_once(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}) ==")
        print(f"end to end, untraced, {plain['samples']} timed set-ups and operations, "
              f"{plain_result['failed']} of {plain_result['attempted']} failed:")
        show(plain_result["metrics"].items())
        show(plain["figures"].items())
        print("per layer, traced (zeros omitted):")
        show((n, m) for n, m in traced_result["metrics"].items() if m["value"])
        untraced_s = plain["figures"]["op_median_s"]["value"]
        traced_s = traced_result["metrics"]["trace.op_s"]["value"]
        same = plain["digest"] == traced["digest"]
        print(f"tracing overhead, median operation: {traced_s:.4g} s traced "
              f"vs {untraced_s:.4g} s untraced "
              f"({traced_s / untraced_s - 1.0:+.1%})")
        print(f"output digest {plain['digest']}, traced run "
              f"{'equal' if same else 'DIFFERENT: ' + str(traced['digest'])}")
        ok = ok and same and plain_result["correct"] and traced_result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
