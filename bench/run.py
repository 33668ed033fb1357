"""xsrank benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload train_n24 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. The run sets up the workload's inputs from the seed and runs one
operation on them, again and again: an untimed warm-up whose output digest
is the reference, then a fixed number of timed set-ups and operations,
``--seconds`` divided by the workload's typical cycle time. The count does
not depend on the program's speed, so neither does the statistic taken
over it. An operation is a two-epoch train call, a six-window predict call
or the four-command CLI chain. Every operation must pass the workload's
output check and give the warm-up's digest. The last line of stdout is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``op_p75_s`` and
``setup_s``, the upper quartile of the run's operation and set-up times,
and ``peak_rss_mb``. A run holds about ten operations, too few for a
percentile with ten samples beyond it. The upper quartile is used in place
of the median because the speed of a shared machine swings between
operations, and in sets of ten runs the upper quartile varied less from
run to run than the median did; set-ups are spread over the whole run for
the same reason. The medians are in the report.
With ``--trace 1`` the timed set-ups and operations run under the tracer in
``tracing.py`` and the metrics are the per-layer ones. The line before the
result is a report: the workload's own figures (``epoch_s``, ``valid_ic``,
``predict_windows_per_s``, ``cli_s``, all from the median operation, and
``fail_ratio``), the output digest, the sample times and the environment.
Reports and span files go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 3
END_TO_END = {"op_p75_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness smoke test")
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout; None outside a git checkout or without git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "xsrank").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def upper_quartile(values) -> float:
    """Upper quartile, interpolated between the sorted values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def measure(wl, seed, size, work, repeats, traced) -> dict:
    """Set up and run the operation ``repeats + 1`` times, alternating.

    The first set-up and operation are an untimed, untraced warm-up; its
    output digest is the reference every later operation must match. A
    failed set-up or operation is counted and the loop goes on.
    """
    from workloads import OutputError

    run = dict(attempted=0, failed=0, digest=None, figures={},
               setup_s=[], op_s=[], failed_s=[])
    for i in range(repeats + 1):
        scope = traced if i else (lambda name: contextlib.nullcontext())
        run["attempted"] += 1
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            with scope("setup"):
                state = wl.setup(seed, size, work)
            t1 = time.perf_counter()
            with scope("op"):
                out = wl.op(state)
            t2 = time.perf_counter()
            digest, run["figures"] = wl.check(state, out)
            if run["digest"] is None:
                run["digest"] = digest
            elif digest != run["digest"]:
                raise OutputError("output differs from the warm-up operation")
        except Exception:  # every failure is counted, and the run goes on
            run["failed"] += 1
            traceback.print_exc()
            run["failed_s"].append(time.perf_counter() - t0)
            continue
        if i:
            run["setup_s"].append(t1 - t0)
            run["op_s"].append(t2 - t1)
    return run


def invoke(cwd, workload: str, seed: int, seconds: float, trace: int,
           tiny: bool = False, timeout: float = 600):
    """Run this script as its own process in ``cwd``.

    Returns the finished process and its report and result, both None
    unless it exited 0 with the two lines at the end of its output.
    """
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc, None, None
    return proc, json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    # BLAS reads these when numpy loads, so they are set before any import of it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (ROOT / "src" / "xsrank" / "__init__.py").is_file():
        print(f"error: no xsrank sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import xsrank

    if Path(xsrank.__file__).resolve().parent != ROOT / "src" / "xsrank":
        print(f"error: imported xsrank from {xsrank.__file__}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    size, cycle_s = (wl.tiny, wl.tiny_cycle_s) if args.tiny else (wl.full, wl.full_cycle_s)
    # a fixed count for a given --seconds, whatever the program's speed
    repeats = max(MIN_REPEATS, round(args.seconds / cycle_s))
    tracer = tracing.Tracer() if args.trace else None
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = BENCH_DIR / "results"
    work = BENCH_DIR / "work" / f"{label}-{os.getpid()}"
    results.mkdir(exist_ok=True)

    def traced(name):
        return tracer.root(name) if tracer else contextlib.nullcontext()

    try:
        run = measure(wl, args.seed, size, work, repeats, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # with no passing operation, failed attempts still give a duration
    op_s = run["op_s"] or run["failed_s"]
    setup_s = run["setup_s"] or run["failed_s"]
    op_median_s = statistics.median(op_s)
    figures = {"op_median_s": (op_median_s, "s"),
               "setup_median_s": (statistics.median(setup_s), "s"),
               **wl.figures(size, op_median_s), **run["figures"],
               "fail_ratio": (run["failed"] / run["attempted"], "ratio")}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "digest": run["digest"],
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "samples": len(run["op_s"]),
        "op_s_all": run["op_s"],
        "setup_s_all": run["setup_s"],
        "environment": environment(np),
    }
    correct = run["failed"] == 0 and bool(run["op_s"])
    if tracer:
        values = tracing.per_layer_metrics(tracer.spans, tracer.counters)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in tracing.per_layer_units().items()}
        nested = tracing.check_nesting(tracer.spans)
        correct = correct and nested and not tracer.restore_failures
        spans_path = results / f"{label}-spans.csv"
        tracer.write_csv(spans_path)
        report.update(
            spans_nested=nested,
            restore_failures=tracer.restore_failures,
            not_wrapped=tracer.missing,
            wait_s=None,
            spans=str(spans_path.relative_to(ROOT)),
        )
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"op_p75_s": upper_quartile(op_s), "setup_s": upper_quartile(setup_s),
                  "peak_rss_mb": peak_mb}
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    (results / f"{label}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
