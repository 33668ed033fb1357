"""The README's quick start and the other demos, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args, **env):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           os.environ.get("PYTHONPATH", "")]), **env)
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_quickstart_runs_and_prints_its_out_of_sample_ic():
    out = _run([sys.executable, str(ROOT / "demos" / "quickstart.py")])
    assert "out-of-sample IC " in out, out


def test_cli_walkthrough_runs_and_prints_its_three_tables(tmp_path):
    # the script calls python3 and works in a mktemp directory: run this
    # interpreter, and keep the directory under tmp_path
    out = _run(["sh", str(ROOT / "demos" / "cli_walkthrough.sh")], TMPDIR=str(tmp_path),
               PATH=os.pathsep.join([str(Path(sys.executable).parent), os.environ["PATH"]]))
    assert f"working in {tmp_path}" in out, out
    for title, header in (("ranking metrics", "metric,value"),
                          ("portfolio metrics", "metric,value"),
                          ("factor regression", "model,alpha,t_alpha,")):
        assert f"=== {title} ===\n{header}" in out, out
    assert "\nff3," in out and "\nff5," in out, out


def test_ablation_study_prints_every_variant():
    out = _run([sys.executable, str(ROOT / "demos" / "ablation_study.py")]).splitlines()
    assert out[0].split() == ["variant", "ic", "rank_ic"], out
    labels = ["full", "trend -> plain GAT", "fluctuation -> MLP", "shock -> MLP"]
    assert [line[:22].strip() for line in out[1:]] == labels, out
    for line in out[1:]:
        ic, rank_ic = map(float, line[22:].split())
        assert -1.0 <= ic <= 1.0 and -1.0 <= rank_ic <= 1.0, line
