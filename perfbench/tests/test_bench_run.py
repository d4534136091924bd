import os
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT
from run import tail_percentile


def test_tail_percentile_keeps_ten_samples_above():
    summary = tail_percentile([float(i) for i in range(1, 21)])
    assert summary["n"] == 20 and summary["median"] == 10.5
    assert summary["tail_value"] == 10.0 and summary["tail_percentile"] == 50.0
    assert tail_percentile([1.0] * 10)["tail_value"] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "predict-n2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
