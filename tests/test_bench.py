"""The benchmark's own checks, run on a copy of bench/ against this checkout's src/."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_skewed_mixed_run_is_correct(tmp_path):
    # An untraced and a traced round: every name the tracer wraps, the library
    # API the benchmark's child process calls, and the reference checks.
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "skewed-mixed", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
