"""The benchmark's workloads run to the end and pass their own checks.

``tests/test_bench_names.py`` checks that the names bench/ calls resolve;
this runs ``bench/run.py`` on a copy of ``src/``, ``bench/`` (without its
run artifacts in ``out/``) and ``BENCHMARK.json``, so a change to a result
field the benchmark or its checks read fails here, not in a benchmark run.
No count is pinned: one timed round each, and only the exit code and the
``"correct"`` flag of the last output line are asserted.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    dest = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


@pytest.mark.parametrize("workload", ["expand-batch", "verify-ladder", "cli-verify"])
def test_workload_runs_and_checks_pass(checkout, workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
