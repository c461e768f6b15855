"""Short traced runs of the benchmark: every op must pass its output check.

The traced run wraps library functions by the names its callers look them
up under (``cli.fit_monolithic``, ``cli.group_summaries``,
``linalg.projector``, ...), so a rename or a dropped import in the library
breaks it before any timing does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["student", "sim", "wide", "tall_hist"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
