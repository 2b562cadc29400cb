import os
import subprocess
import sys
from pathlib import Path

import pytest

import stmmmf

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The pipeline demos run at benchmark scale (about 4 s and 30 s on 2 cores).
SLOW = {"04_full_pipeline.py", "05_baseline_transfer.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(stmmmf.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
