import os
import subprocess
import sys
from pathlib import Path

import pytest

import stmmmf

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The pipeline demos run at benchmark scale (about 4 s and 30 s on 2 cores).
SLOW = {"04_full_pipeline.py", "05_baseline_transfer.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(demo, tmp_path):
    done = run_script([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.slow
def test_readme_library_example_runs(tmp_path):
    """README's "Library" code block runs as written (about 6 s)."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    done = run_script(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 5  # one line per round of max_rounds=5


def run_script(args, cwd):
    """Run Python on args with the package importable and warnings as errors."""
    env = dict(os.environ, PYTHONPATH=str(Path(stmmmf.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=600,
    )
