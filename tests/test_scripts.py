"""The example scripts under scripts/ run end to end against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--rounds", "2", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args, expect", [
    ("run_demo.py", (), "round    loss"),
    ("audit_run.py", (), "bound held in"),
    ("sweep_rho.py", ("--values", "0.4,0.6"), "  rho  final_loss"),
])
def test_script_runs(script, args, expect):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_run_demo_writes_outputs(tmp_path):
    proc = _run("run_demo.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "rounds.csv").read_text().splitlines()
    assert len(rows) == 3
    assert (tmp_path / "manifest.json").is_file()
