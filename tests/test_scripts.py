"""The scripts under scripts/ run end to end against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_compression_report_runs():
    proc = _run("compression_report.py")
    assert proc.returncode == 0, proc.stderr


def test_pipe_predictor_demo_matches_direct_decode():
    proc = _run("pipe_predictor_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "matches direct decode" in proc.stdout
