"""The scripts under scripts/ run end to end against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_compression_report_runs():
    proc = _run("compression_report.py")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bits", ["0", "17", "x"])
def test_compression_report_rejects_bad_bits_as_usage_error(bits):
    proc = _run("compression_report.py", "--bits", bits)
    assert proc.returncode == 2, proc.stderr
    assert f"argument --bits: must be an integer in [1, 16], got '{bits}'" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_pipe_predictor_demo_matches_direct_decode():
    proc = _run("pipe_predictor_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "matches direct decode" in proc.stdout
