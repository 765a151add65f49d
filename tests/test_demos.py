"""Smoke runs of the demos: the kernel catalogue, the estimators and their
permutation tests, the exact oracle, and the power studies.  Each must run
to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_kernels_and_semimetrics.py",
        "02_estimators_and_tests.py",
        "03_exact_oracle_and_mercer.py",
        "04_counterexamples_and_power.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
