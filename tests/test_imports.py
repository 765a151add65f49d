"""Which scipy modules a fresh metricdep process loads: none at start-up,
and then only what the command it runs calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json, sys
import metricdep, metricdep.cli
args = {args!r}
if args:
    metricdep.cli.main(args, standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules(args=()):
    """The scipy modules in ``sys.modules`` after importing metricdep and
    its CLI, and running the CLI on ``args`` if given."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT.format(args=list(args))],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture
def plane(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    path = tmp_path / "plane.csv"
    np.savetxt(path, np.hstack([x, x + rng.standard_normal((30, 2))]), delimiter=",",
               header="x_1,x_2,y_1,y_2", comments="")
    return str(path)


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules() == set()


def test_a_feature_route_test_loads_no_scipy(plane):
    args = ["test", "--input", plane, "--estimator", "dcov", "--metric", "euclid2", "--B", "9"]
    assert _scipy_modules(args) == set()


def test_a_radial_kernel_loads_scipy_spatial_only(plane):
    modules = _scipy_modules(["test", "--input", plane, "--estimator", "hsic", "--kernel", "gaussian", "--B", "9"])
    assert "scipy.spatial.distance" in modules
    assert not {m for m in modules if m.startswith("scipy.stats")}
