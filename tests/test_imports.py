"""Which scipy modules a fresh metricdep process loads: none at start-up,
and then only what the command it runs calls; a radial kernel, scipy's
compiled distance kernels, loaded without scipy.spatial's package, with
the bits of cdist and pdist."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
import scipy
from scipy.spatial.distance import cdist, pdist

from metricdep import kernels

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


# the scipy packages a radial command does not load: scipy.spatial's
# package runs kd-trees and qhull, and imports these
_HEAVY = ("scipy.spatial", "scipy.sparse", "scipy.linalg", "scipy.special", "scipy.stats")


@pytest.mark.parametrize("command", [["test", "--B", "9"], ["compute"]], ids=["test", "compute"])
@pytest.mark.parametrize("kernel", ["gaussian", "matern:nu=1.5,ell=2"])
def test_a_radial_command_loads_no_scipy_spatial_sparse_linalg_special_or_stats(plane, command, kernel):
    # the median heuristic and the Gram rows run scipy's compiled distance
    # kernels, loaded from their extension module's file
    modules = _scipy_modules([*command, "--input", plane, "--estimator", "hsic", "--kernel", kernel])
    assert "scipy" in modules
    assert not {m for m in modules if any(m == p or m.startswith(p + ".") for p in _HEAVY)}


def _blocks():
    """Pairs of point blocks as the kernels pass them: whole, sliced, strided,
    column slices of a wider array, Fortran-ordered, and single rows."""
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    for d in range(1, 6):
        x, wide = rng.standard_normal((40, d)), rng.standard_normal((40, d + 3))
        yield x, x
        yield x[3:17], x
        yield x[::3], x[1::2]
        yield wide[:, 2 : 2 + d], x
        yield np.asfortranarray(x), x[::-1]
        yield x[5:6], x
        yield x[5:6], x[7:8]


def _assert_scipys_bits(distances):
    for a, b in _blocks():
        assert np.array_equal(distances.cdist_sqeuclidean(a, b), cdist(a, b, "sqeuclidean"))
        assert np.array_equal(distances.pdist_sqeuclidean(a), pdist(a, "sqeuclidean"))


def test_the_loaded_kernels_give_the_bits_of_cdist_and_pdist(monkeypatch):
    # loaded from the extension's file, as where scipy.spatial is not imported
    monkeypatch.delitem(sys.modules, kernels._DISTANCES, raising=False)
    loaded = kernels._distance_kernels.__wrapped__()
    assert not isinstance(loaded, SimpleNamespace)
    _assert_scipys_bits(loaded)
    assert kernels._distance_kernels() is kernels._distance_kernels()
    _assert_scipys_bits(kernels._distance_kernels())


def test_the_fallback_gives_the_bits_of_cdist_and_pdist(monkeypatch, tmp_path):
    # scipy's directory without the extension, or a module without either
    # function: scipy.spatial.distance's own cdist and pdist
    (tmp_path / "spatial").mkdir()
    with monkeypatch.context() as patch:
        patch.setattr(scipy, "__path__", [str(tmp_path)])
        patch.delitem(sys.modules, kernels._DISTANCES, raising=False)
        fallback = kernels._distance_kernels.__wrapped__()
    assert isinstance(fallback, SimpleNamespace)
    _assert_scipys_bits(fallback)
    for present in ("cdist_sqeuclidean", "pdist_sqeuclidean"):
        # the other function is missing
        module = ModuleType(kernels._DISTANCES)
        setattr(module, present, len)
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, kernels._DISTANCES, module)
            fallback = kernels._distance_kernels.__wrapped__()
        assert isinstance(fallback, SimpleNamespace)
        _assert_scipys_bits(fallback)


_LOADED_FIRST = """
import sys
import numpy as np
from metricdep import kernels
x = np.random.default_rng(1).standard_normal((30, 3))
loaded = kernels._distance_kernels()
assert not [m for m in sys.modules if m.startswith("scipy.spatial")]
from scipy.spatial import distance
assert np.array_equal(loaded.cdist_sqeuclidean(x, x[::2]), distance.cdist(x, x[::2], "sqeuclidean"))
assert np.array_equal(loaded.pdist_sqeuclidean(x), distance.pdist(x, "sqeuclidean"))
"""

_IMPORTED_FIRST = """
import sys
from scipy.spatial import distance
from metricdep import kernels
assert kernels._distance_kernels() is sys.modules[kernels._DISTANCES]
"""


@pytest.mark.parametrize("script", [_LOADED_FIRST, _IMPORTED_FIRST], ids=["loaded_first", "imported_first"])
def test_loading_and_importing_scipy_spatial_work_in_either_order(script):
    # loaded first, the extension leaves scipy.spatial to a later import,
    # which gives the same bits; imported first, scipy.spatial's module is
    # the one the loader hands back
    subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
