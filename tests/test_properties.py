"""Property tests: every statistic, on either route, is invariant under a
joint relabelling of the pairs and under a common translation of the data."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from metricdep import (  # noqa: E402
    EuclideanSquared,
    GaussianKernel,
    LinearKernel,
    MaternKernel,
    dcov_vstat,
    hsic_vstat,
    induced_kernel,
    induced_semimetric,
    mcov_plugin,
    mcov_trace,
)

STATISTICS = [
    ("mcov euclid2", lambda x, y: mcov_plugin(x, y, EuclideanSquared())),
    ("mcov induced gaussian", lambda x, y: mcov_plugin(x, y, induced_semimetric(GaussianKernel()))),
    ("mcov_trace linear", lambda x, y: mcov_trace(x, y, LinearKernel())),
    ("mcov_trace matern", lambda x, y: mcov_trace(x, y, MaternKernel(1.5, 1.0))),
    ("hsic induced euclid2", lambda x, y: hsic_vstat(x, y, induced_kernel(EuclideanSquared(), np.ones(x.shape[1])))),
    ("hsic gaussian", lambda x, y: hsic_vstat(x, y, GaussianKernel())),
    ("dcov euclid2", lambda x, y: dcov_vstat(x, y, EuclideanSquared())),
    ("dcov induced gaussian", lambda x, y: dcov_vstat(x, y, induced_semimetric(GaussianKernel(0.8)))),
]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    p=st.integers(1, 3),
    shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    which=st.sampled_from(range(len(STATISTICS))),
)
def test_invariant_under_joint_permutation_and_translation(seed, n, p, shift, which):
    name, statistic = STATISTICS[which]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = 0.5 * x + rng.standard_normal((n, p))
    value = statistic(x, y)
    tol = 1e-10 * (1.0 + abs(value))

    perm = rng.permutation(n)
    assert abs(statistic(x[perm], y[perm]) - value) <= tol, name
    s = np.asarray(shift[:p])
    assert abs(statistic(x + s, y + s) - value) <= tol, name
