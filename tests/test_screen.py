"""The screened n x n route: hsic and dcov permutations screened through
pivoted-Cholesky factors of both centred sides, with every value near the
observed statistic recomputed on the n x n route.  Its counts, and so its
p-values, must be the n x n route's; it must decline where it cannot pay
off; and it must hold no third n x n array."""

import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from metricdep import (  # noqa: E402
    ExplicitSemimetric,
    GaussianKernel,
    distance_matrix,
    estimators,
    parse_kernel,
    parse_semimetric,
    permutation_test,
)
from metricdep.kernels import EuclideanSquared  # noqa: E402

# (estimator, spec keyword, spec, c): the induced centred Gram is c times
# the centred matrix the n x n route holds
SPECS = [
    ("hsic", "kernel", "gaussian", 1.0),
    ("hsic", "kernel", "gaussian:sigma=3", 1.0),
    ("hsic", "kernel", "matern:nu=2.5,ell=4", 1.0),
    ("hsic", "kernel", "induced_kernel:base=(induced_metric:base=(gaussian:sigma=2))", 1.0),
    ("dcov", "metric", "induced_metric:base=(gaussian)", -0.5),
    ("dcov", "metric", "induced_metric:base=(matern:nu=1.5,ell=3)", -0.5),
]


def _spec(kind, text):
    return {kind: parse_kernel(text) if kind == "kernel" else parse_semimetric(text)}


def _counts(prepared, perms, batch):
    """Exceedance counts for both alternatives, as ``_exceedances`` makes them."""
    observed = prepared.observed
    t = np.concatenate([prepared.permuted(perms[i : i + batch]) for i in range(0, len(perms), batch)])
    return np.count_nonzero(t >= observed), np.count_nonzero(np.abs(t) >= abs(observed))


def _sample(seed, n, d, dep, levels=0):
    rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
    x = rng.standard_normal((n, d))
    y = dep * x + rng.standard_normal((n, d))
    if levels:
        x, y = np.round(x * levels / 2), np.round(y * levels / 2)
    return x, y


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(12, 40),
    d=st.sampled_from([1, 1, 2, 5]),
    dep=st.sampled_from([0.0, 0.3, 2.0]),
    levels=st.sampled_from([0, 2, 3]),
    which=st.sampled_from(range(len(SPECS))),
    batch=st.integers(1, 8),
)
def test_screened_counts_are_the_nxn_counts(seed, n, d, dep, levels, which, batch):
    estimator, kind, text, c = SPECS[which]
    x, y = _sample(seed, n, d, dep, levels)
    inner = estimators._prepare(estimator, x, y, **_spec(kind, text))
    assert type(inner) is estimators._CenteredInner
    screened = estimators._screened(inner, c)
    perms = np.vstack(list(estimators._permutation_batches(seed, n, 40, 40)))
    assert screened.observed == inner.observed
    assert _counts(screened, perms, batch) == _counts(inner, perms, 40)


def _two_and_three_levels(seed, n):
    rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
    return rng.integers(0, 2, (n, 1)).astype(float), rng.integers(0, 3, (n, 1)).astype(float)


@pytest.mark.parametrize("estimator,kind,text,c", [
    ("hsic", "kernel", "gaussian:sigma=1", 1.0),
    ("dcov", "metric", "induced_metric:base=(gaussian:sigma=1)", -0.5),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_ties_are_recomputed(estimator, kind, text, c, seed):
    # with two- and three-level data a re-pairing's statistic depends only
    # on its contingency table, so many permuted values equal the observed
    # one in exact arithmetic and differ from it in the last bits; the
    # screen value differs from both, so only the recomputation keeps the
    # n x n route's comparisons
    n = 30
    x, y = _two_and_three_levels(seed, n)
    inner = estimators._prepare(estimator, x, y, **_spec(kind, text))
    screened = estimators._screened(inner, c)
    assert isinstance(screened, estimators._Screened)
    perms = np.vstack(list(estimators._permutation_batches(seed, n, 300, 300)))
    t = inner.permuted(perms)
    assert np.count_nonzero(np.abs(t - inner.observed) <= 1e-12 * abs(inner.observed)) >= 20
    assert _counts(screened, perms, 300) == _counts(inner, perms, 300)


@pytest.mark.parametrize("constant", ["x", "y", "both"])
def test_a_constant_side_has_a_rank_zero_factor(constant):
    n = 40
    x, y = _sample(8, n, 1, 0.5)
    if constant in ("x", "both"):
        x = np.zeros_like(x)
    if constant in ("y", "both"):
        y = np.ones_like(y)
    inner = estimators._prepare("hsic", x, y, kernel=GaussianKernel(1.0))
    screened = estimators._screened(inner, 1.0)
    assert isinstance(screened, estimators._Screened)
    perms = np.vstack(list(estimators._permutation_batches(8, n, 30, 30)))
    assert _counts(screened, perms, 7) == _counts(inner, perms, 30)


class TestRouteChoice:
    @pytest.fixture
    def no_factorisation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a factorisation started")

        monkeypatch.setattr(estimators, "_pivoted_cholesky", fail)

    def test_taken_for_gaussian_hsic_at_n_2000_in_two_dimensions(self):
        x, y = _sample(1, 2000, 2, 0.5)
        prepared = estimators._prepare("hsic", x, y, kernel=GaussianKernel(), permutations=199)
        assert isinstance(prepared, estimators._Screened)
        assert prepared.margin < 1e-6 * prepared.observed

    def test_declined_in_five_dimensions(self):
        x, y = _sample(2, 2000, 5, 0.5)
        prepared = estimators._prepare("hsic", x, y, kernel=GaussianKernel(), permutations=199)
        assert type(prepared) is estimators._CenteredInner

    @pytest.mark.usefixtures("no_factorisation")
    def test_declined_below_the_crossover_without_factorising(self):
        x, y = _sample(3, 100, 2, 0.5)
        for estimator, spec in (("hsic", dict(kernel=GaussianKernel())),
                                ("dcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian)")))):
            prepared = estimators._prepare(estimator, x, y, permutations=199, **spec)
            assert type(prepared) is estimators._CenteredInner
            permutation_test(x, y, estimator, B=19, seed=1, **spec)

    @pytest.mark.usefixtures("no_factorisation")
    def test_declined_without_permutations_and_on_explicit_matrices(self):
        x, y = _sample(4, 400, 1, 0.5)
        assert type(estimators._prepare("hsic", x, y, kernel=GaussianKernel())) is estimators._CenteredInner
        n = 200
        pts = np.random.default_rng(5).standard_normal((n, 2))
        metric = ExplicitSemimetric(distance_matrix(EuclideanSquared(), pts))
        idx = np.arange(n)
        prepared = estimators._prepare("dcov", idx, idx[::-1], metric=metric, permutations=99)
        assert type(prepared) is estimators._CenteredInner


def test_screen_holds_no_third_nxn_array(monkeypatch):
    n = 600
    x, y = _sample(6, n, 1, 0.5)
    screened = estimators._screened
    extra = []

    def traced(inner, c):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = screened(inner, c)
        extra.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(estimators, "_screened", traced)
    # one-row blocks, so that the exact observed statistic's gather holds
    # only a few rows
    monkeypatch.setattr(estimators, "_BLOCK_BYTES", 8 * n)
    tracemalloc.start()
    try:
        prepared = estimators._prepare("hsic", x, y, kernel=GaussianKernel(), permutations=99)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(prepared, estimators._Screened)
    # the screen adds two n x sqrt(8 n) factors and no n x n array
    assert extra[0] < 0.5 * 8 * n * n
    assert held < 2.5 * 8 * n * n
