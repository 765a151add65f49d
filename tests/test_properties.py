"""Property tests: every statistic, on either route, is invariant under a
joint relabelling of the pairs and under a common translation of the data;
the exact oracle matches the expectation definitions written out as sums
over the support, its Mercer sums total the exact measures, and on an
empirical law it matches the estimators on both routes; a permutation loop
stopped once p <= alpha cannot hold makes the full loop's decision."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from metricdep import (  # noqa: E402
    DiscreteJoint,
    EuclideanSquared,
    ExplicitSemimetric,
    GaussianKernel,
    KernelInducedSemimetric,
    LinearKernel,
    MaternKernel,
    dcov_vstat,
    distance_matrix,
    empirical_joint,
    estimators,
    exact_dcov,
    exact_hsic,
    exact_mcov,
    hsic_vstat,
    induced_kernel,
    induced_semimetric,
    kernel_eval,
    mcov_plugin,
    mcov_trace,
    mercer_hsic_decomposition,
    mercer_mcov_decomposition,
    permutation_test,
    resolve_bandwidth,
    semimetric_eval,
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


# ---------------------------------------------------------------------------
# the exact oracle


def _joint(seed, m, m2, p, q, shared=False):
    """A random joint with m x m2 support points in R^p x R^q, every
    marginal probability positive; with ``shared`` (p == q) the supports
    share points."""
    rng = np.random.default_rng(seed)
    sx = rng.standard_normal((m, p))
    sy = rng.standard_normal((m2, q))
    if shared:
        sy[: min(m, m2) - 1] = sx[: min(m, m2) - 1]
    probs = rng.dirichlet(np.ones(m * m2)).reshape(m, m2) + 0.01
    return DiscreteJoint(sx, sy, probs / probs.sum())


def _matrix(evaluate, obj, us, vs):
    return np.array([[evaluate(obj, u, v) for v in vs] for u in us])


def _three_term(probs, a, b):
    """E E'[a b] + E[a] E[b] - 2 E[E'a E''b] over the support, with (X, Y),
    (X', Y') and (X'', Y'') independent draws of the joint and a, b the
    square kernel or distance matrices of the two sides."""
    px, py = probs.sum(axis=1), probs.sum(axis=0)
    t1 = np.einsum("ab,cd,ac,bd->", probs, probs, a, b)
    t2 = np.einsum("ab,cd,ac->", probs, probs, a) * np.einsum("ab,cd,bd->", probs, probs, b)
    t3 = np.einsum("ab,c,d,ac,bd->", probs, px, py, a, b)
    return t1 + t2 - 2.0 * t3


def _close(value, reference):
    return abs(value - reference) <= 1e-10 * (1.0 + abs(reference))


KERNELS = [
    ("gaussian", lambda p: GaussianKernel(0.9)),
    ("linear", lambda p: LinearKernel()),
    ("matern", lambda p: MaternKernel(1.5, 1.3)),
    ("induced euclid2", lambda p: induced_kernel(EuclideanSquared(), np.linspace(-1.0, 1.0, p))),
]

_support_sizes = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), m2=st.integers(1, 5), p=st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 3), which=st.sampled_from(range(len(KERNELS))), **_support_sizes)
def test_exact_measures_match_the_expectation_definitions(seed, m, m2, p, q, which):
    name, make = KERNELS[which]
    j = _joint(seed, m, m2, p, q)
    kx, ky = make(p), make(q)
    mx, my = induced_semimetric(kx), induced_semimetric(ky)
    sx, sy = j.support_x, j.support_y

    hsic = _three_term(j.probs, _matrix(kernel_eval, kx, sx, sx), _matrix(kernel_eval, ky, sy, sy))
    assert _close(exact_hsic(j, kx, ky), max(hsic, 0.0)), name
    dx, dy = _matrix(semimetric_eval, mx, sx, sx), _matrix(semimetric_eval, my, sy, sy)
    assert _close(exact_dcov(j, mx, my), _three_term(j.probs, dx, dy)), name
    assert _close(exact_dcov(j, mx, my), 4.0 * exact_hsic(j, kx, ky)), name
    if p == q:
        d = _matrix(semimetric_eval, mx, sx, sy)
        pp = np.einsum("ab,cd->abcd", j.probs, j.probs)
        mcov = 0.25 * (
            np.einsum("abcd,ad->", pp, d) + np.einsum("abcd,cb->", pp, d) - 2.0 * np.einsum("abcd,ab->", pp, d)
        )
        assert _close(exact_mcov(j, mx), mcov), name


@settings(max_examples=40, deadline=None)
@given(shared=st.booleans(), which=st.sampled_from(range(len(KERNELS))), **_support_sizes)
def test_mercer_sums_total_the_exact_measures(seed, m, m2, p, which, shared):
    name, make = KERNELS[which]
    kernel = make(p)
    j = _joint(seed, m, m2, p, p, shared)
    single = mercer_mcov_decomposition(j, kernel)
    assert _close(single.total, exact_mcov(j, induced_semimetric(kernel))), name
    np.testing.assert_array_equal(single.terms, single.eigenvalues * single.covariances)
    double = mercer_hsic_decomposition(j, kernel)
    assert _close(double.total, exact_hsic(j, kernel)), name
    assert double.terms.min() >= 0.0, name
    np.testing.assert_array_equal(np.diag(double.covariances), single.covariances)


# estimator, spec maker, exact value of the empirical joint; each spec has a
# feature map, so the statistic has both routes
ROUTED = [
    ("mcov", lambda p: {"metric": EuclideanSquared()}, lambda j, s: exact_mcov(j, s["metric"])),
    ("mcov_trace", lambda p: {"kernel": LinearKernel()}, lambda j, s: exact_mcov(j, induced_semimetric(s["kernel"]))),
    ("hsic", lambda p: {"kernel": LinearKernel()}, lambda j, s: exact_hsic(j, s["kernel"])),
    (
        "hsic",
        lambda p: {"kernel": induced_kernel(EuclideanSquared(), np.full(p, 0.5))},
        lambda j, s: exact_hsic(j, s["kernel"]),
    ),
    ("dcov", lambda p: {"metric": EuclideanSquared()}, lambda j, s: exact_dcov(j, s["metric"])),
]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(9, 40), which=st.sampled_from(range(len(ROUTED))), **_support_sizes)
@example(seed=0, m=1, m2=3, p=2, n=12, which=2)
def test_empirical_joint_matches_the_estimator_on_both_routes(seed, m, m2, p, n, which):
    estimator, make, exact = ROUTED[which]
    spec = make(p)
    x, y = _joint(seed, m, m2, p, p).sample(n, seed=seed)
    target = exact(empirical_joint(x, y), spec)

    feature = estimators._prepare(estimator, x, y, **spec)
    with mock.patch.object(estimators, "_on_coordinates", lambda obj: False):
        nxn = estimators._prepare(estimator, x, y, **spec)
    if any(estimators._constant(side) for side in (x, y)):
        # a constant side (a one-point support, or a sample of one point)
        # is decided before any route: the zero statistic, on features of
        # width 0
        assert all(type(p) is estimators._CrossCov and p._xc.shape[1] == 0 for p in (feature, nxn))
    else:
        assert isinstance(feature, estimators._CrossCov)
        assert not isinstance(nxn, estimators._CrossCov)
    assert _close(feature.observed, target), estimator
    assert _close(nxn.observed, target), estimator


# a spec of each kind: a kernel, a semimetric, a semimetric's induced kernel
# at an anchor, and a kernel's induced semimetric
SPEC_KINDS = [
    ("kernel", lambda w: GaussianKernel(0.9)),
    ("semimetric", lambda w: EuclideanSquared()),
    ("induced kernel", lambda w: induced_kernel(EuclideanSquared(), w)),
    ("induced semimetric", lambda w: induced_semimetric(GaussianKernel(0.9))),
]

# each estimator, and the exact measure of an empirical law it estimates
ESTIMATES = [
    ("mcov", mcov_plugin, exact_mcov),
    ("mcov_trace", mcov_trace, exact_mcov),
    ("hsic", hsic_vstat, exact_hsic),
    ("dcov", dcov_vstat, exact_dcov),
]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 40), p=st.integers(1, 3), ties=st.booleans(), data=st.data())
@pytest.mark.parametrize("kind", SPEC_KINDS, ids=lambda kind: kind[0])
@pytest.mark.parametrize("estimate", ESTIMATES, ids=lambda estimate: estimate[0])
def test_the_oracle_reads_every_spec_as_the_estimators_do(estimate, kind, seed, n, p, ties, data):
    # every estimator takes a spec of either kind, read through the
    # conversion formulas, and so does exact_* on the empirical law: the
    # same sign and scale, the same reduction of induced specs, no clip
    _, statistic, exact = estimate
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = 0.8 * x + 0.6 * rng.standard_normal((n, p))
    if ties:
        x, y = np.round(x), np.round(y)
    w = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p).map(np.array), label="anchor")
    spec = kind[1](w)
    sample = statistic(x, y, spec)
    assert abs(exact(empirical_joint(x, y), spec) - sample) <= 1e-10 * abs(sample)


# ---------------------------------------------------------------------------
# the trace identity and dCov = 4 HSIC, bit for bit

CATALOGUE = {
    "euclid2": EuclideanSquared(),
    "induced linear": induced_semimetric(LinearKernel()),
    "induced gaussian": induced_semimetric(GaussianKernel()),
    "induced matern": induced_semimetric(MaternKernel(1.5, 1.0)),
    "explicit": None,
}

# (semimetric of x, of y, n, dimension, the mcov route, the dcov route of a
# permutation test); "stored" and "screened" are the n x n route without
# and with the screen's levels
IDENTITY_CASES = [
    ("euclid2", "euclid2", 40, 2, "_CrossCov", "_CrossCov"),
    ("induced linear", "euclid2", 40, 3, "_CrossCov", "_CrossCov"),
    ("euclid2", "induced linear", 6, 3, "_CrossCov", "stored"),
    ("induced gaussian", "induced gaussian", 40, 2, "_PairedTrace", "stored"),
    ("induced matern", "euclid2", 40, 1, "_PairedTrace", "stored"),
    ("explicit", "explicit", 40, None, "_PairedTrace", "stored"),
    ("induced gaussian", "induced gaussian", 220, 1, "_PairedTrace", "screened"),
]


def _route(prepared):
    if isinstance(prepared, estimators._CenteredInner):
        return "screened" if prepared._levels else "stored"
    return type(prepared).__name__


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dep=st.sampled_from([0.0, 0.5]), data=st.data())
@pytest.mark.parametrize("case", IDENTITY_CASES, ids=lambda case: f"{case[0]}-{case[1]}-{case[2]}")
def test_induced_kernels_give_the_semimetric_statistics_bit_for_bit(case, seed, dep, data):
    # an induced kernel runs as its semimetric at any anchor, so mcov_trace
    # under it is mcov under the semimetric, and hsic under the induced
    # kernels of both sides is a quarter of dcov, with equal p-values; and
    # mcov under a kernel's induced semimetric runs as mcov_trace under the
    # kernel, also inside an induced kernel
    name_x, name_y, n, p, mcov_route, dcov_route = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p or 2))
    y = dep * x + rng.standard_normal((n, p or 2))
    if p is None:
        explicit = ExplicitSemimetric(distance_matrix(EuclideanSquared(), np.vstack([x, y])))
        dx = dy = explicit
        x, y = np.arange(n), np.arange(n, 2 * n)
        anchor = st.integers(0, 2 * n - 1)
    else:
        dx, dy = CATALOGUE[name_x], CATALOGUE[name_y]
        anchor = st.lists(st.floats(-1e3, 1e3), min_size=p, max_size=p).map(np.array)
    wx, wy = data.draw(anchor, label="wx"), data.draw(anchor, label="wy")
    kx, ky = induced_kernel(dx, wx), induced_kernel(dy, wy)
    B = 19
    assert _route(estimators._prepare("mcov", x, y, metric=dx)) == mcov_route
    assert _route(estimators._prepare("dcov", x, y, metric=dx, metric_y=dy, permutations=B)) == dcov_route

    assert mcov_trace(x, y, kx) == mcov_plugin(x, y, dx)
    assert 4 * hsic_vstat(x, y, kx, ky) == dcov_vstat(x, y, dx, dy)
    trace = permutation_test(x, y, "mcov_trace", kernel=kx, B=B, seed=seed)
    mcov = permutation_test(x, y, "mcov", metric=dx, B=B, seed=seed)
    assert (trace.statistic, trace.p_value) == (mcov.statistic, mcov.p_value)
    hsic = permutation_test(x, y, "hsic", kernel=kx, kernel_y=ky, B=B, seed=seed)
    dcov = permutation_test(x, y, "dcov", metric=dx, metric_y=dy, B=B, seed=seed)
    assert (4 * hsic.statistic, hsic.p_value) == (dcov.statistic, dcov.p_value)
    # the oracle reads the specs as the estimators do, so on the empirical
    # law the same identities hold bit for bit
    j = empirical_joint(x, y)
    rx, ry = resolve_bandwidth(dx, x, y), resolve_bandwidth(dy, x, y)
    assert exact_hsic(j, induced_kernel(rx, wx), induced_kernel(ry, wy)) == exact_dcov(j, rx, ry) / 4

    if isinstance(dx, KernelInducedSemimetric):
        k = dx.base
        prepared = estimators._prepare("mcov", x, y, metric=dx)
        if mcov_route == "_PairedTrace":
            assert prepared._obj == resolve_bandwidth(k, x, y)
        assert mcov_trace(x, y, k) == mcov_plugin(x, y, dx) == mcov_trace(x, y, kx)
        direct = permutation_test(x, y, "mcov_trace", kernel=k, B=B, seed=seed)
        assert (direct.statistic, direct.p_value) == (mcov.statistic, mcov.p_value)
        assert exact_mcov(j, rx) == exact_mcov(j, rx.base)


# ---------------------------------------------------------------------------
# the curtailed permutation loop

# the four statistics on each prepared route: paired trace or cross-covariance
# trace (mcov, by B), n x n gather (hsic gaussian), cross-covariance norm (dcov)
TESTED = [
    ("mcov", {"metric": EuclideanSquared()}),
    ("mcov_trace", {"kernel": GaussianKernel()}),
    ("hsic", {"kernel": GaussianKernel()}),
    ("dcov", {"metric": EuclideanSquared()}),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 40),
    dep=st.floats(0.0, 1.0),
    B=st.integers(1, 300),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    which=st.sampled_from(range(len(TESTED))),
    alternative=st.sampled_from(["two_sided", "greater"]),
)
def test_curtailed_count_makes_the_full_count_decision(seed, n, dep, B, alpha, which, alternative):
    estimator, spec = TESTED[which]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = dep * x + rng.standard_normal((n, 2))
    kw = dict(B=B, seed=seed, alternative=alternative, **spec)
    full = estimators._permutation_test(x, y, estimator, **kw)
    cut = estimators._permutation_test(x, y, estimator, alpha=alpha, **kw)

    reject = full.p_value <= alpha
    assert (cut.p_value <= alpha) == reject
    assert cut.p_value <= full.p_value
    if reject:
        assert cut == full
    assert permutation_test(x, y, estimator, **kw) == full
