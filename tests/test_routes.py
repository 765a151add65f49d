"""The two routes of the prepared-statistic core: the p x q cross-covariance
route for kernels and semimetrics with explicit feature maps, and the n x n
route for the rest.  Each is checked against explicit formulas, against the
other, and for independence from the batch and block sizes."""

import os
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from metricdep import (
    EuclideanSquared,
    ExplicitSemimetric,
    GaussianKernel,
    InputError,
    LinearKernel,
    MaternKernel,
    dcov_vstat,
    distance_matrix,
    gen_orthogonal_linear,
    hsic_vstat,
    induced_kernel,
    induced_semimetric,
    mcov_plugin,
    mcov_trace,
    parse_kernel,
    parse_semimetric,
    permutation_test,
)
from metricdep import estimators, kernels

E2 = EuclideanSquared()
LIN = LinearKernel()


def _centred(k):
    return k - k.mean(axis=0, keepdims=True) - k.mean(axis=1, keepdims=True) + k.mean()


def _lin_gram(a, b, w=None):
    if w is not None:
        a, b = a - w, b - w
    return a @ b.T


def _sample(seed, n, p, q=None, dep=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, q or p))
    y[:, : min(p, q or p)] += dep * x[:, : min(p, q or p)]
    return x, y


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestFeatureMap:
    """The coordinates are the one feature map: the sides that take them
    are the linear kernel, euclid2, the linear kernel's semimetric and the
    kernels induced from the last two, at any anchor."""

    def test_specs_with_and_without_a_feature_map(self):
        x, y = _sample(0, 30, 2)
        anchored = "induced_kernel:base=(induced_metric:base=(linear)),anchor=(1;-2)"
        for spec in ("linear", "induced_kernel:base=euclid2", anchored):
            assert isinstance(estimators._prepare("hsic", x, y, kernel=parse_kernel(spec)), estimators._CrossCov), spec
        for spec in ("euclid2", "induced_metric:base=(linear)", "induced_metric:base=(induced_kernel:base=euclid2)"):
            assert isinstance(estimators._prepare("dcov", x, y, metric=parse_semimetric(spec)), estimators._CrossCov), spec
        for spec in ("gaussian:sigma=1", "matern:nu=1.5", "induced_kernel:base=(induced_metric:base=(gaussian:sigma=1))"):
            assert not isinstance(estimators._prepare("hsic", x, y, kernel=parse_kernel(spec)), estimators._CrossCov), spec
        metric = parse_semimetric("induced_metric:base=(gaussian:sigma=1)")
        assert not isinstance(estimators._prepare("dcov", x, y, metric=metric), estimators._CrossCov)

    def test_centred_coordinates_reproduce_the_centred_matrices(self):
        # H K H = Xc Xc' for the linear kernel and the kernels induced from
        # euclid2 or the linear kernel's semimetric at any anchor, and
        # -1/2 H D H = Xc Xc' for those two semimetrics
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((12, 3))
        w = rng.standard_normal(3)
        xc = pts - pts.mean(axis=0)
        for kernel in (LIN, induced_kernel(E2, w), induced_kernel(induced_semimetric(LIN), w)):
            np.testing.assert_allclose(_centred(kernel.pairwise(pts, pts)), xc @ xc.T, rtol=0, atol=1e-12)
        for metric in (E2, induced_semimetric(LIN)):
            np.testing.assert_allclose(-0.5 * _centred(metric.pairwise(pts, pts)), xc @ xc.T, rtol=0, atol=1e-12)

    def test_anchor_of_the_wrong_dimension_is_rejected(self):
        x, y = _sample(1, 10, 2)
        with pytest.raises(InputError, match="dimension mismatch"):
            hsic_vstat(x, y, induced_kernel(E2, np.ones(3)))

    def test_explicit_anchor_out_of_range_is_rejected(self):
        # an anchor past the rows, or not a scalar integer, is named
        metric = ExplicitSemimetric(distance_matrix(E2, np.arange(6.0)))
        x, y = np.arange(3), np.arange(3, 6)
        given = "the anchor {} given by --anchor or induced_kernel: "
        for anchor, message in (
            (6, given.format("(6.0)") + "index out of range for explicit 6x6 matrix, rows 0 to 5: [6, 6]"),
            (2.5, given.format("(2.5)") + "points of an explicit semimetric are integer indices"),
            (np.inf, given.format("(inf)") + "points of an explicit semimetric are integer indices"),
            ([1, 2], given.format("(1.0;2.0)") + "a point of an explicit semimetric is one integer index"),
        ):
            for statistic in (hsic_vstat, mcov_trace):
                with pytest.raises(InputError) as info:
                    statistic(x, y, induced_kernel(metric, anchor))
                assert str(info.value) == message


def _route(prepared):
    if isinstance(prepared, estimators._CenteredInner):
        return "screened" if prepared._levels else "stored"
    return type(prepared).__name__


@pytest.mark.parametrize(
    "n,p,kernel,metric,mcov_route,dcov_route",
    [
        (40, 2, LIN, E2, "_CrossCov", "_CrossCov"),
        (6, 3, LIN, E2, "_CrossCov", "stored"),
        (40, 2, GaussianKernel(1.0), induced_semimetric(MaternKernel(1.5, 1.0)), "_PairedTrace", "stored"),
        (220, 1, GaussianKernel(1.0), induced_semimetric(GaussianKernel(0.7)), "_PairedTrace", "screened"),
    ],
    ids=["feature", "wide", "points-stored", "points-screened"],
)
def test_a_spec_of_the_other_kind_runs_as_its_induced_form(n, p, kernel, metric, mcov_route, dcov_route):
    # mcov and dcov read a kernel through its induced semimetric, and
    # mcov_trace and hsic a semimetric through its induced kernel, on every
    # route: mcov is mcov_trace and dcov is 4 hsic, bit for bit
    x, y = _sample(n, n, p)
    for spec in (kernel, metric):
        assert _route(estimators._prepare("mcov", x, y, metric=spec)) == mcov_route
        assert _route(estimators._prepare("dcov", x, y, metric=spec, permutations=19)) == dcov_route
        assert mcov_plugin(x, y, spec) == mcov_trace(x, y, spec)
        assert 4 * hsic_vstat(x, y, spec) == dcov_vstat(x, y, spec)
        mcov = permutation_test(x, y, "mcov", metric=spec, B=19, seed=n)
        trace = permutation_test(x, y, "mcov_trace", kernel=spec, B=19, seed=n)
        assert (mcov.statistic, mcov.p_value) == (trace.statistic, trace.p_value)
        dcov = permutation_test(x, y, "dcov", metric=spec, B=19, seed=n)
        hsic = permutation_test(x, y, "hsic", kernel=spec, B=19, seed=n)
        assert (dcov.statistic, dcov.p_value) == (4 * hsic.statistic, hsic.p_value)


class TestFeatureRouteAgainstExplicitFormulas:
    """The feature route against n x n formulas written out here."""

    def test_trace_statistics(self):
        for seed in range(5):
            x, y = _sample(seed, 40, 3)
            w = np.random.default_rng(100 + seed).standard_normal(3)
            d = cdist(x, y, "sqeuclidean")
            mcov = 0.5 * (d.mean() - np.diagonal(d).mean())
            for metric in (E2, induced_semimetric(LIN)):
                assert isinstance(estimators._prepare("mcov", x, y, metric=metric), estimators._CrossCov)
                assert _rel(mcov_plugin(x, y, metric), mcov) <= 1e-10
            for kernel, anchor in ((LIN, None), (induced_kernel(E2), np.zeros(3)), (induced_kernel(E2, w), w)):
                k = _lin_gram(x, y, anchor)
                assert isinstance(estimators._prepare("mcov_trace", x, y, kernel=kernel), estimators._CrossCov)
                assert _rel(mcov_trace(x, y, kernel), np.diagonal(k).mean() - k.mean()) <= 1e-10

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 1), (1, 4)])
    def test_hsic_and_dcov(self, p, q):
        for seed in range(5):
            x, y = _sample(seed, 35, p, q)
            rng = np.random.default_rng(200 + seed)
            wx, wy = rng.standard_normal(p), rng.standard_normal(q)
            for kx, ky, ax, ay in (
                (LIN, None, None, None),
                (induced_kernel(E2, wx), induced_kernel(E2, wy), wx, wy),
                (induced_kernel(E2), LIN, None, None),
            ):
                expected = float((_centred(_lin_gram(x, x, ax)) * _centred(_lin_gram(y, y, ay))).sum()) / 35**2
                assert isinstance(estimators._prepare("hsic", x, y, kernel=kx, kernel_y=ky), estimators._CrossCov)
                assert _rel(hsic_vstat(x, y, kx, ky), expected) <= 1e-10
            a, b = cdist(x, x, "sqeuclidean"), cdist(y, y, "sqeuclidean")
            three_term = (a * b).mean() + a.mean() * b.mean() - 2.0 * (a.mean(axis=1) * b.mean(axis=1)).mean()
            for mx, my in ((E2, None), (induced_semimetric(LIN), E2)):
                assert isinstance(estimators._prepare("dcov", x, y, metric=mx, metric_y=my), estimators._CrossCov)
                assert _rel(dcov_vstat(x, y, mx, my), three_term) <= 1e-10

    def test_no_negative_type_check_on_the_feature_route(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("negative-type check ran")

        monkeypatch.setattr("metricdep.kernels.validate_negative_type", fail)
        x, y = _sample(3, 30, 2)
        hsic_vstat(x, y, induced_kernel(E2))
        permutation_test(x, y, "hsic", kernel=induced_kernel(E2), B=9, seed=1)

    def test_no_negative_type_check_on_the_n_by_n_route(self, monkeypatch):
        # vector semimetrics are of negative type by construction; only an
        # explicit matrix is checked, when it is built
        def fail(*args, **kwargs):
            raise AssertionError("negative-type check ran")

        monkeypatch.setattr("metricdep.kernels.validate_negative_type", fail)
        x, y = _sample(4, 12, 4)
        wide = parse_kernel("induced_kernel:base=euclid2")
        for kx, ky in (
            (wide, None),
            (parse_kernel("induced_kernel:base=(induced_metric:base=(gaussian:sigma=1))"), None),
            (wide, GaussianKernel(1.0)),
        ):
            prepared = estimators._prepare("hsic", x, y, kernel=kx, kernel_y=ky)
            assert isinstance(prepared, estimators._CenteredInner)
            hsic_vstat(x, y, kx, ky)
            permutation_test(x, y, "hsic", kernel=kx, kernel_y=ky, B=9, seed=1)


class TestRouteChoiceByWidth:
    """hsic and dcov take the feature route only while p q <= n, where a
    re-pairing of C_pi costs no more than the n x n gather; the trace
    statistics take it whenever both sides have a feature map, at any width
    and number of re-pairings."""

    def test_trace_statistics_with_features_always_take_the_feature_route(self):
        n, p = 20, 4
        x, y = _sample(2, n, p)
        for estimator, kw in (("mcov", dict(metric=E2)), ("mcov_trace", dict(kernel=LIN))):
            for permutations in (0, 41, 999):
                prepared = estimators._prepare(estimator, x, y, permutations=permutations, **kw)
                assert type(prepared) is estimators._CrossCov, (estimator, permutations)

    def test_boundary_between_the_routes(self):
        for p, q, n, feature in ((2, 5, 10, True), (3, 4, 11, False), (1, 12, 12, True), (4, 4, 15, False)):
            x, y = _sample(p + q, n, p, q)
            for estimator, kw in (("hsic", dict(kernel=LIN)), ("dcov", dict(metric=E2))):
                prepared = estimators._prepare(estimator, x, y, **kw)
                assert isinstance(prepared, estimators._CrossCov) is feature, (estimator, p, q, n)

    def test_wide_data_against_explicit_formulas(self):
        n, p, q = 20, 6, 5
        for seed in range(3):
            x, y = _sample(seed, n, p, q)
            w = np.random.default_rng(300 + seed).standard_normal(q)
            expected = float((_centred(x @ x.T) * _centred(_lin_gram(y, y, w))).sum()) / n**2
            kx, ky = LIN, induced_kernel(E2, w)
            assert isinstance(estimators._prepare("hsic", x, y, kernel=kx, kernel_y=ky), estimators._CenteredInner)
            assert _rel(hsic_vstat(x, y, kx, ky), expected) <= 1e-10
            assert _rel(dcov_vstat(x, y, E2), 4.0 * float((_centred(x @ x.T) * _centred(y @ y.T)).sum()) / n**2) <= 1e-10
            x, y = _sample(seed, n, p)
            d = cdist(x, y, "sqeuclidean")
            prepared = estimators._prepare("mcov", x, y, metric=E2)
            assert isinstance(prepared, estimators._CrossCov)
            assert _rel(prepared.observed, 0.5 * (d.mean() - np.diagonal(d).mean())) <= 1e-10

    def test_batch_memory_counts_what_a_re_pairing_allocates(self):
        n, p, q = 30, 5, 6
        x, y = _sample(5, n, p, q)
        assert estimators._prepare("hsic", x, y, kernel=LIN).perm_bytes == 8 * (n * (1 + q) + p * q)
        x, y = _sample(5, n, 40)
        assert estimators._prepare("mcov", x, y, metric=E2).perm_bytes == 8 * n * (1 + 40)

    @pytest.mark.parametrize("dep", [0.0, 0.4])
    def test_both_routes_agree_on_wide_data(self, dep):
        n = 15
        x, y = _sample(11, n, 4, dep=dep)
        nxn = estimators._prepare("hsic", x, y, kernel=LIN)
        feature = estimators._CrossCov(x, y, trace=False)
        assert isinstance(nxn, estimators._CenteredInner)
        perms = np.vstack(list(estimators._permutation_batches(4, n, 99, 99)))
        t_nxn, t_feature = nxn.permuted(perms), feature.permuted(perms)
        np.testing.assert_allclose(t_nxn, t_feature, rtol=1e-10)
        assert np.count_nonzero(t_nxn >= nxn.observed) == np.count_nonzero(t_feature >= feature.observed)


CASES = [
    ("mcov", dict(metric=E2)),
    ("mcov", dict(metric=induced_semimetric(LIN))),
    ("mcov_trace", dict(kernel=LIN)),
    ("mcov_trace", dict(kernel=induced_kernel(E2, np.array([0.4, -1.3])))),
    ("hsic", dict(kernel=LIN)),
    ("hsic", dict(kernel=induced_kernel(E2, np.array([2.0, 0.5])))),
    ("dcov", dict(metric=E2)),
    ("dcov", dict(metric=induced_semimetric(LIN))),
]


def _nxn_only(monkeypatch):
    monkeypatch.setattr(estimators, "_on_coordinates", lambda obj: False)


class TestRoutesAgree:
    @pytest.mark.parametrize("estimator,kw", CASES)
    @pytest.mark.parametrize("dep", [0.0, 0.3])
    def test_same_p_value_on_both_routes(self, estimator, kw, dep, monkeypatch):
        x, y = _sample(int(dep * 10), 60, 2, dep=dep)
        feature = permutation_test(x, y, estimator, B=199, seed=5, **kw)
        assert isinstance(estimators._prepare(estimator, x, y, **kw), estimators._CrossCov)
        _nxn_only(monkeypatch)
        assert not isinstance(estimators._prepare(estimator, x, y, **kw), estimators._CrossCov)
        nxn = permutation_test(x, y, estimator, B=199, seed=5, **kw)
        assert nxn.p_value == feature.p_value
        assert _rel(nxn.statistic, feature.statistic) <= 1e-10


class TestBatching:
    @pytest.mark.parametrize(
        "estimator,kw",
        CASES[::2] + [("mcov_trace", dict(kernel=GaussianKernel())), ("hsic", dict(kernel=GaussianKernel()))],
    )
    def test_results_do_not_depend_on_batch_or_block_size(self, estimator, kw, monkeypatch):
        x, y = _sample(7, 50, 2, dep=0.2)
        reference = permutation_test(x, y, estimator, B=99, seed=3, **kw)
        monkeypatch.setattr(estimators, "_BATCH_BYTES", 1)
        assert permutation_test(x, y, estimator, B=99, seed=3, **kw) == reference
        monkeypatch.setattr(estimators, "_BATCH_BYTES", 3 * 8 * 50 * 3)
        assert permutation_test(x, y, estimator, B=99, seed=3, **kw) == reference
        # a smaller row block sums the inner product in another order
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * 50 * 3)
        blocked = permutation_test(x, y, estimator, B=99, seed=3, **kw)
        assert blocked.p_value == reference.p_value
        assert _rel(blocked.statistic, reference.statistic) <= 1e-12

    def test_nxn_route_with_small_blocks(self, monkeypatch):
        x, y = _sample(8, 40, 2, dep=0.3)
        _nxn_only(monkeypatch)
        reference = permutation_test(x, y, "dcov", metric=E2, B=99, seed=2)
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(estimators, "_BATCH_BYTES", 1)
        small = permutation_test(x, y, "dcov", metric=E2, B=99, seed=2)
        assert small.p_value == reference.p_value
        assert _rel(small.statistic, reference.statistic) <= 1e-12


class TestMemoryBudget:
    def test_what_stores_nothing_is_not_refused(self, monkeypatch):
        # physical memory read as 1.97 n x n arrays at n = 300: below the two
        # a store needs, above the screen's 6 isqrt(32 n) n floats
        n = 300
        x, y = _sample(12, n, 2)
        gaussian, induced = GaussianKernel(), parse_semimetric("induced_metric:base=(gaussian)")
        calls = (
            lambda: hsic_vstat(x, y, gaussian),
            lambda: dcov_vstat(x, y, induced),
            lambda: permutation_test(x, y, "hsic", kernel=gaussian, B=99, seed=1),
            lambda: permutation_test(x, y, "dcov", metric=induced, B=99, seed=1),
        )
        assert estimators._prepare("hsic", x, y, kernel=gaussian, permutations=99)._levels
        expected = [call() for call in calls]
        monkeypatch.setattr(estimators, "_physical_memory", lambda: 1_420_000)
        assert 8 * estimators._SCREEN_ARRAYS * isqrt(estimators._SCREEN_RANKS * n) * n < 1_420_000 < 8 * 2 * n * n
        assert [call() for call in calls] == expected

    def test_a_stored_side_is_refused_before_any_pass(self, monkeypatch):
        # a side on an explicit matrix stores both sides; neither is read
        # before the store's check
        def fail(*args, **kwargs):
            raise AssertionError("a matrix entry was evaluated")

        n = 300
        x, y = _sample(13, n, 2)
        explicit = induced_kernel(ExplicitSemimetric(distance_matrix(E2, y)))
        for cls in (GaussianKernel, ExplicitSemimetric):
            monkeypatch.setattr(cls, "_pairwise", fail)
        monkeypatch.setattr(estimators, "_physical_memory", lambda: 12 * n * n)
        with pytest.raises(InputError, match=r"n = 300 needs about .* for n x n matrices"):
            hsic_vstat(x, np.arange(n), GaussianKernel(1.0), explicit)

    def test_feature_route_takes_the_same_sample(self):
        n = 200_000
        x, y = np.zeros(n), np.arange(n) % 7.0
        assert permutation_test(x, y, "dcov", metric=E2, B=9, seed=1).p_value == 1.0


class TestPermutationStreams:
    def test_permutation_b_is_the_philox_substream_seed_b(self):
        for seed, n, batch in ((0, 2, 1), (17, 5, 3), (2**63 - 1, 100, 7), (123456789, 1000, 64)):
            blocks = list(estimators._permutation_batches(seed, n, 20, batch))
            assert all(block.shape[0] <= batch for block in blocks)
            perms = np.vstack(blocks)
            assert perms.shape == (20, n)
            for b in (1, 2, 7, 20):
                expected = np.random.Generator(np.random.Philox(key=[seed, b])).permutation(n)
                np.testing.assert_array_equal(perms[b - 1], expected)


def _assert_identity_ties_in_every_position(prepared, seed):
    n, size = prepared.n, estimators._CURTAILED_PIECE
    piece = next(estimators._permutation_batches(seed, n, size, size))
    alone = np.concatenate([prepared.permuted(perm[None]) for perm in piece])
    for k in range(size):
        stacked = piece.copy()
        stacked[k] = np.arange(n)
        t = prepared.permuted(stacked)
        assert t[k] == prepared.observed
        assert np.array_equal(np.delete(t, k), np.delete(alone, k))


class TestResultTypesAndTies:
    @pytest.mark.parametrize("estimator,kw", CASES[::2] + [("hsic", dict(kernel=GaussianKernel(1.0)))])
    def test_plain_python_floats(self, estimator, kw):
        x, y = _sample(9, 20, 2)
        result = permutation_test(x, y, estimator, B=19, seed=1, **kw)
        assert type(result.p_value) is float
        assert type(result.statistic) is float

    @pytest.mark.parametrize(
        "estimator,kw,permutations,route",
        [(estimator, kw, 0, estimators._CrossCov) for estimator, kw in CASES]
        + [
            ("mcov", dict(metric=E2), 199, estimators._CrossCov),
            ("mcov_trace", dict(kernel=GaussianKernel(1.0)), 199, estimators._PairedTrace),
            ("mcov", dict(metric=induced_semimetric(GaussianKernel(1.0))), 199, estimators._PairedTrace),
            ("hsic", dict(kernel=GaussianKernel(1.0)), 199, estimators._CenteredInner),
            ("dcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian:sigma=1)")), 199, estimators._CenteredInner),
        ],
    )
    def test_identity_stacked_in_a_block_ties_exactly(self, estimator, kw, permutations, route):
        # every exact route (the feature trace and norm, the paired values
        # evaluated at the points, the stored centred inner product)
        # computes a permutation's statistic alike wherever it sits in a
        # curtailed test's piece: the identity ties with the observed
        # statistic at every position, and the other rows are their values
        # alone
        n = 30
        for seed in range(10):
            x, y = _sample(seed, n, 2)
            prepared = estimators._prepare(estimator, x, y, permutations=permutations, **kw)
            assert type(prepared) is route
            _assert_identity_ties_in_every_position(prepared, seed)

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize(
        "estimator,spec",
        [
            ("mcov_trace", "gaussian:sigma=1"),
            ("mcov_trace", "matern:nu=0.5,ell=1.3"),
            ("mcov_trace", "matern:nu=2.5,ell=2"),
            ("mcov_trace", "induced_kernel:base=(induced_metric:base=(gaussian:sigma=2)),anchor=origin"),
            ("mcov", "induced_metric:base=(gaussian:sigma=1)"),
            ("mcov", "induced_metric:base=(matern:nu=1.5,ell=1)"),
            ("mcov", "explicit"),
            ("mcov_trace", "explicit"),
        ],
    )
    def test_identity_stacked_ties_on_the_points_trace_route(self, estimator, spec, d):
        n = 30
        for seed in range(5):
            x, y = _sample(seed, n, d, dep=0.3)
            if spec == "explicit":
                metric = ExplicitSemimetric(distance_matrix(E2, np.vstack([x, y])))
                x, y = np.arange(n), n + np.arange(n)
                kw = dict(metric=metric) if estimator == "mcov" else dict(kernel=induced_kernel(metric))
            elif estimator == "mcov":
                kw = dict(metric=parse_semimetric(spec))
            else:
                kw = dict(kernel=parse_kernel(spec))
            prepared = estimators._prepare(estimator, x, y, permutations=199, **kw)
            assert type(prepared) is estimators._PairedTrace
            _assert_identity_ties_in_every_position(prepared, seed)

    @pytest.mark.parametrize("n", [50, 20])
    def test_orthogonal_linear_mcov_ties_exactly(self, n):
        # tr C_pi = 0 exactly for every re-pairing: each term multiplies an
        # exact zero coordinate, so every permuted statistic ties and p = 1
        for seed in (0, 1, 7):
            x, y = gen_orthogonal_linear(n, seed)
            prepared = estimators._prepare("mcov", x, y, metric=E2, permutations=99)
            assert isinstance(prepared, estimators._CrossCov)
            perms = np.vstack(list(estimators._permutation_batches(seed, n, 99, 99)))
            assert prepared.observed == 0.0
            assert np.all(prepared.permuted(perms) == 0.0)
            for estimator, kw in (("mcov", dict(metric=E2)), ("mcov_trace", dict(kernel=LIN))):
                result = permutation_test(x, y, estimator, B=99, seed=seed, **kw)
                assert result.statistic == 0.0 and result.p_value == 1.0


# Statistics of the stored (n = 150), evaluated and screened (n = 300 and
# 1200) and wide linear (p = q = 30) n x n routes, and the exact measures of
# a 300 x 300 joint, printed to the last bit
_BITS_PROBE = """
import numpy as np
from metricdep import DiscreteJoint, EuclideanSquared, GaussianKernel, LinearKernel, dcov_vstat, exact_dcov, exact_hsic, exact_mcov, hsic_vstat, parse_semimetric, permutation_test
induced = parse_semimetric("induced_metric:base=(gaussian)")
rng = np.random.default_rng(5)
for n, p in ((150, 2), (300, 2), (1200, 2), (300, 30)):
    x = rng.standard_normal((n, p))
    y = 0.2 * x + rng.standard_normal((n, p))
    if p == 2:
        cases = (("hsic", hsic_vstat, GaussianKernel()), ("dcov", dcov_vstat, induced))
    else:
        cases = (("hsic", hsic_vstat, LinearKernel()), ("dcov", dcov_vstat, EuclideanSquared()))
    for estimator, statistic, spec in cases:
        key = "kernel" if estimator == "hsic" else "metric"
        result = permutation_test(x, y, estimator, B=19, seed=1, **{key: spec})
        print(n, p, estimator, repr(statistic(x, y, spec)), repr(result.statistic), result.p_value)
probs = rng.random((300, 300))
joint = DiscreteJoint(rng.standard_normal((300, 2)), rng.standard_normal((300, 2)), probs / probs.sum())
print(*(repr(f(joint, spec)) for f, spec in ((exact_hsic, GaussianKernel(1.0)), (exact_dcov, parse_semimetric("induced_metric:base=(gaussian:sigma=1)")), (exact_mcov, EuclideanSquared()))))
"""


def test_nxn_statistics_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads, so a vdot's
    # bits follow the thread count, as a matrix product's may; the n x n
    # route and the oracle sum by einsum
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BITS_PROBE], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 9
    assert outputs[0] == outputs[1]


CONSTANT_SIDE_SPECS = [
    ("mcov", dict(metric=E2)),
    ("mcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian)"))),
    ("mcov_trace", dict(kernel=GaussianKernel())),
    ("mcov_trace", dict(kernel=LIN)),
    ("mcov", dict(metric=parse_semimetric("induced_metric:base=(matern:nu=1.5,ell=1)"))),
    ("hsic", dict(kernel=GaussianKernel())),
    ("hsic", dict(kernel=LIN)),
    ("dcov", dict(metric=E2)),
    ("dcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian)"))),
]


@pytest.mark.parametrize("estimator,spec", CONSTANT_SIDE_SPECS)
@pytest.mark.parametrize("n", [3, 20, 300])
@pytest.mark.parametrize("value", [0.0, 0.1, 7.3])
def test_a_constant_side_gives_exactly_zero(estimator, spec, n, value):
    # every re-pairing's statistic is 0 in exact arithmetic, so the
    # statistic prints as 0.0 and every permuted value ties with it, in
    # either argument order, on every route
    constant = np.full((n, 1), value)
    varied = np.random.default_rng(6).standard_normal((n, 1))
    for x, y in ((constant, varied), (varied, constant)):
        result = permutation_test(x, y, estimator, B=99, seed=3, **spec)
        assert result.statistic == 0.0 and result.p_value == 1.0


@pytest.mark.parametrize("estimator,spec", CONSTANT_SIDE_SPECS)
@pytest.mark.parametrize("n", [12, 300])
def test_a_constant_side_of_several_coordinates_gives_exactly_zero(estimator, spec, n):
    # a constant side is decided on its points: (1.1, 0.3, 0.2, 0.7)
    # repeated, against a side as wide, would take the n x n route under
    # the linear kernel (p q > n), and gives exactly 0 and p = 1
    width = isqrt(n) + 1
    constant = np.tile(np.resize([1.1, 0.3, 0.2, 0.7], width), (n, 1))
    varied = np.random.default_rng(7).standard_normal((n, width))
    for x, y in ((constant, varied), (varied, constant)):
        result = permutation_test(x, y, estimator, B=19, **spec)
        assert result.statistic == 0.0 and result.p_value == 1.0


@pytest.mark.parametrize("estimator,spec", CONSTANT_SIDE_SPECS)
@pytest.mark.parametrize("n", [12, 300])
def test_a_constant_side_evaluates_no_entry_and_takes_no_memory_check(estimator, spec, n, monkeypatch):
    # a constant side is decided before any route, so no kernel or
    # semimetric is evaluated at the points and nothing is refused for
    # memory, even with no memory at all
    calls = []
    for cls in (kernels._Radial, LinearKernel, kernels.DistanceInducedKernel,
                kernels.KernelInducedSemimetric, ExplicitSemimetric):
        def counted(self, xs, ys, pairwise=cls._pairwise):
            calls.append(len(xs))
            return pairwise(self, xs, ys)

        monkeypatch.setattr(cls, "_pairwise", counted)
    monkeypatch.setattr(estimators, "_physical_memory", lambda: 0)
    constant = np.full((n, 2), 0.7)
    varied = np.random.default_rng(8).standard_normal((n, 2))
    for x, y in ((constant, varied), (varied, constant)):
        result = permutation_test(x, y, estimator, B=19, seed=4, **spec)
        assert result.statistic == 0.0 and result.p_value == 1.0
    assert calls == []


@pytest.mark.parametrize("estimator,spec", CONSTANT_SIDE_SPECS)
@pytest.mark.parametrize("n", [12, 300])
def test_a_constant_side_draws_no_permutation(estimator, spec, n, monkeypatch):
    # every re-pairing ties with the observed 0.0, so p = 1 is known before
    # any draw; a side that is not constant draws all B
    batches, drawn = estimators._permutation_batches, []

    def recording(*args):
        for piece in batches(*args):
            drawn.append(len(piece))
            yield piece

    monkeypatch.setattr(estimators, "_permutation_batches", recording)
    constant = np.full((n, 2), 0.7)
    varied = np.random.default_rng(9).standard_normal((n, 2))
    for x, y in ((constant, varied), (varied, constant)):
        result = permutation_test(x, y, estimator, B=19, seed=4, **spec)
        assert result.statistic == 0.0 and result.p_value == 1.0 and result.permutations == 19
    assert drawn == []
    permutation_test(varied, varied[::-1], estimator, B=19, seed=4, **spec)
    assert sum(drawn) == 19


@pytest.mark.parametrize("estimator,spec", [("hsic", {"kernel": GaussianKernel()}),
                                            ("dcov", {"metric": parse_semimetric("induced_metric:base=(gaussian)")})])
def test_points_are_checked_once_per_side_and_bandwidth(estimator, spec, monkeypatch):
    # _prepare coerces each side once and the median heuristic each sample
    # once; every route, pass, screen row and induced form evaluates those
    # points unchecked, so the count grows with neither n nor B
    checks = []

    def counted(pts, as_points=kernels.as_points):
        checks.append(1)
        return as_points(pts)

    monkeypatch.setattr(kernels, "as_points", counted)
    counts = []
    for n, B in ((400, 19), (800, 19), (400, 99)):
        x, y = _sample(21, n, 2)
        checks.clear()
        permutation_test(x, y, estimator, B=B, seed=3, **spec)
        counts.append(len(checks))
    assert counts[0] <= 4
    assert counts == [counts[0]] * 3
