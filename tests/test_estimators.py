import numpy as np
import pytest

from metricdep import (
    EuclideanSquared,
    GaussianKernel,
    InputError,
    LinearKernel,
    MaternKernel,
    centered_grams,
    dcov_vstat,
    double_center,
    gram_matrix,
    hsic_vstat,
    induced_kernel,
    induced_semimetric,
    mcov_plugin,
    mcov_trace,
    permutation_test,
    power_study,
)

E2 = EuclideanSquared()

NEGATIVE_TYPE_METRICS = [
    E2,
    induced_semimetric(LinearKernel()),
    induced_semimetric(GaussianKernel(1.0)),
    induced_semimetric(MaternKernel(1.5, 0.8)),
]


def random_pair(rng, n=None, p=None, dependent=False):
    n = n or int(rng.integers(2, 40))
    p = p or int(rng.integers(1, 4))
    x = rng.standard_normal((n, p))
    if dependent:
        y = x + 0.3 * rng.standard_normal((n, p))
    else:
        y = rng.standard_normal((n, p))
    return x, y


class TestMcov:
    def test_two_point_hand_value(self):
        # cross sums: (0 + 1 + 1 + 0)/4 = 1/2, diagonal 0 -> mcov = 1/4
        x = np.array([[0.0], [1.0]])
        assert mcov_plugin(x, x.copy(), E2) == 0.25

    def test_trace_form_matches_hand_value(self):
        # induced kernel of euclid2 at the origin is the linear kernel:
        # K = [[0,0],[0,1]], (1/2)(0+1) - (1/4)(1) = 1/4
        x = np.array([[0.0], [1.0]])
        k = induced_kernel(E2)
        assert mcov_trace(x, x.copy(), k) == 0.25

    def test_identical_sides_give_half_mean_distance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((25, 3))
        d = E2.pairwise(x, x)
        assert mcov_plugin(x, x, E2) == pytest.approx(0.5 * d.mean(), rel=1e-12)
        assert mcov_plugin(x, x, E2) >= 0.0

    def test_constant_y_is_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 2))
        y = np.tile([1.5, -0.5], (30, 1))
        assert mcov_plugin(x, y, E2) == pytest.approx(0.0, abs=1e-12)
        assert mcov_trace(x, y, GaussianKernel(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_antitone_data_is_negative(self):
        # mcov(x, -x) with euclid2 equals -Var(x); x = (0,1,2) gives -2/3
        x = np.array([[0.0], [1.0], [2.0]])
        assert mcov_plugin(x, -x, E2) == pytest.approx(-2.0 / 3.0, rel=1e-14)
        assert hsic_vstat(x, -x, GaussianKernel(1.0)) >= 0.0

    def test_trace_identity_any_anchor(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = random_pair(rng)
            p = x.shape[1]
            for metric in NEGATIVE_TYPE_METRICS:
                plugin = mcov_plugin(x, y, metric)
                for _ in range(3):
                    anchor = rng.standard_normal(p)
                    trace = mcov_trace(x, y, induced_kernel(metric, anchor))
                    assert abs(plugin - trace) <= 1e-10 * (1.0 + abs(plugin))

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x, y = random_pair(rng, n=40, p=3)
        shift = rng.standard_normal(3)
        before = mcov_plugin(x, y, E2)
        after = mcov_plugin(x + shift, y + shift, E2)
        assert after == pytest.approx(before, rel=1e-10, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(InputError):
            mcov_plugin([[0.0]], [[0.0]], E2)
        with pytest.raises(InputError):
            mcov_plugin([[0.0], [1.0]], [[0.0]], E2)
        with pytest.raises(InputError):
            mcov_plugin(np.zeros((3, 2)), np.zeros((3, 1)), E2)


class TestHsic:
    def test_constant_y_is_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 2))
        y = np.ones((20, 2))
        assert hsic_vstat(x, y, GaussianKernel(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_linear_self_equals_frobenius_of_covariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / x.shape[0]
        expected = float((cov**2).sum())
        assert hsic_vstat(x, x, LinearKernel()) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x, y = random_pair(rng)
            k = gram_matrix(GaussianKernel(0.7), x)
            l = gram_matrix(GaussianKernel(0.7), y)
            scale = np.linalg.norm(k) * np.linalg.norm(l)
            assert hsic_vstat(x, y, GaussianKernel(0.7)) >= -1e-10 * scale

    def test_centering_matches_h_form(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((15, 15))
        n = a.shape[0]
        h = np.eye(n) - np.ones((n, n)) / n
        np.testing.assert_allclose(double_center(a), h @ a @ h, atol=1e-12)

    def test_centered_grams_rows_and_columns_sum_to_zero(self):
        rng = np.random.default_rng(8)
        x, y = random_pair(rng, n=30, p=2)
        est = centered_grams(x, y, GaussianKernel(0.9), MaternKernel(1.5, 1.0))
        for mat in (est.k_centered, est.l_centered):
            scale = np.abs(mat).max() + 1.0
            assert np.abs(mat.sum(axis=0)).max() <= 1e-10 * scale
            assert np.abs(mat.sum(axis=1)).max() <= 1e-10 * scale
        assert est.n == 30

    def test_different_spaces_allowed(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((25, 3))
        y = rng.standard_normal((25, 1))
        value = hsic_vstat(x, y, GaussianKernel(1.0), GaussianKernel(2.0))
        assert np.isfinite(value)


class TestDcov:
    def test_constant_y_is_zero(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 2))
        y = np.zeros((20, 2))
        assert dcov_vstat(x, y, E2) == 0.0

    def test_factor_four_against_hsic(self):
        # the constant relating the two statistics was identified by brute
        # force (ratio 4 on every random instance) and is asserted exactly
        rng = np.random.default_rng(11)
        for trial in range(100):
            x, y = random_pair(rng, dependent=trial % 2 == 0)
            q = int(rng.integers(1, 4))
            y = y[:, :1] if trial % 3 == 0 else rng.standard_normal((x.shape[0], q))
            rx = NEGATIVE_TYPE_METRICS[trial % len(NEGATIVE_TYPE_METRICS)]
            ry = E2 if trial % 2 else induced_semimetric(GaussianKernel(0.8))
            wx = rng.standard_normal(x.shape[1])
            wy = rng.standard_normal(y.shape[1])
            d = dcov_vstat(x, y, rx, ry)
            h = hsic_vstat(x, y, induced_kernel(rx, wx), induced_kernel(ry, wy))
            assert abs(d - 4.0 * h) <= 1e-10 * (1.0 + abs(d))

    def test_two_point_hand_value(self):
        # at n=2 the three terms leave rho_x(x1,x2) * rho_y(y1,y2) / 4
        x = np.array([[0.0], [2.0]])
        y = np.array([[1.0], [4.0]])
        assert dcov_vstat(x, y, E2) == pytest.approx(4.0 * 9.0 / 4.0, rel=1e-14)


class TestPermutationTest:
    def test_rejects_zero_permutations(self):
        x = np.zeros((5, 1))
        with pytest.raises(InputError):
            permutation_test(x, x, "hsic", kernel=GaussianKernel(1.0), B=0)

    def test_integer_settings_must_be_integers(self):
        x = np.arange(10.0)
        kw = dict(kernel=GaussianKernel(1.0))
        reference = permutation_test(x, x, "hsic", B=9, seed=1, **kw)
        assert permutation_test(x, x, "hsic", B=np.int64(9), seed=np.uint32(1), **kw) == reference
        for B, seed in ((9.9, 1), (9.0, 1), (True, 1), (9, 1.7), (9, False), (9, "1")):
            with pytest.raises(InputError, match="must be an integer"):
                permutation_test(x, x, "hsic", B=B, seed=seed, **kw)
        study = dict(reps=2, B=9, seed=1)
        assert power_study("independent_normal", "dcov", 10, **{**study, "reps": np.int64(2)}) == power_study(
            "independent_normal", "dcov", 10, **study
        )
        for key, value in (("reps", 2.5), ("reps", True), ("B", 9.5), ("B", True), ("seed", 1.5)):
            with pytest.raises(InputError, match="must be an integer"):
                power_study("independent_normal", "dcov", 10, **{**study, key: value})

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(12)
        x, y = random_pair(rng, n=30, p=2, dependent=True)
        a = permutation_test(x, y, "hsic", kernel=GaussianKernel(), B=99, seed=42)
        b = permutation_test(x, y, "hsic", kernel=GaussianKernel(), B=99, seed=42)
        assert a == b
        c = permutation_test(x, y, "hsic", kernel=GaussianKernel(), B=99, seed=43)
        assert c.p_value != a.p_value or c.statistic == a.statistic

    def test_strong_dependence_gives_smallest_p(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((100, 1))
        result = permutation_test(x, x.copy(), "hsic", kernel=GaussianKernel(1.0), B=199, seed=7)
        assert result.p_value == pytest.approx(1.0 / 200.0)

    def test_p_value_bounds(self):
        rng = np.random.default_rng(14)
        x, y = random_pair(rng, n=20)
        for estimator, kw in [
            ("mcov", dict(metric=E2)),
            ("mcov_trace", dict(kernel=GaussianKernel(1.0))),
            ("hsic", dict(kernel=GaussianKernel(1.0))),
            ("dcov", dict(metric=E2)),
        ]:
            result = permutation_test(x, y, estimator, B=49, seed=3, **kw)
            assert 1.0 / 50.0 <= result.p_value <= 1.0

    def test_default_alternatives(self):
        rng = np.random.default_rng(15)
        x, y = random_pair(rng, n=15)
        assert permutation_test(x, y, "mcov", metric=E2, B=9, seed=0).alternative == "two_sided"
        assert permutation_test(x, y, "dcov", metric=E2, B=9, seed=0).alternative == "greater"

    def test_statistic_matches_plain_estimator(self):
        rng = np.random.default_rng(16)
        x, y = random_pair(rng, n=25, p=2, dependent=True)
        cases = [
            ("mcov", dict(metric=E2), mcov_plugin(x, y, E2)),
            ("mcov_trace", dict(kernel=GaussianKernel(1.0)), mcov_trace(x, y, GaussianKernel(1.0))),
            ("hsic", dict(kernel=GaussianKernel(1.0)), hsic_vstat(x, y, GaussianKernel(1.0))),
            ("dcov", dict(metric=E2), dcov_vstat(x, y, E2)),
        ]
        for estimator, kw, direct in cases:
            result = permutation_test(x, y, estimator, B=5, seed=1, **kw)
            assert result.statistic == pytest.approx(direct, rel=1e-12)

    def test_a_statistic_that_is_not_finite_is_refused(self):
        # squared distances of points at 1e160 overflow to infinity: hsic
        # reads NaN, which no permuted value would reach, and dcov infinity
        rng = np.random.default_rng(4)
        x = 1e160 * rng.standard_normal((50, 2))
        y = x + 1e160 * rng.standard_normal((50, 2))
        with np.errstate(all="ignore"):
            with pytest.raises(InputError, match="the result is not finite"):
                permutation_test(x, y, "hsic", kernel=GaussianKernel(), B=19, seed=1)
            with pytest.raises(InputError, match="the result is not finite"):
                dcov_vstat(x, y, E2)

    def test_unknown_estimator_and_missing_spec(self):
        x = np.zeros((4, 1))
        with pytest.raises(InputError):
            permutation_test(x, x, "energy", metric=E2, B=5)
        with pytest.raises(InputError):
            permutation_test(x, x, "hsic", B=5)
        with pytest.raises(InputError):
            permutation_test(x, x, "mcov", B=5)
        with pytest.raises(InputError):
            permutation_test(x, x, "hsic", kernel=GaussianKernel(1.0), B=5, seed=-1)
        with pytest.raises(InputError):
            permutation_test(x, x, "hsic", kernel=GaussianKernel(1.0), B=5, alternative="less")


class TestJointPermutationInvariance:
    def test_relabeling_both_sides_leaves_statistics_unchanged(self):
        rng = np.random.default_rng(17)
        x, y = random_pair(rng, n=30, p=2, dependent=True)
        perm = rng.permutation(30)
        xp, yp = x[perm], y[perm]
        pairs = [
            (mcov_plugin(x, y, E2), mcov_plugin(xp, yp, E2)),
            (mcov_trace(x, y, GaussianKernel(1.0)), mcov_trace(xp, yp, GaussianKernel(1.0))),
            (hsic_vstat(x, y, GaussianKernel(1.0)), hsic_vstat(xp, yp, GaussianKernel(1.0))),
            (dcov_vstat(x, y, E2), dcov_vstat(xp, yp, E2)),
        ]
        for before, after in pairs:
            assert after == pytest.approx(before, rel=1e-12, abs=1e-12)
