import numpy as np
import pytest

from metricdep import (
    EuclideanSquared,
    GaussianKernel,
    InputError,
    LinearKernel,
    PowerReport,
    estimators,
    gen_coupled_mixture,
    gen_independent_normal,
    gen_orthogonal_linear,
    hsic_vstat,
    mcov_plugin,
    mcov_trace,
    norm_distribution_check,
    permutation_test,
    power_study,
)
from metricdep.estimators import resolve_specs
from metricdep.kernels import induced_semimetric
from metricdep.scenarios import generate


class TestOrthogonalLinear:
    def test_shapes_and_structure(self):
        x, y = gen_orthogonal_linear(40, seed=0)
        assert x.shape == y.shape == (40, 2)
        assert np.all(x[:, 1] == 0.0) and np.all(y[:, 0] == 0.0)
        np.testing.assert_array_equal(x[:, 0], y[:, 1])  # shared Z

    def test_mcov_trace_linear_is_exactly_zero(self):
        # every cross inner product <x_i, y_j> vanishes identically, so the
        # statistic is 0.0 for every n and seed, not just in expectation
        for seed in (0, 1, 99):
            for n in (2, 17, 200):
                x, y = gen_orthogonal_linear(n, seed)
                assert mcov_trace(x, y, LinearKernel()) == 0.0

    def test_hsic_linear_sees_the_cross_coordinate_covariance(self):
        # the same-basis covariances are all zero, but HSIC sums covariances
        # of all basis pairs: with linear kernels it equals Var(Z)^2 here
        x, y = gen_orthogonal_linear(300, seed=5)
        z = x[:, 0]
        var_z = float(((z - z.mean()) ** 2).mean())
        assert hsic_vstat(x, y, LinearKernel()) == pytest.approx(var_z**2, rel=1e-10)
        assert hsic_vstat(x, y, LinearKernel()) > 0.5

    def test_deterministic(self):
        a = gen_orthogonal_linear(25, seed=3)
        b = gen_orthogonal_linear(25, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_n_validation(self):
        with pytest.raises(InputError):
            gen_orthogonal_linear(1, seed=0)


class TestCoupledMixture:
    def test_shapes_and_noise_scale(self):
        x, y = gen_coupled_mixture(500, sigma=0.5, seed=0)
        assert x.shape == y.shape == (500, 2)
        assert np.abs(x).max() < 1.0 + 6 * 0.5

    def test_correlation_signs(self):
        x, y = gen_coupled_mixture(2000, sigma=0.5, seed=1)
        assert np.corrcoef(x[:, 0], y[:, 0])[0, 1] > 0.3
        assert np.corrcoef(x[:, 1], y[:, 1])[0, 1] < -0.3

    def test_bitwise_regeneration(self):
        a = gen_coupled_mixture(100, sigma=0.7, seed=11)
        b = gen_coupled_mixture(100, sigma=0.7, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = gen_coupled_mixture(100, sigma=0.7, seed=12)
        assert not np.array_equal(a[0], c[0])

    def test_validation(self):
        with pytest.raises(InputError):
            gen_coupled_mixture(10, sigma=0.0, seed=0)
        with pytest.raises(InputError):
            gen_coupled_mixture(1, sigma=0.5, seed=0)

    def test_mcov_statistic_is_tiny_relative_to_hsic(self):
        # the pairing is invisible through cross distances alone
        x, y = gen_coupled_mixture(3000, sigma=0.5, seed=2)
        blind = abs(mcov_plugin(x, y, induced_semimetric(GaussianKernel(1.0))))
        sharp = hsic_vstat(x, y, GaussianKernel(1.0))
        assert blind < 0.05 * sharp


class TestNormDistributionCheck:
    def test_symmetric_mixture_passes(self):
        for seed in (0, 1, 2):
            res = norm_distribution_check(4000, sigma=0.5, seed=seed)
            assert res.p_value > 0.01
            assert 0.0 <= res.ks_statistic <= 1.0

    def test_asymmetric_means_rejected(self):
        # with these means the coupled norms concentrate near sqrt(2) and
        # sqrt(5) while re-pairing adds mass near sqrt(17): the equality breaks
        res = norm_distribution_check(
            4000, sigma=0.5, seed=0, means_y=((0.0, 0.0), (3.0, 0.0))
        )
        assert res.p_value < 1e-6

    def test_degenerate_n2(self):
        res = norm_distribution_check(2, sigma=0.5, seed=0)
        assert 0.0 <= res.p_value <= 1.0
        assert np.isfinite(res.ks_statistic)

    def test_reports_any_integer_seed(self):
        res = norm_distribution_check(50, seed=np.int64(3))
        assert res == norm_distribution_check(50, seed=3)
        assert type(res.seed) is int and res.seed == 3
        assert norm_distribution_check(50, seed=np.random.default_rng(3)).seed == -1


class TestIndependentNormal:
    def test_sides_are_independent_draws(self):
        x, y = gen_independent_normal(1000, seed=0)
        assert x.shape == y.shape == (1000, 2)
        assert abs(np.corrcoef(x[:, 0], y[:, 0])[0, 1]) < 0.15


class TestPowerStudy:
    def test_minimal_run_fields(self):
        report = power_study(
            "coupled_mixture", "hsic", 20, alpha=0.05, reps=1, B=1, seed=0
        )
        assert report.reps == 1 and report.permutations == 1
        assert 0.0 <= report.rejection_rate <= 1.0
        assert report.monte_carlo_se == pytest.approx(
            np.sqrt(report.rejection_rate * (1 - report.rejection_rate) / 1)
        )
        assert list(report.to_dict()) == [
            "scenario", "estimator", "kernel_or_metric", "n", "sigma", "alpha",
            "reps", "B", "seed", "rejection_rate", "monte_carlo_se",
        ]

    def test_deterministic_and_schedule_independent(self, monkeypatch):
        from metricdep import scenarios

        kwargs = dict(alpha=0.2, reps=6, B=29, seed=42)
        generate, drawn = scenarios.generate, []

        def recording_generate(*args):
            drawn.append(generate(*args))
            return drawn[-1]

        monkeypatch.setattr(scenarios, "generate", recording_generate)
        a = power_study("independent_normal", "hsic", 30, **kwargs)
        b = power_study("independent_normal", "hsic", 30, **kwargs)
        assert a == b
        assert len(drawn) == 12
        for r, (x, y) in enumerate(drawn[:6]):
            rng = np.random.Generator(np.random.Philox(key=[42, r]))
            x_ref, y_ref = generate("independent_normal", 30, rng, 0.5)
            assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)

    def test_detects_strong_dependence_quickly(self):
        report = power_study(
            "orthogonal_linear", "hsic", 100, alpha=0.05, reps=10, B=39, seed=7
        )
        assert report.rejection_rate == 1.0

    def test_mcov_kernel_argument_runs_on_induced_semimetric(self):
        report = power_study(
            "coupled_mixture",
            "mcov",
            30,
            alpha=0.5,
            reps=2,
            B=9,
            seed=3,
            kernel=GaussianKernel(1.0),
        )
        assert report.kernel_or_metric == induced_semimetric(GaussianKernel(1.0)).spec

    def test_default_specs(self):
        report = power_study("independent_normal", "dcov", 20, reps=1, B=1, seed=0)
        assert report.kernel_or_metric == EuclideanSquared().spec
        report = power_study("independent_normal", "hsic", 20, reps=1, B=1, seed=0)
        assert report.kernel_or_metric == "gaussian"

    def test_validation(self):
        with pytest.raises(InputError):
            power_study("nope", "hsic", 20, reps=1, B=1, seed=0)
        with pytest.raises(InputError):
            power_study("coupled_mixture", "nope", 20, reps=1, B=1, seed=0)
        with pytest.raises(InputError):
            power_study("coupled_mixture", "hsic", 20, reps=0, B=1, seed=0)
        with pytest.raises(InputError):
            power_study("coupled_mixture", "hsic", 20, reps=1, B=1, seed=0, alpha=1.5)

    @pytest.mark.parametrize("n", [20.5, 20.0, True, "20", None])
    def test_a_non_integer_n_is_an_input_error(self, n):
        with pytest.raises(InputError, match="n must be an integer"):
            power_study("independent_normal", "dcov", n, reps=2, B=9)
        for draw in (gen_orthogonal_linear, gen_coupled_mixture, gen_independent_normal):
            with pytest.raises(InputError, match="n must be an integer"):
                draw(n, seed=0)
        with pytest.raises(InputError, match="n must be an integer"):
            norm_distribution_check(n)

    def test_a_numpy_integer_n_draws_as_an_int_does(self):
        for name in ("orthogonal_linear", "coupled_mixture", "independent_normal"):
            for ours, theirs in zip(generate(name, np.int64(30), 4), generate(name, 30, 4)):
                assert np.array_equal(ours, theirs)
        assert norm_distribution_check(np.int64(30), seed=2) == norm_distribution_check(30, seed=2)

    @pytest.mark.parametrize(
        "scenario, estimator, n, seed, spec",
        [
            ("coupled_mixture", "mcov", 200, 11, dict(kernel=GaussianKernel())),
            ("coupled_mixture", "hsic", 200, 11, dict(kernel=GaussianKernel())),
            ("orthogonal_linear", "hsic", 200, 12, dict(kernel=GaussianKernel())),
            ("independent_normal", "mcov", 100, 13, dict(metric=EuclideanSquared())),
            ("independent_normal", "mcov_trace", 100, 13, dict(kernel=GaussianKernel())),
            ("independent_normal", "hsic", 100, 13, dict(kernel=GaussianKernel())),
            ("independent_normal", "dcov", 100, 13, dict(metric=EuclideanSquared())),
            ("orthogonal_linear", "mcov", 50, 14, dict(metric=EuclideanSquared())),
        ],
    )
    @pytest.mark.parametrize("alpha", [0.05, 0.3])
    def test_equals_a_loop_over_full_permutation_tests(self, scenario, estimator, n, seed, spec, alpha):
        # the shapes of acceptance criteria 4, 5 and 7, and a study whose
        # every re-pairing ties (p = 1), against every permutation run
        reps, B = 8, 199
        kernel, metric = resolve_specs(estimator, spec.get("kernel"), spec.get("metric"))
        rejections = 0
        for rep in range(reps):
            rng = np.random.Generator(np.random.Philox(key=[seed, rep]))
            x, y = generate(scenario, n, rng, 0.5)
            result = permutation_test(
                x, y, estimator, metric=metric, kernel=kernel, B=B, seed=int(rng.integers(2**63))
            )
            rejections += result.p_value <= alpha
        rate = rejections / reps
        reference = PowerReport(
            scenario=scenario,
            estimator=estimator,
            kernel_or_metric=(metric if kernel is None else kernel).spec,
            n=n,
            sigma=0.5,
            alpha=alpha,
            reps=reps,
            permutations=B,
            seed=seed,
            rejection_rate=rate,
            monte_carlo_se=float(np.sqrt(rate * (1.0 - rate) / reps)),
        )
        report = power_study(scenario, estimator, n, alpha=alpha, reps=reps, B=B, seed=seed, **spec)
        assert report.to_dict() == reference.to_dict()

    def test_replication_stops_once_it_cannot_reject(self, monkeypatch):
        # mcov of orthogonal_linear data under euclid2 is exactly 0 for every
        # re-pairing, so the first 16 permutations already give p > alpha
        batches, drawn = estimators._permutation_batches, []

        def recording(*args):
            for block in batches(*args):
                drawn.append(len(block))
                yield block

        monkeypatch.setattr(estimators, "_permutation_batches", recording)
        report = power_study("orthogonal_linear", "mcov", 50, reps=3, B=199, seed=0, metric=EuclideanSquared())
        assert report.rejection_rate == 0.0 and drawn == [16, 16, 16]
        x, y = gen_orthogonal_linear(50, seed=0)
        del drawn[:]
        assert permutation_test(x, y, "mcov", metric=EuclideanSquared(), B=199).p_value == 1.0
        assert sum(drawn) == 199

    def test_large_noise_drowns_the_signal(self):
        # sanity sweep: at sigma far above the mean separation the mixture is
        # indistinguishable from independence and power falls toward alpha
        report = power_study(
            "coupled_mixture", "hsic", 60, alpha=0.05, reps=40, B=59, seed=5, sigma=50.0
        )
        assert report.rejection_rate <= 0.2
