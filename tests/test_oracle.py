import numpy as np
import pytest

from metricdep import (
    DiscreteJoint,
    EuclideanSquared,
    GaussianKernel,
    InputError,
    LinearKernel,
    cancellation_joint,
    dcov_vstat,
    empirical_joint,
    exact_dcov,
    exact_hsic,
    exact_mcov,
    gram_matrix,
    hsic_vstat,
    induced_semimetric,
    mcov_plugin,
    mcov_trace,
    mercer_basis,
    mercer_hsic_decomposition,
    mercer_mcov_decomposition,
    product_joint,
)

E2 = EuclideanSquared()
LIN = LinearKernel()


def uniform01_identity():
    """X = Y uniform on {0, 1} in R."""
    return DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [[0.5, 0.0], [0.0, 0.5]])


def random_joint(rng, m=None, m2=None, dim=3, floor=0.01):
    m = m or int(rng.integers(2, 9))
    m2 = m2 or int(rng.integers(2, 9))
    sx = rng.standard_normal((m, dim))
    sy = rng.standard_normal((m2, dim))
    p = rng.dirichlet(np.ones(m * m2)).reshape(m, m2)
    p = (p + floor) / (p + floor).sum()  # keep marginals bounded away from 0
    return DiscreteJoint(sx, sy, p)


class TestDiscreteJoint:
    def test_validation(self):
        with pytest.raises(InputError):
            DiscreteJoint([[0.0]], [[0.0]], [[0.5]])  # does not sum to 1
        with pytest.raises(InputError):
            DiscreteJoint([[0.0], [1.0]], [[0.0]], [[1.5], [-0.5]])  # negative
        with pytest.raises(InputError):
            DiscreteJoint([[0.0], [0.0]], [[0.0]], [[0.5], [0.5]])  # duplicate support
        with pytest.raises(InputError):
            DiscreteJoint([[0.0]], [[0.0]], [[0.5, 0.5]])  # shape mismatch

    def test_marginals(self):
        j = uniform01_identity()
        np.testing.assert_allclose(j.px, [0.5, 0.5])
        np.testing.assert_allclose(j.py, [0.5, 0.5])

    def test_json_round_trip(self):
        import json

        j = uniform01_identity()
        back = DiscreteJoint.from_json(json.dumps(j.to_dict()))
        np.testing.assert_array_equal(back.probs, j.probs)
        with pytest.raises(InputError):
            DiscreteJoint.from_json("{not json")
        with pytest.raises(InputError):
            DiscreteJoint.from_json('{"support_x": [[0]]}')

    def test_sampling_hits_support_with_right_frequencies(self):
        j = uniform01_identity()
        x, y = j.sample(4000, seed=0)
        assert x.shape == (4000, 1) and y.shape == (4000, 1)
        np.testing.assert_array_equal(x, y)  # identity coupling
        assert abs(x.mean() - 0.5) < 0.05

    def test_integer_seed_draws_from_the_philox_stream(self):
        j = product_joint([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5], [[0.0], [5.0]], [0.4, 0.6])
        for seed in (0, 17, 2**63 - 1):
            x, y = j.sample(50, seed=seed)
            rng = np.random.Generator(np.random.Philox(key=seed))
            np.testing.assert_array_equal((x, y), j.sample(50, seed=rng))
        with pytest.raises(InputError, match="seed"):
            j.sample(5, seed=-1)


class TestExactMeasures:
    def test_product_distribution_gives_zero(self):
        jp = product_joint([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5], [[0.0], [5.0]], [0.4, 0.6])
        assert exact_mcov(jp, E2) == pytest.approx(0.0, abs=1e-12)
        assert exact_hsic(jp, GaussianKernel(1.0)) == pytest.approx(0.0, abs=1e-12)
        assert exact_dcov(jp, E2) == pytest.approx(0.0, abs=1e-12)

    def test_uniform01_identity_hand_values(self):
        j = uniform01_identity()
        # E_{XY'} d2 = 1/2, E_{XY} d2 = 0 -> mcov = 1/4
        assert exact_mcov(j, E2) == 0.25
        # 1-D linear-kernel HSIC is cov(X,Y)^2 = (1/4)^2
        assert exact_hsic(j, LIN) == 0.0625
        assert exact_dcov(j, E2) == pytest.approx(4.0 * 0.0625, rel=1e-14)

    def test_comonotone_vs_antitone_signs(self):
        j_co = uniform01_identity()
        j_anti = DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [[0.0, 0.5], [0.5, 0.0]])
        assert exact_mcov(j_co, E2) == 0.25
        assert exact_mcov(j_anti, E2) == -0.25

    def test_degenerate_y_gives_zero_dcov(self):
        j = DiscreteJoint([[0.0], [1.0]], [[3.0]], [[0.5], [0.5]])
        assert exact_dcov(j, E2) == 0.0
        assert exact_hsic(j, GaussianKernel(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_characteristic_kernel_positive_on_dependent_joints(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            sx = rng.standard_normal((m, 2))
            sy = rng.standard_normal((m, 2))
            probs = np.full((m, m), 0.2 / (m * m))
            probs[np.diag_indices(m)] += 0.8 / m  # strong diagonal coupling
            j = DiscreteJoint(sx, sy, probs / probs.sum())
            assert exact_hsic(j, GaussianKernel(1.0)) > 1e-8

    def test_dcov_equals_four_hsic_on_joints(self):
        rng = np.random.default_rng(2)
        from metricdep import induced_kernel

        for _ in range(20):
            j = random_joint(rng)
            d = exact_dcov(j, E2, induced_semimetric(GaussianKernel(0.9)))
            h = exact_hsic(
                j,
                induced_kernel(E2, rng.standard_normal(3)),
                induced_kernel(induced_semimetric(GaussianKernel(0.9)), rng.standard_normal(3)),
            )
            assert abs(d - 4.0 * h) <= 1e-10 * (1.0 + abs(d))


class TestMercerBasis:
    def test_two_point_linear_by_hand(self):
        # M^(1/2) K M^(1/2) = 0.5 [[1,-1],[-1,1]] has eigenvalues {1, 0};
        # the surviving eigenfunction is e(+-1) = +-1 up to sign
        ms = mercer_basis(LIN, [[-1.0], [1.0]], [0.5, 0.5])
        np.testing.assert_allclose(ms.eigenvalues, [1.0], atol=1e-14)
        e = ms.functions[:, 0]
        assert abs(e[0]) == pytest.approx(1.0, rel=1e-12)
        assert e[0] * e[1] == pytest.approx(-1.0, rel=1e-12)

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(3)
        for kernel in (GaussianKernel(1.1), LIN):
            support = rng.standard_normal((8, 3))
            mu = rng.dirichlet(np.ones(8)) * 0.5 + 0.5 / 8
            ms = mercer_basis(kernel, support, mu)
            gram_weighted = ms.functions.T * mu @ ms.functions
            np.testing.assert_allclose(
                gram_weighted, np.eye(ms.eigenvalues.size), atol=1e-10
            )
            np.testing.assert_allclose(
                ms.reconstruct(), gram_matrix(kernel, support), atol=1e-10
            )

    def test_input_validation(self):
        with pytest.raises(InputError):
            mercer_basis(LIN, [[0.0], [1.0]], [0.0, 1.0])  # zero weight
        with pytest.raises(InputError):
            mercer_basis(LIN, [[0.0], [0.0]], [0.5, 0.5])  # duplicate support
        with pytest.raises(InputError):
            mercer_basis(LIN, [[0.0], [1.0]], [0.5, 0.6])  # does not sum to 1


class TestDecompositions:
    def test_independent_joint_gives_zero_totals(self):
        jp = product_joint([[0.0], [1.0]], [0.4, 0.6], [[0.5], [2.0]], [0.7, 0.3])
        dm = mercer_mcov_decomposition(jp, GaussianKernel(1.0))
        dh = mercer_hsic_decomposition(jp, GaussianKernel(1.0))
        assert dm.total == pytest.approx(0.0, abs=1e-12)
        assert dh.total == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(dm.terms, 0.0, atol=1e-12)

    def test_uniform01_linear_single_term(self):
        j = uniform01_identity()
        dm = mercer_mcov_decomposition(j, LIN)
        assert dm.terms.size == 1
        assert dm.total == pytest.approx(0.25, rel=1e-12)
        dh = mercer_hsic_decomposition(j, LIN)
        assert dh.terms.size == 1
        assert dh.total == pytest.approx(0.0625, rel=1e-12)

    def test_totals_match_exact_measures(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            j = random_joint(rng)
            for kernel in (GaussianKernel(1.2), LIN):
                dm = mercer_mcov_decomposition(j, kernel)
                target = exact_mcov(j, induced_semimetric(kernel))
                assert abs(dm.total - target) <= 1e-10 * (1.0 + abs(target))
                assert dm.total == pytest.approx(float(dm.terms.sum()))
                dh = mercer_hsic_decomposition(j, kernel)
                target = exact_hsic(j, kernel, kernel)
                assert abs(dh.total - target) <= 1e-10 * (1.0 + abs(target))
                assert dh.terms.min() >= 0.0

    def test_a_semimetric_is_read_through_its_induced_kernel(self):
        # as hsic reads a semimetric; its Gram matrix is no kernel's
        rng = np.random.default_rng(5)
        joints = [cancellation_joint()] + [random_joint(rng, dim=2) for _ in range(5)]
        for j in joints:
            for metric in (E2, induced_semimetric(GaussianKernel(1.2))):
                dm = mercer_mcov_decomposition(j, metric)
                assert abs(dm.total - exact_mcov(j, metric)) <= 1e-10
                dh = mercer_hsic_decomposition(j, metric)
                assert abs(dh.total - exact_hsic(j, metric)) <= 1e-10
                assert dh.terms.min() >= 0.0
        assert exact_hsic(joints[0], E2) == 1.0

    def test_shared_support_points_are_merged(self):
        # X = Y uniform on {0,1}: union support has 2 points, not 4
        j = uniform01_identity()
        dm = mercer_mcov_decomposition(j, GaussianKernel(1.0))
        assert dm.system.support.shape == (2, 1)
        np.testing.assert_allclose(dm.system.mu, [0.5, 0.5])

    def test_different_spaces_rejected(self):
        j = DiscreteJoint([[0.0, 1.0]], [[0.0]], [[1.0]])
        with pytest.raises(InputError):
            mercer_mcov_decomposition(j, GaussianKernel(1.0))


class TestCancellationWitness:
    def test_dependent_but_mcov_blind(self):
        j = cancellation_joint()
        assert np.abs(j.probs - np.outer(j.px, j.py)).max() > 0.1  # dependent
        assert abs(exact_mcov(j, E2)) < 1e-10
        assert abs(exact_mcov(j, induced_semimetric(GaussianKernel(1.0)))) < 1e-10
        assert abs(exact_mcov(j, induced_semimetric(GaussianKernel(0.3)))) < 1e-10
        assert exact_hsic(j, GaussianKernel(1.0)) > 0.1

    def test_single_sum_cancels_termwise(self):
        # All the dependence sits in the two-dimensional eigenspace E of a
        # repeated eigenvalue lambda, whose basis the eigensolver picks
        # freely; what does not depend on that choice is that the block C_E
        # of the basis cross-covariance has trace 0 and Frobenius norm 2, so
        # the single sum gets lambda tr C_E = 0 from E and HSIC gets
        # lambda^2 ||C_E||^2 > 0.
        j = cancellation_joint()
        for sigma in (0.5, 0.8, 1.0, 1.2, 2.0):
            dm = mercer_mcov_decomposition(j, GaussianKernel(sigma))
            dh = mercer_hsic_decomposition(j, GaussianKernel(sigma))
            lam = dm.eigenvalues
            e = np.nonzero(np.isclose(lam, lam[1], rtol=1e-9, atol=0.0))[0]
            assert list(e) == [1, 2], sigma
            c = dh.covariances
            c_e = c[np.ix_(e, e)]
            outside = c.copy()
            outside[np.ix_(e, e)] = 0.0
            assert np.abs(outside).max() < 1e-12, sigma
            assert abs(np.trace(c_e)) < 1e-12, sigma
            assert np.linalg.norm(c_e) == pytest.approx(2.0, rel=1e-12), sigma
            assert abs(dm.terms[e].sum()) < 1e-12, sigma
            assert abs(dm.total) < 1e-12, sigma
            assert dh.total == pytest.approx(lam[1] ** 2 * 4.0, rel=1e-12), sigma
            assert dh.terms.min() >= 0.0, sigma


class TestEstimatorConsistency:
    def test_rational_multiplicities_reproduce_exact_values(self):
        # a sample whose empirical law IS the joint: V-statistics must equal
        # the exact oracle values to fp accuracy
        sx = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        sy = np.array([[1.0, 1.0], [-2.0, 0.0]])
        probs = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 1.0]]) / 10.0
        j = DiscreteJoint(sx, sy, probs)
        reps = np.repeat(np.arange(6), (probs.reshape(-1) * 10).round().astype(int))
        a, b = np.unravel_index(reps, probs.shape)
        x, y = sx[a], sy[b]

        g = GaussianKernel(1.0)
        checks = [
            (mcov_plugin(x, y, E2), exact_mcov(j, E2)),
            (mcov_trace(x, y, g), exact_mcov(j, induced_semimetric(g))),
            (hsic_vstat(x, y, g), exact_hsic(j, g)),
            (dcov_vstat(x, y, E2), exact_dcov(j, E2)),
        ]
        for estimate, exact in checks:
            assert abs(estimate - exact) <= 1e-10 * (1.0 + abs(exact))

    def test_empirical_joint_matches_direct_estimators(self):
        rng = np.random.default_rng(5)
        j = random_joint(rng, m=4, m2=3)
        x, y = j.sample(500, seed=9)
        emp = empirical_joint(x, y)
        g = GaussianKernel(1.0)
        assert exact_mcov(emp, E2) == pytest.approx(mcov_plugin(x, y, E2), rel=1e-10)
        assert exact_hsic(emp, g) == pytest.approx(hsic_vstat(x, y, g), rel=1e-10)
        assert exact_dcov(emp, E2) == pytest.approx(dcov_vstat(x, y, E2), rel=1e-10)

    def test_vstatistics_converge_to_exact(self):
        # single-seed convergence check at moderate n (the acceptance suite
        # does the full bootstrap version at n = 20000)
        rng = np.random.default_rng(6)
        j = random_joint(rng, m=3, m2=3, dim=2)
        x, y = j.sample(3000, seed=1)
        est = exact_mcov(empirical_joint(x, y), E2)
        assert abs(est - exact_mcov(j, E2)) < 0.15
