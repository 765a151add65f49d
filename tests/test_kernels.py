import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from metricdep import (
    DistanceInducedKernel,
    EuclideanSquared,
    ExplicitSemimetric,
    GaussianKernel,
    InputError,
    KernelInducedSemimetric,
    LinearKernel,
    MaternKernel,
    distance_matrix,
    gram_matrix,
    induced_kernel,
    induced_semimetric,
    kernel_eval,
    kernels,
    median_heuristic,
    parse_kernel,
    parse_semimetric,
    resolve_bandwidth,
    semimetric_eval,
    validate_negative_type,
)

CATALOGUE_KERNELS = [
    LinearKernel(),
    GaussianKernel(1.0),
    GaussianKernel(0.3),
    MaternKernel(0.5, 1.0),
    MaternKernel(1.5, 2.0),
    MaternKernel(2.5, 0.7),
]

NEGATIVE_TYPE_METRICS = [
    EuclideanSquared(),
    induced_semimetric(LinearKernel()),
    induced_semimetric(GaussianKernel(1.0)),
    induced_semimetric(MaternKernel(1.5, 0.8)),
]


class TestKernelEval:
    def test_gaussian_identical_points_is_one(self):
        k = GaussianKernel(1.0)
        assert kernel_eval(k, [0.3, -2.0], [0.3, -2.0]) == 1.0

    def test_linear_is_dot_product(self):
        assert kernel_eval(LinearKernel(), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_distance_induced_origin_anchor(self):
        # (d2(x,w) + d2(y,w) - d2(x,y)) / 2 = (1 + 1 - 2) / 2 = 0 by hand
        k = induced_kernel(EuclideanSquared())
        assert kernel_eval(k, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_symmetry_all_catalogue_kernels(self):
        rng = np.random.default_rng(5)
        for kernel in CATALOGUE_KERNELS:
            for _ in range(10):
                x, y = rng.standard_normal(3), rng.standard_normal(3)
                assert kernel_eval(kernel, x, y) == pytest.approx(
                    kernel_eval(kernel, y, x), rel=0, abs=1e-15
                )

    def test_gaussian_range(self):
        rng = np.random.default_rng(6)
        k = GaussianKernel(0.7)
        vals = [
            kernel_eval(k, rng.standard_normal(2), rng.standard_normal(2))
            for _ in range(50)
        ]
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_matern_half_closed_form(self):
        # nu=1/2 is exp(-r/ell)
        k = MaternKernel(0.5, 2.0)
        assert kernel_eval(k, [0.0], [1.0]) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            kernel_eval(LinearKernel(), [1.0, 2.0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            kernel_eval(GaussianKernel(1.0), [np.nan], [0.0])

    def test_bad_parameters_rejected(self):
        with pytest.raises(InputError):
            GaussianKernel(0.0)
        with pytest.raises(InputError):
            MaternKernel(2.0, 1.0)
        with pytest.raises(InputError):
            MaternKernel(1.5, -1.0)


class TestInducedSemimetric:
    def test_linear_kernel_gives_squared_euclidean(self):
        d2 = induced_semimetric(LinearKernel())
        assert semimetric_eval(d2, [1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        for kernel in CATALOGUE_KERNELS:
            d2 = induced_semimetric(kernel)
            for _ in range(5):
                x = rng.standard_normal(4)
                assert semimetric_eval(d2, x, x) == 0.0

    def test_gaussian_hand_value(self):
        # d2(0, 2) = 2 - 2 exp(-2) for sigma = 1
        d2 = induced_semimetric(GaussianKernel(1.0))
        assert semimetric_eval(d2, [0.0], [2.0]) == pytest.approx(
            2.0 - 2.0 * np.exp(-2.0), rel=1e-15
        )


class TestInducedKernel:
    def test_euclid2_origin_is_linear(self):
        rng = np.random.default_rng(8)
        k = induced_kernel(EuclideanSquared())
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert kernel_eval(k, x, y) == pytest.approx(float(x @ y), rel=1e-12)

    def test_anchor_maps_to_zero(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(3)
        for d2 in NEGATIVE_TYPE_METRICS:
            k = induced_kernel(d2, w)
            assert kernel_eval(k, w, w) == 0.0

    def test_round_trip_recovers_semimetric(self):
        rng = np.random.default_rng(10)
        for d2 in NEGATIVE_TYPE_METRICS:
            for _ in range(5):
                w = rng.standard_normal(2)
                x, y = rng.standard_normal(2), rng.standard_normal(2)
                original = semimetric_eval(d2, x, y)
                recovered = semimetric_eval(
                    induced_semimetric(induced_kernel(d2, w)), x, y
                )
                assert recovered == pytest.approx(original, rel=1e-12, abs=1e-14)

    def test_anchor_dimension_mismatch(self):
        k = induced_kernel(EuclideanSquared(), [1.0, 2.0, 3.0])
        with pytest.raises(InputError, match="^dimension mismatch between points: 1 vs 3$"):
            kernel_eval(k, [1.0], [2.0])
        # the Gram matrix evaluates its points unchecked once coerced, and
        # still refuses the anchor
        with pytest.raises(InputError, match="^dimension mismatch between points: 1 vs 3$"):
            gram_matrix(k, [1.0, 2.0])


def _paired_objects(d, rng):
    """Kernels and semimetrics of every class, on points of dimension d;
    explicit matrices take row indices of 12 points."""
    anchor = rng.standard_normal(d)
    explicit = ExplicitSemimetric(distance_matrix(EuclideanSquared(), rng.standard_normal((12, d))))
    return [
        *CATALOGUE_KERNELS,
        *NEGATIVE_TYPE_METRICS,
        induced_semimetric(MaternKernel(0.5, 1.3)),
        induced_semimetric(MaternKernel(2.5, 0.6)),
        induced_kernel(EuclideanSquared()),
        induced_kernel(EuclideanSquared(), anchor),
        induced_kernel(induced_semimetric(LinearKernel()), anchor),
        induced_kernel(induced_semimetric(GaussianKernel(0.5)), anchor),
        induced_semimetric(induced_kernel(induced_semimetric(MaternKernel(1.5, 1.0)), anchor)),
        explicit,
        induced_kernel(explicit),
        induced_semimetric(induced_kernel(explicit)),
    ]


PAIRED_CLASSES = len(_paired_objects(1, np.random.default_rng(0)))


def _on_indices(obj):
    while hasattr(obj, "base"):
        obj = obj.base
    return isinstance(obj, ExplicitSemimetric)


def _paired_points(obj, n, d, rng, scale):
    if _on_indices(obj):
        return rng.integers(0, 12, n), rng.integers(0, 12, n)
    return scale * rng.standard_normal((n, d)), scale * rng.standard_normal((n, d))


class TestPaired:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        which=st.sampled_from(range(PAIRED_CLASSES)),
        n=st.integers(1, 20),
        d=st.sampled_from([1, 2, 3, 5, 9]),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
    )
    def test_paired_is_the_diagonal_of_pairwise(self, seed, which, n, d, scale):
        # within 1e-15 of the largest entry of the matrix on all the points,
        # or of a base it is induced from, whose roundoff it inherits (2 - 2k
        # cancels): that bounds the roundoff of both evaluations
        rng = np.random.default_rng(seed)
        obj = _paired_objects(d, rng)[which]
        xs, ys = _paired_points(obj, n, d, rng, scale)
        pool = np.concatenate([xs, ys])
        largest, part = 0.0, obj
        while part is not None:
            largest = max(largest, np.abs(part.pairwise(pool, pool)).max())
            part = getattr(part, "base", None)
        np.testing.assert_allclose(
            obj.paired(xs, ys), np.diagonal(obj.pairwise(xs, ys)), rtol=0, atol=1e-15 * largest
        )

    @pytest.mark.parametrize("which", range(PAIRED_CLASSES))
    def test_a_point_paired_with_itself(self, which):
        rng = np.random.default_rng(which)
        obj = _paired_objects(4, rng)[which]
        xs, _ = _paired_points(obj, 25, 4, rng, 3.0)
        k = obj.paired(xs, xs)
        if isinstance(obj, (GaussianKernel, MaternKernel)):
            assert np.all(k == 1.0)
        elif isinstance(obj, (EuclideanSquared, KernelInducedSemimetric, ExplicitSemimetric)):
            assert np.all(k == 0.0)
        elif isinstance(obj, DistanceInducedKernel):
            # k(x, x) = d2(x, w), exactly 0 at the anchor
            assert np.array_equal(k, obj.base.paired(xs, obj._anchor_row(xs)))
            if obj.anchor is not None:
                assert obj.paired(obj.anchor[None], obj.anchor[None])[0] == 0.0

    @pytest.mark.parametrize("which", range(PAIRED_CLASSES))
    def test_a_single_point_pairs_with_every_point(self, which):
        rng = np.random.default_rng(100 + which)
        obj = _paired_objects(3, rng)[which]
        xs, ys = _paired_points(obj, 10, 3, rng, 1.0)
        repeated = np.repeat(ys[:1], 10, axis=0)
        assert np.array_equal(obj.paired(xs, ys[:1]), obj.paired(xs, repeated))
        assert np.array_equal(obj.paired(ys[:1], xs), obj.paired(repeated, xs))


def _refusals(obj, rng, method):
    """Points ``obj`` takes, of dimension 2 or indices of its 12 x 12
    matrix, and bad ones, each with the messages it is refused with as the
    first and as the second side; ``paired`` also refuses two good sides of
    different lengths, neither a single point."""
    empty = ("empty point set",) * 2
    if _on_indices(obj):
        out_of_range = "index out of range for explicit 12x12 matrix, rows 0 to 11: "
        good, refusals = np.array([3, 0, 11]), [
            ([0, 12], (out_of_range + "[0, 12]",) * 2),
            (np.array([-1, 5]), (out_of_range + "[-1, 5]",) * 2),
            ([0.0, 0.5], ("points of an explicit semimetric are integer indices",) * 2),
            (np.zeros(0, dtype=int), empty),
        ]
    else:
        good, refusals = rng.standard_normal((3, 2)), [
            (np.array([[0.0, np.nan], [1.0, 2.0]]), ("point coordinates must be finite",) * 2),
            (np.array([[0.0, 1.0], [-np.inf, 2.0]]), ("point coordinates must be finite",) * 2),
            (rng.standard_normal((3, 3)), ("dimension mismatch between points: 3 vs 2",
                                           "dimension mismatch between points: 2 vs 3")),
            (np.zeros((0, 2)), empty),
            (np.zeros((2, 2, 2)), ("expected points as an (n, p) array, got shape (2, 2, 2)",) * 2),
        ]
    if method == "paired":
        refusals.append((good[:2], ("paired points differ in length: 2 vs 3", "paired points differ in length: 3 vs 2")))
    return good, refusals


class TestRefusals:
    @pytest.mark.parametrize("method", ["pairwise", "paired"])
    @pytest.mark.parametrize("which", range(PAIRED_CLASSES))
    def test_public_evaluations_refuse_bad_points(self, which, method):
        # the public pairwise and paired of every class check both sides,
        # an induced semimetric over an explicit matrix's kernel included,
        # with the messages they always gave, and paired their lengths
        rng = np.random.default_rng(300 + which)
        obj = _paired_objects(2, rng)[which]
        good, refusals = _refusals(obj, rng, method)
        evaluate = getattr(obj, method)
        assert np.all(np.isfinite(evaluate(good, good)))
        for bad, (first, second) in refusals:
            with pytest.raises(InputError, match="^" + re.escape(first) + "$"):
                evaluate(bad, good)
            with pytest.raises(InputError, match="^" + re.escape(second) + "$"):
                evaluate(good, bad)


class TestGramMatrix:
    def test_gaussian_unit_diagonal(self):
        pts = np.random.default_rng(11).standard_normal((12, 3))
        g = gram_matrix(GaussianKernel(0.8), pts)
        assert np.array_equal(np.diagonal(g), np.ones(12))

    def test_linear_gram_is_xxt(self):
        pts = np.eye(3)
        np.testing.assert_allclose(gram_matrix(LinearKernel(), pts), np.eye(3))

    def test_single_point(self):
        g = gram_matrix(LinearKernel(), [[2.0, 3.0]])
        assert g.shape == (1, 1) and g[0, 0] == 13.0

    def test_psd_on_random_points(self):
        rng = np.random.default_rng(12)
        for kernel in CATALOGUE_KERNELS:
            pts = rng.standard_normal((50, 4))
            eig = np.linalg.eigvalsh(gram_matrix(kernel, pts))
            assert eig[0] >= -1e-8 * eig[-1]

    def test_induced_kernel_gram_equals_shifted_linear_gram(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((20, 3))
        w = rng.standard_normal(3)
        g_induced = gram_matrix(induced_kernel(EuclideanSquared(), w), pts)
        g_shifted = gram_matrix(LinearKernel(), pts - w)
        np.testing.assert_allclose(g_induced, g_shifted, rtol=0, atol=1e-12)

    def test_induced_kernel_gram_rejects_invalid_base(self):
        # the check runs once, when the explicit matrix enters
        with pytest.raises(InputError, match="negative type"):
            ExplicitSemimetric([[0.0, 1.0, 1.0], [1.0, 0.0, 9.0], [1.0, 9.0, 0.0]])


class TestDistanceMatrix:
    def test_euclid2_hand_values(self):
        m = distance_matrix(EuclideanSquared(), [[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_array_equal(m, [[0.0, 25.0], [25.0, 0.0]])

    def test_single_point(self):
        np.testing.assert_array_equal(
            distance_matrix(EuclideanSquared(), [[1.0, 1.0]]), [[0.0]]
        )

    def test_kernel_induced_matches_pointwise(self):
        m = distance_matrix(induced_semimetric(GaussianKernel(1.0)), [[0.0], [2.0]])
        assert m[0, 1] == pytest.approx(2.0 - 2.0 * np.exp(-2.0), rel=1e-15)
        assert m[0, 0] == 0.0 and m[1, 0] == m[0, 1]

    def test_symmetric_zero_diag_nonnegative(self):
        rng = np.random.default_rng(14)
        for d2 in NEGATIVE_TYPE_METRICS:
            pts = rng.standard_normal((15, 2))
            m = distance_matrix(d2, pts)
            assert np.array_equal(m, m.T)
            assert np.all(np.diagonal(m) == 0.0)
            assert m.min() >= 0.0

    def test_explicit_matrix_roundtrip_and_validation(self):
        base = distance_matrix(
            EuclideanSquared(), np.random.default_rng(15).standard_normal((5, 2))
        )
        ex = ExplicitSemimetric(base)
        np.testing.assert_array_equal(distance_matrix(ex, np.arange(5)), base)
        np.testing.assert_array_equal(
            distance_matrix(ex, [3, 1]), base[np.ix_([3, 1], [3, 1])]
        )
        with pytest.raises(InputError):
            ExplicitSemimetric([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
        with pytest.raises(InputError):
            ExplicitSemimetric([[1.0, 1.0], [1.0, 0.0]])  # nonzero diagonal
        with pytest.raises(InputError):
            ExplicitSemimetric([[0.0, -1.0], [-1.0, 0.0]])  # negative entry
        with pytest.raises(InputError):
            distance_matrix(ex, [0, 7])  # index out of range


class TestValidateNegativeType:
    def test_squared_euclidean_is_valid(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            pts = rng.standard_normal((rng.integers(2, 30), rng.integers(1, 5)))
            d = distance_matrix(EuclideanSquared(), pts)
            assert validate_negative_type(d).valid

    def test_two_point_matrix_by_hand(self):
        # -0.5 J D J for D = [[0,1],[1,0]] has eigenvalues {0, 1/2}
        report = validate_negative_type([[0.0, 1.0], [1.0, 0.0]])
        assert report.valid
        assert report.worst_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_hand_constructed_violator(self):
        # sqrt-distances 1, 1, 3 break the triangle inequality, so no
        # Hilbert-space embedding exists; exact eigenvalues of -0.5 J D J
        # are {-5/6, 0, 9/2} (rational arithmetic by hand).
        d = [[0.0, 1.0, 1.0], [1.0, 0.0, 9.0], [1.0, 9.0, 0.0]]
        report = validate_negative_type(d)
        assert not report.valid
        assert report.worst_eigenvalue == pytest.approx(-5.0 / 6.0, rel=1e-12)

    def test_collinear_three_points_valid(self):
        # squared Euclidean on {0, 1, 2}: spectrum of -0.5 J D J is {0, 0, 2}
        report = validate_negative_type([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        assert report.valid
        assert report.worst_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_input_errors(self):
        with pytest.raises(InputError):
            validate_negative_type([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InputError):
            validate_negative_type([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            validate_negative_type([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tolerance_outside_zero_to_infinity_is_an_input_error(self, tol):
        with pytest.raises(InputError, match="tolerance"):
            validate_negative_type([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]], tol=tol)

    @pytest.mark.parametrize("entry", [validate_negative_type, ExplicitSemimetric])
    def test_empty_matrix_is_an_input_error(self, entry):
        with pytest.raises(InputError, match="^distance matrix is empty$"):
            entry(np.zeros((0, 0)))


class TestBandwidth:
    def test_median_heuristic_hand_value(self):
        # pairwise distances of {0, 1, 3} are {1, 3, 2}; median 2
        assert median_heuristic([[0.0], [1.0], [3.0]]) == 2.0

    def test_pooled_median(self):
        assert median_heuristic([[0.0]], [[1.0], [3.0]]) == 2.0

    def test_degenerate_data_falls_back(self):
        assert median_heuristic([[1.0], [1.0], [1.0]]) == 1.0

    def test_samples_of_different_dimensions_are_refused(self):
        message = "^dimension mismatch between points: 2 vs 3$"
        with pytest.raises(InputError, match=message):
            median_heuristic(np.zeros((3, 2)), np.ones((3, 3)))
        with pytest.raises(InputError, match=message):
            resolve_bandwidth(GaussianKernel(), np.zeros((3, 2)), np.ones((3, 3)))

    @pytest.mark.parametrize("m", [2, 5, 6, 7, 40, 41])
    def test_median_sorted_in_place_is_the_median_of_a_copy(self, m):
        # m points give m (m - 1) / 2 distances: odd for m = 2, 6, 7, 41
        pts = np.random.default_rng(m).standard_normal((m, 3))
        assert median_heuristic(pts) == float(np.median(pdist(pts).copy()))
        assert median_heuristic(pts[:1], pts[1:]) == median_heuristic(pts)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 60),
        d=st.integers(1, 3),
        levels=st.sampled_from([0, 1, 2, 3]),
        max_points=st.sampled_from([2000, 7, 8]),
    )
    def test_median_heuristic_is_np_median(self, seed, m, d, levels, max_points):
        # odd and even distance counts, ties from points on a grid of
        # ``levels`` values per coordinate, and the evenly spaced subsample
        # above ``max_points`` rows
        pts = np.random.default_rng(seed).standard_normal((m, d))
        if levels:
            pts = np.round(pts * levels / 2)
        kept = pts if m <= max_points else pts[(np.arange(max_points) * (m / max_points)).astype(int)]
        med = float(np.median(pdist(kept)))
        assert median_heuristic(pts, max_points=max_points) == (med if med > 0 else 1.0)

    @pytest.mark.parametrize("m,levels", [(2001, 0), (2500, 3)])
    def test_median_heuristic_above_2000_points_is_np_median_of_the_subsample(self, m, levels):
        pts = np.random.default_rng(m).standard_normal((m, 2))
        if levels:
            pts = np.round(pts * levels / 2)
        kept = pts[(np.arange(2000) * (m / 2000)).astype(int)]
        assert median_heuristic(pts) == float(np.median(pdist(kept)))

    @staticmethod
    def _pooled(m, data):
        pts = np.random.default_rng(m).standard_normal((m, 2)) * 3.0
        if data == "tied":
            pts = np.round(pts)
        elif data == "half_constant":
            pts[: m // 2] = 0.3
        elif data == "two_valued":
            pts = np.sign(pts[:, :1])
        return pts

    # up to 724 pooled points, whose 261726 pairs fit in two row blocks,
    # the squared distances are one pdist; from 725 on they are read in row
    # blocks; 723, 726 and 1999 points give an odd number of pairs, 724,
    # 725 and 2000 an even one
    @pytest.mark.parametrize("m", [723, 724, 725, 726, 1999, 2000])
    @pytest.mark.parametrize("data", ["scaled", "tied", "half_constant", "two_valued"])
    def test_median_heuristic_read_in_row_blocks_is_np_median(self, m, data, monkeypatch):
        blocked, read = [], kernels._blocked_order_statistics

        def counted(pooled, ranks):
            blocked.append(len(pooled))
            return read(pooled, ranks)

        monkeypatch.setattr(kernels, "_blocked_order_statistics", counted)
        pts = self._pooled(m, data)
        med = float(np.median(pdist(pts)))
        # two-valued points of some sizes have more pairs at 0 than at 2
        assert median_heuristic(pts) == (med if med > 0 else 1.0)
        assert blocked == ([m] if m > 724 else [])

    # first brackets by the ranks (of N sorted pairs, middle k = N // 2) of
    # their ends: below the middle, ending at or starting at a middle pair,
    # above it, and of one value; all but a few, on odd N or tied data, miss
    # a middle pair, so that a later pass, with the side that missed
    # widened, reads it
    @pytest.mark.parametrize("m", [725, 2000])
    @pytest.mark.parametrize("ends", [
        lambda k, N: (0, k // 2),
        lambda k, N: (k // 2, k - 1),
        lambda k, N: (k, k + k // 2),
        lambda k, N: (k + 1, N - 1),
        lambda k, N: (N - N // 10, N - N // 10),
    ])
    @pytest.mark.parametrize("data", ["scaled", "tied"])
    def test_a_bracket_that_misses_the_middle_gives_the_same_median(self, m, ends, data, monkeypatch):
        pts = self._pooled(m, data)
        d = np.sort(pdist(pts, "sqeuclidean"))
        first = tuple(d[list(ends(len(d) // 2, len(d)))])
        widths = self._forced_bracket(first, monkeypatch)
        assert median_heuristic(pts) == float(np.median(pdist(pts)))
        assert len(widths) > 1 or first[0] <= np.median(d) <= first[1]

    @staticmethod
    def _forced_bracket(first, monkeypatch):
        """Make ``first`` the first bracket, and the subsample's those after
        it; the widths of each bracket taken are appended to the returned
        list."""
        taken, bracket = [], kernels._bracket

        def forced(sample, widths):
            taken.append(widths)
            return first if widths == (1, 1) else bracket(sample, widths)

        monkeypatch.setattr(kernels, "_bracket", forced)
        return taken

    @staticmethod
    def _traced_median(pts):
        """The median heuristic of pts, pooled from two halves, and the peak
        of what it allocates beyond the pooled copy, under tracemalloc."""
        median_heuristic(pts[:10])  # loads the distance kernels
        tracemalloc.start()
        try:
            median = median_heuristic(pts[: len(pts) // 2], pts[len(pts) // 2 :])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return median, peak - pts.nbytes

    # on two-valued points half the pairs are at one value and half at the
    # other, which the bracket's ends count rather than keep; the wide
    # points' subsample is gathered in chunks
    @pytest.mark.parametrize("data", ["scaled", "two_valued", "wide"])
    def test_median_heuristic_holds_no_array_of_all_the_pairs(self, data):
        if data == "wide":
            pts = np.random.default_rng(3).standard_normal((2000, 200))
        else:
            pts = self._pooled(2000, data)
        median, peak = self._traced_median(pts)
        # the 1999000 pairs of the 2000 pooled points take 16 MB
        assert peak < 4e6
        assert median == float(np.median(pdist(pts)))

    # a first bracket just above the middle misses it below; only that side
    # widens, so the second pass keeps about 5/64 of the pairs, not every
    # pair below its upper end
    def test_a_missed_bracket_holds_no_array_of_half_the_pairs(self, monkeypatch):
        pts = self._pooled(2000, "scaled")
        d = np.sort(pdist(pts, "sqeuclidean"))
        k = len(d) // 2
        widths = self._forced_bracket((d[k + 1], d[k + k // 32]), monkeypatch)
        median, peak = self._traced_median(pts)
        assert widths == [(1, 1), (4, 1)]
        assert peak < 4e6
        assert median == float(np.median(pdist(pts)))

    def test_unresolved_gaussian_refuses_evaluation(self):
        with pytest.raises(InputError, match="unresolved"):
            kernel_eval(GaussianKernel(), [0.0], [1.0])

    def test_resolve_bandwidth_fills_sigma(self):
        k = resolve_bandwidth(GaussianKernel(), [[0.0], [1.0], [3.0]])
        assert k.sigma == 2.0
        d2 = resolve_bandwidth(induced_semimetric(GaussianKernel()), [[0.0], [1.0], [3.0]])
        assert d2.base.sigma == 2.0
        assert resolve_bandwidth(LinearKernel(), [[0.0]]) == LinearKernel()


class TestSpecStrings:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("linear", LinearKernel()),
            ("gaussian:sigma=0.5", GaussianKernel(0.5)),
            ("gaussian", GaussianKernel(None)),
            ("matern:nu=1.5,ell=2.0", MaternKernel(1.5, 2.0)),
            ("matern:nu=0.5", MaternKernel(0.5, 1.0)),
        ],
    )
    def test_parse_kernel(self, text, expected):
        assert parse_kernel(text) == expected

    def test_parse_induced_kernel(self):
        k = parse_kernel("induced_kernel:base=euclid2,anchor=origin")
        assert isinstance(k, DistanceInducedKernel)
        assert isinstance(k.base, EuclideanSquared)
        assert k.anchor is None
        k = parse_kernel(
            "induced_kernel:base=(induced_metric:base=(matern:nu=2.5,ell=0.7)),anchor=(0.5;-1.0)"
        )
        assert isinstance(k.base, KernelInducedSemimetric)
        assert k.base.base == MaternKernel(2.5, 0.7)
        np.testing.assert_array_equal(k.anchor, [0.5, -1.0])

    def test_parse_semimetric(self):
        assert parse_semimetric("euclid2") == EuclideanSquared()
        d2 = parse_semimetric("induced_metric:base=(gaussian:sigma=2.0)")
        assert isinstance(d2, KernelInducedSemimetric)
        assert d2.base == GaussianKernel(2.0)
        # bare nesting is accepted when unambiguous
        assert parse_semimetric("induced_metric:base=gaussian:sigma=2.0").base == GaussianKernel(2.0)

    def test_spec_round_trip(self):
        for kernel in [*CATALOGUE_KERNELS, induced_kernel(EuclideanSquared())]:
            parsed = parse_kernel(kernel.spec)
            assert parsed.spec == kernel.spec
        for metric in NEGATIVE_TYPE_METRICS:
            assert parse_semimetric(metric.spec).spec == metric.spec

    @pytest.mark.parametrize(
        "text",
        [
            "gauss",
            "gaussian:sigma=abc",
            "matern:ell=1.0",
            "matern:nu=1.5,bogus=2",
            "induced_kernel:anchor=origin",
            "induced_kernel:base=(euclid2",
            "",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(InputError):
            parse_kernel(text)
