"""The screened n x n route: hsic and dcov permutations screened through
nested levels of eigen-ordered pivoted-Cholesky factors of both centred
sides, grown as values reach them, with every value near the observed
statistic recomputed exactly; an unscreened centred inner product has no
levels.  Each level's screen values must lie within half its margin of the
exact ones; the counts, and so the p-values, must be the n x n route's; the
screen must decline where it cannot pay off.  Its rows are evaluated from
the points in blocks, with the bits of the stored matrices, each unordered
pair of points once.  A taken screen holds no n x n array: it recomputes its near
ties from the points; a declined one stores both sides once."""

import gc
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from metricdep import (  # noqa: E402
    ExplicitSemimetric,
    GaussianKernel,
    InputError,
    LinearKernel,
    dcov_vstat,
    distance_matrix,
    estimators,
    gram_matrix,
    hsic_vstat,
    kernels,
    parse_kernel,
    parse_semimetric,
    permutation_test,
)
from metricdep.kernels import EuclideanSquared, matrix_rows, resolve_bandwidth  # noqa: E402

# (estimator, spec keyword, spec, c): the induced centred Gram is c times
# the centred matrix the n x n route holds; an induced kernel runs as its
# semimetric
SPECS = [
    ("hsic", "kernel", "gaussian", 1.0),
    ("hsic", "kernel", "gaussian:sigma=3", 1.0),
    ("hsic", "kernel", "matern:nu=2.5,ell=4", 1.0),
    ("hsic", "kernel", "induced_kernel:base=(induced_metric:base=(gaussian:sigma=2))", -0.5),
    ("dcov", "metric", "induced_metric:base=(gaussian)", -0.5),
    ("dcov", "metric", "induced_metric:base=(matern:nu=1.5,ell=3)", -0.5),
]


def _spec(kind, text):
    return {kind: parse_kernel(text) if kind == "kernel" else parse_semimetric(text)}


def _counts(prepared, perms, batch):
    """Exceedance counts for both alternatives, as ``_permutation_test`` makes them."""
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


def _screened(x, y, estimator, spec, c, first_rank=None, stored=False):
    """The centred inner product that ``_prepare`` screens from n = 200 on,
    here at any n, its sides ``c`` times a centred Gram; with
    ``first_rank``, from levels of rank ``first_rank``, 2 ``first_rank``,
    ..., and no rank cap; with ``stored``, its sides then stored, as where
    a screen declines."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_SCREEN_MIN_N", 0)
        if first_rank is not None:
            patch.setattr(estimators, "_SCREEN_FIRST_RANK", first_rank)
            patch.setattr(estimators, "_SCREEN_RANKS", len(x))
        screened = estimators._prepare(estimator, x, y, permutations=1, **spec)
    assert type(screened) is estimators._CenteredInner
    assert screened._a.c == screened._b.c == c
    assert first_rank is None or screened._levels
    if stored:
        screened._a.store()
        screened._b.store()
    return screened


def _all_levels(prepared):
    """Build every level a value could reach, as ``permuted`` would; a
    screen whose factors pass the cap declines here."""
    while prepared._next_level():
        pass
    return prepared


def _assert_levels_hold(screened, perms, exact):
    """Each level's screen value is within half its margin of the exact
    value, for every permutation."""
    for level, (_, _, margin) in enumerate(_all_levels(screened)._levels):
        assert np.all(np.abs(screened.screen(level, perms) - exact) <= margin / 2)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(12, 40),
    d=st.sampled_from([1, 1, 2, 5]),
    dep=st.sampled_from([0.0, 0.3, 2.0]),
    levels=st.sampled_from([0, 2, 3]),
    which=st.sampled_from(range(len(SPECS))),
    batch=st.integers(1, 8),
    stored=st.booleans(),
)
def test_screened_counts_are_the_nxn_counts(seed, n, d, dep, levels, which, batch, stored):
    estimator, kind, text, c = SPECS[which]
    x, y = _sample(seed, n, d, dep, levels)
    inner = estimators._prepare(estimator, x, y, **_spec(kind, text))
    assert type(inner) is estimators._CenteredInner and not inner._levels
    screened = _screened(x, y, estimator, _spec(kind, text), c, stored=stored)
    perms = np.vstack(list(estimators._permutation_batches(seed, n, 40, 40)))
    assert screened.observed == inner.observed
    assert _counts(screened, perms, batch) == _counts(inner, perms, 40)
    # a first rank of 1 gives levels of rank 1, 2, 4, ... and runs all of them
    every_level = _all_levels(_screened(x, y, estimator, _spec(kind, text), c, first_rank=1, stored=stored))
    ranks = [max(len(ft), g.shape[1]) for ft, g, _ in every_level._levels]
    assert ranks[:-1] == [2**i for i in range(len(ranks) - 1)] and ranks == sorted(set(ranks))
    _assert_levels_hold(every_level, perms, inner.permuted(perms))
    assert _counts(every_level, perms, batch) == _counts(inner, perms, 40)


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
    screened = _screened(x, y, estimator, _spec(kind, text), c)
    assert screened._levels
    perms = np.vstack(list(estimators._permutation_batches(seed, n, 300, 300)))
    t = inner.permuted(perms)
    assert np.count_nonzero(np.abs(t - inner.observed) <= 1e-12 * abs(inner.observed)) >= 20
    assert _counts(screened, perms, 300) == _counts(inner, perms, 300)
    every_level = _all_levels(_screened(x, y, estimator, _spec(kind, text), c, first_rank=1))
    assert len(every_level._levels) > 1
    _assert_levels_hold(every_level, perms, t)
    assert _counts(every_level, perms, 300) == _counts(inner, perms, 300)


def _flat(pts, at=0.0):
    """Points ``at`` plus 1e-10 times ``pts``: not all equal, but a gaussian
    of bandwidth near 1 or more rounds every entry of their Gram matrix to
    exactly 1.0, so that the matrix is constant, as a constant side's is;
    a constant side itself is decided before any route."""
    flat = at + 1e-10 * pts
    assert not estimators._constant(flat)
    return flat


@pytest.mark.parametrize("constant", ["x", "y", "both"])
def test_a_side_with_a_constant_matrix_has_a_rank_zero_factor(constant):
    n = 40
    x, y = _sample(8, n, 1, 0.5)
    if constant in ("x", "both"):
        x = _flat(x)
    if constant in ("y", "both"):
        y = _flat(y, 1.0)
    for pts, side in ((x, "x"), (y, "y")):
        assert (gram_matrix(GaussianKernel(1.0), pts) == 1.0).all() == (constant in (side, "both"))
    inner = estimators._prepare("hsic", x, y, kernel=GaussianKernel(1.0))
    screened = _screened(x, y, "hsic", dict(kernel=GaussianKernel(1.0)), 1.0)
    ft, g, _ = screened._levels[0]
    assert (len(ft) == 0) == (constant != "y") and (g.shape[1] == 0) == (constant != "x")
    perms = np.vstack(list(estimators._permutation_batches(8, n, 30, 30)))
    assert _counts(screened, perms, 7) == _counts(inner, perms, 30)


def _n2000(seed, rho):
    """The shape of the benchmark's n = 2000 test input: gaussian pairs with
    correlation ``rho`` in each of two coordinates."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    x = rng.standard_normal((2000, 2))
    return x, rho * x + np.sqrt(1.0 - rho**2) * rng.standard_normal((2000, 2))


def _count_levels(monkeypatch):
    """Patch ``_CenteredInner.screen`` to count the values each level screens."""
    reached = {}
    screen = estimators._CenteredInner.screen

    def counted(self, level, perms):
        reached[level] = reached.get(level, 0) + len(perms)
        return screen(self, level, perms)

    monkeypatch.setattr(estimators._CenteredInner, "screen", counted)
    return reached


def test_the_first_levels_decide_a_dependent_n2000_test(monkeypatch):
    x, y = _n2000(1, 0.5)
    kernel = resolve_bandwidth(GaussianKernel(), x, y)
    prepared = estimators._prepare("hsic", x, y, kernel=kernel, permutations=199)
    reached = _count_levels(monkeypatch)

    def exact(perms):
        raise AssertionError("a permutation reached the exact route")

    monkeypatch.setattr(prepared, "_exact", exact)
    count = 0
    for perms in estimators._permutation_batches(7, 2000, 199, 64):
        count += np.count_nonzero(prepared.permuted(perms) >= prepared.observed)
    assert count == 0
    # the leading 16 kernel principal components of each side, from its
    # factor grown to 32 pivots, decide all; no factor grows further
    first, g, _ = prepared._levels[0]
    assert len(first) == g.shape[1] == estimators._SCREEN_FIRST_RANK == 16
    assert reached == {0: 199}
    assert len(prepared._levels) == 1 and [factor.rank for factor in prepared._factors] == [32, 32]
    assert len(_all_levels(prepared)._levels) >= 3


def test_an_independent_n2000_test_keeps_the_nxn_counts(monkeypatch):
    x, y = _n2000(2, 0.0)
    kernel = resolve_bandwidth(GaussianKernel(), x, y)
    prepared = estimators._prepare("hsic", x, y, kernel=kernel, permutations=199)
    assert prepared._levels
    perms = np.vstack(list(estimators._permutation_batches(3, 2000, 199, 199)))
    reached = _count_levels(monkeypatch)
    screened = _counts(prepared, perms, 8)
    # rank 16 decides none of the first piece, so every later piece starts
    # at rank 32, which decides two thirds of all values, and rank 64 the
    # rest; no value reaches the last level
    assert reached == {0: 8, 1: 199, 2: 65}
    assert prepared._decided == [0, 134, 65] and prepared._start == 1
    assert len(prepared._levels) == 3 and not prepared._final
    # the stored gather has the evaluated bits and takes a fraction of the time
    _all_levels(prepared)
    prepared._a.store()
    prepared._b.store()
    exact = prepared._exact(perms)
    assert screened == (np.count_nonzero(exact >= prepared.observed),) * 2
    assert 0 < screened[0] < 199
    _assert_levels_hold(prepared, perms, exact)


# permutation_test(x, y, estimator, B=199, seed=7) on the two n = 2000
# samples, recorded with the screen's levels in pivot order and the
# re-pairings gathered by fancy indexing: the order of the levels and the
# gathers change no bit of a statistic or p-value.  The hsic statistics
# were recorded again once the n x n route read both sides in one pass in
# the shifted three-term form, again once that pass read each unordered
# pair once, and again once the shift's u was moved onto a grid on which
# its sums are exact; ``before`` holds the values recorded before each, in
# order, which they keep within 1e-10 relative
GOLDEN = [
    ((1, 0.5), "hsic", dict(kernel=GaussianKernel()), 0.008424458242434126, 0.005,
     (0.008424458242434164, 0.008424458242434124)),
    ((1, 0.5), "dcov", dict(metric=EuclideanSquared()), 2.157445911413293, 0.005, None),
    ((1, 0.5), "mcov", dict(metric=EuclideanSquared()), 1.0345014751753754, 0.005, None),
    ((2, 0.0), "hsic", dict(kernel=GaussianKernel()), 5.527173443778994e-05, 0.855,
     (5.5271734437752856e-05, 5.5271734437789834e-05, 5.52717344377898e-05)),
    ((2, 0.0), "dcov", dict(metric=EuclideanSquared()), 0.004585186923057645, 0.64, None),
    ((2, 0.0), "mcov", dict(metric=EuclideanSquared()), 0.03324088448156132, 0.275, None),
]


@pytest.mark.parametrize("sample,estimator,spec,statistic,p_value,before", GOLDEN)
def test_n2000_tests_keep_their_recorded_bits(sample, estimator, spec, statistic, p_value, before):
    result = permutation_test(*_n2000(*sample), estimator, B=199, seed=7, **spec)
    assert result.statistic == statistic and result.p_value == p_value
    assert all(abs(result.statistic - value) <= 1e-10 * abs(value) for value in before or ())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    d=st.sampled_from([1, 2, 5]),
    levels=st.sampled_from([0, 2, 3]),
    which=st.sampled_from(range(len(SPECS))),
)
def test_eigen_ordering_keeps_the_factor_within_its_bound(seed, n, d, levels, which):
    # the rotated factor's row norms, the square roots of the eigenvalues
    # of F'F, do not increase (up to the bound), and F~ F~' is within the
    # bound delta of F F' in the nuclear norm, measured in extended precision
    _, kind, text, c = SPECS[which]
    x = _sample(seed, n, d, 0.0, levels)[0]
    obj = estimators._reduced(resolve_bandwidth(_spec(kind, text)[kind], x), x, False)
    m = c * (distance_matrix if c < 0 else gram_matrix)(obj, x)
    m = m - m.mean(axis=0) - m.mean(axis=1)[:, None] + m.mean()
    factor = estimators._PivotedCholesky(lambda j: m[j], np.diagonal(m), n)
    assert factor.grow(n) and factor.complete
    # grown in steps, the factor has the bits of one grown at once
    in_steps = estimators._PivotedCholesky(lambda j: m[j], np.diagonal(m), n)
    for rank in (1, 2, 5, n):
        assert in_steps.grow(rank) and in_steps.rank == min(rank, factor.rank)
    assert np.array_equal(in_steps.ft, factor.ft)
    ft = factor.ft
    f = ft.astype(np.longdouble)
    lam, delta = estimators._eigen_ordered(ft)
    norms = np.einsum("ij,ij->i", ft, ft)
    assert np.all(np.diff(norms) <= delta)
    assert len(ft) == 0 or abs(norms[0] - lam) <= delta
    rotated = ft.astype(np.longdouble)
    change = np.linalg.svd((rotated.T @ rotated - f.T @ f).astype(float), compute_uv=False).sum()
    assert change <= delta


def _exact_centred_inner(k, l):
    """<HKH, HLH> / n^2 of two float matrices in exact integer arithmetic,
    from their row sums and totals, rounded once."""
    n = len(k)

    def scaled(m):
        # each float as an integer multiple of 2^-1100
        return [[num << (1101 - den.bit_length()) for num, den in map(float.as_integer_ratio, row)]
                for row in m.tolist()]

    k, l = scaled(k), scaled(l)
    rows_k, rows_l = [sum(row) for row in k], [sum(row) for row in l]
    inner = sum(a * b for row_k, row_l in zip(k, l) for a, b in zip(row_k, row_l))
    value = n * n * inner - 2 * n * sum(a * b for a, b in zip(rows_k, rows_l)) + sum(rows_k) * sum(rows_l)
    return value / (n**4 << 2200)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    d=st.sampled_from([1, 2]),
    data=st.sampled_from(["null", "dependent", "near_constant", "scaled"]),
    power=st.integers(-40, 40),
    which=st.sampled_from(range(len(SPECS))),
    rows=st.sampled_from([None, 1, 5, 64]),
)
# a first block of one row gives a u that straddles 0.5, where u_i + u_j
# rounded before u was moved onto one grid
@example(seed=0, n=2, d=1, data="near_constant", power=0, which=2, rows=1)
def test_the_three_term_form_is_within_1e_10_of_the_exact_value(seed, n, d, data, power, which, rows):
    # the shifted three-term form against <HAH, HBH> / n^2 of the same
    # float matrices, computed exactly: on independent and dependent data,
    # on data near a constant (a Gram matrix near all ones at a fixed
    # bandwidth), and on data scaled by a power of 2; in one block, or in
    # blocks of ``rows`` rows read over the upper triangle, whose diagonals
    # are those of the shifted matrices
    estimator, kind, text, _ = SPECS[which]
    x, y = _sample(seed, n, d, 0.5 if data == "dependent" else 0.0)
    if data == "near_constant":
        x, y = 3.0 + 2.0**-12 * x, -1.0 + 2.0**-12 * y
    if data == "scaled":
        x, y = 2.0**power * x, 2.0**power * y
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(kernels, "_BLOCK_BYTES", 8 * n * rows)
        prepared = estimators._prepare(estimator, x, y, **_spec(kind, text))
    a, b = prepared._a, prepared._b
    k, l = (matrix_rows(side._evaluate.args[0], side._pts, 0, n, side.c < 0) for side in (a, b))
    exact = prepared._factor * _exact_centred_inner(k, l)
    assert abs(prepared.observed - exact) <= 1e-10 * abs(exact)
    assert np.array_equal(prepared._diags[0], np.diagonal(k) - (a._u + a._u))
    assert np.array_equal(prepared._diags[1], np.diagonal(l) - b._u)


@settings(max_examples=60, deadline=None)
@given(
    power=st.integers(-1000, 1000),
    spread=st.sampled_from([0.0, 1e-12, 1e-8, 0.3, 3.0]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_sum_of_two_shifts_is_exact(power, spread, n, seed):
    # u near a power of 2, straddling it or not, or spread over several:
    # once moved onto one grid, every u_i + u_j is the exact sum, u moves
    # by at most the grid's spacing, and a constant u keeps its bits, an
    # odd last mantissa bit included
    rng = np.random.Generator(np.random.Philox(key=[seed, 11]))
    u = np.ldexp(1.0 + 2.0**-52 + spread * rng.uniform(-1.0, 1.0, n), power)
    moved = estimators._summable(u)
    top = np.abs(u).max()
    assert np.abs(moved - u).max() <= max(np.spacing(2.0 * top), np.spacing(0.0))
    for a in moved.tolist():
        for b in moved.tolist():
            assert Fraction(a) + Fraction(b) == Fraction(a + b)
    if spread == 0.0:
        assert np.array_equal(moved, u)


def test_a_constant_matrix_whose_value_has_an_odd_last_bit_is_shifted_to_zero(monkeypatch):
    # points (1.1, e_i), e_i near 1e-200, differ, but the linear kernel
    # gives each pair 1.1 * 1.1 = 1.2100000000000002, as e_i e_j underflows
    # to 0: an entry with an odd last mantissa bit.  u is half of it, which
    # _summable keeps, and u + u gives it back, so the shifted side is
    # exactly 0, in one block or in blocks of one row.  Against a y wider
    # than n the sides take the n x n route.
    value = 1.1 * 1.1
    assert int(np.ldexp(np.frexp(value)[0], 53)) % 2 == 1
    n = 12
    u = np.full(n, 0.5 * value)
    assert np.array_equal(estimators._summable(u), u)
    assert not estimators._less_outer_sum(np.full((n, n), value), u, u).any()
    x, y = _sample(4, n, n + 1, 0.0)
    x = np.hstack([np.full((n, 1), 1.1), 1e-200 * x[:, :1]])
    assert not estimators._constant(x) and (gram_matrix(LinearKernel(), x) == value).all()
    for rows in (None, 1):
        if rows is not None:
            monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * n * rows)
        for a, b in ((x, y), (y, x)):
            prepared = estimators._prepare("hsic", a, b, kernel=LinearKernel())
            assert type(prepared) is estimators._CenteredInner
            side = prepared._a if a is x else prepared._b
            assert not side.rows(0, n).any()
            result = permutation_test(a, b, "hsic", B=99, seed=3, kernel=LinearKernel())
            assert result.statistic == 0.0 and result.p_value == 1.0


class TestRouteChoice:
    @pytest.fixture
    def no_factorisation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a factorisation started")

        monkeypatch.setattr(estimators, "_PivotedCholesky", fail)

    def test_taken_for_gaussian_hsic_at_n_2000_in_two_dimensions(self):
        x, y = _sample(1, 2000, 2, 0.5)
        prepared = _all_levels(estimators._prepare("hsic", x, y, kernel=GaussianKernel(), permutations=199))
        assert prepared._levels
        assert prepared._levels[-1][2] < 1e-6 * prepared.observed

    def test_declined_in_five_dimensions(self):
        # the first level is built, and nothing stored, until a value
        # reaches a level whose factors pass the rank cap
        x, y = _sample(2, 2000, 5, 0.5)
        prepared = estimators._prepare("hsic", x, y, kernel=GaussianKernel(), permutations=199)
        assert len(prepared._levels) == 1 and not (prepared._a.stored or prepared._b.stored)
        _all_levels(prepared)
        assert type(prepared) is estimators._CenteredInner and not prepared._levels
        assert prepared._a.stored and prepared._b.stored

    @pytest.mark.usefixtures("no_factorisation")
    def test_declined_below_the_crossover_without_factorising(self):
        x, y = _sample(3, 100, 2, 0.5)
        for estimator, spec in (("hsic", dict(kernel=GaussianKernel())),
                                ("dcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian)")))):
            prepared = estimators._prepare(estimator, x, y, permutations=199, **spec)
            assert type(prepared) is estimators._CenteredInner and not prepared._levels
            permutation_test(x, y, estimator, B=19, seed=1, **spec)

    @pytest.mark.usefixtures("no_factorisation")
    def test_declined_without_permutations_and_on_explicit_matrices(self):
        x, y = _sample(4, 400, 1, 0.5)
        assert not estimators._prepare("hsic", x, y, kernel=GaussianKernel())._levels
        n = 200
        pts = np.random.default_rng(5).standard_normal((n, 2))
        metric = ExplicitSemimetric(distance_matrix(EuclideanSquared(), pts))
        idx = np.arange(n)
        prepared = estimators._prepare("dcov", idx, idx[::-1], metric=metric, permutations=99)
        assert type(prepared) is estimators._CenteredInner and not prepared._levels


def test_prepare_holds_no_nxn_array():
    n = 2000
    x, y = _sample(6, n, 2, 0.5)
    # the median heuristic's n (n - 1) / 2 distances are not the route's
    kernel = resolve_bandwidth(GaussianKernel(), x, y)
    tracemalloc.start()
    try:
        prepared = estimators._prepare("hsic", x, y, kernel=kernel, permutations=199)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prepared._levels
    assert peak < 0.25 * 8 * n * n


def test_a_screened_statistic_is_freed_with_its_last_reference():
    # no reference cycle holds the sides, factors and levels, so they go
    # when the statistic does, with the cyclic collector off
    x, y = _sample(6, 300, 2, 0.5)
    perms = np.vstack(list(estimators._permutation_batches(1, 300, 30, 30)))
    gc.collect()
    gc.disable()
    try:
        prepared = estimators._prepare("hsic", x, y, kernel=GaussianKernel(), permutations=30)
        prepared.permuted(perms)
        assert prepared._levels
        freed = weakref.ref(prepared)
        del prepared
        assert freed() is None
    finally:
        gc.enable()


# Specs whose pairwise computes each entry from its two points alone
ELEMENTWISE = [
    ("kernel", "gaussian:sigma=0.7"),
    ("kernel", "matern:nu=0.5,ell=1.3"),
    ("kernel", "matern:nu=1.5,ell=0.8"),
    ("kernel", "matern:nu=2.5,ell=2"),
    ("kernel", "induced_kernel:base=(induced_metric:base=(gaussian:sigma=2))"),
    ("kernel", "induced_kernel:base=(induced_metric:base=(matern:nu=1.5,ell=1))"),
    ("metric", "induced_metric:base=(gaussian:sigma=0.4)"),
    ("metric", "induced_metric:base=(matern:nu=0.5,ell=1)"),
    ("metric", "induced_metric:base=(matern:nu=2.5,ell=3)"),
]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    d=st.sampled_from([1, 2, 3]),
    which=st.sampled_from(range(len(ELEMENTWISE))),
    rows=st.integers(1, 9),
    levels=st.sampled_from([0, 2]),
    data=st.data(),
)
def test_evaluated_rows_are_the_stored_rows(seed, n, d, which, rows, levels, data):
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"), dtype=np.intp)
    kind, text = ELEMENTWISE[which]
    obj = _spec(kind, text)[kind]
    x = _sample(seed, n, d, 0.0, levels)[0]
    if d == 1:
        x = x[:, 0]
    distance = kind == "metric"
    stored = (distance_matrix if distance else gram_matrix)(obj, x)
    assert np.array_equal(stored, stored.T)
    # the rows and sides read points coerced once, as _prepare passes them
    x = obj.coerce(x)
    for i in range(0, n, rows):
        assert np.array_equal(matrix_rows(obj, x, i, min(i + rows, n), distance), stored[i : i + rows])
    # the sides agree in blocks of ``rows`` rows, re-paired or not, and so
    # do the inner products on them, with their row sums, diagonals and
    # centred rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_BLOCK_BYTES", 8 * n * rows)
        evaluated, kept = (estimators._Side(obj, x, stored=stored) for stored in (False, True))
        for i in range(0, n, rows):
            j = min(i + rows, n)
            assert np.array_equal(evaluated.rows(i, j), kept.rows(i, j))
            assert np.array_equal(evaluated.rows(i, j, perm), kept.rows(i, j, perm))
        assert np.array_equal(kept.rows(0, n, perm), stored[perm][:, perm])
        inner = [
            estimators._CenteredInner(*(estimators._Side(obj, x, stored=stored) for _ in "ab"))
            for stored in (False, True)
        ]
        assert inner[0].observed == inner[1].observed == inner[0].permuted(np.arange(n)[None])[0]
        assert inner[0].permuted(perm[None]) == inner[1].permuted(perm[None])
        for name in ("_sums", "_diags"):
            assert np.array_equal(getattr(inner[0], name), getattr(inner[1], name))
        for i in range(0, n, rows):
            j = min(i + rows, n)
            assert np.array_equal(inner[0]._a.rows(i, j), inner[1]._a.rows(i, j))
            assert np.array_equal(inner[0]._b.rows(i, j, perm), inner[1]._b.rows(i, j, perm))
        for k in (0, 1):
            for j in range(n):
                rows = [estimators._centred_row((one._a, one._b)[k], one._w[k], j) for one in inner]
                assert np.array_equal(*rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    d=st.sampled_from([1, 2, 3]),
    which=st.sampled_from(range(len(ELEMENTWISE))),
    levels=st.sampled_from([0, 2]),
    shift=st.sampled_from([None, "rows", "mean"]),
    data=st.data(),
)
def test_rows_from_a_column_start_are_the_whole_rows_sliced(seed, n, d, which, levels, shift, data):
    # rows i:j from column c are the whole rows sliced at c, bit for bit: a
    # distance matrix's diagonal zeroed at the offset i - c, wherever it
    # falls, and a stored side's rows, re-paired or not and shifted or not,
    # those of an evaluated side, in one C-contiguous array
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(i + 1, n), label="j")
    c = data.draw(st.integers(0, n - 1), label="start")
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"), dtype=np.intp)
    kind, text = ELEMENTWISE[which]
    obj = _spec(kind, text)[kind]
    x = _sample(seed, n, d, 0.0, levels)[0]
    if d == 1:
        x = x[:, 0]
    # coerced once, as _prepare passes the points
    x = obj.coerce(x)
    distance = kind == "metric"
    whole = matrix_rows(obj, x, i, j, distance)
    assert np.array_equal(matrix_rows(obj, x, i, j, distance, start=c), whole[:, c:])
    sides = [estimators._Side(obj, x, stored=stored) for stored in (False, True)]
    if shift is not None:
        for side in sides:
            side.shift(side.rows(0, j), rows=shift == "rows")
    evaluated, kept = sides
    for p in (None, perm):
        rows = kept.rows(i, j, p, c)
        assert rows.flags.c_contiguous and evaluated.rows(i, j, p, c).flags.c_contiguous
        assert np.array_equal(rows, evaluated.rows(i, j, p, c))
        assert np.array_equal(rows, kept.rows(i, j, p)[:, c:])


@pytest.mark.parametrize("kind,text", ELEMENTWISE + [("kernel", "linear"), ("metric", "euclid2")])
@pytest.mark.parametrize("stored", [False, True])
def test_centred_side_rows_sum_to_zero(kind, text, stored):
    # HMH 1 = 0: each row of HAH and of HBH, evaluated or stored, sums to
    # zero up to the roundoff of n terms of the size of M's entries; c is 1
    # or -1/2, so dividing c C's sums by it gives C's bits
    n = 250
    obj = _spec(kind, text)[kind]
    x = _sample(13, n, 2, 0.0)[0]
    distance = kind == "metric"
    inner = estimators._CenteredInner(*(estimators._Side(obj, x, stored=stored) for _ in "ab"))
    largest = np.abs((distance_matrix if distance else gram_matrix)(obj, x)).max()
    for side, w in zip((inner._a, inner._b), inner._w):
        sums = np.array([estimators._centred_row(side, w, j).sum() / side.c for j in range(n)])
        assert np.abs(sums).max() <= 8 * n * np.finfo(float).eps * largest


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    which=st.sampled_from(range(len(ELEMENTWISE))),
    rows=st.integers(1, 9),
    stored=st.booleans(),
)
def test_a_sides_sums_do_not_depend_on_the_other_side(seed, n, which, rows, stored):
    # the pass reads each side once and shifts it by its own first block,
    # so its row sums and diagonal have the same bits whatever it is paired
    # with
    kind, text = ELEMENTWISE[which]
    obj = _spec(kind, text)[kind]
    x, y = _sample(seed, n, 2, 0.5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_BLOCK_BYTES", 8 * n * rows)
        inner, other = (
            estimators._CenteredInner(*(estimators._Side(obj, pts, stored=stored) for pts in pair))
            for pair in ((x, y), (-y, x[::-1]))
        )
        swapped = estimators._CenteredInner(*(estimators._Side(obj, pts, stored=stored) for pts in (x, x[::-1])))
    for name in ("_sums", "_diags"):
        assert np.array_equal(getattr(inner, name)[0], getattr(swapped, name)[0])
        assert np.array_equal(getattr(other, name)[1], getattr(swapped, name)[1])


def test_prepare_evaluates_each_matrix_entry_once(monkeypatch):
    # one pass over both sides, each row block i:j from column i on, so each
    # unordered pair once: the first block of 327 rows whole, then the
    # 73 x 73 square of the last; the factors' rows are the rest, n entries
    # for each pivot, 32 pivots each for the first level, and the rest of
    # their ranks once a value reaches the last level
    n = 400
    x, y = _sample(12, n, 2, 0.5)
    evaluated = []
    rows = estimators.matrix_rows

    def counted(obj, pts, i, j, distance=False, start=0):
        evaluated.append((j - i) * (len(pts) - start))
        return rows(obj, pts, i, j, distance, start)

    monkeypatch.setattr(estimators, "matrix_rows", counted)
    kernel = resolve_bandwidth(GaussianKernel(), x, y)
    prepared = estimators._prepare("hsic", x, y, kernel=kernel, permutations=99)
    assert len(prepared._levels) == 1
    triangle = sum((j - i) * (n - i) for i, j in kernels._row_blocks(n, n))
    assert triangle == 327 * 400 + 73 * 73 < n * n
    assert sum(evaluated) == 2 * triangle + 2 * 32 * n
    ft, g, _ = _all_levels(prepared)._levels[-1]
    assert len(ft) > 64 and g.shape[1] > 64
    assert sum(evaluated) == 2 * triangle + (len(ft) + g.shape[1]) * n


HSIC_DCOV = [
    ("hsic", dict(kernel=GaussianKernel()), hsic_vstat),
    ("dcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian)")), dcov_vstat),
]


@pytest.mark.parametrize("estimator,spec,statistic", HSIC_DCOV)
@pytest.mark.parametrize("d,screened", [(1, True), (5, False)])
def test_compute_and_test_give_the_same_bits(estimator, spec, statistic, d, screened, monkeypatch):
    n = 300
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * n * 16)
    x, y = _sample(9, n, d, 0.3)
    prepared = _all_levels(estimators._prepare(estimator, x, y, permutations=99, **spec))
    assert bool(prepared._levels) is screened
    result = permutation_test(x, y, estimator, B=99, seed=4, **spec)
    assert statistic(x, y, *spec.values()) == result.statistic == prepared.observed
    # the exact route, over the evaluated sides or the stored matrices of a
    # declined screen, gives the observed bits
    assert prepared._exact(np.arange(n)[None])[0] == prepared.observed


@pytest.mark.parametrize("estimator,spec,sample", [
    (*HSIC_DCOV[0][:2], lambda n: _two_and_three_levels(4, n)),
    (*HSIC_DCOV[1][:2], lambda n: _two_and_three_levels(3, n)),
])
def test_a_taken_screen_recomputes_from_the_points(estimator, spec, sample, monkeypatch):
    # on two- and three-level data some values tie with the observed one;
    # they are recomputed from the points, with no matrix built, and keep
    # the n x n counts
    n = 300
    x, y = sample(n)
    perms = np.vstack(list(estimators._permutation_batches(2, n, 199, 199)))
    exact = _counts(estimators._prepare(estimator, x, y, **spec), perms, 199)
    recomputed = []
    permuted = estimators._CenteredInner._exact

    def fail(*args, **kwargs):
        raise AssertionError("an n x n matrix was built")

    def counted(self, perms):
        recomputed.append(len(perms))
        return permuted(self, perms)

    monkeypatch.setattr(estimators, "gram_matrix", fail)
    monkeypatch.setattr(estimators, "distance_matrix", fail)
    monkeypatch.setattr(estimators._CenteredInner, "_exact", counted)
    prepared = estimators._prepare(estimator, x, y, permutations=199, **spec)
    assert prepared._levels and prepared._levels[-1][2] > 0.0
    assert _counts(prepared, perms, 64) == exact
    assert 0 < sum(recomputed) < 199


@pytest.mark.parametrize("estimator,spec,constant", [
    (*HSIC_DCOV[0][:2], "x"),
    (*HSIC_DCOV[1][:2], "x"),
    (*HSIC_DCOV[1][:2], "y"),
])
def test_a_zero_margin_decides_every_value(estimator, spec, constant, monkeypatch):
    # an x whose Gram matrix is constant makes HAH exactly 0, and a y whose
    # induced distances are 0 makes B' 0: the margin is 0, every screen
    # value and every exact value is exactly 0, and none reaches the exact
    # route
    n = 300
    x, y = _sample(10, n, 1, 0.0)
    if constant == "x":
        x = _flat(x)
    else:
        y = _flat(y)

    def exact(*args, **kwargs):
        raise AssertionError("a value reached the exact route")

    monkeypatch.setattr(estimators._CenteredInner, "_exact", exact)
    prepared = estimators._prepare(estimator, x, y, permutations=199, **spec)
    assert prepared._levels
    assert prepared._levels[-1][2] == 0.0 and prepared.observed == 0.0
    result = permutation_test(x, y, estimator, B=199, seed=2, **spec)
    assert result.statistic == 0.0 and result.p_value == 1.0


def test_a_y_with_a_constant_matrix_under_hsic_has_a_zero_margin(monkeypatch):
    # a y whose Gram matrix is constant is shifted to exactly 0, as its
    # distance matrix is under dcov, so no value reaches the exact route
    n = 300
    x, y = _sample(10, n, 1, 0.0)[0], _flat(_sample(11, n, 1, 0.0)[0])

    def exact(*args, **kwargs):
        raise AssertionError("a value reached the exact route")

    monkeypatch.setattr(estimators._CenteredInner, "_exact", exact)
    prepared = estimators._prepare("hsic", x, y, kernel=GaussianKernel(), permutations=199)
    assert prepared._levels[-1][2] == 0.0 and prepared.observed == 0.0
    for first, second in ((x, y), (y, x)):
        result = permutation_test(first, second, "hsic", B=199, seed=2, kernel=GaussianKernel())
        assert result.statistic == 0.0 and result.p_value == 1.0


def test_a_screen_out_of_memory_is_refused_with_one_error(monkeypatch):
    # a level grows the factors while permutations run, so an allocation
    # that fails there is refused as a store's is
    x, y = _sample(15, 300, 2, 0.0)

    def fail(self, rank):
        raise MemoryError

    monkeypatch.setattr(estimators._PivotedCholesky, "grow", fail)
    with pytest.raises(InputError, match=r"^n = 300: out of memory for the screen's factors; "):
        permutation_test(x, y, "hsic", B=19, seed=1, kernel=GaussianKernel())


@pytest.mark.parametrize("estimator,spec", [case[:2] for case in HSIC_DCOV])
def test_a_declined_screen_builds_each_matrix_once(estimator, spec, monkeypatch):
    n = 300
    x, y = _sample(14, n, 5, 0.3)
    built = []
    for name in ("gram_matrix", "distance_matrix"):
        build = getattr(estimators, name)

        def counted(obj, pts, build=build):
            built.append(len(pts))
            return build(obj, pts)

        monkeypatch.setattr(estimators, name, counted)
    prepared = estimators._prepare(estimator, x, y, permutations=99, **spec)
    assert prepared._levels and built == []
    assert not _all_levels(prepared)._levels
    assert built == [n, n]
    prepared.permuted(np.vstack(list(estimators._permutation_batches(1, n, 9, 9))))
    assert built == [n, n]


@pytest.mark.parametrize("estimator,spec", [
    ("hsic", dict(kernel=GaussianKernel(1.0))),
    ("dcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian:sigma=1)"))),
    ("mcov_trace", dict(kernel=GaussianKernel(1.0))),
    ("mcov", dict(metric=parse_semimetric("induced_metric:base=(gaussian:sigma=1)"))),
])
@pytest.mark.parametrize("n,d", [(150, 2), (400, 5)])
def test_stored_route_holds_at_most_the_budgeted_nxn_arrays(estimator, spec, n, d, monkeypatch):
    # blocks of 4 rows, so that what is left over is the n x n arrays
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 4 * 8 * n)
    x, y = _sample(11, n, d, 0.5)
    perms = np.vstack(list(estimators._permutation_batches(1, n, 3, 3)))
    tracemalloc.start()
    try:
        prepared = estimators._prepare(estimator, x, y, permutations=99, **spec)
        if isinstance(prepared, estimators._CenteredInner):
            _all_levels(prepared)
        prepared.permuted(perms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n * n)
    # the trace route evaluates its paired values at the points
    budget = 0 if estimator.startswith("mcov") else estimators._NXN_ARRAYS
    assert budget - 0.5 < arrays < budget + 0.25
