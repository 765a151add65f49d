"""Plug-in (V-statistic) estimators of metric covariance, HSIC and distance
covariance, and a seeded permutation independence test.

All estimators are exact empirical-measure plug-ins: each population
expectation is replaced by the full with-replacement sample average.  This
keeps the algebraic identities between the measures (trace identity,
dCov = 4 HSIC under induced kernels) exact at every finite n, not just
asymptotically.

Every statistic is computed by one prepared core, as a function of a
re-pairing pi of the y side (the identity gives the statistic itself).
One reduction per side decides what runs (see :func:`_reduced`): no route
sees an anchor, as a kernel induced from a semimetric d runs as d, and for
mcov and mcov_trace the semimetric induced from a kernel k runs as k.  The
object that runs gives its side's c (see :func:`_c`): 1 for a kernel, -1/2
for a semimetric.  So each estimator takes a spec of either kind, read
through the conversion formulas.  :func:`_read_specs` makes this reading,
for the estimators and for the exact oracle (:mod:`metricdep.oracle`), and
:func:`_finished` returns each value of both.

* feature route, when both sides are on the coordinates (linear, euclid2,
  the linear kernel's semimetric): with the centred p- and q-dimensional
  coordinates and C_pi = Xc' Yc[pi] / n, mcov = mcov_trace = tr C_pi, and
  hsic = ||C_pi||_F^2 and dcov = 4 ||C_pi||_F^2 while p q <= n;
* points route for mcov and mcov_trace otherwise: c times the mean of the
  n paired values k(x_i, y_pi(i)) less the grand mean of k, evaluated at
  the points; no n x n array is held.  Only an explicit matrix runs here as
  a semimetric (c = -1/2);
* n x n route for hsic and dcov otherwise: s c_a c_b <HAH, HBH_pipi> / n^2
  of the sides' Gram or distance matrices, s = 1 for hsic and 4 for dcov,
  from one pass over both sides that reads each unordered pair of points
  once, shifted near their centred forms, in a three-term form of inner
  products, row sums and totals.  From n = 200 on, on vector data, each
  side is evaluated from the points in row blocks, with the bits of the
  stored matrix.  A permutation test there runs levels of a screen in
  front of the exact inner product: pivoted-Cholesky factors of both
  centred sides, grown as far as a level needs and rotated into kernel
  principal components, through their leading 16 columns, then 32, ...,
  then all, each level taking only the values its predecessor left
  undecided.  The exact inner
  product recomputes, from the points, what the last level cannot
  certify, so counts and p-values are exact and no n x n array is held at
  any n.  Where a factor's rank passes sqrt(32 n) before it completes the
  levels are dropped and both matrices are stored; a matrix is stored
  there or up front (below n = 200, and on explicit matrices).

Before any route, :func:`_prepare` decides a constant side, whose every
value is exactly 0.0: no kernel entry is evaluated, no memory checked and
no permutation drawn.  Memory is checked only where an array that grows
faster than n is allocated (see :func:`_check_memory`): a statistic that
stores nothing is never refused.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from math import isqrt

import numpy as np

from .kernels import (
    DistanceInducedKernel,
    EuclideanSquared,
    ExplicitSemimetric,
    GaussianKernel,
    InputError,
    KernelInducedSemimetric,
    LinearKernel,
    distance_matrix,
    gram_matrix,
    induced_kernel,
    induced_semimetric,
    matrix_rows,
    _row_blocks,
    parse_anchor,
    resolve_bandwidth,
)

ESTIMATORS = ("mcov", "mcov_trace", "hsic", "dcov")

_MAX_SEED = 2**63

_NOT_FINITE = "the result is not finite (NaN or infinity): the data or a bandwidth is out of range"

# Bytes of permutation indices and gathered data held per piece of
# permutations.  The n x n route reads its matrices in row blocks of about
# kernels._BLOCK_BYTES.
_BATCH_BYTES = 1 << 22

# A curtailed test (a power-study replication) draws its permutations in
# pieces of at most this many, and stops soon after its decision is fixed.
_CURTAILED_PIECE = 16

# At most this many n x n float64 arrays are alive at once on an n x n
# route: both stored matrices.  They are built, centred and gathered in
# row blocks, so no temporary is n x n.
_NXN_ARRAYS = 2

# The screen's arrays that grow faster than n, in units of cap x n float64s
# at the rank cap, cap = isqrt(_SCREEN_RANKS n): F' and G'; the levels
# built before the factors complete, whose copies of k leading columns, k
# at most half the rank grown, sum to at most cap columns a side; the copy
# a factor grows into when it doubles, or the rotated copy of a factor
# that may grow further; and a level's gather, of at most _BATCH_BYTES or
# of one permutation, so from n = 15888 on at most cap x n.
_SCREEN_ARRAYS = 6

# What holds no array that grows faster than n, named when memory is refused
_MEMORY_HINT = "a statistic without permutations on vector data holds no array that grows faster than n"

# The low-rank screen of hsic and dcov permutations starts at this n.  On a
# 2-core host (gaussian, median bandwidth, d = 2, B = 199, rank cap lifted,
# ranks 56 to 70) factorising and screening took 0.013-0.033 s against
# 0.009 s for the n x n gather at n = 100, and 0.021-0.031 s against
# 0.029-0.034 s at n = 200.
_SCREEN_MIN_N = 200

# The screen declines once a factor's rank passes sqrt(_SCREEN_RANKS * n),
# so that r_x r_y <= _SCREEN_RANKS n.  The factors grow as far as a level
# needs, so this is found only when a value reaches a level that asks for
# more pivots than the cap.  A re-pairing costs the screen about
# n r_x r_y multiply-adds and the gather about n^2 / 2 scattered reads.
# Whole hsic tests (gaussian, median bandwidth, B = 199, cap lifted, gathered
# over whole rows, n^2 scattered reads; seconds on a 2-core host):
#
#      n  d  ranks    r_x r_y / n  screened  gathered
#    200  2  70, 71       25         0.025     0.030
#    400  2  81, 83       17         0.045     0.119
#    800  2  92, 93       11         0.110     0.486
#   2000  2  103, 105      5         0.48      3.97
#    400  3  205, 238    122         0.273     0.175
#   1000  3  287, 322     92         0.98      0.95
#   2000  3  353, 396     70         2.39      3.72
#
# The ranks are those of the full factors.  The even point grows from
# about 25 n at n = 200 to about 90 n at n = 1000.  Declining at the cap
# cost 0.05 s at n = 2000, d = 5.
_SCREEN_RANKS = 32

# The screen's first level keeps this many leading columns of each
# eigen-ordered factor, grown to twice as many pivots, and each later level
# twice as many (see _CenteredInner).  On ten samples shaped like
# test_n2000's (gaussian, median bandwidth, d = 2, correlation 0.5, B =
# 199) rank 16 decides all 199 re-pairings, and no factor grows past 32
# pivots.  On ten independent ones (full ranks 98 to 110) rank 16 decides
# none of the first piece of 15, so the later pieces start at rank 32 or
# 64, whichever has decided more: rank 32 screened 15 to 199 values, rank
# 64 37 to 195, and one value in all ten tests reached the last level.
_SCREEN_FIRST_RANK = 16


def double_center(a: np.ndarray) -> np.ndarray:
    """Row/column mean subtraction; equals J a J with J = I - (1/n) ones."""
    row = a.mean(axis=1, keepdims=True)
    col = a.mean(axis=0, keepdims=True)
    return a - row - col + a.mean()


def _paired(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    nx = x.shape[0] if x.ndim else 0
    ny = y.shape[0] if y.ndim else 0
    if nx != ny:
        raise InputError(f"paired sample sides differ in length: {nx} vs {ny}")
    if nx < 2:
        raise InputError(f"need at least 2 paired observations, got {nx}")
    return x, y


def _dim(a):
    a = np.asarray(a)
    return 1 if a.ndim == 1 else a.shape[-1]


def resolve_specs(estimator, kernel=None, metric=None, anchor=None):
    """The (kernel, metric) pair an estimator runs on, exactly one not None.

    mcov and dcov run on a semimetric: the given one, else the kernel's
    induced semimetric, else euclid2.  mcov_trace and hsic run on a kernel:
    the given one, else the semimetric's induced kernel at ``anchor`` (a
    point, or an anchor spec string such as ``"origin"``), else a gaussian
    with the median-heuristic bandwidth.  An anchor is an error unless that
    induced kernel is built from it; the statistic checks it against the
    points, then runs the induced kernel as its semimetric.  The statistic
    reduces what is returned here (see :func:`_reduced`): mcov on a
    kernel's induced semimetric runs as mcov_trace on the kernel, bit for
    bit, and the estimators read a spec of the other kind as this does.
    """
    if anchor is not None:
        if estimator in ("mcov", "dcov") or kernel is not None or metric is None:
            raise InputError(
                "an anchor is used only by the kernel induced from a semimetric: "
                "mcov-trace or hsic given a metric and no kernel"
            )
        if isinstance(anchor, str):
            anchor = parse_anchor(anchor)
    if estimator in ("mcov", "dcov"):
        if metric is None:
            metric = induced_semimetric(kernel) if kernel is not None else EuclideanSquared()
        return None, metric
    if kernel is None:
        kernel = induced_kernel(metric, anchor) if metric is not None else GaussianKernel()
    return kernel, None


def _resolve_sides(obj, obj_y, x, y):
    """Both sides' kernels or semimetrics with bandwidths resolved on the
    pooled sample when the sides share a dimension, else on each side."""
    if _dim(x) != _dim(y):
        return resolve_bandwidth(obj, x), resolve_bandwidth(obj if obj_y is None else obj_y, y)
    obj = resolve_bandwidth(obj, x, y)
    return obj, obj if obj_y is None else resolve_bandwidth(obj_y, x, y)


def _physical_memory():
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(n, floats, arrays):
    """Refuse ``floats`` float64s of ``arrays``, for a sample of n, that
    would not fit in physical memory: two n x n matrices where a side is
    stored, and the screen's factors at its rank cap before any pass.  Every
    memory decision is made here."""
    need, have = 8 * floats, _physical_memory()
    if need > have:
        raise InputError(
            f"n = {n} needs about {need / 2**30:.1f} GiB for {arrays}, more than the "
            f"{have / 2**30:.1f} GiB of physical memory; {_MEMORY_HINT}"
        )


# ---------------------------------------------------------------------------
# the prepared-statistic core


class _Prepared:
    """A statistic of the y-side re-pairing, its inputs computed once.

    ``permuted(perms)`` maps a (b, n) array of permutations to the b
    statistics (screened ones only up to a margin, see :class:`_CenteredInner`);
    ``perm_bytes`` is the memory one permutation of a batch takes.
    ``observed`` goes through the same arithmetic with the identity, and is
    returned through :func:`_finished`.  ``decided`` holds where every value
    is exactly 0.0, so that every re-pairing ties with the identity.
    """

    n: int
    perm_bytes: int
    decided = False

    def permuted(self, perms: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def observed(self) -> float:
        return float(self.permuted(np.arange(self.n)[None])[0])


def _finished(value: float) -> float:
    """A statistic as it is returned: a zero as +0.0, and one that is not
    finite refused."""
    if not np.isfinite(value):
        raise InputError(_NOT_FINITE)
    return value + 0.0


class _CrossCov(_Prepared):
    """tr C_pi, or ``scale`` * ||C_pi||_F^2, of C_pi = Xc' Yc[pi] / n.

    The trace takes only the n paired products Xc[i] . Yc[pi(i)], so a
    re-pairing costs n p and no p x q matrix; the norm costs n p q."""

    def __init__(self, fx, fy, trace, scale=1.0):
        self.n = fx.shape[0]
        p, q = fx.shape[1], fy.shape[1]
        # indices, gathered features and, for the norm, C_pi
        self.perm_bytes = 8 * (self.n * (1 + q) + (0 if trace else p * q))
        self._xc, self._yc = fx - fx.mean(axis=0), fy - fy.mean(axis=0)
        self._trace = trace
        self._scale = scale
        self.decided = p * q == 0

    def permuted(self, perms):
        yp = self._yc.take(perms, 0)
        if self._trace:
            # einsum sums each row alike wherever it sits in the block; a
            # BLAS product rounds a row by its place, and loses ties
            return np.einsum("bnq,nq->b", yp, self._xc) / self.n
        c = self._xc.T @ yp / self.n
        return self._scale * np.einsum("bpq,bpq->b", c, c)


def _c(obj):
    """c = 1 for a kernel, and -1/2 for a semimetric d, whose -1/2 H D H is
    the centred Gram of its induced kernels."""
    return -0.5 if isinstance(obj, (EuclideanSquared, KernelInducedSemimetric, ExplicitSemimetric)) else 1.0


def _matrix(obj, pts):
    """The Gram matrix of a kernel on ``pts``, or the distance matrix of a
    semimetric, as its :func:`_c` tells them apart."""
    return (distance_matrix if _c(obj) < 0 else gram_matrix)(obj, pts)


class _PairedTrace(_Prepared):
    """c (mean_i k(x_i, y_pi(i)) - mean_ij k(x_i, y_j)) for the kernel or
    semimetric k of ``obj`` and its :func:`_c`, evaluated unchecked at the
    points :func:`_prepare` coerced: a re-pairing costs n ``obj._paired``
    values, each computed from its pair alone, and the grand mean is read
    once, in row blocks."""

    def __init__(self, obj, x, y):
        self._obj, self._x, self._y = obj, x, y
        n = self.n = len(x)
        # indices of both sides, their gathered points and difference, and
        # the n paired values
        self.perm_bytes = 8 * n * (3 + 3 * (x.size // n))
        self._grand = sum(obj._pairwise(x[i:j], y).sum() for i, j in _row_blocks(n, n)) / n**2

    def permuted(self, perms):
        b, n = perms.shape
        # x stacked b times (an explicit matrix's points are 1-d indices)
        xs, ys = np.tile(self._x, (b, 1)[: self._x.ndim]), self._y.take(perms.ravel(), 0)
        k = self._obj._paired(xs, ys)
        return _c(self._obj) * (k.reshape(b, n).mean(axis=1) - self._grand)


def _dot(u, v):
    """The sum of u * v over all entries of two row blocks, by one einsum:
    its bits depend neither on the BLAS thread count nor on where u and v
    sit in memory."""
    return np.einsum("ij,ij->", u, v)


def _upper_dot(u, v, w):
    """A block's share of <U, V> for two symmetric matrices, from their rows
    i:j read from column i on, w = j - i: the w x w square on the diagonal
    once, and the rest twice, for its mirror image below the diagonal
    (doubling is exact).  Every source gives these rows as one C-contiguous
    array, so the square and the rest reach the einsums in one layout."""
    if w == u.shape[1]:
        return _dot(u, v)
    return _dot(u[:, :w], v[:, :w]) + 2.0 * _dot(u[:, w:], v[:, w:])


def _less_outer_sum(rows, u_rows, u, out=None):
    """rows - u_rows 1' - 1 u', as rows - (u_i + u_j): each entry's sum is
    formed first, so that a symmetric matrix stays exactly symmetric."""
    return np.subtract(rows, u_rows[:, None] + u, out=out)


def _summable(u):
    """u moved to the nearest points of t + g Z, with g the spacing of the
    floats at 2 max|u_i| and t = u_0 rounded to a multiple of g / 2, so
    that every u_i + u_j is exact: a multiple of g of at most about
    2 max|u_i|.  A u that straddles a power of 2 otherwise rounds its sums,
    and H does not annihilate that rounding.  A constant u is kept, the last
    bit of each entry included; below the normal floats every sum is exact
    already."""
    e = int(np.frexp(np.abs(u).max())[1]) - 52
    if e < -1073:
        return u
    g = np.ldexp(1.0, e)
    t = np.rint(2.0 * u[0] / g) * (g / 2.0)
    return t + g * np.rint(u / g - t / g)


class _Side:
    """One side's n x n matrix M, read in row blocks: the Gram matrix of a
    kernel or the distance matrix of a semimetric, with its :func:`_c`.

    Once ``shift`` has set u, its rows are those of the shifted matrix
    M' = M - u 1' - 1 u' for a vector u, or M' = M - u for a number; either
    way H M' H = H M H.  ``rows(i, j)`` gives M'[i:j], and
    ``rows(i, j, perm)`` rows i:j of M'_pipi = M'[perm][:, perm], each from
    column ``start`` on, as one C-contiguous array.  A stored side takes
    them from M, built once by :func:`_matrix` (with ``stored``, or on a
    call of ``store``) and shifted in place, and gives M'[i:j] as a view and
    a later start as a copy; any other side evaluates them by
    ``matrix_rows`` at its points, re-paired by ``perm``, and shifts them
    alike.  Every side computes each entry from its two points alone, so
    both give the same bits.  Only ``store`` does work when a side is
    built; an evaluated side's first pass is its first read.

    ``pts`` are points that ``obj.coerce`` gave, as :func:`_prepare` passes
    them: they are checked there, once, and ``matrix_rows`` evaluates them
    unchecked, in C order, which the side takes once.
    """

    def __init__(self, obj, pts, stored=False):
        self.n = len(pts)
        self.c = _c(obj)
        self._pts = pts = np.ascontiguousarray(pts)
        self._evaluate = partial(matrix_rows, obj, distance=self.c < 0)
        self._build = partial(_matrix, obj, pts)
        self._matrix = self._u = None
        if stored:
            self.store()

    @property
    def stored(self):
        return self._matrix is not None

    def rows(self, i, j, perm=None, start=0):
        if self._matrix is not None:
            if perm is None:
                return np.ascontiguousarray(self._matrix[i:j, start:])
            return self._matrix.take(perm[i:j], 0).take(perm[start:], 1)
        rows = self._evaluate(self._pts if perm is None else self._pts[perm], i, j, start=start)
        return rows if self._u is None else self._shifted(rows, i, j, perm, start)

    def _shifted(self, rows, i, j, perm=None, start=0):
        """Rows i:j of M, or of M_pipi, from column ``start`` on, shifted in
        place into those of M'."""
        if np.ndim(self._u) == 0:
            return np.subtract(rows, self._u, out=rows)
        u = self._u if perm is None else self._u[perm]
        return _less_outer_sum(rows, u[i:j], u[start:], out=rows)

    def shift(self, first, rows=True):
        """Set u from ``first``, the rows M[:r] as read, and shift them, or a
        stored M whole, in place.

        u = s - m/2 for s, approximate row means of M from these rows (M is
        symmetric, so their column means), and m, the mean of s, so that M'
        is near H M H; without ``rows``, u = m, the mean of the first row.
        Each mean is taken as an offset from the first entry it averages: a
        constant M gives s = m = its constant, and so M' = 0 exactly.  A
        vector u is moved by :func:`_summable` onto a grid on which every
        u_i + u_j is exact, so that M' rounds only in its subtraction.
        """
        if rows:
            s = first[0] + (first - first[0]).mean(axis=0)
            self._u = _summable(s - 0.5 * (s[0] + (s - s[0]).mean()))
        else:
            self._u = first[0, 0] + (first[0] - first[0, 0]).mean()
        if self._matrix is None:
            self._shifted(first, 0, len(first))
        else:
            self._shift_stored()

    def _shift_stored(self):
        for i, j in _row_blocks(self.n, self.n):
            self._shifted(self._matrix[i:j], i, j)

    def store(self):
        """Build M, unless it is built, once the two n x n matrices pass
        :func:`_check_memory`, and shift it if u is set; an allocation that
        fails all the same is an :class:`InputError` that names n."""
        if self._matrix is None:
            _check_memory(self.n, _NXN_ARRAYS * self.n**2, "n x n matrices")
            try:
                self._matrix = self._build()
            except MemoryError:
                raise InputError(f"n = {self.n}: out of memory for the n x n matrices; {_MEMORY_HINT}") from None
            if self._u is not None:
                self._shift_stored()


def _centred_row(side, w, j):
    """Row j of c C for a side's c and its centred rows C = M' - w 1' - 1 w'.
    A function of the side alone, so that a factor holds no reference to
    the statistic that holds it, and the statistic is freed when its last
    reference goes."""
    return side.c * _less_outer_sum(side.rows(j, j + 1), w[j : j + 1], w)[0]


class _PivotedCholesky:
    """Pivoted (incomplete) Cholesky of a PSD matrix M = F F' + E, grown as
    far as it is asked.

    ``row(j)`` returns row j of M and ``diag`` its diagonal.  ``grow(k)``
    continues the factorisation from where it stopped to k pivots, or until
    tr E <= 1e-10 tr M, when it is ``complete``.  ``ft`` is F' (r x n) and
    ``residual`` a bound on tr E.  F' grows by doubling, so it holds at most
    about 2 r rows.
    """

    def __init__(self, row, diag, cap):
        self._row, self._cap = row, cap
        self._d = np.array(diag, dtype=float)
        self._tol = 1e-10 * self._d.sum()
        self._ft = np.empty((min(cap, 16), self._d.size))
        self.rank = 0

    @property
    def complete(self):
        return self._d.sum() <= self._tol

    @property
    def ft(self):
        return self._ft[: self.rank]

    @property
    def residual(self):
        return float(np.abs(self._d).sum())

    def grow(self, rank):
        """Continue to ``rank`` pivots, or to completion; False where the
        rank would pass the cap first."""
        while self.rank < rank and not self.complete:
            k = self.rank
            if k == self._cap:
                return False
            if k == len(self._ft):
                grown = np.empty((min(self._cap, 2 * k), self._d.size))
                grown[:k] = self._ft
                self._ft = grown
            j = int(np.argmax(self._d))
            self._ft[k] = (self._row(j) - self._ft[:k, j] @ self._ft[:k]) / np.sqrt(self._d[j])
            self._d -= self._ft[k] ** 2
            self.rank += 1
        return True


def _eigen_ordered(ft):
    """Rotate F' (r x n) in place into Q' F', Q the eigenvectors of F'F in
    descending order of eigenvalue, a block of columns at a time.

    Returns the largest eigenvalue of F'F and delta, the bound on
    ||F F' - F~ F~'||_* derived in :class:`_CenteredInner`.  Row i of the
    result has squared norm lambda_i, the i-th largest eigenvalue, in
    exact arithmetic.
    """
    r, n = ft.shape
    if not r:
        return 0.0, 0.0
    ff = ft @ ft.T
    lam, q = np.linalg.eigh(ff)
    qt = np.ascontiguousarray(q.T[::-1])
    eps = np.finfo(float).eps
    # the computed Q'Q is within r eps ||Q||_F^2 <= 2 r^2 eps of Q'Q
    dq = float(np.linalg.norm(qt @ qt.T - np.eye(r))) + 2.0 * r * r * eps
    rho = r**1.5 * eps
    delta = (dq + (1.0 + dq) * (2.0 * rho + rho**2)) * float(np.trace(ff))
    for i, j in _row_blocks(n, r):
        ft[:, i:j] = qt @ ft[:, i:j]
    return float(lam[-1]), delta


class _CenteredInner(_Prepared):
    """f <HAH, HBH_pipi> / n^2 of the sides A and B, f = ``scale`` c_a c_b:
    ``permuted`` runs the screen's levels, none without ``screen``, then
    computes the values still undecided exactly, by ``_exact``.

    One pass over the row blocks of both sides reads them shifted (see
    :class:`_Side`): A' = A - u 1' - 1 u', u from A's first block of rows,
    which takes out A's approximate row means, and B' = B - m, m B's
    approximate mean.  H annihilates the shifts, so HA'H = HAH and
    HB'H = HBH, and since A' and B' are exactly symmetric,

        <HA'H, HB'H> = <A', B'> - (2/n) <r_a, r_b> + S_a S_b / n^2

    with the row sums r and the totals S of A' and B'.  A re-pairing
    permutes the rows and columns of B', so its row sums are r_b[pi] and
    its total S_b.  The pass reads each row block i:j from column i on, so
    it evaluates each unordered pair of points once.  Of a block it adds
    the inner product of the w x w square on the diagonal, w = j - i, once
    and that of the rest twice, for the rest's mirror image below the
    diagonal (see :func:`_upper_dot`); it adds the block's row sums to
    r[i:j] and the rest's column sums, the row sums of that mirror image,
    to r[j:n], and takes the diagonals from the square.  So it gives
    <A', B'>, both sides' row sums and diagonals and, for the screen, both
    Frobenius norms.  ``_exact`` reads A''s block once and adds its
    :func:`_upper_dot` with B'_pipi's block to each permutation's sum, in
    block order, then forms the three terms alike, so the identity gives
    the observed statistic.  Up to n = 362 one block holds every row, and
    both run the one inner product of whole rows.  Every sum is an einsum,
    so no bit depends on the BLAS thread count.  A' is near HAH, so r_a and
    S_a are small and the three terms cancel little; the constant shift of
    B costs one operation an entry where A's costs two.

    With ``screen``, the levels screen through low-rank factors of both
    centred sides.  The factors' rows are those of A' and B' centred by
    their row sums, C_A = A' - w 1' - 1 w', w = r_a / n - mean(r_a) / 2n,
    formed as the shift is, and likewise C_B.  With c_a C_A = F F' + E_x
    and c_b C_B = G G' + E_y by pivoted Cholesky (Bach & Jordan 2002; both
    near PSD: -HDH/2 is the centred Gram of d's induced kernels), a
    re-pairing's screen value s ||F' G[pi]||_F^2 / n^2, s = ``scale``, is
    below s <c_a C_A, (c_b C_B)_pipi> / n^2 by at most
    s (e_x (lmax(G'G) + e_y) + e_y lmax(F'F)) / n^2, e = tr E, for every pi.
    A level's margin is twice that plus the three roundoff terms below.

    The exact route's roundoff, against T_pi = f <HA'H, HB'_pipi H> / n^2
    in exact arithmetic on the floats A' and B'.  Write a = ||A'||_F,
    b = ||B'||_F and gamma_k = k u / (1 - k u) <= k eps for the unit
    roundoff u = eps / 2 (Higham 2002, sec. 3.1).  For each of its row
    blocks of at most r rows, the first of exactly r, the inner product
    sums one einsum of at most r^2 products of the square and one of at
    most r (n - r) of the rest, doubles the second exactly, adds the two
    and adds the block sums in order, so each product passes through at
    most m = r max(r, n - r) + (number of blocks) + 1 roundings; in any
    order of the sums |fl(<X, Y>) - <X, Y>| <= gamma_m sum_ij |X_ij Y_ij|
    <= gamma_m ||X||_F ||Y||_F, a product of the rest counted for its
    entry and its mirror image, and ||B'_pipi||_F = b for every pi.  A
    computed row sum adds the column sums of the rests above its block,
    each of at most r entries, in order, then its block's row sum of at
    most n entries, so each entry passes through at most n' = n +
    (number of blocks) roundings and the row sum is within
    gamma_n' sum_j |A'_ij| of its value: ||r^ - r||_2 <= gamma_n' sqrt(n) a,
    while ||r||_2 <= sqrt(n) a and |S| <= n a.  So (2/n) <r_a, r_b[pi]> is
    within 6 gamma_n' a b, S_a S_b / n^2 within 5 gamma_n' a b, and the
    last few operations on terms of at most 4 a b add at most 8 eps a b.
    Each exact value, observed or permuted, is within
    |f| eps (m + 12 n' + 8) a b / n^2 of T_pi, as f, a power of 2, scales
    exactly.

    The centred rows' roundoff.  C_A is computed from r^ where HA'H would
    need r: in exact arithmetic X = A' - w^ 1' - 1 w^' has row sums e
    with ||e||_2 <= (2 n' + 5) eps sqrt(n) a, so ||X - HA'H||_F =
    ||X - HXH||_F <= 3 ||e||_2 / sqrt(n); each computed entry of C_A is
    within 2 eps (|A'_ij| + |w_i| + |w_j|) of X's, and ||w||_2 <= 1.5 a /
    sqrt(n), which adds at most 4 eps a.  So ||C_A - HA'H||_F <= d_a =
    (6 n' + 32) eps a, and as ||HB'H||_F <= b, the screen's target
    s <c_a C_A, (c_b C_B)_pipi> / n^2 is within
    |f| (d_a b + a d_b + d_a d_b) / n^2 of T_pi.  These two terms replace
    the centring term an exact route that paired HAH with an uncentred B
    needed.

    Each factor is rotated in place into F~ = F Q, Q the eigenvectors of
    F'F in descending order (see :func:`_eigen_ordered`).  In exact
    arithmetic F~ F~' = F F', and the columns of F~ are the kernel
    principal components of F F', so its leading k columns give the best
    rank-k part of F F' (Eckart-Young).  With the unit eigenvectors u_i,
    v_j of F F' and G G' and their eigenvalues lambda_i, mu_j, the screen
    value is s sum_ij lambda_i mu_j (u_i' v_j[pi])^2 / n^2, the Mercer
    double sum of the statistic, and a level of ranks k_x, k_y keeps its
    leading k_x x k_y block.

    The rotation's roundoff: with the computed eigenvectors Q^ and
    delta_Q = ||Q^'Q^ - I||_F, ||Q^||_F^2 = tr Q^'Q^ <= r (1 + delta_Q),
    and the computed F^' = Q^'F' + R has |R| <= gamma_r |Q^'| |F'|, so
    ||R||_F <= r eps ||Q^||_F ||F||_F <= rho sqrt(1 + delta_Q) ||F||_F,
    rho = r^(3/2) eps.  As F^ F^' - F F' = F (Q^ Q^' - I) F' + F Q^ R +
    R' Q^' F' + R' R, ||Q^ Q^' - I||_2 = ||Q^'Q^ - I||_2 <= delta_Q,
    ||F Q^||_F <= sqrt(1 + delta_Q) ||F||_F and ||X Y||_* <= ||X||_F ||Y||_F,
    ||F^ F^' - F F'||_* <= (delta_Q + (1 + delta_Q) (2 rho + rho^2))
    ||F||_F^2 = delta_x.  delta_Q is measured at run time, plus the
    2 r^2 eps by which the computed Q^'Q^ may miss it.  So c_a C_A =
    F^ F^' + E_x' with ||E_x'||_* <= e_x + delta_x, and as |<E', M>| <=
    ||E'||_* lmax(M) for a PSD M, the bound above holds with e_x + delta_x
    for e_x, an E' not PSD included; lmax(F^'F^) <= lmax(F'F) + delta_x
    bounds the lmax of every leading block.  Likewise for G.

    The levels are built as values reach them.  Level i has rank k =
    ``_SCREEN_FIRST_RANK`` 2^i: it continues both factorisations from where
    they stopped to 2 k pivots (or to completion), eigen-orders what each
    has, a copy while it may grow further, and keeps the leading k columns
    of each (capped at its rank).  The columns dropped at a level join its
    residual, which adds a PSD part: F~[:, k:] F~[:, k:]', of trace
    ||F~[:, k:]||_F^2, so the same bound holds on a partial factor, whose
    E is the Schur complement it leaves.  The last level keeps the whole
    completed factors, so the full-tolerance factors are built only when a
    value reaches it.  Where a factor would pass sqrt(_SCREEN_RANKS n)
    first, the levels are dropped and both sides stored, since every value
    is then gathered.  ``permuted`` screens every re-pairing at its first
    level and takes to the next only the values
    strictly within the level's margin of the observed statistic or of its
    negation; those still within the last level's margin are recomputed by
    the exact route, which reads the sides as they are: a taken screen
    stores nothing, and recomputes from the points.  A value at its margin,
    twice its error, is decided; a margin of 0 means A' or B' is 0, so that
    every value is exactly 0.  So each comparison with the observed
    statistic, signed or absolute, is the one the exact route makes, at
    whichever level it is decided: a piece of permutations starts at the
    level that has decided most values so far.  Counted over all pieces,
    not the last one alone, this follows the majority where a piece holds
    one permutation, as from n = 15888 on.
    """

    def __init__(self, a, b, scale=1.0, screen=False):
        n = self.n = a.n
        self._a, self._b = a, b
        self._factor = scale * a.c * b.c
        self._blocks = _row_blocks(n, n)
        rows = [side.rows(*self._blocks[0]) for side in (a, b)]
        a.shift(rows[0])
        b.shift(rows[1], rows=False)
        self._sums, self._diags, squares = np.zeros((2, n)), np.empty((2, n)), np.zeros(2)
        inner = 0.0
        for i, j in self._blocks:
            # the first block, read to set the shifts, is released here once
            # the second is read, not held through the screen's set-up
            rows = rows if i == 0 else [a.rows(i, j, start=i), b.rows(i, j, start=i)]
            inner += _upper_dot(*rows, j - i)
            for k, side_rows in enumerate(rows):
                self._sums[k, i:j] += side_rows.sum(axis=1)
                self._sums[k, j:] += side_rows[:, j - i :].sum(axis=0)
                self._diags[k, i:j] = np.diagonal(side_rows)
                if screen:
                    squares[k] += _upper_dot(side_rows, side_rows, j - i)
        self._totals = float(self._sums[0].sum() * self._sums[1].sum()) / n**2
        self.observed = float(self._values(inner, self._sums[1][None])[0])
        self._levels, self._final, self._start, self._decided = [], True, 0, []
        if screen:
            self._screen(scale, np.sqrt(squares))
        # indices, and the gathered factor rows and F' G[pi] of the first
        # level, where every permutation starts until a later one decides
        # more
        kx, ky = (len(self._levels[0][0]), self._levels[0][1].shape[1]) if self._levels else (0, 0)
        self.perm_bytes = 8 * (n * (1 + ky) + kx * ky)

    def _values(self, inner, sums_b):
        """The statistics from <A', B'_pipi> and the row sums of B'_pipi,
        one re-pairing a row of ``sums_b``: einsum reduces each row alike
        wherever it sits in the block."""
        n = self.n
        return self._factor * (inner - 2.0 * np.einsum("bi,i->b", sums_b, self._sums[0]) / n + self._totals) / n**2

    @cached_property
    def _w(self):
        """w of C_A and of C_B: r / n - mean(r) / 2n for each side's row
        sums r."""
        return [mu - 0.5 * mu.mean() for mu in self._sums / self.n]

    def _screen(self, s, norms):
        """Set up the screen of scale ``s``: the roundoff of its margins, the
        factorisations, and its first level."""
        n, eps = self.n, np.finfo(float).eps
        (i, j), blocks = self._blocks[0], len(self._blocks)
        r, summed = j - i, n + blocks
        a, b = norms
        d_a, d_b = (6 * summed + 32) * eps * norms
        self._roundoff = abs(self._factor) * (
            eps * (r * max(r, n - r) + blocks + 1 + 12 * summed + 8) * a * b + d_a * b + a * d_b + d_a * d_b
        )
        cap = isqrt(_SCREEN_RANKS * n)
        self._factors = [
            _PivotedCholesky(partial(_centred_row, side, w), side.c * (diag - (w + w)), cap)
            for side, w, diag in zip((self._a, self._b), self._w, self._diags)
        ]
        self._scale, self._first, self._rotated, self._final = s, _SCREEN_FIRST_RANK, [None, None], False
        self._next_level()

    def _next_level(self):
        """Append the next level; or, where a factor would pass the cap
        first, drop the levels and store both sides.  False where there is
        no next level.  An allocation that fails is an :class:`InputError`
        that names n."""
        if self._final:
            return False
        k = self._first << len(self._levels)
        try:
            grown = all(factor.grow(2 * k) for factor in self._factors)
            level = self._level(k) if grown else None
        except MemoryError:
            raise InputError(f"n = {self.n}: out of memory for the screen's factors; {_MEMORY_HINT}") from None
        if not grown:
            self._levels, self._factors, self._rotated, self._final = [], None, None, True
            self._start, self._decided = 0, []
            self._a.store()
            self._b.store()
            return False
        self._final = all(factor.complete and factor.rank <= k for factor in self._factors)
        self._levels.append(level)
        if self._final:
            self._factors = self._rotated = None
        return True

    def _level(self, k):
        """The level of rank k: each factor as far as it is grown,
        eigen-ordered, and its leading k columns, with the level's margin."""
        parts = []
        for index, factor in enumerate(self._factors):
            rotated = self._rotated[index]
            if rotated is None:
                # a completed factor grows no further, so it is rotated in place
                ft = factor.ft if factor.complete else factor.ft.copy()
                rotated = (ft, *_eigen_ordered(ft), np.einsum("ij,ij->i", ft, ft))
                if factor.complete:
                    self._rotated[index] = rotated
            ft, lam, delta, norms = rotated
            kept = min(k, len(ft))
            lead = ft[:kept] if factor.complete else ft[:kept].copy()
            parts.append((lead, lam + delta if kept else 0.0, factor.residual + delta + norms[kept:].sum(),
                          norms[:kept].sum()))
        (ft, lam_f, ex, nf), (gt, lam_g, ey, ng) = parts
        s, n = self._scale, self.n
        bound = s * (ex * (lam_g + ey) + ey * lam_f)
        roundoff = self._roundoff + np.finfo(float).eps * s * (2 * n + len(ft) * len(gt)) * nf * ng
        # a level's G is contiguous, so its gathers read rows
        return ft, np.ascontiguousarray(gt.T), 2.0 * (bound + roundoff) / n**2

    def screen(self, level, perms):
        """The screen values of ``perms`` at level ``level``, gathered in
        pieces of about ``_BATCH_BYTES``."""
        ft, g, _ = self._levels[level]
        (rx, n), ry = ft.shape, g.shape[1]
        size = max(1, _BATCH_BYTES // (8 * n * (1 + ry)))
        out = np.empty(len(perms))
        for i in range(0, len(perms), size):
            piece = perms[i : i + size]
            c = (ft @ g.take(piece.T, 0).reshape(n, len(piece) * ry)).reshape(rx, len(piece), ry)
            out[i : i + len(piece)] = np.einsum("abc,abc->b", c, c)
        return self._scale * out / n**2

    def _exact(self, perms):
        """The values of ``perms`` on the exact route."""
        inner = np.zeros(len(perms))
        for i, j in self._blocks:
            rows_a = self._a.rows(i, j, start=i)
            # the last block, the only one up to n = 362, has no rest
            dot = _dot if j == self.n else partial(_upper_dot, w=j - i)
            for k, p in enumerate(perms):
                inner[k] += dot(rows_a, self._b.rows(i, j, p, i))
        return self._values(inner, self._sums[1][perms])

    def _count(self, level, decided):
        """Add to the values decided at ``level``, and start the next piece
        at the level that has decided most so far, the lowest of equals;
        the exact inner product counts as the level after the last."""
        self._decided += [0] * (level + 1 - len(self._decided))
        self._decided[level] += decided
        self._start = int(np.argmax(self._decided))

    def permuted(self, perms):
        t = np.empty(len(perms))
        todo = np.arange(len(perms))
        obs = self.observed
        level = self._start
        while todo.size and (level < len(self._levels) or self._next_level()):
            v = t[todo] = self.screen(level, perms[todo])
            margin = self._levels[level][2]
            left = todo[(np.abs(v - obs) < margin) | (np.abs(v + obs) < margin)]
            self._count(level, todo.size - left.size)
            todo, level = left, level + 1
        if todo.size:
            t[todo] = self._exact(perms[todo])
            self._count(len(self._levels), todo.size)
        return t


def _on_coordinates(obj):
    """Whether the centred Gram, or -1/2 times the centred distance matrix,
    is Xc Xc' for the centred points Xc: linear, euclid2, induced linear."""
    return isinstance(obj, (LinearKernel, EuclideanSquared)) or isinstance(getattr(obj, "base", None), LinearKernel)


def _check_anchor(k, pts):
    """Refuse an anchor of the induced kernel k that is not a point of the
    space of ``pts``, naming it, then evaluate k at the first point."""
    if k.anchor is not None:
        given = f"the anchor {k.anchor_spec} given by --anchor or induced_kernel"
        try:
            k.one(k.anchor)
        except InputError as error:
            raise InputError(f"{given}: {error}") from None
        if np.size(k.anchor) != _dim(pts):
            raise InputError(f"dimension mismatch between points and {given}: {_dim(pts)} vs {np.size(k.anchor)}")
    k.paired(pts[:1], pts[:1])


def _reduced(obj, pts, trace):
    """The kernel or semimetric that runs for the side ``obj`` on ``pts``.

    A kernel induced from a semimetric d runs as d, once its anchor is
    checked against ``pts``: at any anchor its centred Gram is -HDH/2.  So
    the semimetric induced from that kernel runs as d too.  For mcov and
    mcov_trace (``trace``), the semimetric induced from a kernel k runs as
    k: the k(x, x) and k(y, y) terms of d2 cancel between the paired and
    the grand mean, and -1/2 of -2 k(x, y) is k.  Not for hsic or dcov: a
    constant side's distance matrix is exactly 0, its Gram matrix only
    once centred.
    """
    if isinstance(obj, DistanceInducedKernel):
        _check_anchor(obj, pts)
        return _reduced(obj.base, pts, trace)
    if isinstance(obj, KernelInducedSemimetric) and (trace or isinstance(obj.base, DistanceInducedKernel)):
        return _reduced(obj.base, pts, trace)
    return obj


def _read_specs(estimator, x, y, resolve, *, metric=None, kernel=None, metric_y=None, kernel_y=None):
    """What runs for ``estimator`` on the points, or support points, x and
    y: ``(obj, obj_y, trace, scale)``, each side's kernel or semimetric as
    :func:`_reduced` gives it, whether the statistic is a trace (mcov and
    mcov_trace, whose one spec serves both sides), and its scale s, 4 for
    dcov and 1 otherwise.  With ``resolve`` the bandwidths are resolved on
    x and y (:func:`_resolve_sides`); without it they must be resolved.
    The estimators and the exact oracle read their specs here."""
    if estimator not in ESTIMATORS:
        raise InputError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    on_metric = estimator in ("mcov", "dcov")
    obj, obj_y = (metric, metric_y) if on_metric else (kernel, kernel_y)
    if obj is None:
        raise InputError(f"{estimator} needs a {'semimetric' if on_metric else 'kernel'}")
    trace = estimator in ("mcov", "mcov_trace")
    # both sides of mcov and mcov_trace live in the one space of their
    # semimetric or kernel
    if trace and _dim(x) != _dim(y):
        raise InputError(f"dimension mismatch between points: {_dim(x)} vs {_dim(y)}")
    obj_y = None if trace else obj_y
    obj, obj_y = _resolve_sides(obj, obj_y, x, y) if resolve else (obj, obj if obj_y is None else obj_y)
    return _reduced(obj, x, trace), _reduced(obj_y, y, trace), trace, 4.0 if estimator == "dcov" else 1.0


def _constant(pts):
    """Whether all points of a side are equal."""
    return bool((pts == pts[0]).all())


def _prepare(estimator, x, y, *, permutations=0, **specs) -> _Prepared:
    """Read the specs (``metric``, ``kernel``, ``metric_y``, ``kernel_y``)
    by :func:`_read_specs`, resolving bandwidths on the sample, build what
    the statistic needs for itself and ``permutations`` re-pairings from
    each side's points, coerced once, and return it.  A constant is
    independent of anything, so where either side's points are all equal
    every value is exactly 0.0, from features of width 0, before any route
    evaluates an entry or checks memory."""
    x, y = _paired(x, y)
    obj, obj_y, trace, scale = _read_specs(estimator, x, y, True, **specs)
    x, y = obj.coerce(x), obj_y.coerce(y)
    if _constant(x) or _constant(y):
        return _CrossCov(np.zeros((len(x), 0)), np.zeros((len(y), 0)), trace, scale)
    # ||C_pi||^2 costs n p q per re-pairing against about 1.5 n^2 reads for
    # the n x n gather, so wide features take the n x n route; the switch is
    # cautious (3x faster here at p q = n)
    if _on_coordinates(obj) and _on_coordinates(obj_y) and (trace or _dim(x) * _dim(y) <= len(x)):
        return _CrossCov(x, y, trace, scale)
    if trace:
        return _PairedTrace(obj, x, y)
    n = len(x)
    # The sides are stored here or, where the screen declines, by
    # _CenteredInner.  From _SCREEN_MIN_N on, vector data are evaluated in
    # row blocks; explicit matrices and small n are stored.  An explicit
    # matrix is of negative type only up to the validation tolerance, so its
    # centred Gram need not be PSD, as the screen's bound requires.  Memory
    # is checked before the first pass for the screen's factors, and in
    # _Side.store.
    vectors = n >= _SCREEN_MIN_N and not any(isinstance(o, ExplicitSemimetric) for o in (obj, obj_y))
    screen = bool(permutations) and vectors
    if screen:
        _check_memory(n, _SCREEN_ARRAYS * isqrt(_SCREEN_RANKS * n) * n, "the screen's factors")
    return _CenteredInner(_Side(obj, x, stored=not vectors), _Side(obj_y, y, stored=not vectors), scale, screen)


def mcov_plugin(x, y, metric) -> float:
    """Metric covariance of a paired sample, distance form.

    Both sides must live in the same space as the semimetric.  Returns

        0.5 * ( mean_{i,j} d2(x_i, y_j) - mean_i d2(x_i, y_i) )

    which is the plug-in of (1/4) E E' { d2(X,Y') + d2(X',Y) - 2 d2(X,Y) }.
    The value is signed: coupled pairs closer than re-paired ones give a
    positive value, farther gives negative.  A kernel k is read through its
    induced semimetric; that semimetric, given or read, runs as
    :func:`mcov_trace` under k, bit for bit, as the k(x, x) and k(y, y)
    terms cancel.
    """
    return _finished(_prepare("mcov", x, y, metric=metric).observed)


def mcov_trace(x, y, kernel) -> float:
    """Metric covariance in its kernel (feature-space trace) form:

        mean_i k(x_i, y_i) - mean_{i,j} k(x_i, y_j)

    Equals :func:`mcov_plugin` with the kernel's induced semimetric, bit
    for bit, as both run this form; a kernel induced from d runs as d at any
    anchor, so there bit for bit too.  A semimetric is read through its
    induced kernel, so it gives :func:`mcov_plugin` under it.
    """
    return _finished(_prepare("mcov_trace", x, y, kernel=kernel).observed)


def hsic_vstat(x, y, kernel, kernel_y=None) -> float:
    """Hilbert-Schmidt independence criterion, biased V-statistic:

        (1/n^2) Tr(K H L H),   H = I - (1/n) ones

    Nonnegative up to roundoff.  A kernel induced from a semimetric d runs
    as d, so 4 hsic under induced kernels is :func:`dcov_vstat` bit for bit.
    A semimetric d is read through its induced kernel, whose centred Gram
    is -HDH/2, so 4 hsic under d is :func:`dcov_vstat` under d, bit for bit.
    """
    return _finished(_prepare("hsic", x, y, kernel=kernel, kernel_y=kernel_y).observed)


def dcov_vstat(x, y, metric, metric_y=None) -> float:
    """Distance covariance, biased V-statistic of the three-term form:

        mean_{ij}[A_ij B_ij] + mean(A) mean(B) - 2 mean_i[rowmean(A)_i rowmean(B)_i]

    with A, B the semimetric matrices of the two sides.  This equals
    (1/n^2) Tr(A H B H), the HSIC form, which is why dCov = 4 HSIC under
    the induced kernels (whose centred Grams are -HAH/2 and -HBH/2).  A
    kernel is read through its induced semimetric, so dcov under a kernel
    is 4 :func:`hsic_vstat` under it, bit for bit.
    """
    return _finished(_prepare("dcov", x, y, metric=metric, metric_y=metric_y).observed)


@dataclass(frozen=True)
class CrossCovEstimate:
    """Double-centered Gram matrices K~ = HKH, L~ = HLH of a paired sample;
    the empirical image of the feature-space cross-covariance operator."""

    k_centered: np.ndarray
    l_centered: np.ndarray
    n: int


def centered_grams(x, y, kernel, kernel_y=None) -> CrossCovEstimate:
    x, y = _paired(x, y)
    kernel, kernel_y = _resolve_sides(kernel, kernel_y, x, y)
    k = gram_matrix(kernel, x)
    l = gram_matrix(kernel_y, y)
    return CrossCovEstimate(double_center(k), double_center(l), k.shape[0])


# ---------------------------------------------------------------------------
# permutation test


def _document(result):
    """A result's fields as a dict in field order, ``permutations`` named ``B``."""
    return {("B" if key == "permutations" else key): value for key, value in asdict(result).items()}


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    permutations: int
    seed: int
    estimator: str
    alternative: str

    to_dict = _document


def _check_integer(name, value):
    """``value`` as an int; it must be a Python or NumPy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_seed(seed):
    seed = _check_integer("seed", seed)
    if not 0 <= seed < _MAX_SEED:
        raise InputError(f"seed must be in [0, 2^63), got {seed}")
    return seed


def _permutation_batches(seed, n, B, size):
    """Permutations 1..B of master ``seed`` in pieces of ``size`` rows.

    Permutation b is ``Generator(Philox(key=[seed, b])).permutation(n)``, a
    counter-based substream.  One bit generator serves all of them: before
    each draw its key is set to [seed, b] with the counter at zero and the
    buffer empty.
    """
    bitgen = np.random.Philox(key=[seed, 0])
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    for start in range(1, B + 1, size):
        # permutation(n) is arange(n) shuffled, so each row is shuffled in place
        piece = np.empty((min(size, B + 1 - start), n), dtype=np.intp)
        piece[:] = np.arange(n)
        for b, row in enumerate(piece, start):
            key[1] = b
            bitgen.state = fresh
            gen.shuffle(row)
        yield piece


def _permutation_test(x, y, estimator, *, B, seed, alternative=None, alpha=None, **specs):
    """The permutation test of :func:`permutation_test`, curtailed at ``alpha``.

    Permutations run in pieces of about ``_BATCH_BYTES``, and with ``alpha``
    of at most ``_CURTAILED_PIECE``; the loop then stops after the first
    piece whose count already gives p > alpha.  The count only grows, so a
    curtailed p-value is exact whenever it is <= alpha, and p <= alpha is
    the full count's decision.  The pieces change no value: every exact
    route computes a permutation's statistic alike wherever it sits in a
    piece, and a screened one recomputes exactly every value near the
    observed statistic.
    """
    B = _check_integer("number of permutations", B)
    if B < 1:
        raise InputError(f"number of permutations must be >= 1, got {B}")
    seed = _check_seed(seed)
    if alternative is None:
        alternative = "two_sided" if estimator in ("mcov", "mcov_trace") else "greater"
    if alternative not in ("two_sided", "greater"):
        raise InputError(f"unknown alternative {alternative!r}")

    prepared = _prepare(estimator, x, y, permutations=B, **specs)
    observed = _finished(prepared.observed)
    if prepared.decided:
        # all B permutations tie: p = (1 + B) / (B + 1), drawing none
        return TestResult(observed, 1.0, B, seed, estimator, alternative)
    size = max(1, _BATCH_BYTES // prepared.perm_bytes)
    if alpha is not None:
        size = min(size, _CURTAILED_PIECE)
    count = 0
    for perms in _permutation_batches(seed, prepared.n, B, size):
        t = prepared.permuted(perms)
        if alternative == "two_sided":
            count += int(np.count_nonzero(np.abs(t) >= abs(observed)))
        else:
            count += int(np.count_nonzero(t >= observed))
        p_value = (1.0 + count) / (B + 1.0)
        if alpha is not None and p_value > alpha:
            break
    return TestResult(observed, p_value, B, seed, estimator, alternative)


def permutation_test(
    x,
    y,
    estimator: str,
    *,
    metric=None,
    kernel=None,
    metric_y=None,
    kernel_y=None,
    B: int = 999,
    seed: int = 0,
    alternative: str | None = None,
) -> TestResult:
    """Permutation independence test for any of the four statistics.

    Only the y side is re-paired.  The p-value uses the add-one convention
    p = (1 + #{permuted >= observed}) / (B + 1), on absolute values for the
    two-sided alternative.  Ties count as exceedances and are decided by
    exact floating-point comparison; the observed and permuted statistics
    go through the same arithmetic, so a re-pairing that leaves the
    statistic unchanged ties exactly (mcov of ``orthogonal_linear`` data
    under euclid2 is exactly 0 for every re-pairing, so p = 1).  Signed
    statistics (mcov, mcov_trace) default to ``two_sided``; nonnegative ones
    (hsic, dcov) to ``greater``.  Unresolved bandwidths are frozen via the
    median heuristic before testing; features, points, or kernel and
    distance matrices (stored where the module docstring says, else
    evaluated from the points in row blocks with the stored bits), are
    permuted by index, and permutation b draws from a
    counter-based substream of ``seed``, so the result is deterministic for
    fixed inputs no matter the execution order.  ``B`` and ``seed`` must be
    Python or NumPy integers, not bools.  All B permutations run, unless a
    constant side gives p = 1 before any draw; a
    :func:`~metricdep.scenarios.power_study` replication stops once its
    decision is fixed.  A screened hsic or dcov test (see the module
    docstring) makes every comparison with the observed statistic as the
    n x n route does.
    """
    return _permutation_test(
        x, y, estimator, metric=metric, kernel=kernel, metric_y=metric_y, kernel_y=kernel_y,
        B=B, seed=seed, alternative=alternative,
    )
