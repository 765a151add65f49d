"""Kernel and semimetric catalogue, Gram/distance matrices, and the two
conversion formulas between positive-definite kernels and semimetrics of
negative type.

A kernel k and a semimetric d2 are linked by

    d2(x, y) = k(x, x) + k(y, y) - 2 k(x, y)
    k(x, y)  = (d2(x, w) + d2(y, w) - d2(x, y)) / 2    for an anchor point w

so every kernel induces a semimetric of negative type and every semimetric
of negative type induces a kernel (up to the choice of anchor).  Negative
type of a finite distance matrix D is certified by positive semidefiniteness
of -0.5 * J D J with J the centering projection (Schoenberg's condition).

scipy is loaded where it is called, not with this module, and only its
compiled distance kernels: the radial kernels and semimetrics (gaussian,
matern, euclid2) evaluate squared distances by scipy's
``cdist_sqeuclidean`` in ``pairwise``, and :func:`median_heuristic` by its
``pdist_sqeuclidean``, and beyond 724 pooled points by both.  These are the
functions ``scipy.spatial.distance``'s ``cdist`` and ``pdist`` call for
``"sqeuclidean"``, so the bits are theirs; :func:`_distance_kernels` loads
their extension module from its file, so ``scipy.spatial``'s package
(kd-trees, qhull, ``scipy.sparse``, ``scipy.linalg``) is never imported.
A process that evaluates neither, such as one on the feature route, loads
no scipy.

Points are checked once, where they enter.  The public ``pairwise`` and
``paired``, defined once on ``_OnVectors``, coerce both sides by the
object's ``coerce`` (finite coordinates, or integer indices in range for
an explicit matrix) and refuse sides of different dimensions;
:func:`gram_matrix`, :func:`distance_matrix` and :func:`median_heuristic`
coerce their points once, and the estimators coerce each side once, in
``estimators._prepare``.  Every evaluation past that point, an induced
form's call on its base included, runs unchecked by ``_pairwise`` and
``_paired``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from types import SimpleNamespace

import numpy as np

_MATERN_NUS = (0.5, 1.5, 2.5)

# Bytes of one row block of an n x n matrix built or read block by block.
_BLOCK_BYTES = 1 << 20

# Pairs whose squared distances bracket the median heuristic's, see _pair_sample.
_BRACKET_PAIRS = 1 << 14

# scipy's compiled distance module, see _distance_kernels.
_DISTANCES = "scipy.spatial._distance_pybind"


@cache
def _distance_kernels():
    """scipy's compiled distance module, whose ``cdist_sqeuclidean`` and
    ``pdist_sqeuclidean`` ``scipy.spatial.distance.cdist`` and ``pdist``
    call for ``"sqeuclidean"``: the imported module if ``scipy.spatial``
    is, else the extension loaded from its file in scipy's ``spatial``
    directory, which runs no ``scipy.spatial/__init__``.  The module is
    private, so where the file or either function is missing this is
    ``scipy.spatial.distance``'s ``cdist`` and ``pdist`` for
    ``"sqeuclidean"`` under the same two names."""
    module = sys.modules.get(_DISTANCES)
    if module is None:
        import scipy

        finder = FileFinder(os.path.join(scipy.__path__[0], "spatial"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_DISTANCES)
        if spec is not None:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
    if hasattr(module, "cdist_sqeuclidean") and hasattr(module, "pdist_sqeuclidean"):
        return module
    from scipy.spatial import distance

    return SimpleNamespace(
        cdist_sqeuclidean=partial(distance.cdist, metric="sqeuclidean"),
        pdist_sqeuclidean=partial(distance.pdist, metric="sqeuclidean"),
    )


class InputError(ValueError):
    """User-supplied data or parameters are malformed."""


def as_points(pts) -> np.ndarray:
    """Coerce to an (n, p) float array; a 1-D input is read as n scalar points."""
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InputError(f"expected points as an (n, p) array, got shape {a.shape}")
    if a.shape[0] == 0:
        raise InputError("empty point set")
    if not np.isfinite(a).all():
        raise InputError("point coordinates must be finite")
    return a


def _as_single(x) -> np.ndarray:
    """Coerce one point (scalar or 1-D vector) to a (1, p) array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a[None]
    if a.ndim != 1:
        raise InputError(f"expected a single point, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("point coordinates must be finite")
    return a[None, :]


def _matching(*point_sets):
    """Coerced point sets, refused unless they share a dimension; an
    explicit matrix's indices have none."""
    for pts in point_sets[1:]:
        if pts.shape[1:] != point_sets[0].shape[1:]:
            raise InputError(f"dimension mismatch between points: {point_sets[0].shape[1]} vs {pts.shape[1]}")
    return point_sets


class _OnVectors:
    """Point handling shared by the kernels and semimetrics: ``pairwise``
    and ``paired`` check both sides (see the module docstring) and evaluate
    them by the class's unchecked ``_pairwise`` and ``_paired``."""

    def one(self, x):
        return _as_single(x)

    def coerce(self, pts):
        return as_points(pts)

    def pairwise(self, xs, ys):
        """The values at (xs[i], ys[j]), one row per point of xs."""
        return self._pairwise(*_matching(self.coerce(xs), self.coerce(ys)))

    def paired(self, xs, ys):
        """The values at the pairs (xs[i], ys[i]), row by row; a single
        point on either side pairs with every point of the other."""
        return self._paired(*_matching(self.coerce(xs), self.coerce(ys)))


class _Radial(_OnVectors):
    """A kernel or semimetric f(||x - y||^2); each class supplies only its
    ``profile`` f, which may overwrite its argument."""

    def _pairwise(self, xs, ys):
        # the function cdist(xs, ys, "sqeuclidean") calls
        return self.profile(_distance_kernels().cdist_sqeuclidean(xs, ys))

    def _paired(self, xs, ys):
        # column-major, the sum runs over the coordinates in order, as cdist's
        d = np.subtract(xs, ys, order="F")
        return self.profile(np.square(d, out=d).sum(axis=1))


# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class LinearKernel(_OnVectors):
    """k(x, y) = <x, y>."""

    def _pairwise(self, xs, ys):
        return xs @ ys.T

    def _paired(self, xs, ys):
        return np.einsum("ij,ij->i", xs, ys)

    @property
    def spec(self):
        return "linear"


@dataclass(frozen=True)
class GaussianKernel(_Radial):
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    ``sigma=None`` marks an unresolved bandwidth: call
    :func:`resolve_bandwidth` with the data before evaluating (the median
    heuristic fills it in).
    """

    sigma: float | None = None

    def __post_init__(self):
        if self.sigma is not None and not self.sigma > 0:
            raise InputError(f"gaussian bandwidth must be > 0, got {self.sigma}")

    def profile(self, s):
        if self.sigma is None:
            raise InputError(
                "gaussian bandwidth unresolved; use resolve_bandwidth(kernel, data)"
            )
        np.divide(s, -2.0 * self.sigma**2, out=s)
        return np.exp(s, out=s)

    @property
    def spec(self):
        if self.sigma is None:
            return "gaussian"
        return f"gaussian:sigma={self.sigma!r}"


@dataclass(frozen=True)
class MaternKernel(_Radial):
    """Matern kernel with half-integer smoothness nu in {1/2, 3/2, 5/2}.

    Closed forms in r = ||x - y||:
        nu = 1/2:  exp(-r/l)
        nu = 3/2:  (1 + sqrt(3) r/l) exp(-sqrt(3) r/l)
        nu = 5/2:  (1 + sqrt(5) r/l + 5 r^2/(3 l^2)) exp(-sqrt(5) r/l)
    """

    nu: float
    ell: float = 1.0

    def __post_init__(self):
        if self.nu not in _MATERN_NUS:
            raise InputError(f"matern smoothness must be one of {_MATERN_NUS}, got {self.nu}")
        if not self.ell > 0:
            raise InputError(f"matern lengthscale must be > 0, got {self.ell}")

    def profile(self, s):
        r = np.sqrt(s, out=s)
        if self.nu == 0.5:
            return np.exp(-r / self.ell)
        if self.nu == 1.5:
            t = (np.sqrt(3.0) / self.ell) * r
            return (1.0 + t) * np.exp(-t)
        t = (np.sqrt(5.0) / self.ell) * r
        return (1.0 + t + t**2 / 3.0) * np.exp(-t)

    @property
    def spec(self):
        return f"matern:nu={self.nu!r},ell={self.ell!r}"


@dataclass(frozen=True, eq=False)
class DistanceInducedKernel(_OnVectors):
    """Kernel built from a negative-type semimetric with an anchor point:

        k(x, y) = (d2(x, w) + d2(y, w) - d2(x, y)) / 2

    ``anchor=None`` means the deterministic default: the origin for vector
    data, the first point (index 0) for an explicit distance matrix.
    """

    base: object
    anchor: object = None

    def _anchor_row(self, xs):
        if self.anchor is None:
            if isinstance(self.base, ExplicitSemimetric):
                return np.zeros(1, dtype=np.intp)
            return np.zeros((1, xs.shape[1]))
        return self.base.one(self.anchor)

    def one(self, x):
        return self.base.one(x)

    def coerce(self, pts):
        return self.base.coerce(pts)

    def _to_anchor(self, xs):
        """d2(x, w) for each point x, which is exactly 0 at x = w; an anchor
        of another dimension than the points is refused."""
        return self.base._paired(*_matching(xs, self._anchor_row(xs)))

    def _pairwise(self, xs, ys):
        d = self.base._pairwise(xs, ys)
        return 0.5 * (self._to_anchor(xs)[:, None] + self._to_anchor(ys)[None, :] - d)

    def _paired(self, xs, ys):
        d = self.base._paired(xs, ys)
        return 0.5 * (self._to_anchor(xs) + self._to_anchor(ys) - d)

    @property
    def anchor_spec(self):
        if self.anchor is None:
            return "origin"
        return "(" + ";".join(repr(float(v)) for v in np.atleast_1d(self.anchor)) + ")"

    @property
    def spec(self):
        return f"induced_kernel:base=({self.base.spec}),anchor={self.anchor_spec}"


# ---------------------------------------------------------------------------
# semimetrics


@dataclass(frozen=True)
class EuclideanSquared(_Radial):
    """d2(x, y) = ||x - y||^2, the canonical semimetric of negative type."""

    def profile(self, s):
        return s

    @property
    def spec(self):
        return "euclid2"


@dataclass(frozen=True, eq=False)
class KernelInducedSemimetric(_OnVectors):
    """d2(x, y) = k(x, x) + k(y, y) - 2 k(x, y) for a positive-definite k."""

    base: object

    def one(self, x):
        return self.base.one(x)

    def coerce(self, pts):
        return self.base.coerce(pts)

    def _pairwise(self, xs, ys):
        k = self.base
        out = k._paired(xs, xs)[:, None] + k._paired(ys, ys)[None, :] - 2.0 * k._pairwise(xs, ys)
        # PSD of the kernel makes this >= 0 up to roundoff
        out = np.maximum(out, 0.0)
        # d2(x, x) = 0 holds algebraically; pin it down where the diagonal
        # and cross evaluations take different floating-point paths
        if xs is ys:
            np.fill_diagonal(out, 0.0)
        return out

    def _paired(self, xs, ys):
        k = self.base
        # k(x, x) + k(x, x) - 2 k(x, x) is exactly 0
        return np.maximum(k._paired(xs, xs) + k._paired(ys, ys) - 2.0 * k._paired(xs, ys), 0.0)

    @property
    def spec(self):
        return f"induced_metric:base=({self.base.spec})"


@dataclass(frozen=True, eq=False)
class ExplicitSemimetric(_OnVectors):
    """A user-supplied square distance matrix; points are row indices.

    The matrix must be of negative type.  Unlike the vector semimetrics it
    is not so by construction, so :func:`validate_negative_type` runs here,
    once, and an invalid matrix raises :class:`InputError`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        report = validate_negative_type(m)
        if m.min() < 0:
            raise InputError("explicit distance matrix must be nonnegative")
        if not report.valid:
            raise InputError(
                "explicit distance matrix is not of negative type "
                f"(worst eigenvalue {report.worst_eigenvalue:.6g})"
            )
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 0.0)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]

    def one(self, x):
        if np.ndim(x) != 0:
            raise InputError("a point of an explicit semimetric is one integer index")
        return self.coerce(np.reshape(x, 1))

    def coerce(self, pts):
        idx = np.asarray(pts)
        if idx.ndim != 1:
            idx = idx.reshape(-1)
        if not np.issubdtype(idx.dtype, np.integer):
            f = np.asarray(idx, dtype=float)
            if not np.all(np.isfinite(f) & (f == np.round(f))):
                raise InputError("points of an explicit semimetric are integer indices")
            idx = np.round(f).astype(np.intp)
        if idx.size == 0:
            raise InputError("empty point set")
        if idx.min() < 0 or idx.max() >= self.n:
            raise InputError(
                f"index out of range for explicit {self.n}x{self.n} matrix, rows 0 to {self.n - 1}: "
                f"[{idx.min()}, {idx.max()}]"
            )
        return idx.astype(np.intp)

    def _pairwise(self, xs, ys):
        return self.matrix[np.ix_(xs, ys)]

    def _paired(self, xs, ys):
        return self.matrix[xs, ys]

    @property
    def spec(self):
        return "explicit"


# ---------------------------------------------------------------------------
# operations


def _at_pair(obj, x, y) -> float:
    return float(obj.paired(obj.one(x), obj.one(y))[0])


def kernel_eval(kernel, x, y) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    return _at_pair(kernel, x, y)


def semimetric_eval(metric, x, y) -> float:
    """Evaluate d2(x, y) for a single pair of points."""
    return _at_pair(metric, x, y)


def induced_semimetric(kernel) -> KernelInducedSemimetric:
    """Semimetric of negative type generated by a kernel:
    d2(x, y) = k(x, x) + k(y, y) - 2 k(x, y)."""
    return KernelInducedSemimetric(kernel)


def induced_kernel(metric, anchor=None) -> DistanceInducedKernel:
    """Kernel generated by a negative-type semimetric and an anchor point w:
    k(x, y) = (d2(x, w) + d2(y, w) - d2(x, y)) / 2.

    The default anchor is the origin (index 0 for explicit matrices).  Any
    anchor yields a valid kernel; the induced Gram matrices are positive
    semidefinite exactly when the semimetric is of negative type.
    """
    if anchor is not None:
        anchor = np.asarray(anchor) if not np.isscalar(anchor) else anchor
    return DistanceInducedKernel(metric, anchor)


def _row_blocks(n, width):
    """Row ranges (i, j) of the blocks of about ``_BLOCK_BYTES`` of an
    n x width float64 matrix."""
    rows = max(1, _BLOCK_BYTES // (8 * width))
    return [(i, min(i + rows, n)) for i in range(0, n, rows)]


def _symmetrise(m):
    """m <- (m + m') / 2 in place, a row block and its column block at a time."""
    for i, j in _row_blocks(len(m), len(m)):
        t = 0.5 * (m[i:j, i:] + m[i:, i:j].T)
        m[i:j, i:] = t
        m[i:, i:j] = t.T
    return m


def _as_distances(m, offset=0):
    """Zero the diagonal of rows of a distance matrix, the entries
    (r, offset + r) that are in ``m``, and clip roundoff below zero, in
    place."""
    r = np.arange(max(0, -offset), min(len(m), m.shape[1] - offset))
    m[r, offset + r] = 0.0
    return np.maximum(m, 0.0, out=m)


def _innermost(obj):
    """The kernel or semimetric that ``obj``'s induced forms are built on."""
    while hasattr(obj, "base"):
        obj = obj.base
    return obj


def _symmetric(obj, pts):
    """``obj.pairwise(pts, pts)``, its points coerced once and evaluated
    unchecked, filled into one array in row blocks of about
    ``_BLOCK_BYTES``, so that the temporaries of an evaluation are the size
    of a block rather than of the matrix; symmetrised where it is built on
    the linear kernel, whose matrix product rounds by the block's shape.
    cdist, the radial profiles, an explicit matrix and the two induced forms
    compute k(x, y) and k(y, x) alike."""
    pts = obj.coerce(pts)
    m = np.empty((len(pts), len(pts)))
    for i, j in _row_blocks(len(pts), len(pts)):
        m[i:j] = obj._pairwise(pts[i:j], pts)
    return _symmetrise(m) if isinstance(_innermost(obj), LinearKernel) else m


def gram_matrix(kernel, pts) -> np.ndarray:
    """Symmetric Gram matrix of a kernel on a point set.

    No negative-type check runs here: vector semimetrics are of negative
    type by construction, and an explicit matrix is checked when its
    :class:`ExplicitSemimetric` is built.
    """
    return _symmetric(kernel, pts)


def distance_matrix(metric, pts) -> np.ndarray:
    """Symmetric distance matrix with an exactly zero diagonal."""
    return _as_distances(_symmetric(metric, pts))


def matrix_rows(obj, pts, i, j, distance=False, start=0) -> np.ndarray:
    """Rows i:j of the Gram matrix of ``obj`` on ``pts``, or of its distance
    matrix with ``distance``, from column ``start`` on, evaluated by one
    unchecked ``_pairwise`` call: ``pts`` are points ``obj.coerce`` gave.

    Where ``pairwise`` computes each entry from its two points alone and
    symmetrically, as every kernel and semimetric not built on the linear
    kernel does, these are the rows of :func:`gram_matrix` or
    :func:`distance_matrix` bit for bit.  The linear kernel's matrix
    product, and what is induced from it, rounds by the block's shape.
    """
    rows = obj._pairwise(pts[i:j], pts[start:])
    return _as_distances(rows, i - start) if distance else rows


@dataclass(frozen=True)
class NegativeTypeResult:
    valid: bool
    worst_eigenvalue: float


def validate_negative_type(d_matrix, tol: float = 1e-8) -> NegativeTypeResult:
    """Schoenberg check: D is of negative type iff -0.5 * J D J is PSD,
    J = I - (1/n) ones.

    ``valid`` holds iff the smallest eigenvalue of -0.5 J D J is at least
    ``-tol`` times the largest absolute eigenvalue; the smallest eigenvalue
    is reported either way.  ``tol`` must be in [0, inf).
    """
    if not 0.0 <= tol < np.inf:
        raise InputError(f"tolerance must be in [0, inf), got {tol}")
    d = np.asarray(d_matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError(f"distance matrix must be square, got shape {d.shape}")
    if d.size == 0:
        raise InputError("distance matrix is empty")
    if not np.all(np.isfinite(d)):
        raise InputError("distance matrix must be finite")
    scale = np.abs(d).max()
    if np.abs(d - d.T).max() > 1e-10 * (1.0 + scale):
        raise InputError("distance matrix must be symmetric")
    if np.abs(np.diagonal(d)).max() > 1e-12 * (1.0 + scale):
        raise InputError("distance matrix must have a zero diagonal")
    d = 0.5 * (d + d.T)
    row = d.mean(axis=1, keepdims=True)
    g = -0.5 * (d - row - row.T + d.mean())
    g = 0.5 * (g + g.T)
    eig = np.linalg.eigvalsh(g)
    worst = float(eig[0]) + 0.0  # a zero as +0.0
    largest = float(np.abs(eig).max())
    return NegativeTypeResult(valid=worst >= -tol * largest, worst_eigenvalue=worst)


def _selected(d, ranks):
    """The values at ``ranks`` (ascending) of d sorted, reordering d in
    place: the last by one selection, and each before it from the values
    before the one after it, the largest of them where it is adjacent."""
    out, end = [], len(d)
    for r in reversed(ranks):
        if r == end - 1:
            out.append(d[:end].max())
        else:
            d[:end].partition(r)
            out.append(d[r])
        end = r
    return out[::-1]


def _pair_sample(pooled):
    """Squared distances of ``_BRACKET_PAIRS`` pairs, a strided subsample
    of the pooled pairs in ``pdist``'s order, evaluated in chunks whose
    gathered points take about ``_BLOCK_BYTES``, so that wide points hold
    no more than narrow ones.  Its values need not be ``pdist``'s bits: only
    the counts against the bracket they give decide."""
    m = len(pooled)
    rows = np.arange(m)
    starts = rows * m - rows * (rows + 1) // 2  # pdist's index of the pair (i, i + 1)
    flat = np.arange(_BRACKET_PAIRS) * (m * (m - 1) // 2) // _BRACKET_PAIRS
    i = np.repeat(rows, np.diff(np.searchsorted(flat, starts), append=_BRACKET_PAIRS))
    j = flat - starts[i] + i + 1
    out = np.empty(_BRACKET_PAIRS)
    for a, b in _row_blocks(_BRACKET_PAIRS, pooled.shape[1]):
        diff = pooled.take(i[a:b], 0)
        diff -= pooled.take(j[a:b], 0)
        np.einsum("ij,ij->i", diff, diff, out=out[a:b])
    return out


def _bracket(sample, widths):
    """Squared distances (lo, hi) that bracket the median of the pooled
    pairs' squared distances: the order statistics of ``sample``, from
    :func:`_pair_sample`, ``widths[0]`` / 64 of the way below its middle
    and ``widths[1]`` / 64 above it, -inf and inf past its ends.  The
    subsample's middle is about 0.5 / sqrt(_BRACKET_PAIRS) = 0.0039 in rank
    fraction from the whole's, so the first bracket, of widths (1, 1) and 4
    times that wide, holds about 3% of the pairs."""
    middle, h = sample.size // 2, sample.size // 64
    ranks = (middle - widths[0] * h, middle + widths[1] * h)
    values = iter(_selected(sample, [r for r in ranks if 0 <= r < sample.size]))
    return tuple(next(values) if 0 <= r < sample.size else end for r, end in zip(ranks, (-np.inf, np.inf)))


def _blocked_order_statistics(pooled, ranks):
    """The squared distances at ``ranks`` (ascending) of the sorted pooled
    pairs, read in row blocks of about ``_BLOCK_BYTES``: ``pdist`` within a
    block and ``cdist`` from it to the later rows, which give ``pdist``'s
    bits pair for pair.  Each block counts the values below the bracket of
    :func:`_bracket` and those at its ends, and keeps only those strictly
    inside it.  A rank the counts place outside takes another pass with the
    side it missed widened fourfold, and the other side kept, so the value
    never depends on the bracket; a side opens only past the subsample's
    end, after three misses."""
    distances = _distance_kernels()
    sample, widths = _pair_sample(pooled), (1, 1)
    while True:
        lo, hi = _bracket(sample, widths)
        below = at_lo = at_hi = 0
        inside = []
        for i, j in _row_blocks(len(pooled), len(pooled)):
            block = pooled[i:j]
            for d in (distances.pdist_sqeuclidean(block), distances.cdist_sqeuclidean(block, pooled[j:]).ravel()):
                up = d >= lo
                below += d.size - np.count_nonzero(up)
                d = d.compress(np.logical_and(up, d <= hi, out=up))
                on_lo, on_hi = d == lo, d == hi
                at_lo += np.count_nonzero(on_lo)
                at_hi += np.count_nonzero(on_hi & ~on_lo)
                inside.append(d[~(on_lo | on_hi)])
        inside = np.concatenate(inside)
        first, last = below + at_lo, below + at_lo + inside.size
        missed = (ranks[0] < below, ranks[-1] >= last + at_hi)
        if not any(missed):
            break
        widths = tuple(4 * w if miss else w for w, miss in zip(widths, missed))
    within = iter(_selected(inside, [r - first for r in ranks if first <= r < last]))
    return [lo if r < first else next(within) if r < last else hi for r in ranks]


def median_heuristic(*samples, max_points: int = 2000) -> float:
    """Median of pairwise Euclidean distances over the pooled sample.

    The pooled sample is the row-stack of all inputs (which must share a
    dimension).  Above ``max_points`` rows an evenly spaced subsample keeps
    the computation cheap while staying deterministic.  Falls back to 1.0
    when the median distance is zero (degenerate data).

    Where the pairs' squared distances take at most two row blocks, 2
    ``_BLOCK_BYTES`` (up to 724 pooled points), they are one ``pdist``;
    beyond, they are read in row blocks and only those near the median are
    kept (see :func:`_blocked_order_statistics`), so no array of all the
    pairs is held.  Below that size the blocked read, with its subsample,
    holds about as much as one ``pdist``.
    """
    pooled = np.vstack(_matching(*(as_points(s) for s in samples)))
    if pooled.shape[0] > max_points:
        step = pooled.shape[0] / max_points
        pooled = pooled[(np.arange(max_points) * step).astype(int)]
    m = pooled.shape[0]
    if m < 2:
        return 1.0
    # sqrt is monotone and correctly rounded, and pdist's euclidean distance
    # is the sqrt of its squared one, so the mean of the sqrt of the one or
    # two middle squared distances gives np.median(pdist(pooled))'s bits
    # (finite points give no NaN)
    pairs = m * (m - 1) // 2
    ranks = (pairs // 2,) if pairs % 2 else (pairs // 2 - 1, pairs // 2)
    if 8 * pairs <= 2 * _BLOCK_BYTES:
        # the squared distances are a temporary, so the selection may
        # reorder them in place
        middle = _selected(_distance_kernels().pdist_sqeuclidean(pooled), ranks)
    else:
        middle = _blocked_order_statistics(pooled, ranks)
    med = float(np.sqrt(middle).sum() / len(middle))
    return med if med > 0 else 1.0


def resolve_bandwidth(obj, *samples):
    """Replace any unresolved Gaussian bandwidth inside a kernel or
    semimetric by the median heuristic of the given samples."""
    if isinstance(obj, GaussianKernel) and obj.sigma is None:
        return GaussianKernel(median_heuristic(*samples))
    if isinstance(obj, KernelInducedSemimetric):
        return KernelInducedSemimetric(resolve_bandwidth(obj.base, *samples))
    if isinstance(obj, DistanceInducedKernel):
        return DistanceInducedKernel(resolve_bandwidth(obj.base, *samples), obj.anchor)
    return obj


# ---------------------------------------------------------------------------
# spec strings
#
# Grammar: NAME or NAME:key=value,key=value where a value may be a number, a
# word, a parenthesised nested spec, or a parenthesised ;-separated vector.
#   gaussian:sigma=0.5      matern:nu=1.5,ell=2.0      linear      euclid2
#   induced_kernel:base=euclid2,anchor=origin
#   induced_metric:base=(gaussian:sigma=0.5)
#   induced_kernel:base=(matern:nu=2.5,ell=0.7),anchor=(0.5;-1.0)


def _split_top(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in spec {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in spec {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_head(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    head, *rest = _split_top(text, ":")
    args = {}
    if rest:
        for item in _split_top(":".join(rest), ","):
            if "=" not in item:
                raise InputError(f"malformed argument {item!r} in spec {text!r}")
            key, value = item.split("=", 1)
            args[key.strip()] = value.strip()
    return head.strip().lower(), args


def _need_float(args, key, spec):
    if key not in args:
        raise InputError(f"spec {spec!r} requires {key}=...")
    raw = args.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"could not parse {key}={raw!r} in spec {spec!r}") from None


def parse_anchor(text):
    """Anchor values: 'origin' or 'first' (the default), or '(v1;v2;...)'."""
    text = text.strip()
    if text.lower() in ("origin", "first", "default"):
        return None
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    try:
        values = [float(v) for v in text.split(";") if v.strip() != ""]
    except ValueError:
        raise InputError(f"could not parse anchor {text!r}") from None
    if not values:
        raise InputError("empty anchor")
    return np.array(values)


def _opt_float(args, key, spec, default):
    if key not in args:
        return default
    return _need_float(args, key, spec)


def parse_kernel(text):
    """Parse a kernel spec string (see module grammar)."""
    head, args = _parse_head(text)
    if head == "linear":
        kernel = LinearKernel()
    elif head == "gaussian":
        kernel = GaussianKernel(_opt_float(args, "sigma", text, None))
    elif head == "matern":
        nu = _need_float(args, "nu", text)
        ell = _opt_float(args, "ell", text, 1.0)
        kernel = MaternKernel(nu, ell)
    elif head == "induced_kernel":
        if "base" not in args:
            raise InputError(f"spec {text!r} requires base=...")
        base = parse_semimetric(args.pop("base"))
        anchor = parse_anchor(args.pop("anchor")) if "anchor" in args else None
        kernel = DistanceInducedKernel(base, anchor)
    else:
        raise InputError(f"unknown kernel family {head!r}")
    if args:
        raise InputError(f"unknown arguments {sorted(args)} for kernel {head!r}")
    return kernel


def parse_semimetric(text):
    """Parse a semimetric spec string (see module grammar)."""
    head, args = _parse_head(text)
    if head == "euclid2":
        metric = EuclideanSquared()
    elif head == "induced_metric":
        if "base" not in args:
            raise InputError(f"spec {text!r} requires base=...")
        metric = KernelInducedSemimetric(parse_kernel(args.pop("base")))
    else:
        raise InputError(f"unknown semimetric family {head!r}")
    if args:
        raise InputError(f"unknown arguments {sorted(args)} for semimetric {head!r}")
    return metric
