"""Plug-in (V-statistic) estimators of metric covariance, HSIC and distance
covariance, and a seeded permutation independence test.

All estimators are exact empirical-measure plug-ins: each population
expectation is replaced by the full with-replacement sample average.  This
keeps the algebraic identities between the measures (trace identity,
dCov = 4 HSIC under induced kernels) exact at every finite n, not just
asymptotically.

Every statistic is computed by one prepared core, as a function of a
re-pairing pi of the y side (the identity gives the statistic itself):

* feature route, when both sides have an explicit feature map (see
  :func:`~metricdep.kernels.feature_map`): with the centred p- and
  q-dimensional features and C_pi = Xc' Yc[pi] / n, mcov = mcov_trace =
  tr C_pi while B p <= 8 n for B re-pairings, and hsic = ||C_pi||_F^2 and
  dcov = 4 ||C_pi||_F^2 while p q <= n;
* n x n route otherwise: the paired trace of the cross matrix (Xc Yc' when
  there are features) for mcov and mcov_trace, and the centred inner
  product <HAH, B_pipi> / n^2 of the two sides' matrices for hsic (Gram
  matrices) and dcov (distance matrices).  A permutation test of hsic or
  dcov on this route, from n = 200 and on vector data, screens its
  re-pairings through pivoted-Cholesky factors of both centred sides and
  recomputes on the n x n route every value the screen cannot certify to
  fall on one side of the observed statistic, so its counts and p-values
  are the n x n route's; it keeps the n x n route where a factor's rank
  passes sqrt(8 n).  Before building n x n matrices the route checks that
  they fit in physical memory.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from math import isqrt

import numpy as np

from .kernels import (
    EuclideanSquared,
    ExplicitSemimetric,
    GaussianKernel,
    InputError,
    distance_matrix,
    feature_map,
    gram_matrix,
    induced_kernel,
    induced_semimetric,
    parse_anchor,
    resolve_bandwidth,
)

ESTIMATORS = ("mcov", "mcov_trace", "hsic", "dcov")

_MAX_SEED = 2**63

# Bytes of permutation indices and gathered data held per batch of
# permutations, and bytes of one row block of the n x n gather.
_BATCH_BYTES = 1 << 22
_BLOCK_BYTES = 1 << 20

# At most this many n x n float64 arrays are alive at once on an n x n
# route: both matrices and the temporaries of a kernel evaluation or of
# the centring.
_NXN_ARRAYS = 4

# The low-rank screen of hsic and dcov permutations starts at this n.  On a
# 2-core host (gaussian, median bandwidth, d = 2, B = 199, rank cap lifted,
# ranks 56 to 70) factorising and screening took 0.013-0.033 s against
# 0.009 s for the n x n gather at n = 100, and 0.021-0.031 s against
# 0.029-0.034 s at n = 200.
_SCREEN_MIN_N = 200


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
    induced kernel is built from it.
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


# ---------------------------------------------------------------------------
# the prepared-statistic core


class _Prepared:
    """A statistic of the y-side re-pairing, its inputs computed once.

    ``permuted(perms)`` maps a (b, n) array of permutations to the b
    statistics (screened ones only up to a margin, see :class:`_Screened`);
    ``perm_bytes`` is the memory one permutation of a batch takes.
    ``observed`` goes through the same arithmetic with the identity.
    """

    n: int
    perm_bytes: int

    def permuted(self, perms: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def observed(self) -> float:
        return float(self.permuted(np.arange(self.n)[None])[0])


class _CrossCov(_Prepared):
    """tr C_pi, or ``scale`` * ||C_pi||_F^2, of C_pi = Xc' Yc[pi] / n.

    The trace takes only the n paired products Xc[i] . Yc[pi(i)], so a
    re-pairing costs n p and no p x q matrix; the norm costs n p q."""

    def __init__(self, fx, fy, trace, scale=1.0):
        self.n = fx.shape[0]
        p, q = fx.shape[1], fy.shape[1]
        # indices, gathered features and, for the norm, C_pi
        self.perm_bytes = 8 * (self.n * (1 + q) + (0 if trace else p * q))
        self._xc = fx - fx.mean(axis=0)
        self._yc = fy - fy.mean(axis=0)
        self._trace = trace
        self._scale = scale

    def permuted(self, perms):
        yp = self._yc[perms]
        if self._trace:
            # einsum sums each row alike wherever it sits in the block; a
            # BLAS product rounds a row by its place, and loses ties
            return np.einsum("bnq,nq->b", yp, self._xc) / self.n
        c = self._xc.T @ yp / self.n
        return self._scale * np.einsum("bpq,bpq->b", c, c)


class _PairedTrace(_Prepared):
    """``scale`` * (mean_i a[i, pi(i)] - mean(a)) of a cross matrix a."""

    def __init__(self, a, scale):
        self.n = a.shape[0]
        self.perm_bytes = 16 * self.n
        self._a = a
        self._grand = a.mean()
        self._scale = scale

    def permuted(self, perms):
        paired = self._a[np.arange(self.n), perms].mean(axis=1)
        return self._scale * (paired - self._grand)


class _CenteredInner(_Prepared):
    """<HAH, B_pipi> / n^2, which equals <HAH, HBH> / n^2 because H is a
    projection; only the fixed side is centred.  The gather runs in row
    blocks of about ``_BLOCK_BYTES``."""

    def __init__(self, a_centered, b):
        self.n = b.shape[0]
        self.perm_bytes = 8 * self.n
        self._a = a_centered
        self._b = b

    def permuted(self, perms):
        a, b, n = self._a, self._b, self.n
        rows = max(1, _BLOCK_BYTES // (8 * n))
        out = np.empty(len(perms))
        for k, p in enumerate(perms):
            out[k] = sum(
                np.vdot(a[i : i + rows], b.take(p[i : i + rows], 0).take(p, 1))
                for i in range(0, n, rows)
            )
        return out / n**2


def _pivoted_cholesky(row, diag, cap):
    """Factor a PSD matrix M = F F' + E by pivoted (incomplete) Cholesky.

    ``row(j)`` returns row j of M and ``diag`` its diagonal.  Stops once
    tr E <= 1e-10 tr M and returns F' (r x n) with a bound on tr E, or None
    when r would pass ``cap``.
    """
    d = np.array(diag, dtype=float)
    tol = 1e-10 * d.sum()
    ft = np.empty((cap, d.size))
    for k in range(cap + 1):
        if d.sum() <= tol:
            return ft[:k], float(np.abs(d).sum())
        if k == cap:
            return None
        j = int(np.argmax(d))
        ft[k] = (row(j) - ft[:k, j] @ ft[:k]) / np.sqrt(d[j])
        d -= ft[k] ** 2


class _Screened(_Prepared):
    """The centred inner product of ``inner``, screened through low-rank
    factors of both centred sides (Bach & Jordan 2002).

    With c HAH = F F' + E_x and c HBH = G G' + E_y (c = 1 for Gram
    matrices, -1/2 for distance matrices, whose centred form is -2 times
    the induced centred Gram), a re-pairing's statistic is
    T_pi = s <F F' + E_x, (G G' + E_y)_pipi> / n^2 with s = 1/c^2, and its
    screen value s ||F' G[pi]||_F^2 / n^2 is below it by at most
    s (e_x (lmax(G'G) + e_y) + e_y lmax(F'F)) / n^2, e = tr E, for every pi.
    The margin is twice that plus the roundoff of both computations;
    ``permuted`` recomputes exactly every value within the margin of the
    observed statistic or of its negation, so each comparison with the
    observed statistic, signed or absolute, is the one ``inner`` makes.
    The observed statistic is ``inner``'s.
    """

    def __init__(self, inner, c, x_factor, y_factor, mu):
        (ft, ex), (gt, ey) = x_factor, y_factor
        n = self.n = inner.n
        self._inner = inner
        self._observed = inner.observed
        self._ft = ft
        self._g = np.ascontiguousarray(gt.T)
        self._scale = 1.0 / c**2
        rx, ry = len(ft), len(gt)
        # indices, gathered factor rows and F' G[pi]
        self.perm_bytes = 8 * (n * (1 + ry) + rx * ry)

        s, eps = self._scale, np.finfo(float).eps
        ff, gg = ft @ ft.T, gt @ gt.T
        lam_f = np.linalg.eigvalsh(ff)[-1] if rx else 0.0
        lam_g = np.linalg.eigvalsh(gg)[-1] if ry else 0.0
        bound = s * (ex * (lam_g + ey) + ey * lam_f)
        a, b = inner._a, inner._b
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
        # the exact route pairs HAH with B, not HBH: the two differ by
        # terms in the row sums of HAH, which are zero up to roundoff
        centring = 3.0 * np.abs(a.sum(axis=1)).sum() * np.abs(mu).max()
        roundoff = eps * (n * n * norm_a * norm_b + s * (2 * n + rx * ry) * np.trace(ff) * np.trace(gg))
        self.margin = 2.0 * (bound + centring + roundoff) / n**2

    @property
    def observed(self):
        return self._observed

    def permuted(self, perms):
        (rx, n), ry, b = self._ft.shape, self._g.shape[1], len(perms)
        c = (self._ft @ self._g[perms.T].reshape(n, b * ry)).reshape(rx, b, ry)
        t = self._scale * np.einsum("abc,abc->b", c, c) / n**2
        obs = self._observed
        near = (np.abs(t - obs) <= self.margin) | (np.abs(t + obs) <= self.margin)
        if near.any():
            t[near] = self._inner.permuted(perms[near])
        return t


def _screened(inner, c):
    """``inner`` screened through factors of both centred sides scaled by
    ``c``, or ``inner`` itself when either side's rank passes sqrt(8 n)."""
    a, b, n = inner._a, inner._b, inner.n
    # A re-pairing costs the screen about n r_x r_y multiply-adds and the
    # gather n^2 scattered reads.  At n = 2000 (ranks 105 and 109) they took
    # 1.0-1.8 ms against 23-31 ms on a 2-core host, an even point near
    # r_x r_y = 90 n; the cap keeps r_x r_y <= 8 n, well inside it.
    cap = isqrt(8 * n)
    x_factor = _pivoted_cholesky(lambda j: c * a[j], c * np.diagonal(a), cap)
    if x_factor is None:
        return inner
    # row j of HBH, centred on the fly: B is symmetric, mu its row means
    mu = b.mean(axis=1)
    m = mu.mean()
    y_factor = _pivoted_cholesky(
        lambda j: c * (b[j] - mu - (mu[j] - m)), c * (np.diagonal(b) - 2.0 * mu + m), cap
    )
    if y_factor is None:
        return inner
    return _Screened(inner, c, x_factor, y_factor, mu)


def _on_explicit(obj):
    """Whether a kernel or semimetric is built on an explicit matrix."""
    return isinstance(obj, ExplicitSemimetric) or (hasattr(obj, "base") and _on_explicit(obj.base))


def _check_nxn_memory(n):
    """Refuse an n x n route whose arrays would not fit in physical memory."""
    need = _NXN_ARRAYS * 8 * n * n
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InputError(
            f"n = {n} needs about {need / 2**30:.1f} GiB for n x n matrices, more than the "
            f"{have / 2**30:.1f} GiB of physical memory; a spec with a feature map "
            "(linear, euclid2) builds no n x n matrix and fits"
        )


def _prepare(
    estimator, x, y, *, metric=None, kernel=None, metric_y=None, kernel_y=None, permutations=0
) -> _Prepared:
    """Resolve the specs, build what the statistic needs for itself and
    ``permutations`` re-pairings, and return it."""
    if estimator not in ESTIMATORS:
        raise InputError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    x, y = _paired(x, y)
    on_metric = estimator in ("mcov", "dcov")
    obj, obj_y = (metric, metric_y) if on_metric else (kernel, kernel_y)
    if obj is None:
        raise InputError(f"{estimator} needs a {'semimetric' if on_metric else 'kernel'}")
    trace = estimator in ("mcov", "mcov_trace")
    if trace:
        # both sides live in the one space of the semimetric or kernel
        if _dim(x) != _dim(y):
            raise InputError(f"dimension mismatch between points: {_dim(x)} vs {_dim(y)}")
        obj = obj_y = resolve_bandwidth(obj, x, y)
    else:
        obj, obj_y = _resolve_sides(obj, obj_y, x, y)

    phi, phi_y = feature_map(obj), feature_map(obj_y)
    if phi is not None and phi_y is not None:
        fx, fy = phi(x), phi_y(y)
        n, p, q = fx.shape[0], fx.shape[1], fy.shape[1]
        # Per re-pairing, tr C_pi gathers n p features where the paired
        # trace of the n x n matrix Xc Yc' (built once, n^2 p) gathers n
        # entries; ||C_pi||^2 costs n p q against about 2 n^2 for the n x n
        # gather.  Many wide re-pairings take the n x n route.  At the trace
        # threshold the two routes timed within about 1.3x of each other;
        # the norm's is cautious (3x faster here at p q = n).
        if trace and permutations * p > 8 * n:
            _check_nxn_memory(n)
            return _PairedTrace((fx - fx.mean(axis=0)) @ (fy - fy.mean(axis=0)).T, 1.0)
        if trace or p * q <= n:
            return _CrossCov(fx, fy, trace, 4.0 if estimator == "dcov" else 1.0)
    n = len(x)
    _check_nxn_memory(n)
    if trace:
        return _PairedTrace(obj.pairwise(x, y), -0.5 if on_metric else 1.0)
    matrix = distance_matrix if on_metric else gram_matrix
    inner = _CenteredInner(double_center(matrix(obj, x)), matrix(obj_y, y))
    # an explicit matrix is of negative type only up to the validation
    # tolerance, so its centred Gram need not be PSD, as the screen's bound
    # requires
    if permutations and n >= _SCREEN_MIN_N and not (_on_explicit(obj) or _on_explicit(obj_y)):
        return _screened(inner, -0.5 if on_metric else 1.0)
    return inner


def mcov_plugin(x, y, metric) -> float:
    """Metric covariance of a paired sample, distance form.

    Both sides must live in the same space as the semimetric.  Returns

        0.5 * ( mean_{i,j} d2(x_i, y_j) - mean_i d2(x_i, y_i) )

    which is the plug-in of (1/4) E E' { d2(X,Y') + d2(X',Y) - 2 d2(X,Y) }.
    The value is signed: coupled pairs closer than re-paired ones give a
    positive value, farther gives negative.
    """
    return _prepare("mcov", x, y, metric=metric).observed


def mcov_trace(x, y, kernel) -> float:
    """Metric covariance in its kernel (feature-space trace) form:

        mean_i k(x_i, y_i) - mean_{i,j} k(x_i, y_j)

    Equals :func:`mcov_plugin` with the kernel's induced semimetric, for any
    anchor, since the expression depends on k only through the semimetric.
    """
    return _prepare("mcov_trace", x, y, kernel=kernel).observed


def hsic_vstat(x, y, kernel, kernel_y=None) -> float:
    """Hilbert-Schmidt independence criterion, biased V-statistic:

        (1/n^2) Tr(K H L H),   H = I - (1/n) ones

    Nonnegative up to roundoff.
    """
    return _prepare("hsic", x, y, kernel=kernel, kernel_y=kernel_y).observed


def dcov_vstat(x, y, metric, metric_y=None) -> float:
    """Distance covariance, biased V-statistic of the three-term form:

        mean_{ij}[A_ij B_ij] + mean(A) mean(B) - 2 mean_i[rowmean(A)_i rowmean(B)_i]

    with A, B the semimetric matrices of the two sides.  This equals
    (1/n^2) Tr(A H B H), the HSIC form, which is why dCov = 4 HSIC under
    the induced kernels (whose centred Grams are -HAH/2 and -HBH/2).
    """
    return _prepare("dcov", x, y, metric=metric, metric_y=metric_y).observed


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


def _check_seed(seed):
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise InputError(f"seed must be in [0, 2^63), got {seed}")
    return seed


def _permutation_batches(seed, n, B, batch, first=None):
    """Permutations 1..B of master ``seed`` in blocks of ``batch`` rows.

    Permutation b is ``Generator(Philox(key=[seed, b])).permutation(n)``, a
    counter-based substream.  One bit generator serves all of them: before
    each draw its key is set to [seed, b] with the counter at zero and the
    buffer empty.

    With ``first``, the blocks come in pieces of ``first`` rows, then twice
    that, and so on; a piece takes the rest of its block once that rest is
    less than twice the piece size, so no piece is smaller than ``first``
    unless its block is.  The pieces never straddle a block, and all but a
    block's last hold a multiple of ``first`` rows, so a BLAS product that
    takes rows in small groups groups them as over the whole block.
    """
    bitgen = np.random.Philox(key=[seed, 0])
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    size, start = first or batch, 1
    while start <= B:
        edge = min(start + batch - (start - 1) % batch, B + 1)
        stop = edge if edge - start < 2 * size else start + size
        block = np.empty((stop - start, n), dtype=np.intp)
        for row in range(block.shape[0]):
            key[1] = start + row
            bitgen.state = fresh
            block[row] = gen.permutation(n)
        yield block
        start, size = stop, 2 * size


def _exceedances(x, y, estimator, *, B, seed, alternative=None, alpha=None, **specs):
    """The observed statistic and how many of the B permuted ones reach it.

    Checks B, the seed and the alternative, and returns them with the
    statistic and the count as ``(observed, count, B, seed, alternative)``.
    Without ``alpha`` every permutation runs, in blocks of ``_BATCH_BYTES``.
    With it, the blocks come in pieces of 16, 32, ... permutations, and the
    loop stops after the first piece whose count already gives
    (1 + count) / (B + 1) > alpha, the negation of ``p_value <= alpha``:
    the count only grows, so the full count makes the same decision.
    """
    B = int(B)
    if B < 1:
        raise InputError(f"number of permutations must be >= 1, got {B}")
    seed = _check_seed(seed)
    if alternative is None:
        alternative = "two_sided" if estimator in ("mcov", "mcov_trace") else "greater"
    if alternative not in ("two_sided", "greater"):
        raise InputError(f"unknown alternative {alternative!r}")

    prepared = _prepare(estimator, x, y, permutations=B, **specs)
    observed = prepared.observed
    batch = max(1, _BATCH_BYTES // prepared.perm_bytes)
    count = 0
    for perms in _permutation_batches(seed, prepared.n, B, batch, None if alpha is None else 16):
        t = prepared.permuted(perms)
        if alternative == "two_sided":
            count += int(np.count_nonzero(np.abs(t) >= abs(observed)))
        else:
            count += int(np.count_nonzero(t >= observed))
        if alpha is not None and (1.0 + count) / (B + 1.0) > alpha:
            break
    return observed, count, B, seed, alternative


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
    (hsic, dcov) to ``greater``.  Kernel and distance matrices or features
    are computed once (unresolved bandwidths frozen via the median heuristic
    before testing) and permuted by index, and permutation b draws from a
    counter-based substream of ``seed``, so the result is deterministic for
    fixed inputs no matter the execution order.  All B permutations run.
    A screened hsic or dcov test (see the module docstring) makes every
    comparison with the observed statistic as the n x n route does.
    """
    observed, count, B, seed, alternative = _exceedances(
        x, y, estimator, metric=metric, kernel=kernel, metric_y=metric_y, kernel_y=kernel_y,
        B=B, seed=seed, alternative=alternative,
    )
    return TestResult(
        statistic=observed,
        p_value=(1.0 + count) / (B + 1.0),
        permutations=B,
        seed=seed,
        estimator=estimator,
        alternative=alternative,
    )
