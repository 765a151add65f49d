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
  matrices) and dcov (distance matrices).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .kernels import (
    EuclideanSquared,
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
    statistics; ``perm_bytes`` is the memory one permutation of a batch
    takes.  ``observed`` goes through the same arithmetic with the identity.
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
            return yp.reshape(len(perms), -1) @ self._xc.ravel() / self.n
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
            return _PairedTrace((fx - fx.mean(axis=0)) @ (fy - fy.mean(axis=0)).T, 1.0)
        if trace or p * q <= n:
            return _CrossCov(fx, fy, trace, 4.0 if estimator == "dcov" else 1.0)
    if trace:
        return _PairedTrace(obj.pairwise(x, y), -0.5 if on_metric else 1.0)
    matrix = distance_matrix if on_metric else gram_matrix
    return _CenteredInner(double_center(matrix(obj, x)), matrix(obj_y, y))


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
