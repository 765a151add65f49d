"""Exact population values of the dependence measures on finite-support
joint distributions, and their Mercer-basis decompositions.

A joint law with m x m' support points admits closed finite-sum evaluation
of every expectation in the dependence measures, so this module is the
ground truth against which the sample estimators are checked.  Each measure
is a form in the centred joint W = P - px py' (the population counterpart
of H/n): metric covariance is the paired trace c <W, K> of the cross matrix
K_ab = k(x_a, y_b), and HSIC and distance covariance are the centred inner
product s c_a c_b <W' A W, B> of the two sides' Gram or distance matrices,
with s = 4 for dcov.  Each exact measure takes a kernel or a semimetric,
read as the sample estimators read it (see :mod:`metricdep.estimators`): an
induced kernel runs as its semimetric, mcov under an induced semimetric as
its kernel, c is 1 for a kernel and -1/2 for a semimetric, and the value
is finished alike, a zero as +0.0.  So metric covariance is -<W, D>/2 under
a semimetric, dcov = 4 hsic under induced kernels bit for bit, and hsic is
not clipped at zero, as the estimator's is not.  The products and sums do
not follow the BLAS thread count; the Mercer eigensystems, from LAPACK,
may.

The Mercer decompositions make the structural difference between the two
measures computable.  With C = cov[e_i(X), e_j(Y)] over one eigenbasis,
metric covariance is the single sum

    sum_j  lambda_j C_jj

(signed terms, cancellation possible), while HSIC is the double sum

    sum_{i,j}  lambda_i lambda_j C_ij^2

over all basis pairs (nonnegative terms, no cancellation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .estimators import _c, _finished, _matrix, _read_specs
from .kernels import InputError, as_points, gram_matrix, induced_kernel
from .scenarios import _rng

_EIG_CUTOFF = 1e-12  # relative to the largest eigenvalue


def _as_floats(value, name):
    """``value`` as a finite float array, anything else an InputError."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a rectangular array of numbers") from None
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} must be finite")
    return a


def _as_support(points, name):
    a = _as_floats(points, name)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] == 0:
        raise InputError(f"{name} must be a nonempty (m, p) array, got shape {a.shape}")
    return a


def _has_duplicate_rows(a):
    if a.shape[0] < 2:
        return False
    order = np.lexsort(a.T)
    return bool(np.any(np.all(a[order][1:] == a[order][:-1], axis=1)))


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """A finite-support joint law: support points for each side and an
    (m, m') matrix of joint probabilities summing to one.

    Support points must be distinct within each side; merging duplicates is
    the caller's job, since silently summing their probabilities would change
    the meaning of ``probs``.
    """

    support_x: np.ndarray
    support_y: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        sx = _as_support(self.support_x, "support_x")
        sy = _as_support(self.support_y, "support_y")
        p = _as_floats(self.probs, "P")
        if p.shape != (sx.shape[0], sy.shape[0]):
            raise InputError(
                f"probability matrix shape {p.shape} does not match supports "
                f"({sx.shape[0]}, {sy.shape[0]})"
            )
        if p.min() < 0:
            raise InputError(f"probabilities must be nonnegative, min is {p.min()}")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"probabilities must sum to 1, got {total!r}")
        if _has_duplicate_rows(sx):
            raise InputError("support_x contains duplicate points")
        if _has_duplicate_rows(sy):
            raise InputError("support_y contains duplicate points")
        object.__setattr__(self, "support_x", sx)
        object.__setattr__(self, "support_y", sy)
        object.__setattr__(self, "probs", p)

    @property
    def px(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    @property
    def py(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def sample(self, n, seed):
        """Draw n i.i.d. pairs; returns (x, y) arrays of shape (n, p), (n, q).

        ``seed`` is a Generator, or an integer seed of the Philox stream
        ``Generator(Philox(key=seed))`` that the scenarios draw from.
        """
        rng = _rng(seed)
        flat = self.probs.reshape(-1)
        idx = rng.choice(flat.size, size=n, p=flat / flat.sum())
        a, b = np.unravel_index(idx, self.probs.shape)
        return self.support_x[a], self.support_y[b]

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise InputError("joint document must be a JSON object")
        try:
            return cls(doc["support_x"], doc["support_y"], doc["P"])
        except KeyError as missing:
            raise InputError(f"joint document is missing key {missing}") from None

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise InputError(f"invalid JSON for joint distribution: {err}") from None
        return cls.from_dict(doc)

    def to_dict(self):
        return {
            "support_x": self.support_x.tolist(),
            "support_y": self.support_y.tolist(),
            "P": self.probs.tolist(),
        }


def product_joint(support_x, px, support_y, py) -> DiscreteJoint:
    """The independent coupling of two marginals."""
    px, py = np.asarray(px, float), np.asarray(py, float)
    return DiscreteJoint(support_x, support_y, np.outer(px / px.sum(), py / py.sum()))


# ---------------------------------------------------------------------------
# exact measures


def _weights(joint: DiscreteJoint) -> np.ndarray:
    """The centred joint W = P - px py'; its rows and columns sum to zero."""
    return joint.probs - np.outer(joint.px, joint.py)


def _exact(estimator, joint: DiscreteJoint, **specs) -> float:
    """The exact value of ``estimator`` on ``joint``, its specs read as the
    sample estimators read them (:func:`metricdep.estimators._read_specs`)
    and the value finished as theirs is: c <W, K> of the reduced spec's
    cross matrix K_ab = k(x_a, y_b) for mcov and mcov_trace, and
    s c_a c_b <W' A W, B> of the sides' Gram or distance matrices for hsic
    and dcov.  W' A W is formed by einsums and each inner product by a
    numpy sum, not by BLAS, whose bits follow the thread count."""
    sx, sy = joint.support_x, joint.support_y
    obj, obj_y, trace, scale = _read_specs(estimator, sx, sy, False, **specs)
    w = _weights(joint)
    if trace:
        return _finished(_c(obj) * float((w * obj.pairwise(sx, sy)).sum()))
    waw = np.einsum("bc,cd->bd", np.einsum("ab,ac->bc", w, _matrix(obj, sx)), w)
    return _finished(scale * _c(obj) * _c(obj_y) * float((waw * _matrix(obj_y, sy)).sum()))


def exact_mcov(joint: DiscreteJoint, metric) -> float:
    """Exact metric covariance of a finite-support joint:

        (1/4) sum_{ab, a'b'} P_ab P_a'b' [d2(x_a, y_b') + d2(x_a', y_b) - 2 d2(x_a, y_b)]

    which is the paired trace -<W, D>/2 of the cross distance matrix
    D_ab = d2(x_a, y_b).  A kernel k is read, as :func:`~metricdep.mcov_plugin`
    reads it, through its induced semimetric, which, given or read, runs as
    k: both give <W, K> of the cross Gram matrix K_ab = k(x_a, y_b), bit
    for bit.
    """
    return _exact("mcov", joint, metric=metric)


def exact_dcov(joint: DiscreteJoint, metric_x, metric_y=None) -> float:
    """Exact distance covariance, the centred inner product <W' Dx W, Dy>
    of the two sides' distance matrices; expanding W gives the three-term
    form E E'[dx dy] + E[dx] E[dy] - 2 E[E'dx E''dy].  ``metric_y``
    defaults to ``metric_x``.  A kernel is read through its induced
    semimetric, so dcov under kernels is 4 :func:`exact_hsic` under them,
    bit for bit."""
    return _exact("dcov", joint, metric=metric_x, metric_y=metric_y)


def exact_hsic(joint: DiscreteJoint, kernel, kernel_y=None) -> float:
    """Exact HSIC, the squared Hilbert-Schmidt norm of the population
    cross-covariance operator: <W' K W, L> for the two sides' Gram
    matrices, not clipped at zero (as :func:`~metricdep.hsic_vstat` is
    not), so roundoff may leave it just below.  ``kernel_y`` defaults to
    ``kernel``.

    A semimetric d is read through its induced kernels, whose centred Gram
    is -HDH/2, and a kernel induced from d runs as d at any anchor, since
    the anchor terms vanish against W's zero row and column sums.  Either
    way the value is ``exact_dcov`` under d over 4, bit for bit.
    """
    return _exact("hsic", joint, kernel=kernel, kernel_y=kernel_y)


# ---------------------------------------------------------------------------
# Mercer machinery


@dataclass(frozen=True, eq=False)
class MercerSystem:
    """Eigensystem of a kernel on a finite support w.r.t. a reference
    probability measure mu: eigenvalues (descending), eigenfunction values
    ``functions[i, j] = e_j(support[i])``, orthonormal in L2(mu), with
    sum_j lambda_j e_j(u) e_j(v) reconstructing k(u, v) on the support.
    """

    eigenvalues: np.ndarray
    functions: np.ndarray
    mu: np.ndarray
    support: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """sum_j lambda_j e_j(u) e_j(v), the kernel matrix the system encodes."""
        return (self.functions * self.eigenvalues) @ self.functions.T


def mercer_basis(kernel, support, mu) -> MercerSystem:
    """Solve the weighted kernel eigenproblem on a finite support.

    With M = diag(mu) and K the Gram matrix, the symmetric eigenproblem
    M^(1/2) K M^(1/2) = U Lam U' gives eigenfunctions e_j = M^(-1/2) u_j that
    are orthonormal in L2(mu).  Eigenvalues below 1e-12 of the largest are
    dropped (they carry only roundoff noise amplified by M^(-1/2)).
    """
    support = _as_support(support, "support")
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (support.shape[0],):
        raise InputError(f"mu must have one weight per support point, got shape {mu.shape}")
    if mu.min() <= 0:
        raise InputError(
            "reference weights must be strictly positive; drop zero-weight points first"
        )
    if abs(mu.sum() - 1.0) > 1e-10:
        raise InputError(f"reference weights must sum to 1, got {mu.sum()!r}")
    if _has_duplicate_rows(support):
        raise InputError("support contains duplicate points")

    k = gram_matrix(kernel, support)
    root = np.sqrt(mu)
    a = k * np.outer(root, root)
    a = 0.5 * (a + a.T)
    eigvals, vecs = np.linalg.eigh(a)
    order = np.argsort(eigvals)[::-1]
    eigvals, vecs = eigvals[order], vecs[:, order]
    keep = eigvals > _EIG_CUTOFF * max(eigvals[0], 0.0)
    functions = vecs[:, keep] / root[:, None]
    return MercerSystem(eigenvalues=eigvals[keep], functions=functions, mu=mu, support=support)


def _union_support(joint: DiscreteJoint):
    """Union of the two supports (same space), with index maps back into it
    and the symmetric reference measure mu = (px + py)/2 lifted onto it."""
    sx, sy = joint.support_x, joint.support_y
    if sx.shape[1] != sy.shape[1]:
        raise InputError(
            "supports live in different dimensions "
            f"({sx.shape[1]} vs {sy.shape[1]}); a common space is required"
        )
    points = list(sx)
    ix = np.arange(sx.shape[0])
    iy = np.empty(sy.shape[0], dtype=int)
    for b, point in enumerate(sy):
        match = np.nonzero(np.all(sx == point, axis=1))[0]
        if match.size:
            iy[b] = match[0]
        else:
            iy[b] = len(points)
            points.append(point)
    union = np.vstack(points)
    mu = np.zeros(union.shape[0])
    np.add.at(mu, ix, 0.5 * joint.px)
    np.add.at(mu, iy, 0.5 * joint.py)
    return union, ix, iy, mu


@dataclass(frozen=True, eq=False)
class MercerDecomposition:
    """A measure split along a Mercer basis: ``total`` is the sum of
    ``terms``, built from the basis cross-covariances ``covariances``.

    For metric covariance (``McovDecomposition``) the covariances are
    cov[e_j(X), e_j(Y)] and the terms lambda_j cov[e_j(X), e_j(Y)] are
    signed and may cancel; for HSIC (``HsicDecomposition``) they are the
    matrix cov[e_i(X), e_j(Y)] and the terms
    lambda_i lambda_j cov[e_i(X), e_j(Y)]^2 are all nonnegative.
    """

    total: float
    eigenvalues: np.ndarray
    covariances: np.ndarray
    terms: np.ndarray
    system: MercerSystem


McovDecomposition = HsicDecomposition = MercerDecomposition


def _basis_cross_covariance(joint, kernel):
    """The kernel's Mercer system on the union support under
    mu = (px + py)/2, and C = Ex' W Ey with Ex, Ey its eigenfunctions on
    the two supports, so that C_ij = cov[e_i(X), e_j(Y)]."""
    union, ix, iy, mu = _union_support(joint)
    if mu.min() <= 0:
        raise InputError(
            "a support point has zero marginal probability; drop it before decomposing"
        )
    # a semimetric is read through its induced kernel, as resolve_specs reads it for hsic
    system = mercer_basis(induced_kernel(kernel) if _c(kernel) < 0 else kernel, union, mu)
    e = system.functions
    return system, e[ix].T @ _weights(joint) @ e[iy]


def _decomposition(system, covariances, terms):
    return MercerDecomposition(
        total=float(terms.sum()),
        eigenvalues=system.eigenvalues,
        covariances=covariances,
        terms=terms,
        system=system,
    )


def mercer_mcov_decomposition(joint: DiscreteJoint, kernel) -> McovDecomposition:
    """Decompose metric covariance (with the kernel's induced semimetric)
    into the single sum of terms lambda_j C_jj over the diagonal of the
    basis cross-covariance C.  A semimetric is read through its induced
    kernel, so the total is :func:`exact_mcov` under it.

    The reference measure is mu = (px + py)/2 on the union support, which is
    positive wherever the law puts mass, so the decomposition total equals
    the exact metric covariance.
    """
    system, c = _basis_cross_covariance(joint, kernel)
    covs = np.diag(c).copy()
    return _decomposition(system, covs, system.eigenvalues * covs)


def mercer_hsic_decomposition(joint: DiscreteJoint, kernel) -> HsicDecomposition:
    """Decompose HSIC (same kernel on both sides) into the double sum of
    terms lambda_i lambda_j C_ij^2 over all basis pairs.  A semimetric is
    read through its induced kernel, so the total is :func:`exact_hsic`
    under it."""
    system, c = _basis_cross_covariance(joint, kernel)
    lam = system.eigenvalues
    return _decomposition(system, c, np.outer(lam, lam) * c**2)


def cancellation_joint() -> DiscreteJoint:
    """The discrete orthogonal-subspaces witness: Z uniform on {-1, +1},
    X = (Z, 0), Y = (0, Z).

    X and Y are deterministically dependent, yet every cross distance
    ||x - y|| equals sqrt(2), so metric covariance vanishes for the squared
    Euclidean semimetric and for the semimetric induced by any radial kernel,
    while HSIC with a Gaussian kernel is strictly positive.  In a Mercer
    basis of a Gaussian kernel all the dependence sits in the two-dimensional
    eigenspace E of a repeated eigenvalue lambda: the block C_E of the basis
    cross-covariance has trace 0 and Frobenius norm 2, so E adds
    lambda tr C_E = 0 to the single sum and lambda^2 ||C_E||^2 > 0 to HSIC.
    How that zero splits into terms depends on the basis the eigensolver
    picks inside E.
    """
    support_x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    support_y = np.array([[0.0, -1.0], [0.0, 1.0]])
    probs = np.array([[0.5, 0.0], [0.0, 0.5]])
    return DiscreteJoint(support_x, support_y, probs)


def empirical_joint(x, y) -> DiscreteJoint:
    """The empirical law of a paired sample, as a DiscreteJoint.

    V-statistics are plug-ins of the empirical measure, so any estimator in
    :mod:`metricdep.estimators` applied to (x, y) equals the corresponding
    exact_* value of this joint (up to floating-point regrouping).  This is
    also the memory-friendly route to V-statistics at very large n when the
    data take few distinct values.
    """
    x, y = as_points(x), as_points(y)
    if x.shape[0] != y.shape[0]:
        raise InputError("paired sample sides differ in length")
    ux, ax = np.unique(x, axis=0, return_inverse=True)
    uy, ay = np.unique(y, axis=0, return_inverse=True)
    counts = np.zeros((ux.shape[0], uy.shape[0]))
    np.add.at(counts, (ax.reshape(-1), ay.reshape(-1)), 1.0)
    return DiscreteJoint(ux, uy, counts / x.shape[0])
