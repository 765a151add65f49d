"""Output checks for every op.  A failed check counts the op as failed.

Statistics are compared with references computed here, without calling the
estimator under test.  Under ``euclid2``, the linear kernel and the kernel
induced by ``euclid2`` all three measures are functions of the p x q
cross-covariance C = Xc' Yc / n:

    mcov = tr C,    HSIC_lin = ||C||_F^2,    dCov_euclid2 = 4 ||C||_F^2.

For the Gaussian kernel the reference builds the Gram matrices explicitly at
the package's median-heuristic bandwidth and double-centres them.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.spatial.distance import cdist

REL_TOL = 1e-10

# Width of the level band in standard errors.  Under the null the rejection
# count of an exact-level test is Binomial(reps, alpha); at 100 reps a 3 SE
# band fails a correct program with probability 0.0043 per estimator (seen at
# seed 209: dcov rejected 12 of 100), so one run in 60 of power_level would
# fail.  At 5 SE the chance is 3.7e-5 per estimator.
LEVEL_SES = 5.0

_FEATURE_SPECS = ("euclid2", "linear", "induced_kernel:base=euclid2")


def cross_covariance(x, y):
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    return xc.T @ yc / x.shape[0]


def _gaussian_gram(a, b, sigma):
    return np.exp(cdist(a, b, "sqeuclidean") / (-2.0 * sigma**2))


def _double_centred(k):
    return k - k.mean(axis=0, keepdims=True) - k.mean(axis=1, keepdims=True) + k.mean()


def reference_statistic(estimator, spec, x, y, median_heuristic):
    """The statistic the op must print, from the formulas above."""
    if spec in _FEATURE_SPECS:
        c = cross_covariance(x, y)
        if estimator in ("mcov", "mcov-trace"):
            return float(np.trace(c))
        if estimator == "hsic":
            return float((c**2).sum())
        if estimator == "dcov":
            return float(4.0 * (c**2).sum())
    if spec == "gaussian":
        sigma = median_heuristic(x, y)
        if estimator == "mcov-trace":
            k = _gaussian_gram(x, y, sigma)
            return float(np.diagonal(k).mean() - k.mean())
        if estimator == "hsic":
            kc = _double_centred(_gaussian_gram(x, x, sigma))
            lc = _double_centred(_gaussian_gram(y, y, sigma))
            return float((kc * lc).sum()) / x.shape[0] ** 2
    raise ValueError(f"no reference for {estimator} under {spec}")


def level_band(alpha, reps):
    """alpha +- LEVEL_SES standard errors of a rejection rate over ``reps`` replications."""
    half = LEVEL_SES * math.sqrt(alpha * (1.0 - alpha) / reps)
    return alpha - half, alpha + half


def check_output(op, exit_code, stdout, reference=None):
    """Problems with one op's result; an empty list means it passed.

    ``reference`` is the expected statistic for test and compute ops.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"stdout is not JSON: {err}"]
    problems = []
    if op.command in ("test", "compute"):
        got = doc.get("statistic")
        if not isinstance(got, float) or not abs(got - reference) <= REL_TOL * abs(reference):
            problems.append(f"statistic {got!r} differs from reference {reference!r}")
    if op.command == "test":
        p = doc.get("p_value")
        if doc.get("B") != op.B:
            problems.append(f"B {doc.get('B')!r}, expected {op.B}")
        if not isinstance(p, float) or not 1.0 / (op.B + 1) <= p <= 1.0:
            problems.append(f"p-value {p!r} outside [1/(B+1), 1]")
    if op.command == "scenario":
        rate = doc.get("rejection_rate")
        low, high = level_band(op.alpha, op.reps)
        if doc.get("reps") != op.reps:
            problems.append(f"reps {doc.get('reps')!r}, expected {op.reps}")
        if not isinstance(rate, float) or not low <= rate <= high:
            problems.append(f"rejection rate {rate!r} outside alpha +- {LEVEL_SES:g} SE [{low:.4f}, {high:.4f}]")
    return problems


def check_repeats(outputs):
    """Ops repeated with identical arguments must print identical bytes.

    ``outputs`` is a list of (argv tuple, stdout); returns the indices of
    outputs that differ from the first output of the same argv.
    """
    first = {}
    bad = []
    for i, (argv, stdout) in enumerate(outputs):
        if first.setdefault(argv, stdout) != stdout:
            bad.append(i)
    return bad
