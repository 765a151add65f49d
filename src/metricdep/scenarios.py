"""Simulation scenarios where metric covariance and HSIC part ways, plus the
Monte Carlo power/level machinery that makes the comparison quantitative.

Two dependent constructions are provided:

* ``orthogonal_linear``: X = (Z, 0), Y = (0, Z) with Z standard normal.
  Under a linear kernel every cross inner product <x_i, y_j> is zero, so the
  kernel form of metric covariance is identically zero for every sample,
  while the cross-covariance between individual coordinates is not.

* ``coupled_mixture``: a shared Bernoulli(1/2) switch Z selects component
  means (-1,+1)/(+1,-1) for X and (-1,-1)/(+1,+1) for Y with isotropic
  noise.  The first coordinates are positively and the second negatively
  correlated, yet ||X - Y|| has exactly the same distribution as ||X - Y'||
  with re-paired Y', so any statistic that sees the pairing only through
  cross distances (metric covariance under any radial kernel) behaves as
  under independence.

``independent_normal`` is the null control for level checks.

Only :func:`norm_distribution_check` uses scipy (``scipy.stats.ks_2samp``),
and it imports it when called, so the power studies never load
``scipy.stats``.

A power study below n = 200 splits its replications into contiguous
shares, one per usable core, and runs every share but the first in a
forked process (see :func:`power_study`).  Each replication's decision is
a function of its own substream, so the report does not depend on the
split.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .estimators import _SCREEN_MIN_N, _check_integer, _check_seed, _document, _permutation_test, resolve_specs
from .kernels import InputError

MIXTURE_MEANS_X = ((-1.0, 1.0), (1.0, -1.0))
MIXTURE_MEANS_Y = ((-1.0, -1.0), (1.0, 1.0))

SCENARIOS = ("orthogonal_linear", "coupled_mixture", "independent_normal")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


def _check_n(n):
    n = _check_integer("n", n)
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    return n


def gen_orthogonal_linear(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw Z_i ~ N(0, 1) and emit x_i = (Z_i, 0), y_i = (0, Z_i)."""
    n = _check_n(n)
    z = _rng(seed).standard_normal(n)
    x = np.zeros((n, 2))
    y = np.zeros((n, 2))
    x[:, 0] = z
    y[:, 1] = z
    return x, y


def gen_coupled_mixture(
    n: int,
    sigma: float = 0.5,
    seed=0,
    means_x=MIXTURE_MEANS_X,
    means_y=MIXTURE_MEANS_Y,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the coupled two-component Gaussian mixture in R^2.

    A single Z_i ~ Bernoulli(1/2) selects the component for both sides:
    X_i ~ N(means_x[Z_i], sigma^2 I), Y_i ~ N(means_y[Z_i], sigma^2 I).
    The default means are the symmetric arrangement whose cross-distance
    distribution is invariant to re-pairing; pass different means to break
    that symmetry (see :func:`norm_distribution_check`'s negative control).
    """
    n = _check_n(n)
    if not sigma > 0:
        raise InputError(f"noise scale must be > 0, got {sigma}")
    mx = np.asarray(means_x, dtype=float)
    my = np.asarray(means_y, dtype=float)
    if mx.shape != (2, 2) or my.shape != (2, 2):
        raise InputError("means_x and means_y must each give two points in R^2")
    rng = _rng(seed)
    z = rng.integers(0, 2, size=n)
    x = mx[z] + sigma * rng.standard_normal((n, 2))
    y = my[z] + sigma * rng.standard_normal((n, 2))
    return x, y


def gen_independent_normal(n: int, seed, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Independent standard-normal X and Y: the null for level checks."""
    n = _check_n(n)
    rng = _rng(seed)
    x = rng.standard_normal((n, dim))
    y = rng.standard_normal((n, dim))
    return x, y


def generate(scenario: str, n: int, seed, sigma: float = 0.5):
    """Dispatch a scenario draw by name."""
    if scenario == "orthogonal_linear":
        return gen_orthogonal_linear(n, seed)
    if scenario == "coupled_mixture":
        return gen_coupled_mixture(n, sigma, seed)
    if scenario == "independent_normal":
        return gen_independent_normal(n, seed)
    raise InputError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")


# ---------------------------------------------------------------------------
# the distributional-equality check


@dataclass(frozen=True)
class NormCheckResult:
    ks_statistic: float
    p_value: float
    n: int
    seed: int


def norm_distribution_check(
    n: int, sigma: float = 0.5, seed=0, means_y=MIXTURE_MEANS_Y
) -> NormCheckResult:
    """Two-sample KS test of ||X - Y|| (coupled) against ||X - Y'|| (re-paired).

    Three independent mixture blocks are drawn: the first supplies coupled
    pairs, the X side of the second is matched with the Y side of the third,
    so both norm samples are i.i.d. and mutually independent.  Under the
    symmetric mixture the two distributions are equal and p-values are
    uniform; asymmetric ``means_y`` breaks the equality and the test rejects.
    The asymptotic KS p-value is used.
    """
    from scipy.stats import ks_2samp

    n = _check_n(n)
    rng = _rng(seed)
    x1, y1 = gen_coupled_mixture(n, sigma, rng, means_y=means_y)
    x2, _ = gen_coupled_mixture(n, sigma, rng, means_y=means_y)
    _, y3 = gen_coupled_mixture(n, sigma, rng, means_y=means_y)
    coupled = np.linalg.norm(x1 - y1, axis=1)
    repaired = np.linalg.norm(x2 - y3, axis=1)
    result = ks_2samp(coupled, repaired, method="asymp")
    return NormCheckResult(
        ks_statistic=float(result.statistic),
        p_value=float(result.pvalue),
        n=n,
        seed=-1 if isinstance(seed, np.random.Generator) else _check_seed(seed),
    )


# ---------------------------------------------------------------------------
# power / level studies


@dataclass(frozen=True)
class PowerReport:
    """Rejection rate of a permutation test over independent scenario draws."""

    scenario: str
    estimator: str
    kernel_or_metric: str
    n: int
    sigma: float
    alpha: float
    reps: int
    permutations: int
    seed: int
    rejection_rate: float
    monte_carlo_se: float

    to_dict = _document


def power_study(
    scenario: str,
    estimator: str,
    n: int,
    *,
    alpha: float = 0.05,
    reps: int = 200,
    B: int = 199,
    seed: int = 0,
    sigma: float = 0.5,
    kernel=None,
    metric=None,
) -> PowerReport:
    """Rejection rate of a permutation test across independent replications.

    Replication r draws fresh scenario data and a fresh test seed from the
    counter-based Philox substream keyed by (seed, r), then runs the
    permutation test at the given B; the report is the fraction of p-values
    <= alpha.  A replication draws its permutations in pieces of 16 and
    stops after the first piece that already gives p > alpha (its
    exceedance count only grows), so every decision, and the report, is
    the one all B permutations would give, at a fraction of the cost under
    the null; :func:`~metricdep.estimators.permutation_test` does not
    curtail.  ``reps``, ``B`` and ``seed`` must be Python or NumPy integers,
    not bools.  Unresolved Gaussian bandwidths are frozen per replication by
    the median heuristic on the pooled draw, before any permutation.

    The kernel or semimetric that runs is chosen by
    :func:`~metricdep.estimators.resolve_specs`, as for a single test:
    ``mcov`` with a kernel argument runs on the kernel's induced semimetric,
    which runs as ``mcov_trace`` under the kernel: the same code path, bit
    for bit.

    Below n = 200 (``estimators._SCREEN_MIN_N``) the replications are split
    into contiguous shares, one per core this process may run on (at most
    ``reps``); the first share runs here and each other in a forked child.
    Every share goes through the same per-replication function and the
    counts are added, so the report is the serial loop's, bit for bit, and
    so is an error: the earliest failing replication's.  With one core, or
    where the platform cannot fork, the loop is serial.  From n = 200 on the
    screen's matrix products run on BLAS threads, which a second process
    would contend with, so the loop is serial there too.
    """
    reps = _check_integer("reps", reps)
    if reps < 1:
        raise InputError(f"need reps >= 1, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")

    kernel, metric = resolve_specs(estimator, kernel, metric)
    seed = _check_seed(seed)

    def rejections(share):
        count = 0
        for rep in share:
            rng = np.random.Generator(np.random.Philox(key=[seed, rep]))
            x, y = generate(scenario, n, rng, sigma)
            result = _permutation_test(
                x, y, estimator, metric=metric, kernel=kernel, B=B, seed=int(rng.integers(2**63)), alpha=alpha
            )
            count += result.p_value <= alpha
        return count

    # n is checked only where a replication draws, after the scenario's
    # name, so the split reads it without refusing it
    split = isinstance(n, (int, np.integer)) and n < _SCREEN_MIN_N
    rate = _shared(rejections, reps, min(_cores(), reps) if split else 1) / reps
    return PowerReport(
        scenario=scenario,
        estimator=estimator,
        kernel_or_metric=(metric if kernel is None else kernel).spec,
        n=n,
        sigma=sigma,
        alpha=alpha,
        reps=reps,
        permutations=B,
        seed=seed,
        rejection_rate=rate,
        monte_carlo_se=float(np.sqrt(rate * (1.0 - rate) / reps)),
    )


def _cores() -> int:
    """The cores this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shared(count, reps, shares: int) -> int:
    """The sum of ``count(share)`` over ``shares`` contiguous shares of
    ``range(reps)``, raising what ``count(range(reps))`` would raise.

    The first share runs here and each other in a forked child, which
    writes its count, or the exception it raised, to a pipe.  A share whose
    child could not be started or wrote nothing runs here.  Every child is
    waited for.  Shares are taken in order, so the exception raised is the
    earliest share's, whose first failing replication is the earliest.
    """
    bounds = [reps * k // shares for k in range(shares + 1)]
    parts = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    children = []
    try:
        for part in parts[1:]:
            children.append(_forked(count, part))
        total = count(parts[0])
    finally:
        results = [_collected(child) for child in children]
    for part, result in zip(parts[1:], results):
        if isinstance(result, BaseException):
            raise result
        total += count(part) if result is None else result
    return total


def _forked(count, part):
    """A child's pid and the read end of the pipe it writes
    ``count(part)`` to, or None where no child could be started."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                result = count(part)
            except BaseException as error:  # raised again by the parent
                result = error
            data = pickle.dumps(result)
            # an exception that cannot be read back is left to the parent's rerun
            pickle.loads(data)
            with os.fdopen(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _collected(child):
    """What a child of :func:`_forked` wrote, once it has exited: its count,
    its exception, or None if it wrote nothing whole."""
    if child is None:
        return None
    pid, read = child
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    return pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else None
