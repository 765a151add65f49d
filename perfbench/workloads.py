"""The four benchmark workloads: inputs generated from a seed, and the CLI
invocations (ops) the closed loop runs on them.

An op is one ``metricdep`` command line.  A workload is a list of cycles of
ops; the closed loop runs whole cycles, in order and round-robin, and before
timing starts it runs one warm-up op (the first op of the first cycle with its
permutation count cut to 1).  The program sees only the CSV files written here
and the flags below; the seed never reaches it except through them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

WORKLOADS = ("test_n2000", "test_n200", "power_level", "compute_n3000")

# Correlation between each x coordinate and the matching y coordinate.  The
# samples are clearly dependent, so no statistic sits near zero, where a
# relative tolerance would be meaningless.
RHO = 0.5
DIM = 2

LEVEL_ALPHA = 0.05


@dataclass(frozen=True)
class Op:
    """One CLI invocation, described by the fields the output check needs."""

    command: str  # "test" | "compute" | "scenario"
    estimator: str  # CLI estimator name
    spec: tuple = ()  # ("--kernel", SPEC) or ("--metric", SPEC); () for defaults
    input: str | None = None  # CSV name for test/compute
    B: int | None = None
    seed: int | None = None
    n: int | None = None  # scenario sample size
    reps: int | None = None
    alpha: float | None = None

    @property
    def label(self):
        spec = self.spec[1] if self.spec else "default"
        return f"{self.command} {self.estimator} {spec}"

    def argv(self, workdir):
        args = [self.command]
        if self.command == "scenario":
            args += ["--scenario", "independent_normal", "--study", "power",
                     "--n", str(self.n), "--reps", str(self.reps), "--alpha", repr(self.alpha)]
        else:
            args += ["--input", os.path.join(workdir, self.input + ".csv")]
        args += ["--estimator", self.estimator, *self.spec]
        if self.B is not None:
            args += ["--B", str(self.B)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args


@dataclass(frozen=True)
class Plan:
    inputs: dict  # CSV name -> (x, y)
    cycles: tuple  # tuple of tuples of Op
    scaled: bool = True  # report op times at the reference speed of speed.py

    @property
    def warmup(self):
        first = self.cycles[0][0]
        return first if first.B is None else replace(first, B=1)


def paired_sample(seed, stream, n):
    """Dependent Gaussian pairs: y = RHO x + sqrt(1 - RHO^2) e, per coordinate."""
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    x = rng.standard_normal((n, DIM))
    y = RHO * x + np.sqrt(1.0 - RHO**2) * rng.standard_normal((n, DIM))
    return x, y


def _op_seed(seed, stream):
    """Seed flag for an op, drawn from the workload seed."""
    return int(np.random.Generator(np.random.Philox(key=[seed, 1000 + stream])).integers(2**31))


_TEST_N200_OPS = (
    ("mcov", ("--metric", "euclid2")),
    ("mcov-trace", ("--kernel", "gaussian")),
    ("hsic", ("--kernel", "gaussian")),
    ("dcov", ("--metric", "euclid2")),
    ("hsic", ("--kernel", "induced_kernel:base=euclid2")),
)

_COMPUTE_OPS = (
    ("mcov", ("--metric", "euclid2")),
    ("dcov", ("--metric", "euclid2")),
    ("hsic", ("--kernel", "linear")),
    ("hsic", ("--kernel", "gaussian")),
    ("hsic", ("--kernel", "induced_kernel:base=euclid2")),
    ("mcov-trace", ("--kernel", "linear")),
)


def plan(workload, seed):
    """Inputs and op cycles of a workload, a pure function of the seed."""
    if workload == "test_n2000":
        s = _op_seed(seed, 0)
        ops = (
            Op("test", "hsic", ("--kernel", "gaussian"), "a", B=199, seed=s),
            Op("test", "dcov", ("--metric", "euclid2"), "a", B=199, seed=s),
        )
        return Plan({"a": paired_sample(seed, 0, 2000)}, (ops,), scaled=False)
    if workload == "test_n200":
        names = ("a", "b", "c", "d")
        inputs = {name: paired_sample(seed, i, 200) for i, name in enumerate(names)}
        cycles = tuple(
            tuple(Op("test", est, spec, name, B=999, seed=_op_seed(seed, i)) for est, spec in _TEST_N200_OPS)
            for i, name in enumerate(names)
        )
        return Plan(inputs, cycles)
    if workload == "power_level":
        s = _op_seed(seed, 0)
        ops = tuple(
            Op("scenario", est, (), B=199, seed=s, n=100, reps=100, alpha=LEVEL_ALPHA)
            for est in ("mcov", "mcov-trace", "hsic", "dcov")
        )
        return Plan({}, (ops,))
    if workload == "compute_n3000":
        ops = tuple(Op("compute", est, spec, "a") for est, spec in _COMPUTE_OPS)
        return Plan({"a": paired_sample(seed, 0, 3000)}, (ops,), scaled=False)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_inputs(plan_, workdir):
    """Write each input as a paired-sample CSV at full round-trip precision."""
    os.makedirs(workdir, exist_ok=True)
    for name, (x, y) in plan_.inputs.items():
        header = ",".join([f"x_{i + 1}" for i in range(x.shape[1])] + [f"y_{i + 1}" for i in range(y.shape[1])])
        rows = "".join(",".join(map(repr, row)) + "\n" for row in np.hstack([x, y]).tolist())
        with open(os.path.join(workdir, name + ".csv"), "w") as handle:
            handle.write(header + "\n" + rows)
