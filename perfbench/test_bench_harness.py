"""Tests of the benchmark's own machinery: the output checker and the span
arithmetic.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from metricdep import estimators, kernels  # noqa: E402


def _sample(n=60):
    return workloads.paired_sample(7, 0, n)


def _doc(**fields):
    return json.dumps(fields, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "estimator,spec,compute",
    [
        ("mcov", "euclid2", lambda x, y: estimators.mcov_plugin(x, y, kernels.EuclideanSquared())),
        ("mcov-trace", "linear", lambda x, y: estimators.mcov_trace(x, y, kernels.LinearKernel())),
        ("mcov-trace", "gaussian", lambda x, y: estimators.mcov_trace(x, y, kernels.GaussianKernel())),
        ("hsic", "linear", lambda x, y: estimators.hsic_vstat(x, y, kernels.LinearKernel())),
        ("hsic", "gaussian", lambda x, y: estimators.hsic_vstat(x, y, kernels.GaussianKernel())),
        ("hsic", "induced_kernel:base=euclid2",
         lambda x, y: estimators.hsic_vstat(x, y, kernels.parse_kernel("induced_kernel:base=euclid2"))),
        ("dcov", "euclid2", lambda x, y: estimators.dcov_vstat(x, y, kernels.EuclideanSquared())),
    ],
)
def test_references_agree_with_the_package(estimator, spec, compute):
    x, y = _sample()
    ref = checks.reference_statistic(estimator, spec, x, y, kernels.median_heuristic)
    assert abs(compute(x, y) - ref) <= checks.REL_TOL * abs(ref)


def test_corrupted_statistic_fails():
    x, y = _sample()
    op = workloads.Op("compute", "dcov", ("--metric", "euclid2"), "a")
    ref = checks.reference_statistic("dcov", "euclid2", x, y, kernels.median_heuristic)
    good = _doc(statistic=ref)
    bad = _doc(statistic=ref * (1 + 1e-8))
    assert checks.check_output(op, 0, good, ref) == []
    assert checks.check_output(op, 0, bad, ref)


@pytest.mark.parametrize("p_value,ok", [(1 / 200, True), (1.0, True), (1 / 201, False), (0.0, False), (1.0000001, False)])
def test_p_value_range(p_value, ok):
    op = workloads.Op("test", "hsic", ("--kernel", "linear"), "a", B=199, seed=1)
    stdout = _doc(statistic=0.5, p_value=p_value, B=199)
    assert (checks.check_output(op, 0, stdout, 0.5) == []) is ok


def test_exit_code_and_level_band():
    op = workloads.Op("scenario", "mcov", (), B=199, seed=1, n=100, reps=100, alpha=0.05)
    _, high = checks.level_band(0.05, 100)
    assert checks.check_output(op, 0, _doc(rejection_rate=0.05, reps=100)) == []
    assert checks.check_output(op, 0, _doc(rejection_rate=high + 0.01, reps=100))
    assert checks.check_output(op, 2, "") == ["exit code 2"]


def test_repeats_must_be_byte_identical():
    outputs = [(("a",), "1\n"), (("b",), "2\n"), (("a",), "1\n"), (("a",), "1.0\n")]
    assert checks.check_repeats(outputs) == [3]


def _span(name, parent, start, end, count=0):
    return [name, parent, start, end, count]


def test_self_time_subtracts_covered_child_time():
    tree = [
        _span("cli", -1, 0, 100),
        _span("a", 0, 10, 40),
        _span("b", 1, 15, 25),
        _span("c", 0, 50, 60),
        _span("d", 0, 55, 70),  # overlaps c: the union 50..70 is covered once
    ]
    assert spans.self_times(tree) == [100 - 30 - 20, 30 - 10, 10, 10, 15]


def test_layer_metrics_are_means_per_op_and_count_outermost_spans():
    tree = [
        _span("cli", -1, 0, 1000),
        _span("kernels.matrix", 0, 100, 500, 800),
        _span("kernels.matrix", 1, 150, 450, 800),  # pairwise inside gram_matrix
        _span("kernels.negtype", 1, 460, 490),
        _span("cli", -1, 1000, 3000),
        _span("estimators.perm_test", 4, 1000, 2000, 10),
    ]
    m = spans.layer_metrics(tree)
    assert m["kernels.matrix_s"] == pytest.approx((400 - 300 - 30 + 300) * 1e-9 / 2)
    assert m["kernels.matrix_bytes"] == 400
    assert m["kernels.negtype_calls"] == 0.5
    assert m["cli.self_s"] == pytest.approx((600 + 1000) * 1e-9 / 2)
    assert m["estimators.perm_us"] == pytest.approx(1000 * 1e-9 / 10 * 1e6)
    shares = spans.shares_by_label(tree, ["x", "y"])
    assert shares["y"]["share"] == pytest.approx({"cli": 0.5, "estimators.perm_test": 0.5})


def test_tracer_patches_every_lookup_and_restores():
    x, y = _sample()
    originals = (estimators.resolve_bandwidth, kernels.resolve_bandwidth, kernels.EuclideanSquared.pairwise)
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        tracer.call("cli", estimators.permutation_test, (x, y, "dcov"), {"metric": kernels.EuclideanSquared(), "B": 5})
    finally:
        restore()
    assert (estimators.resolve_bandwidth, kernels.resolve_bandwidth, kernels.EuclideanSquared.pairwise) == originals
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[:2] == ["cli", "estimators.perm_test"]
    assert {"kernels.bandwidth", "kernels.matrix"} <= set(names)
    assert spans.layer_metrics(tracer.spans)["estimators.perms"] == 5


def test_op_times_are_scaled_by_the_bracketing_reference_readings():
    nominal = speed.NOMINAL_S
    records = [{"t_s": 1.0}, {"t_s": 3.0}]
    refs = [nominal, 3 * nominal, 2 * nominal]
    assert run.scaled_times(records, refs) == pytest.approx([1.0 / 2, 3.0 / 2.5])
    m = run._op_metrics({"a": [1.0, 2.0, 4.0], "b": [4.0]})
    assert m["ops_per_s"] == pytest.approx(4 / 11)
    assert m["op_p50_s"] == pytest.approx((2.0 * 4.0) ** 0.5)


def test_reference_reading_takes_time():
    assert 0 < speed.reference_s() < 10


def test_plans_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.plan(name, 3), workloads.plan(name, 3)
        assert a.cycles == b.cycles
        assert all(np.array_equal(a.inputs[k][0], b.inputs[k][0]) for k in a.inputs)
    assert workloads.plan("test_n2000", 3).cycles != workloads.plan("test_n2000", 4).cycles


def test_benchmark_json_lists_metrics_the_run_computes():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        listed = json.load(handle)
    assert {m["name"]: m["unit"] for m in listed["end_to_end"]}.items() <= run.END_TO_END_UNITS.items()
    assert {m["name"]: m["unit"] for m in listed["per_layer"]}.items() <= run.PER_LAYER_UNITS.items()
    assert {w["name"] for w in listed["workloads"]} <= set(workloads.WORKLOADS)
