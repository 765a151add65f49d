"""metricdep benchmark: runs one workload (or all of them), checks every output,
prints every metric by name and unit, and writes a result file.

Run from the repository root:

    python3 perfbench/run.py --workload test_n2000 --seed 1 --seconds 50 --trace 0

The workload runs in a child process (perfbench/worker.py) with one
closed-loop caller; two more children repeat only its set-up, so ``setup_s``
is a median of three fresh-process set-ups.  Set-up times, and the op times
of a workload whose plan is scaled, are reported at the reference speed of
speed.py; the summary also prints the wall-clock figures.  This process then
checks each op's output against references of its own (checks.py) and
prints a summary followed, as the last line, by one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with provenance, goes to perfbench/out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("perfbench", "out")
SRC = os.path.abspath("src")

# One closed-loop caller issues every op.
LOAD_THREADS = 1
SETUP_SAMPLES = 3
# Only a run holding this many ops reports op_p90_s, so that ten lie beyond it.
P90_MIN_OPS = 100
# Every run ends within this many seconds or fails.
DEADLINE_S = 165.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "io.parse_s": "s",
    "io.parse_rows": "count",
    "io.render_s": "s",
    "kernels.bandwidth_s": "s",
    "kernels.bandwidth_calls": "count",
    "kernels.matrix_s": "s",
    "kernels.matrix_bytes": "bytes",
    "kernels.negtype_s": "s",
    "kernels.negtype_calls": "count",
    "estimators.center_s": "s",
    "estimators.stat_s": "s",
    "estimators.perm_loop_s": "s",
    "estimators.perms": "count",
    "estimators.perm_us": "us",
    "scenarios.generate_s": "s",
    "scenarios.reps": "count",
    "scenarios.loop_self_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc():
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked through its own API."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def provenance():
    import numpy
    import scipy

    commit = None
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "nproc": nproc(),
        "load_threads": LOAD_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _worker(workload, seed, seconds, trace, workdir, deadline, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} ran past the {DEADLINE_S:.0f} s deadline") from None
    if done.returncode != 0:
        raise BenchError(f"worker for {workload} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    with open(os.path.join(workdir, "worker.json")) as handle:
        return json.load(handle)


def check_ops(plan, ops, median_heuristic):
    """Run every output check; return the list of failures, one dict per failed op."""
    import checks

    references = {}
    failures = []
    for i, (op, record) in enumerate(ops):
        reference = None
        if op.command != "scenario":
            key = (op.estimator, op.spec, op.input)
            if key not in references:
                x, y = plan.inputs[op.input]
                references[key] = checks.reference_statistic(op.estimator, op.spec[1], x, y, median_heuristic)
            reference = references[key]
        problems = checks.check_output(op, record["exit"], record["stdout"], reference)
        if record["error"]:
            problems.append(record["error"])
        elif record["exit"] != 0 and record["stderr"]:
            problems.append(record["stderr"].strip())
        if problems:
            failures.append({"index": i, "op": op.label, "problems": problems})
    failed = {f["index"] for f in failures}
    for i in checks.check_repeats([(tuple(op.argv("")), record["stdout"]) for op, record in ops]):
        if i not in failed:
            failures.append({"index": i, "op": ops[i][0].label, "problems": ["stdout differs from an identical op"]})
    return failures


def _op_metrics(times_by_label):
    """ops_per_s over the summed op times; op_p50_s is the geometric mean over
    op kinds of each kind's median, so that it neither jumps between kinds nor
    ignores the short ones."""
    times = [t for ts in times_by_label.values() for t in ts]
    medians = [statistics.median(ts) for ts in times_by_label.values()]
    metrics = {"ops_per_s": len(times) / sum(times), "op_p50_s": statistics.geometric_mean(medians)}
    if len(times) >= P90_MIN_OPS:
        metrics["op_p90_s"] = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return metrics


def scaled_times(records, refs):
    """Each op's wall time at the reference speed: divided by the mean of the
    two reference readings that bracket it, times ``speed.NOMINAL_S``."""
    return [r["t_s"] * speed.NOMINAL_S / ((before + after) / 2) for r, before, after in zip(records, refs, refs[1:])]


def _op_times(plan, records, refs):
    return scaled_times(records, refs) if plan.scaled else [r["t_s"] for r in records]


def _setup_scaled(doc):
    return doc["setup_s"] * speed.NOMINAL_S / statistics.median(doc["setup_refs_s"])


def run_workload(workload, seed, seconds, trace, deadline):
    import spans
    import workloads
    from metricdep.kernels import median_heuristic

    plan = workloads.plan(workload, seed)
    base = os.path.join(OUT, f"work-{workload}-s{seed}-{os.getpid()}")
    try:
        main = _worker(workload, seed, seconds, trace, base, deadline)
        setups = [main] + [
            _worker(workload, seed, seconds, 0, f"{base}-probe{k}", deadline, setup_only=True)
            for k in range(1, SETUP_SAMPLES)
        ]
    finally:
        for path in glob.glob(base + "*"):
            shutil.rmtree(path, ignore_errors=True)

    def op_of(record):
        c, j = record["op"]
        return plan.cycles[c][j]

    ops = [(plan.warmup, main["warmup"])] + [(op_of(r), r) for r in main["timed"] + main.get("traced", [])]
    failures = check_ops(plan, ops, median_heuristic)

    labels = [op_of(r).label for r in main["timed"]]
    op_times = _by_label(labels, _op_times(plan, main["timed"], main["timed_refs_s"]))
    wall_times = _by_label(labels, [r["t_s"] for r in main["timed"]])
    end_to_end = _op_metrics(op_times)
    end_to_end["setup_s"] = statistics.median(_setup_scaled(doc) for doc in setups)
    end_to_end["peak_rss_mb"] = main["peak_rss_kib"] / 1024.0
    wall = _op_metrics(wall_times)
    wall["setup_s"] = statistics.median(doc["setup_s"] for doc in setups)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "closed_loop_callers": LOAD_THREADS,
        "attempted": len(ops),
        "failed": len(failures),
        "correct": not failures,
        "error_rate": len(failures) / len(ops),
        "timed_ops": len(main["timed"]),
        "end_to_end": end_to_end,
        "wall": wall,
        "scaled": plan.scaled,
        "speed": statistics.median(main["timed_refs_s"] or main["setup_refs_s"]) / speed.NOMINAL_S,
        "op_times_s": op_times,
        "op_wall_s": wall_times,
        "refs_s": main["timed_refs_s"],
        "setup_samples": [{"setup_s": doc["setup_s"], "refs_s": doc["setup_refs_s"]} for doc in setups],
        "failures": failures,
    }
    if trace:
        traced_labels = [op_of(r).label for r in main["traced"]]
        traced = _op_metrics(_by_label(traced_labels, _op_times(plan, main["traced"], main["traced_refs_s"])))
        per_layer = spans.layer_metrics(main["spans"])
        per_layer["trace.overhead"] = traced["ops_per_s"] / end_to_end["ops_per_s"]
        result["per_layer"] = per_layer
        result["shares_by_op"] = spans.shares_by_label(main["spans"], traced_labels)
        result["spans"] = main["spans"]
    return result


def _by_label(labels, times):
    out = {}
    for label, t in zip(labels, times):
        out.setdefault(label, []).append(t)
    return out


def _print_summary(result):
    e = result["end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}  closed loop, {result['closed_loop_callers']} caller, {result['timed_ops']} timed ops")
    w = result["wall"]
    what = "op and set-up times" if result["scaled"] else "set-up times"
    print(f"  {what} at the reference speed; the reference block took {result['speed']:.3g}x its nominal time")
    for name, unit in END_TO_END_UNITS.items():
        raw = f"  (wall clock {w[name]:.6g})" if name in w else ""
        print(f"  {name:<14} {e[name]:<22.6g} {unit}{raw}")
    if "op_p90_s" in e:
        print(f"  {'op_p90_s':<14} {e['op_p90_s']:<22.6g} s")
    else:
        print(f"  {'op_p90_s':<14} {'not reported':<22} s  ({result['timed_ops']} ops < {P90_MIN_OPS})")
    print(f"  {'error_rate':<14} {result['error_rate']:<22.6g} ratio  ({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"][:5]:
        print(f"  FAILED {failure['op']}: {'; '.join(failure['problems'])[:300]}")
    if "per_layer" in result:
        for name, value in result["per_layer"].items():
            print(f"  {name:<24} {value:<22.6g} {PER_LAYER_UNITS[name]}  per op")
        for label, entry in result["shares_by_op"].items():
            top = sorted(entry["share"].items(), key=lambda kv: -kv[1])[:3]
            print(f"  {label:<44} {entry['op_s']:.4g} s  " + ", ".join(f"{n} {s:.1%}" for n, s in top))


def _write(result, stem):
    os.makedirs(OUT, exist_ok=True)
    spans_ = result.pop("spans", None)
    if spans_ is not None:
        with open(os.path.join(OUT, stem + ".spans.json"), "w") as handle:
            json.dump(spans_, handle)
    path = os.path.join(OUT, stem + ".json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def _last_line(results, trace, listed):
    """The result line: the metrics BENCHMARK.json lists for this trace mode."""
    section = "per_layer" if trace else "end_to_end"
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{m['name']}" if prefix else m["name"]): {"value": r[section][m["name"]], "unit": m["unit"]}
        for r in results
        for m in listed[section]
    }
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main():
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must be in [0, 2^31)")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    if not os.path.isfile(os.path.join(SRC, "metricdep", "__init__.py")):
        raise BenchError("no src/metricdep here; run from the root of a metricdep checkout")
    if LOAD_THREADS > nproc():
        raise BenchError(f"{LOAD_THREADS} load threads but only {nproc()} cores")

    try:
        with open("BENCHMARK.json") as handle:
            listed = json.load(handle)
    except OSError as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from None

    sys.path.insert(0, SRC)
    prov = provenance()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        result["provenance"] = prov
        _print_summary(result)
        print(f"  result: {_write(result, f'{name}-s{args.seed}-t{args.trace}')}")
        results.append(result)
    print(_last_line(results, args.trace, listed))


if __name__ == "__main__":
    try:
        main()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
