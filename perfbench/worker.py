"""Runs one workload in a process of its own and dumps what happened as JSON.

Started by run.py from the checkout root; it imports ``metricdep`` from
``src/``.  Set-up is timed from before that import to the end of the warm-up
op; three readings of speed.py's reference block follow it.  Then a single
caller runs the workload's ops in a closed loop, each op a call of
``metricdep.cli.main`` in this process with stdout captured.  On a scaled
workload a reading is taken right before each op.  With ``--trace 1`` the
loop runs a second time with spans recorded.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR [--setup-only]
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import spans


def run_op(main, argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            kwargs = {"args": list(argv), "prog_name": "metricdep"}
            if tracer is None:
                main.main(**kwargs)
            else:
                tracer.call(spans.OP_SPAN, main.main, (), kwargs)
    except SystemExit as stop:
        code = 0 if stop.code is None else stop.code
    except Exception:  # the loop goes on; the op is counted as failed
        code, error = None, traceback.format_exc(limit=-1).strip()
    return {"t_s": time.perf_counter() - start, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def closed_loop(main, plan, workdir, seconds, tracer=None):
    """Run whole cycles until another cycle of the mean length would overrun
    ``seconds``.  Returns the op records, the phase's length and, for a
    scaled workload, the reference readings: one before each op and one after
    the last."""
    import speed

    records, refs = [], []
    start = time.perf_counter()
    done = 0
    while True:
        c = done % len(plan.cycles)
        for j, op in enumerate(plan.cycles[c]):
            if plan.scaled:
                refs.append(speed.reference_s())
            record = run_op(main, op.argv(workdir), tracer)
            record["op"] = [c, j]
            records.append(record)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            if plan.scaled:
                refs.append(speed.reference_s())
            return records, elapsed, refs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    src = os.path.abspath("src")

    start = time.perf_counter()
    sys.path.insert(0, src)
    import metricdep.cli
    import workloads

    if not metricdep.cli.__file__.startswith(src + os.sep):
        sys.exit(f"metricdep imported from {metricdep.cli.__file__}, not from {src}")
    plan = workloads.plan(args.workload, args.seed)
    workloads.write_inputs(plan, args.workdir)
    warmup = run_op(metricdep.cli.main, plan.warmup.argv(args.workdir))
    setup_s = time.perf_counter() - start

    import speed  # after the timed set-up: it imports numpy, which metricdep's import must pay for

    doc = {"setup_s": setup_s, "setup_refs_s": [speed.reference_s() for _ in range(3)]}
    if not args.setup_only:
        doc["warmup"] = warmup
        doc["timed"], doc["timed_s"], doc["timed_refs_s"] = closed_loop(
            metricdep.cli.main, plan, args.workdir, args.seconds)
        if args.trace:
            tracer = spans.Tracer()
            restore = tracer.install()
            try:
                doc["traced"], doc["traced_s"], doc["traced_refs_s"] = closed_loop(
                    metricdep.cli.main, plan, args.workdir, args.seconds, tracer)
            finally:
                restore()
            doc["spans"] = tracer.spans
        doc["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.workdir, "worker.json"), "w") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    main()
