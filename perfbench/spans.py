"""Spans recorded around calls into the package's public functions, and the
per-layer metrics derived from them.

The tracer patches each traced function at every attribute of a loaded
``metricdep`` module that holds it (``estimators.resolve_bandwidth`` and
``cli.resolve_bandwidth`` are both the kernels function), and each
``pairwise`` method on its class, so every caller's lookup goes through the
wrapper.  Nothing under ``src/`` changes; ``restore`` puts the originals back.
Spans stay in memory as ``[name, parent, start_ns, end_ns, count]`` lists and
are written out by the caller when the run ends.  The tracer assumes the
single caller thread of the closed loop.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _nbytes(result):
    return int(result.nbytes)


# (module, attribute) -> (span name, count taken from the return value)
TARGETS = {
    ("io", "read_paired_sample"): ("io.parse", lambda r: int(r[0].shape[0])),
    ("io", "render_json"): ("io.render", None),
    ("kernels", "resolve_bandwidth"): ("kernels.bandwidth", None),
    ("kernels", "gram_matrix"): ("kernels.matrix", _nbytes),
    ("kernels", "distance_matrix"): ("kernels.matrix", _nbytes),
    ("kernels", "validate_negative_type"): ("kernels.negtype", None),
    ("estimators", "centered_grams"): ("estimators.center", None),
    ("estimators", "double_center"): ("estimators.center", None),
    ("estimators", "mcov_plugin"): ("estimators.statistic", None),
    ("estimators", "mcov_trace"): ("estimators.statistic", None),
    ("estimators", "hsic_vstat"): ("estimators.statistic", None),
    ("estimators", "dcov_vstat"): ("estimators.statistic", None),
    ("estimators", "permutation_test"): ("estimators.perm_test", lambda r: int(r.permutations)),
    ("scenarios", "generate"): ("scenarios.generate", None),
    ("scenarios", "power_study"): ("scenarios.power_study", lambda r: int(r.reps)),
}

OP_SPAN = "cli"

NAME, PARENT, START, END, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run ``fn`` inside a span; ``count`` maps its result to the span's count."""
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()
        if count is not None:
            record[COUNT] = count(result)
        return result

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Patch every traced function and method; return a function that undoes it."""
        for module, _ in TARGETS:
            importlib.import_module(f"metricdep.{module}")
        modules = [m for key, m in list(sys.modules.items()) if key == "metricdep" or key.startswith("metricdep.")]
        undo = []
        for (module, attr), (name, count) in TARGETS.items():
            original = getattr(sys.modules[f"metricdep.{module}"], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        kernels = sys.modules["metricdep.kernels"]
        for cls in vars(kernels).values():
            if isinstance(cls, type) and cls.__module__ == kernels.__name__ and "pairwise" in vars(cls):
                original = vars(cls)["pairwise"]
                setattr(cls, "pairwise", self._wrap("kernels.matrix", original, _nbytes))
                undo.append((cls, "pairwise", original))

        def restore():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return restore


def _covered(intervals):
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the time its child spans cover, in ns."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - _covered(kids) for span, kids in zip(spans, children)]


def _roots(spans):
    roots = []
    for i, span in enumerate(spans):
        roots.append(i if span[PARENT] < 0 else roots[span[PARENT]])
    return roots


def _layer_totals(spans):
    """Per span name: self time (s), calls and counts of outermost spans.

    A span nested directly in a span of the same name (``resolve_bandwidth``
    recursing, ``gram_matrix`` calling ``pairwise``) adds its self time but not
    a call or a count, so sizes are not counted twice.
    """
    selfs = self_times(spans)
    totals = {}
    for span, own in zip(spans, selfs):
        entry = totals.setdefault(span[NAME], {"self_s": 0.0, "calls": 0, "count": 0})
        entry["self_s"] += own * 1e-9
        if span[PARENT] < 0 or spans[span[PARENT]][NAME] != span[NAME]:
            entry["calls"] += 1
            entry["count"] += span[COUNT]
    return totals


def layer_metrics(spans):
    """The per-layer metrics, each a mean per op (one op is one OP_SPAN root)."""
    totals = _layer_totals(spans)
    ops = totals.get(OP_SPAN, {}).get("calls", 0)
    if ops == 0:
        raise ValueError("no op spans recorded")

    def get(name, field):
        return totals.get(name, {}).get(field, 0) / ops

    perm_s = get("estimators.perm_test", "self_s")
    perms = get("estimators.perm_test", "count")
    return {
        "cli.self_s": get(OP_SPAN, "self_s"),
        "io.parse_s": get("io.parse", "self_s"),
        "io.parse_rows": get("io.parse", "count"),
        "io.render_s": get("io.render", "self_s"),
        "kernels.bandwidth_s": get("kernels.bandwidth", "self_s"),
        "kernels.bandwidth_calls": get("kernels.bandwidth", "calls"),
        "kernels.matrix_s": get("kernels.matrix", "self_s"),
        "kernels.matrix_bytes": get("kernels.matrix", "count"),
        "kernels.negtype_s": get("kernels.negtype", "self_s"),
        "kernels.negtype_calls": get("kernels.negtype", "calls"),
        "estimators.center_s": get("estimators.center", "self_s"),
        "estimators.stat_s": get("estimators.statistic", "self_s"),
        "estimators.perm_loop_s": perm_s,
        "estimators.perms": perms,
        "estimators.perm_us": perm_s / perms * 1e6 if perms else 0.0,
        "scenarios.generate_s": get("scenarios.generate", "self_s"),
        "scenarios.reps": get("scenarios.power_study", "count"),
        "scenarios.loop_self_s": get("scenarios.power_study", "self_s"),
    }


def shares_by_label(spans, labels):
    """For each op label, the mean op time and each span name's share of it.

    ``labels`` gives the label of each root span, in order.
    """
    selfs = self_times(spans)
    roots = _roots(spans)
    root_ids = [i for i, span in enumerate(spans) if span[PARENT] < 0]
    if len(root_ids) != len(labels):
        raise ValueError(f"{len(root_ids)} root spans but {len(labels)} labels")
    label_of = dict(zip(root_ids, labels))
    out = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(label_of[roots[i]], {"ops": 0, "op_s": 0.0, "self_s": {}})
        if i in label_of:
            entry["ops"] += 1
            entry["op_s"] += (span[END] - span[START]) * 1e-9
        entry["self_s"][span[NAME]] = entry["self_s"].get(span[NAME], 0.0) + selfs[i] * 1e-9
    return {
        label: {
            "op_s": entry["op_s"] / entry["ops"],
            "share": {name: t / entry["op_s"] for name, t in sorted(entry["self_s"].items())},
        }
        for label, entry in out.items()
    }
