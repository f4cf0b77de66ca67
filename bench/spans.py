"""Tracing from outside the package: wrappers, spans and per-layer metrics.

`Tracer.install` replaces every public function of the six spinphase modules
with a wrapper, in its own module and in every spinphase namespace that
imported it (`spin_matrices` is bound in `dynamics`, `bopp` and `cli` too).
A wrapper either records a span [name, start, end, parent, job] or, for the
hot scalar helpers in COUNTED, only counts calls.  `Tracer.restore` puts the
original functions back.  Spans stay in memory until the caller writes them.
"""

import importlib
import os
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("su2_algebra", "sw_transform", "sphere_ops", "bopp", "dynamics", "cli")

# called up to millions of times per job: counted, never spanned
COUNTED = {"su2_algebra.clebsch_gordan", "sphere_ops.flat_index", "sphere_ops.ylm_eval"}
# factorial lookups inside clebsch_gordan: tens of millions of calls at 2S=80,
# and no layer metric needs them
UNWRAPPED = {"su2_algebra.log_factorial"}

# layer metrics that read 0 on a workload that bypasses the layer (the CLI
# and its CSV output in the library workload; SU(2) table builds where set-up
# already paid for them).  They are printed and kept in the run record, and
# left out of the result line, whose metrics never read 0
BYPASSABLE = {
    "su2_algebra.clebsch_gordan.calls", "su2_algebra.tensor_operator.calls",
    "dynamics.write_trajectory_csv.bytes", "cli.self_s", "cli.output_bytes",
}

# span names grouped into one layer metric
GROUPS = {
    "sphere_ops.operator_build": {"sphere_ops.angular_operators",
                                  "sphere_ops.position_operators",
                                  "sphere_ops.conjugation_matrix"},
    "dynamics.generator": {"dynamics.unitary_generator", "dynamics.quadratic_generator",
                           "dynamics.qfp_generator",
                           "dynamics.isotropic_bilinear_generator",
                           "dynamics.classical_generators"},
}


def _nnz(obj):
    if isinstance(obj, tuple):
        return sum(_nnz(o) for o in obj)
    if hasattr(obj, "nnz"):
        return int(obj.nnz)
    return int(np.count_nonzero(obj))


class Tracer:
    """Spans and counters of one process; `job` tags the spans recorded next."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self._cells = {}  # name -> [calls] of the counted helpers
        self.values = Counter()
        self.job = None
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _observe(self, name, args, kwargs, result):
        """Exact work counts taken from a call's arguments and result."""
        if name in GROUPS["dynamics.generator"]:
            parent = self._stack[-2] if len(self._stack) > 1 else -1
            if parent < 0 or self.spans[parent][0] not in GROUPS["dynamics.generator"]:
                self.values["dynamics.generator.nnz"] += _nnz(result)
        elif name == "dynamics.integrate":
            self.values["dynamics.integrate.steps"] += result.times.size - 1
            self.values["dynamics.integrate.state_bytes"] += result.states.nbytes
        elif name == "dynamics.write_trajectory_csv":
            self.values[name + ".bytes"] += os.path.getsize(args[0] if args else kwargs["path"])
        return result

    def span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                return self._observe(name, args, kwargs, fn(*args, **kwargs))
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name, fn):
        cell = self._cells.setdefault(name, [0])  # a list cell is cheaper than a Counter

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / restore -------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module("spinphase." + m) for m in MODULES}
        replacement = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or name in UNWRAPPED):
                    continue
                wrap = self.count_wrapper if name in COUNTED else self.span_wrapper
                replacement[id(obj)] = (obj, wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spinphase" or mod_name.startswith("spinphase.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def restore(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def dump(self):
        return {"spans": self.spans,
                "counts": {name: cell[0] for name, cell in self._cells.items()},
                "values": dict(self.values)}


# -- analysis ---------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[idx], key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(dumps):
    """Per-layer metrics summed over the trace dumps of one pass."""
    calls, self_s, values = Counter(), Counter(), Counter()
    for dump in dumps:
        spans = dump["spans"]
        for span, own in zip(spans, self_times(spans)):
            calls[span[0]] += 1
            self_s[span[0]] += own
        calls.update(dump["counts"])
        values.update(dump["values"])

    def group(names, table):
        return sum(table[n] for n in names)

    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
    for name in ("su2_algebra.clebsch_gordan", "su2_algebra.tensor_operator",
                 "sw_transform.operator_to_symbol", "sw_transform.expectation",
                 "sw_transform.switch_ordering",
                 "sphere_ops.apply_conjugation", "sphere_ops.flat_index",
                 "bopp.bopp_matrices", "bopp.bopp_coefficients",
                 "bopp.evaluate_expression"):
        m[name + ".calls"] = calls[name]
    for name in ("sw_transform.operator_to_symbol", "sw_transform.expectation",
                 "sphere_ops.apply_conjugation", "bopp.evaluate_expression",
                 "dynamics.integrate"):
        m[name + ".self_s"] = self_s[name]
    for name, members in GROUPS.items():
        m[name + ".self_s"] = group(members, self_s)
    m["sphere_ops.operator_build.calls"] = group(GROUPS["sphere_ops.operator_build"], calls)
    m["dynamics.generator.calls"] = group(GROUPS["dynamics.generator"], calls)
    for name in ("dynamics.generator.nnz", "dynamics.integrate.steps",
                 "dynamics.integrate.state_bytes", "dynamics.write_trajectory_csv.bytes",
                 "cli.output_bytes"):
        m[name] = values[name]
    return m


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("_err"):
        return "abs"
    if metric.endswith("_util"):
        return "ratio"
    return "count"
