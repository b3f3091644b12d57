"""Spans around calls into l2alex's layers, recorded from the benchmark.

l2alex modules import each other's functions by name, so each function is
wrapped where its caller looks it up (for example ``roots`` in both
``l2alex.mahler`` and ``l2alex.degree``). A span is (name, start, end,
parent, attributes); parents come from a per-thread stack, so spans made in
the CLI's grid thread pool start their own trees. A span's self time is its
duration minus the durations of its direct children.

Spans are aggregated after every op; the spans of the first round are kept
and written out at the end.
"""

import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None, counted_arg=None):
        """Wrap fn in a span. attrs(args, result) -> dict of numbers.

        counted_arg: index of a callable argument whose calls are counted
        into the attribute "calls" (the quadrature integrand).
        """
        tracer = self

        def traced(*args, **kwargs):
            calls = [0]
            if counted_arg is not None:
                inner = args[counted_arg]

                def counted(x):
                    calls[0] += 1
                    return inner(x)
                args = args[:counted_arg] + (counted,) + args[counted_arg + 1:]
            stack = tracer._stack()
            rec = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, None]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            extra = attrs(args, result) if attrs else {}
            if counted_arg is not None:
                extra["calls"] = calls[0]
            rec[4] = extra
            return result

        return traced

    def patch(self, owner, attr, name, attrs=None, counted_arg=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs, counted_arg))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def install(tracer):
    """Wrap every traced layer boundary of l2alex."""
    import l2alex
    from l2alex import cli, degree, kernels, laurent, mahler, torsion3m
    from l2alex.degree import DetFunction
    from l2alex.laurent import LaurentMatrix
    from l2alex.torsion3m import PresentationTorsion
    from l2alex.twist import CohomClass

    def kernel_attrs(args, result):
        inner, phases = args[1], args[2]
        nodes = int(phases.shape[0])
        return {"nodes": nodes,
                "degree_nodes": nodes * (int(inner.max()) if inner.size else 0)}

    tracer.patch(kernels, "batch_log_mahler", "kernels", kernel_attrs)
    tracer.patch(mahler, "adaptive_circle_mean", "quadrature",
                 lambda a, r: {"evals": int(r[2])}, counted_arg=0)
    for mod in (mahler, degree):
        tracer.patch(mod, "roots", "mahler.roots")
        tracer.patch(mod, "log_mahler_mv", "mahler.mv")
    tracer.patch(LaurentMatrix, "determinant", "laurent.det",
                 lambda a, r: {"terms": len(r.terms)})
    tracer.patch(laurent, "divide_exact", "laurent.divide")
    tracer.patch(CohomClass, "variable_scales", "twist.scales")
    tracer.patch(DetFunction, "log_eval", "degree.log_eval")
    tracer.patch(DetFunction, "asymptote", "degree.asymptote")
    tracer.patch(degree, "chief_part", "degree.chief_part")
    for mod in (degree, cli):
        tracer.patch(mod, "convexity_check", "degree.convexity")
    for mod in (torsion3m, cli, l2alex):
        tracer.patch(mod, "torsion_from_presentation", "torsion3m.build")
    tracer.patch(PresentationTorsion, "value", "torsion3m.value")
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "parse_input", "cli.parse")
    tracer.patch(cli, "render_json", "cli.render")


class Totals:
    """Per-name sums over spans: calls, self time, attributes, and the time
    of outermost spans (a span nested in one of the same name is already
    inside its parent's time). A quadrature's "evals" counts the nodes
    charged to the budget it shares with its nested integrals, so it is
    summed over outermost integrals only."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.attrs = defaultdict(float)

    def add(self, spans):
        child = defaultdict(float)
        for rec in spans:
            if rec[3] != -1:
                child[id(rec[3])] += rec[2] - rec[1]
        for rec in spans:
            name, start, end, parent, extra = rec
            dur = end - start
            self.calls[name] += 1
            self.self_time[name] += dur - child[id(rec)]
            nested = parent != -1 and parent[0] == name
            if not nested:
                self.time[name] += dur
            for key, value in (extra or {}).items():
                if not (nested and key == "evals"):
                    self.attrs[f"{name}.{key}"] += value


def per_layer(totals, n_ops, op_times, startup_ms):
    """The per-layer metrics of BENCHMARK.json, per op."""
    t, s, c, a = totals.time, totals.self_time, totals.calls, totals.attrs

    def per_op(x, scale=1.0):
        return x * scale / n_ops

    nodes = a["kernels.nodes"]
    ordered = sorted(op_times)
    metrics = {
        "kernels.calls": (per_op(c["kernels"]), "count"),
        "kernels.nodes": (per_op(nodes), "count"),
        "kernels.ms": (per_op(t["kernels"], 1e3), "ms"),
        "kernels.ns_per_node": (t["kernels"] * 1e9 / nodes if nodes else 0.0,
                                "ns"),
        "kernels.mean_degree": (a["kernels.degree_nodes"] / nodes
                                if nodes else 0.0, "degree"),
        "quadrature.integrals": (per_op(c["quadrature"]), "count"),
        "quadrature.sweeps": (per_op(a["quadrature.calls"]
                                     - 3 * c["quadrature"]), "count"),
        "quadrature.nodes": (per_op(a["quadrature.evals"]), "count"),
        "quadrature.self_ms": (per_op(s["quadrature"], 1e3), "ms"),
        "mahler.roots_calls": (per_op(c["mahler.roots"]), "count"),
        "mahler.roots_ms": (per_op(t["mahler.roots"], 1e3), "ms"),
        "mahler.mv_calls": (per_op(c["mahler.mv"]), "count"),
        "mahler.mv_self_ms": (per_op(s["mahler.mv"], 1e3), "ms"),
        "laurent.det_calls": (per_op(c["laurent.det"]), "count"),
        "laurent.det_ms": (per_op(t["laurent.det"], 1e3), "ms"),
        "laurent.det_terms": (per_op(a["laurent.det.terms"]), "count"),
        "laurent.divide_calls": (per_op(c["laurent.divide"]), "count"),
        "twist.scales_calls": (per_op(c["twist.scales"]), "count"),
        "twist.scales_ms": (per_op(t["twist.scales"], 1e3), "ms"),
        "degree.log_eval_calls": (per_op(c["degree.log_eval"]), "count"),
        "degree.log_eval_self_ms": (per_op(s["degree.log_eval"], 1e3), "ms"),
        "degree.asymptote_ms": (per_op(t["degree.asymptote"], 1e3), "ms"),
        "degree.chief_part_calls": (per_op(c["degree.chief_part"]), "count"),
        "degree.convexity_ms": (per_op(t["degree.convexity"], 1e3), "ms"),
        "torsion3m.build_ms": (per_op(t["torsion3m.build"], 1e3), "ms"),
        "torsion3m.value_self_ms": (per_op(s["torsion3m.value"], 1e3), "ms"),
        "cli.startup_ms": (startup_ms, "ms"),
        "cli.main_ms": (per_op(t["cli.main"], 1e3), "ms"),
        "cli.parse_ms": (per_op(t["cli.parse"], 1e3), "ms"),
        "cli.render_ms": (per_op(t["cli.render"], 1e3), "ms"),
        "trace.op_p50_ms": (1e3 * ordered[len(ordered) // 2], "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_spans(path, kept):
    """One JSON line per span: op index, name, start and end in ms from the
    op's first span, parent line number (-1 for none) and attributes."""
    with open(path, "w", encoding="utf-8") as fh:
        line = 0
        for op_index, recorded in kept:
            index = {id(rec): line + k for k, rec in enumerate(recorded)}
            origin = recorded[0][1] if recorded else 0.0
            for rec in recorded:
                name, start, end, parent, extra = rec
                fh.write(json.dumps([op_index, name,
                                     round(1e3 * (start - origin), 6),
                                     round(1e3 * (end - origin), 6),
                                     index.get(id(parent), -1), extra or {}])
                         + "\n")
            line += len(recorded)
