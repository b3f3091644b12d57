"""The benchmark's tracer (l2bench/spans.py) wraps l2alex functions by name;
every name it patches must still exist, restoring must put back the
originals, and traced ops must reach the layers it measures."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_hooks_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "l2bench"))
    import spans

    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)


def test_traced_ops_record_every_layer(monkeypatch, tmp_path):
    # A call that bypasses a patched name would leave its layer's metrics
    # silently empty. Seed-1 ops of the three workloads must reach every
    # layer but laurent.divide (no l2alex function calls divide_exact), and
    # an asymptote groups the monomials of its determinant once.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "l2bench"))
    monkeypatch.delenv("L2ALEX_THREADS", raising=False)
    import spans
    import workloads

    pres = workloads.WORKLOADS["presentations"]
    items = pres.inputs(1)
    first = [next(p for p in items if p["nvars"] == n) for n in (1, 2)]
    curves = workloads.WORKLOADS["curves2v"]
    cli = workloads.WORKLOADS["cli"]
    ops = ([(pres.op, p) for p in pres.build(first, str(tmp_path))]
           + [(curves.op, curves.build(curves.inputs(1)[:1],
                                       str(tmp_path))[0])]
           + [(cli.op_in_process, argv)
              for argv in cli.build(cli.inputs(1), str(tmp_path))])

    tracer = spans.Tracer()
    names = set()
    wrap = tracer.wrap

    def named_wrap(name, *args, **kwargs):
        names.add(name)
        return wrap(name, *args, **kwargs)

    tracer.wrap = named_wrap
    try:
        spans.install(tracer)
        for op, prepared in ops:
            op(prepared)
    finally:
        tracer.restore()
    totals = spans.Totals()
    totals.add(tracer.take())
    assert set(totals.calls) == names - {"laurent.divide"}
    assert totals.calls["degree.chief_part"] == \
        totals.calls["degree.asymptote"]
