"""The benchmark's tracer (l2bench/spans.py) wraps l2alex functions by name;
every name it patches must still exist, and restoring must put back the
originals."""

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
