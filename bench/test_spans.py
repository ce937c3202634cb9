"""The tracer's self-time arithmetic and its handling of names that are gone.

Run from the repository root: ``python3 -m pytest bench``.
"""

import sys
import types

import spans

FAKE = '''
import time

def inner():
    time.sleep(0.02)

def outer():
    inner()
    time.sleep(0.01)
'''


def test_self_time_excludes_children_and_missing_names_are_reported(monkeypatch):
    mod = types.ModuleType("fake_pipeline")
    exec(FAKE, mod.__dict__)
    monkeypatch.setitem(sys.modules, "fake_pipeline", mod)
    monkeypatch.setattr(spans, "WRAPPED", (
        ("fake_pipeline", "outer", "cli", None),
        ("fake_pipeline", "inner", "analysis", None),
        ("fake_pipeline", "gone", "sqa", "anneal"),
        ("no_such_module", "run", "pt", "pt"),
    ))
    tracer = spans.Tracer()
    tracer.install()
    mod.outer()
    m = tracer.metrics()
    assert tracer.not_seen == ["fake_pipeline.gone", "no_such_module.run"]
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert 0.02 <= m["analysis.self_s"] < 0.5
    assert 0.01 <= m["cli.self_s"] < 0.5
    assert m["sqa.calls"] == 0 and m["sqa.ns_per_update"] == 0.0
