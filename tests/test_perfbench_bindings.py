"""The benchmark's traced run patches mswf functions by name.

`perfbench/layers.py` lists every (owner, attribute) it wraps, some of
them names imported into a caller's module only so that the probe can
find them there.  A refactor that drops one makes every traced run fail,
so each listed binding must exist.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_binding_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    probes = layers.probes(tracer.Tracer())
    assert probes
    missing = [f"{owner.__name__}.{name}" for owner, name, _ in probes
               if not hasattr(owner, name)]
    assert not missing, missing
