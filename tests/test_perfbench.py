import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_patches_resolve(monkeypatch):
    """Every (module, attribute) the per-layer tracer wraps exists and is callable."""
    monkeypatch.syspath_prepend(ROOT)
    tracer = importlib.import_module("perfbench.tracer")
    for module, attribute, *_ in tracer.PATCHES:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute}"
