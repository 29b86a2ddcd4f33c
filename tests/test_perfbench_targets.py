"""The benchmark's trace targets must name functions that exist in ``src/``.

``perfbench`` reports a layer as unmeasured (``null``) when a dotted path in
``perfbench/layers.TARGETS`` no longer resolves, so a refactor that renames or
moves a call site would silently drop that layer from the trace. The
benchmark's modules are loaded read-only: no bytecode is written next to them.
"""

import importlib.util
import sys
from pathlib import Path

import agribench

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listing():
    return sorted((str(p.relative_to(PERFBENCH)), p.stat().st_mtime_ns)
                  for p in PERFBENCH.rglob("*"))


def test_every_trace_target_resolves_in_src(monkeypatch):
    assert Path(agribench.__file__).resolve().is_relative_to(ROOT / "src")
    before = _listing()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # layers imports it by name
    layers = _load("layers")

    unresolved = [path for path, _, _ in layers.TARGETS if tracing.resolve(path) is None]
    assert unresolved == []
    for path, _, _ in layers.TARGETS:
        owner, attr = tracing.resolve(path)
        assert callable(getattr(owner, attr)), path
    assert _listing() == before
