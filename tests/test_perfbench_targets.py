"""The benchmark's trace targets must name functions that exist in ``src/``
and that the program still calls.

``perfbench`` reports a layer as unmeasured (``null``) when a dotted path in
``perfbench/layers.TARGETS`` no longer resolves, so a refactor that renames or
moves a call site would silently drop that layer from the trace. A target that
still resolves but is no longer called is worse: its layer reads 0. The
benchmark's modules are loaded read-only: no bytecode is written next to them.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import agribench
from agribench.dataset import load_dataset
from agribench.evaluate import run_benchmark
from agribench.featurize import TaskConfig, assemble_table
from agribench.models import ModelSpec
from agribench.synth import SynthSpec, generate

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


def _load_tracing_and_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # layers imports it by name
    return tracing, _load("layers")


def test_every_trace_target_resolves_in_src(monkeypatch):
    assert Path(agribench.__file__).resolve().is_relative_to(ROOT / "src")
    before = _listing()
    tracing, layers = _load_tracing_and_layers(monkeypatch)

    unresolved = [path for path, _, _ in layers.TARGETS if tracing.resolve(path) is None]
    assert unresolved == []
    for path, _, _ in layers.TARGETS:
        owner, attr = tracing.resolve(path)
        assert callable(getattr(owner, attr)), path
    assert _listing() == before


# Tiny RS assemblies and the targets each must reach: yield reads phenology
# from its fits, cover crop reads fitted-curve monthly extrema, tillage reads
# raw-observation monthly extrema of raw and derived bands.
RS_ASSEMBLIES = {
    "yield": (SynthSpec(n_counties=2, years=(2020,)),
              TaskConfig(task="yield", crop="corn"),
              {"fit_harmonic", "phenology_metrics"}),
    "covercrop": (SynthSpec(n_counties=1, fields_per_county=2, years=(2020,),
                            tasks=("covercrop_class",)),
                  TaskConfig(task="covercrop_class"),
                  {"fit_harmonic", "monthly_extrema"}),
    "tillage": (SynthSpec(n_counties=2, years=(2020,), tasks=("tillage_ratio",)),
                TaskConfig(task="tillage_ratio"),
                {"derive_index_series", "monthly_extrema"}),
}


def test_rs_assemblies_call_every_featurize_target(monkeypatch, tmp_path):
    """Each ``agribench.featurize.*`` target is called by a tiny yield-RS,
    cover-crop-RS or tillage-RS assembly, each assembly calls the targets of
    its feature set, and an AEF assembly calls none, through the wrappers
    perfbench installs."""
    before = _listing()
    tracing, layers = _load_tracing_and_layers(monkeypatch)
    prefix = "agribench.featurize."
    paths = [path for path, _, _ in layers.TARGETS if path.startswith(prefix)]
    harmonics = {path[len(prefix):] for path, name, _ in layers.TARGETS
                 if path.startswith(prefix) and name.startswith("harmonics.")}
    assert harmonics == {"fit_harmonic", "phenology_metrics", "monthly_extrema"}

    def called_targets(dataset, cfg):
        tracer = tracing.Tracer(cfg.task)
        undo, missing = tracing.install(tracer, [(path, path, None) for path in paths])
        try:
            assemble_table(dataset, cfg)
        finally:
            tracing.uninstall(undo)
        assert missing == []
        return {span.name[len(prefix):] for span in tracer.spans}

    called = {}
    for key, (spec, cfg, expected) in RS_ASSEMBLIES.items():
        generate(spec, seed=5, out_dir=tmp_path / key)
        dataset = load_dataset(tmp_path / key)
        called[key] = called_targets(dataset, cfg)
        assert expected <= called[key], key
        assert called_targets(dataset, replace(cfg, feature_set="AEF")) == set(), key
    assert set().union(*called.values()) == {path[len(prefix):] for path in paths}
    assert _listing() == before


def test_rf_benchmark_fits_each_fold_through_the_train_target(monkeypatch, tmp_path):
    """perfbench times the benchmark's random-forest fits at
    ``agribench.evaluate.train``, so a tiny RF benchmark calls that target
    once per (repeat, fold), through the wrappers perfbench installs."""
    before = _listing()
    tracing, layers = _load_tracing_and_layers(monkeypatch)
    targets = [target for target in layers.TARGETS if target[0] == "agribench.evaluate.train"]
    assert len(targets) == 1
    generate(SynthSpec(n_counties=6, years=(2019, 2020)), seed=5, out_dir=tmp_path / "b")
    dataset = load_dataset(tmp_path / "b")
    tracer = tracing.Tracer("rf")
    undo, missing = tracing.install(tracer, targets)
    try:
        run_benchmark(dataset, TaskConfig(task="yield", crop="corn", feature_set="AEF"),
                      ModelSpec(kind="RF", task="regression", n_trees=3), "group_cv", k=3,
                      n_repeats=2, base_seed=1)
    finally:
        tracing.uninstall(undo)
    assert missing == []
    assert [span.name for span in tracer.spans] == [targets[0][1]] * 6
    assert all(span.counts["nodes"] > 0 for span in tracer.spans)
    assert _listing() == before
