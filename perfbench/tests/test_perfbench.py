"""Self-tests of the benchmark: span arithmetic, output checks, tiny runs.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
import run
from reference import REFERENCE_SECONDS, in_reference_seconds, reference_seconds
from tracing import Span, Tracer, install, self_times, uninstall
from workloads import WORKLOADS


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "test")


def test_self_time_subtracts_nested_children():
    spans = [
        span("cli.execute", 0.0, 10.0),
        span("dataset.load", 1.0, 4.0, parent=0),
        span("climate.gdd", 2.0, 3.0, parent=1),
        span("models.train", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    own = layers.layer_self_seconds(spans)
    assert own["cli"] == pytest.approx(3.0)
    assert own["dataset"] == pytest.approx(2.0)
    assert own["models"] == pytest.approx(4.0)


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        span("evaluate.protocol", 0.0, 10.0),
        span("models.train", 1.0, 5.0, parent=0),
        span("models.train", 3.0, 7.0, parent=0),  # overlaps its sibling
        span("models.predict", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_failures_and_counts():
    tracer = Tracer("run")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    traced_inner = tracer.wrap(inner, "harmonics.fit",
                               count=lambda args, kwargs, result: {"out": result})

    def outer(x):
        return traced_inner(x) + traced_inner(x + 1)

    traced_outer = tracer.wrap(outer, "featurize.assemble")
    assert traced_outer(1) == 6
    with pytest.raises(ValueError):
        traced_inner(-1)
    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [("featurize.assemble", None, False), ("harmonics.fit", 0, False),
                     ("harmonics.fit", 0, False), ("harmonics.fit", None, True)]
    assert tracer.spans[2].counts == {"out": 4}
    assert all(s.end >= s.start for s in tracer.spans)


def test_missing_target_is_reported_not_raised():
    import agribench.featurize

    tracer = Tracer("run")
    original = agribench.featurize.monthly_gdd
    undo, missing = install(tracer, [
        ("agribench.featurize.no_such_function", "climate.gdd", None),
        ("agribench.no_such_module.f", "climate.gdd", None),
        ("agribench.featurize.monthly_gdd", "climate.gdd", None),
    ])
    try:
        assert missing == ["agribench.featurize.no_such_function",
                           "agribench.no_such_module.f"]
        assert agribench.featurize.monthly_gdd is not original
    finally:
        uninstall(undo)
    assert agribench.featurize.monthly_gdd is original
    assert layers.unmeasured_layers(["agribench.cli.load_dataset"]) == {"dataset"}


def write_report(path, folds=5, repeats=1, metrics=("R2", "RMSE"), pooled=False):
    lines = [",".join(checks.REPORT_HEADER)]
    keys = [(f"fold{i}", str(r), m) for i in range(folds)
            for r in range(1, repeats + 1) for m in metrics]
    keys += [(f"fold{i}", "mean", m) for i in range(folds) for m in metrics]
    keys += [("mean", "mean", m) for m in metrics]
    if pooled:
        keys += [("all", s, m) for s in [str(r) for r in range(1, repeats + 1)] + ["mean"]
                 for m in metrics]
    lines += [f"yield,corn,RS,RF,group_cv,{f},{s},{m},0.5" for f, s, m in keys]
    path.write_text("\n".join(lines) + "\n")


def test_report_check_passes_complete_and_fails_truncated(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path)
    assert checks.report_problems(path, ("R2", "RMSE"), 5, 1, False) == []
    assert checks.report_score(path, "R2") == 0.5

    full = path.read_text().splitlines()
    path.write_text("\n".join(full[:-1]) + "\n")  # last aggregate row lost
    assert checks.report_problems(path, ("R2", "RMSE"), 5, 1, False)
    path.write_text("\n".join(full)[:-10])  # cut inside the last row
    assert checks.report_problems(path, ("R2", "RMSE"), 5, 1, False)
    path.write_text("\n".join(full[:5]) + "\n")  # whole folds lost
    assert checks.report_problems(path, ("R2", "RMSE"), 5, 1, False)

    write_report(path, folds=4, repeats=2, pooled=True)
    assert checks.report_problems(path, ("R2", "RMSE"), 4, 2, True) == []
    assert checks.report_problems(path, ("R2", "RMSE"), 4, 2, False)


def test_table_score_and_prediction_checks():
    assert checks.table_problems(np.ones((3, 90)), 90) == []
    assert checks.table_problems(np.ones((3, 89)), 90)
    bad = np.ones((3, 90))
    bad[1, 2] = math.nan
    assert checks.table_problems(bad, 90)
    assert checks.score_problems(0.85, 0.9, 0.15) == []
    assert checks.score_problems(0.70, 0.9, 0.15)
    assert checks.score_problems(0.96, 0.9, 0.15)
    assert checks.score_problems(math.nan, 0.9, 0.15)
    assert checks.score_ceiling({"r2_ceiling": math.nan, "label_sigma": 0.0}) == 1.0
    assert checks.prediction_problems(np.ones(3), np.ones(3)) == []
    assert checks.prediction_problems(np.ones(3), np.array([1.0, 1.0, 2.0]))


def test_recorded_digests_must_agree(tmp_path):
    assert run.check_recorded(tmp_path, "k", {"report.csv": "a"}) == []
    assert run.check_recorded(tmp_path, "k", {"report.csv": "a"}) == []
    assert run.check_recorded(tmp_path, "k", {"report.csv": "b"})
    assert run.check_recorded(tmp_path, "other", {"report.csv": "b"}) == []


def tiny(name, synth, n_trees, **changes):
    """The workload at toy size. Tiny data cannot reach the full-size score
    floor, so the smoke runs only require a finite score."""
    workload = WORKLOADS[name]
    settings = tuple(f"model.n_trees={n_trees}" if s.startswith("model.n_trees=") else s
                     for s in workload.settings)
    return dataclasses.replace(workload, synth={**workload.synth, **synth},
                               settings=settings, score_floor=10.0, **changes)


TINY = {
    "yield-rs-rf": tiny("yield-rs-rf", dict(n_counties=6), 4),
    "covercrop-rs-rfc": tiny("covercrop-rs-rfc", dict(n_counties=3, fields_per_county=3,
                                                      years=(2020, 2021)), 4),
    "cli-aef-gbt": tiny("cli-aef-gbt", dict(n_counties=6, years=(2018, 2019, 2020)), 4,
                        n_folds=3),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(tmp_path, name, trace):
    result, details = run.run(TINY[name], seed=1, seconds=0, trace=trace, work_root=tmp_path)
    assert result["correct"] and result["failed"] == 0, details
    assert result["attempted"] >= 1
    expected = set(layers.METRICS) if trace else {"run_s", "setup_s", "peak_rss_mb", "score"}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert metric["value"] is not None and math.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.95
    else:
        assert result["metrics"]["run_s"]["value"] > 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir() and "seed" in p.name] == []


def test_unmeasured_layer_reports_null(tmp_path, monkeypatch):
    targets = tuple(t for t in layers.TARGETS if t[0] != "agribench.featurize.monthly_gdd")
    monkeypatch.setattr(layers, "TARGETS",
                        targets + (("agribench.featurize.monthly_gdd_gone", "climate.gdd", None),))
    result, details = run.run(TINY["yield-rs-rf"], seed=1, seconds=0, trace=True,
                              work_root=tmp_path)
    assert result["correct"]
    assert result["metrics"]["climate.gdd_s"]["value"] is None
    assert result["metrics"]["dataset.load_s"]["value"] is not None
    assert any("climate" in line for line in details if line.startswith("# unmeasured"))


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb", "score"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "yield-rs-rf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_seconds_scale_each_measurement_by_its_neighbours():
    assert reference_seconds() > 0
    ref = REFERENCE_SECONDS
    # On a machine running at half speed, 2 s measured is 1 reference second.
    assert in_reference_seconds([2.0], [2 * ref, 2 * ref]) == pytest.approx(1.0)
    # Each measurement is scaled by the mean of the references around it.
    assert in_reference_seconds([3.0], [ref, 2 * ref]) == pytest.approx(2.0)
    assert in_reference_seconds([1.0, 5.0, 1.0], [ref] * 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        in_reference_seconds([1.0], [ref])
