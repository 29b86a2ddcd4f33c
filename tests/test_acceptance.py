"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every criterion carries
its tolerance inline; oracles are implemented here, independently of the
library code they check.
"""

import csv
import math
import time
from datetime import date, timedelta

import numpy as np
import pytest

from agribench.climate import GDD_SOYBEAN, GDD_WINTER_WHEAT, monthly_gdd
from agribench.dataset import (
    EAST_STATES,
    ObservationSeries,
    SpectralBand,
    UnitMeta,
    WEST_STATES,
    load_dataset,
)
from agribench.evaluate import (
    build_split_plan,
    classification_metrics,
    regression_metrics,
    run_benchmark,
)
from agribench.featurize import (
    FeatureTable,
    TaskConfig,
    assemble_table,
    expected_feature_count,
)
from agribench.harmonics import (
    HarmonicFit,
    SeasonWindow,
    fit_harmonic,
    harmonic_integral,
    time_fraction,
)
from agribench.models import ModelSpec, top_features, train
from agribench.synth import SynthSpec, generate, read_truth
from agribench.cli import execute
from conftest import climate_series

B = SpectralBand
WINDOW = SeasonWindow(start=date(2020, 4, 1), end=date(2020, 10, 31))


def _announce(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {message}")


# --------------------------------------------------------------------------
# Criterion 1: harmonic fit vs. brute-force normal equations
# --------------------------------------------------------------------------

def _normal_equations_oracle(t, y):
    """Explicit 5x5 normal equations solved by pivoted Gaussian elimination."""
    t = np.asarray(t, float)
    cols = [np.ones_like(t), np.cos(2 * np.pi * t), np.sin(2 * np.pi * t),
            np.cos(4 * np.pi * t), np.sin(4 * np.pi * t)]
    ata = [[math.fsum(cols[i] * cols[j]) for j in range(5)] for i in range(5)]
    aty = [math.fsum(cols[i] * np.asarray(y, float)) for i in range(5)]
    m = [row[:] + [rhs] for row, rhs in zip(ata, aty)]
    for col in range(5):
        pivot = max(range(col, 5), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, 5):
            factor = m[r][col] / m[col][col]
            for k in range(col, 6):
                m[r][k] -= factor * m[col][k]
    beta = [0.0] * 5
    for r in range(4, -1, -1):
        beta[r] = (m[r][5] - sum(m[r][k] * beta[k] for k in range(r + 1, 5))) / m[r][r]
    return beta


def _random_series(rng, values):
    n = len(values)
    offsets = np.sort(rng.choice(np.arange(0, 214), size=n, replace=False))
    dates = tuple(WINDOW.start + timedelta(days=int(k)) for k in offsets)
    return ObservationSeries(unit_id="u", band=B.NIR,
                             dates=dates, values=np.asarray(values, float))


def test_criterion_1_harmonic_oracle():
    rng = np.random.default_rng(1001)
    origin = date(2020, 1, 1)
    start = time.time()
    for case in range(1000):
        n = int(rng.integers(8, 30))
        series = _random_series(rng, rng.uniform(0.1, 1.2, n))
        fit = fit_harmonic(series, WINDOW)
        t = [time_fraction(origin, d) for d in series.dates]
        expected = _normal_equations_oracle(t, series.values)
        for got, want in zip(fit.coefficients, expected):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), case
    # Noise-free members of the model family are recovered exactly.
    # Amplitudes stay small enough to keep the curve in the raw-band range.
    for case in range(200):
        coefs = rng.uniform(-0.1, 0.1, 5)
        coefs[0] = rng.uniform(0.5, 1.0)
        n = int(rng.integers(8, 30))
        offsets = np.sort(rng.choice(np.arange(0, 214), size=n, replace=False))
        dates = tuple(WINDOW.start + timedelta(days=int(k)) for k in offsets)
        t = np.array([time_fraction(origin, d) for d in dates])
        w = 2 * np.pi * t
        y = (coefs[0] + coefs[1] * np.cos(w) + coefs[2] * np.sin(w)
             + coefs[3] * np.cos(2 * w) + coefs[4] * np.sin(2 * w))
        series = ObservationSeries(unit_id="u", band=B.NIR, dates=dates, values=y)
        fit = fit_harmonic(series, WINDOW)
        for got, want in zip(fit.coefficients, coefs):
            assert abs(got - want) <= 1e-9, case
    elapsed = time.time() - start
    assert elapsed < 10.0, f"harmonic oracle took {elapsed:.1f}s"
    _announce(1, f"1000 fits match pivoted normal equations to 1e-8, "
                 f"200 noise-free recoveries to 1e-9, in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 2: analytic integral vs. dense trapezoid quadrature
# --------------------------------------------------------------------------

def test_criterion_2_integral_oracle():
    rng = np.random.default_rng(1002)
    origin = date(2020, 1, 1)
    for case in range(1000):
        coefs = (float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1])),
                 *(float(v) for v in rng.normal(0, 0.4, 4)))
        fit = HarmonicFit(*coefs, band=B.NIR, window=WINDOW, n_obs=6, t_origin=origin)
        start_day = float(rng.uniform(0, 250))
        span = float(rng.uniform(10, 365))
        t1 = start_day / 365.25
        t2 = (start_day + span) / 365.25
        from datetime import datetime

        got = harmonic_integral(
            fit,
            datetime(2020, 1, 1) + timedelta(days=start_day),
            datetime(2020, 1, 1) + timedelta(days=start_day + span),
        )
        steps = max(2, int(round(span / 0.01)))
        grid = np.linspace(t1, t2, steps + 1)
        w = 2 * np.pi * grid
        curve = (coefs[0] + coefs[1] * np.cos(w) + coefs[2] * np.sin(w)
                 + coefs[3] * np.cos(2 * w) + coefs[4] * np.sin(2 * w))
        oracle = float(np.trapezoid(curve, grid))
        assert abs(got - oracle) <= 1e-6 * abs(oracle), (case, got, oracle)
    _announce(2, "1000 integrals match 0.01-day trapezoid quadrature to 1e-6 relative")


# --------------------------------------------------------------------------
# Criterion 3: GDD vs. independent explicit hourly loop
# --------------------------------------------------------------------------

def _gdd_loop_oracle(days, t_base, t_cap):
    total = 0.0
    for _, tmin_c, tmax_c, _ in sorted(days):
        mid = (tmax_c + tmin_c) / 2.0
        amp = (tmax_c - tmin_c) / 2.0
        for h in range(1, 25):
            t_h = mid + amp * math.sin(math.pi * (h - 6) / 12.0)
            total += max(0.0, min(t_h - t_base, t_cap - t_base))
    return total


def test_criterion_3_gdd_oracle():
    rng = np.random.default_rng(1003)
    for case in range(1000):
        month = int(rng.integers(1, 13))
        n_days = int(rng.integers(1, 29))
        days = []
        for k in range(n_days):
            tmin = float(rng.uniform(-15, 30))
            days.append((date(2021, month, 1) + timedelta(days=k),
                         tmin, tmin + float(rng.uniform(0, 20)), 0.0))
        th = GDD_SOYBEAN if rng.random() < 0.5 else GDD_WINTER_WHEAT
        assert monthly_gdd(climate_series(days), th) == \
            _gdd_loop_oracle(days, th.t_base, th.t_cap), case
    # Analytic fixtures hold exactly.
    flat20 = [(date(2021, 6, 1) + timedelta(days=k), 20.0, 20.0, 0.0) for k in range(30)]
    assert monthly_gdd(climate_series(flat20), GDD_SOYBEAN) == 8640.0
    flat8 = [(date(2021, 6, 1) + timedelta(days=k), 8.0, 8.0, 0.0) for k in range(30)]
    assert monthly_gdd(climate_series(flat8), GDD_SOYBEAN) == 0.0
    _announce(3, "1000 random months equal the hourly-loop oracle exactly; "
                 "8640/0 degree-hour fixtures hold")


# --------------------------------------------------------------------------
# Criterion 4: metric fixtures
# --------------------------------------------------------------------------

def test_criterion_4_metric_fixtures():
    reg = regression_metrics([0, 1, 2, 3], [0, 0, 2, 2])
    assert abs(reg["RMSE"] - math.sqrt(0.5)) <= 1e-9
    assert abs(reg["R2"] - 0.6) <= 1e-9
    cls = classification_metrics([1, 1, 1, 0], [1, 1, 0, 0])
    expected_weighted = 0.75 * 0.8 + 0.25 * (2 / 3)
    assert abs(cls["F1_weighted"] - expected_weighted) <= 1e-9
    assert abs(cls["Accuracy"] - 0.75) <= 1e-9
    # A deliberately bad predictor yields negative R2.
    rng = np.random.default_rng(1004)
    truth = rng.normal(0, 1, 50)
    bad = regression_metrics(truth, -5.0 * truth + 10.0)
    assert bad["R2"] < 0
    _announce(4, f"fixtures match to 1e-9; adversarial predictor R2 = {bad['R2']:.2f} < 0")


# --------------------------------------------------------------------------
# Criterion 5: leakage suite
# --------------------------------------------------------------------------

def _toy_units_table(rng):
    all_states = list(EAST_STATES | WEST_STATES) + ["TX", "CO"]
    n_states = int(rng.integers(3, 10))
    states = list(rng.choice(all_states, size=n_states, replace=False))
    years = list(range(2017, 2017 + int(rng.integers(2, 7))))
    units = {}
    unit_years = []
    for s in states:
        for i in range(int(rng.integers(1, 5))):
            uid = f"{s}{i}"
            units[uid] = UnitMeta(unit_id=uid, level="county", state=s,
                                  county_id=uid, ecoregion="Other",
                                  elevation_m=10.0)
            for y in years:
                if rng.random() < 0.8:
                    unit_years.append((uid, y))
    table = FeatureTable(
        task="yield", feature_set="RS", feature_names=("x0",),
        unit_years=tuple(unit_years),
        values=np.zeros((len(unit_years), 1)),
        labels=np.zeros(len(unit_years)),
        config_hash="leakage",
    )
    return table, units


def test_criterion_5_leakage_suite():
    rng = np.random.default_rng(1005)
    plans = 0
    while plans < 100:
        table, units = _toy_units_table(rng)
        groups = [f"{units[u].state}|{y}" for u, y in table.unit_years]
        k = int(rng.integers(2, 9))
        if len(set(groups)) < k or table.n_rows == 0:
            continue
        plan = build_split_plan(table, units, "group_cv", k=k,
                                seed=int(rng.integers(0, 2**31)))
        for train_ids, test_ids in plan.folds:
            train_groups = {groups[i] for i in train_ids}
            test_groups = {groups[i] for i in test_ids}
            assert not train_groups & test_groups
            assert np.intersect1d(train_ids, test_ids).size == 0
        plans += 1

    # Yearly CV partitions the row set exactly.
    table, units = _toy_units_table(np.random.default_rng(77))
    plan = build_split_plan(table, units, "yearly_cv")
    covered = np.concatenate([test for _, test in plan.folds])
    assert sorted(covered.tolist()) == list(range(table.n_rows))
    assert sum(test.size for _, test in plan.folds) == table.n_rows

    # Space transfer respects the ecoregion state lists verbatim.
    states = sorted(EAST_STATES) + sorted(WEST_STATES) + ["TX"]
    units = {
        f"{s}0": UnitMeta(unit_id=f"{s}0", level="county", state=s, county_id=f"{s}0",
                          ecoregion=("East" if s in EAST_STATES
                                     else "West" if s in WEST_STATES else "Other"),
                          elevation_m=0.0)
        for s in states
    }
    unit_years = [(f"{s}0", 2020) for s in states]
    table = FeatureTable(
        task="yield", feature_set="RS", feature_names=("x0",),
        unit_years=tuple(unit_years), values=np.zeros((len(unit_years), 1)),
        labels=np.zeros(len(unit_years)), config_hash="space",
    )
    for direction, train_exp, test_exp in (
        ("East->West", EAST_STATES, WEST_STATES),
        ("West->East", WEST_STATES, EAST_STATES),
    ):
        plan = build_split_plan(table, units, "space_transfer", direction=direction)
        (train_ids, test_ids), = plan.folds
        assert {table.unit_years[i][0][:2] for i in train_ids} == set(train_exp)
        assert {table.unit_years[i][0][:2] for i in test_ids} == set(test_exp)
    _announce(5, "100 group-CV plans leak-free; yearly CV partitions exactly; "
                 "space transfer matches the ecoregion state lists")


# --------------------------------------------------------------------------
# Criterion 6: feature-count contract
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    paths = {}

    corn = root / "corn"
    generate(SynthSpec(n_counties=12, fields_per_county=1, years=(2019, 2020),
                       tasks=("yield", "tillage_ratio", "tillage_class")),
             seed=41, out_dir=corn)
    paths["corn"] = corn

    wheat = root / "wheat"
    generate(SynthSpec(n_counties=10, years=(2019, 2020), crop="winter_wheat"),
             seed=42, out_dir=wheat)
    paths["wheat"] = wheat

    cover = root / "cover"
    generate(SynthSpec(n_counties=6, fields_per_county=2, years=(2019, 2020),
                       tasks=("covercrop_class",)),
             seed=43, out_dir=cover)
    paths["cover"] = cover
    return paths


def test_criterion_6_feature_count_contract(bundles):
    corn = load_dataset(bundles["corn"])
    wheat = load_dataset(bundles["wheat"])
    cover = load_dataset(bundles["cover"])
    cases = [
        (corn, TaskConfig(task="yield", crop="corn"), 90),
        (wheat, TaskConfig(task="yield", crop="winter_wheat"), 92),
        (corn, TaskConfig(task="tillage_ratio"), 67),
        (cover, TaskConfig(task="covercrop_class"), 144),
        (corn, TaskConfig(task="yield", crop="corn", feature_set="AEF"), 64),
        (corn, TaskConfig(task="tillage_class", feature_set="AEF"), 64),
        (cover, TaskConfig(task="covercrop_class", feature_set="AEF"), 128),
    ]
    for dataset, cfg, expected in cases:
        table = assemble_table(dataset, cfg)
        assert table.values.shape[1] == expected, (cfg.task, cfg.feature_set)
        assert expected_feature_count(cfg) == expected
        assert len(table.feature_names) == expected
    _announce(6, "assembled widths are exactly 90/92/67/144 (RS) and 64/128 (AEF)")


# --------------------------------------------------------------------------
# Criterion 7: model sanity on the planted-signal benchmark
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted") / "bundle"
    spec = SynthSpec(n_counties=60, years=(2018, 2019, 2020, 2021, 2022),
                     label_r2_ceiling=0.9)
    generate(spec, seed=101, out_dir=out)
    return out


def test_criterion_7_model_sanity(planted_bundle):
    start = time.time()
    dataset = load_dataset(planted_bundle)
    ceiling = read_truth(planted_bundle)["meta"]["r2_ceiling"]
    assert abs(ceiling - 0.9) < 0.02
    cfg = TaskConfig(task="yield", crop="corn", feature_set="RS")
    table = assemble_table(dataset, cfg)
    results = {}
    for kind in ("RF", "GBT"):
        spec = ModelSpec(kind=kind, task="regression", n_trees=200)
        report = run_benchmark(dataset, cfg, spec, "group_cv", k=5,
                               n_repeats=1, base_seed=3)
        r2 = report.aggregate("R2")
        assert r2 >= 0.80, (kind, r2)
        assert r2 <= ceiling + 0.05, (kind, r2, ceiling)
        model = train(ModelSpec(kind=kind, task="regression", n_trees=200, seed=5),
                      table, table.labels)
        assert top_features(model, 1)[0][0] == "GCVI_peak", kind
        results[kind] = r2
    # The benchmark harness reaches the analytic noise ceiling: the RF
    # aggregate sits within +/-0.05 of it.
    assert abs(results["RF"] - ceiling) <= 0.05
    elapsed = time.time() - start
    assert elapsed < 120.0, f"model sanity took {elapsed:.0f}s"
    _announce(7, f"RF R2={results['RF']:.3f}, GBT R2={results['GBT']:.3f} within "
                 f"[0.80, {ceiling + 0.05:.3f}]; GCVI_peak ranks first; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# Criteria 8 and 9: thread-count determinism and protocol shape
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_reports(bundles, tmp_path_factory):
    root = tmp_path_factory.mktemp("det")
    args = [
        f"bundle={bundles['corn']}", "task.name=yield", "task.crop=corn",
        "task.feature_set=AEF", "model.kind=RF", "model.n_trees=25",
        "scheme=group_cv", "scheme.k=3", "n_repeats=5", "base_seed=17",
    ]
    outs = {}
    for threads in (1, 8):
        out = root / f"t{threads}"
        status = execute("benchmark", None,
                         args + [f"out_dir={out}", f"threads={threads}"])
        assert status == 0
        outs[threads] = out
    return outs


def test_criterion_8_thread_determinism(benchmark_reports):
    csv_1 = (benchmark_reports[1] / "report.csv").read_bytes()
    csv_8 = (benchmark_reports[8] / "report.csv").read_bytes()
    assert csv_1 == csv_8
    json_1 = (benchmark_reports[1] / "report.json").read_bytes()
    json_8 = (benchmark_reports[8] / "report.json").read_bytes()
    assert json_1 == json_8
    _announce(8, "benchmark reports are byte-identical at thread counts 1 and 8")


def test_criterion_9_protocol_shape(benchmark_reports):
    with open(benchmark_reports[1] / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    folds = [f"fold{i}" for i in range(3)]
    metrics = sorted({r["metric"] for r in rows})
    fold_means = {m: [] for m in metrics}
    for fold in folds:
        for metric in metrics:
            seed_values = [float(r["value"]) for r in rows
                           if r["fold"] == fold and r["metric"] == metric
                           and r["seed"] != "mean"]
            assert len(seed_values) == 5, (fold, metric)
            mean_row = [float(r["value"]) for r in rows
                        if r["fold"] == fold and r["seed"] == "mean"
                        and r["metric"] == metric]
            assert len(mean_row) == 1
            assert abs(mean_row[0] - np.mean(seed_values)) <= 1e-12
            fold_means[metric].append(mean_row[0])
    for metric in metrics:
        overall = [float(r["value"]) for r in rows
                   if r["fold"] == "mean" and r["seed"] == "mean"
                   and r["metric"] == metric]
        assert len(overall) == 1
        assert abs(overall[0] - np.mean(fold_means[metric])) <= 1e-12
    _announce(9, "5 seed entries per fold; aggregates equal constituent means to 1e-12")


# --------------------------------------------------------------------------
# Criterion 10: geographic-shift harness
# --------------------------------------------------------------------------

def test_criterion_10_geographic_shift(tmp_path_factory):
    root = tmp_path_factory.mktemp("shift")
    cfg = TaskConfig(task="yield", crop="corn", feature_set="AEF")
    model = ModelSpec(kind="RF", task="regression", n_trees=100)
    margins = {}
    for offset in (0.0, 4.0):
        out = root / f"off{offset}"
        spec = SynthSpec(n_counties=84, years=(2018, 2019, 2020, 2021),
                         label_r2_ceiling=0.9, region_offset=offset)
        generate(spec, seed=23, out_dir=out)
        dataset = load_dataset(out)
        in_domain = run_benchmark(dataset, cfg, model, "group_cv", k=5,
                                  n_repeats=1, base_seed=2)
        transfer = run_benchmark(dataset, cfg, model, "space_transfer",
                                 direction="East->West", n_repeats=1, base_seed=2)
        margins[offset] = in_domain.aggregate("R2") - transfer.aggregate("R2")
    assert margins[4.0] > 0.1, margins
    assert margins[0.0] < 0.05, margins
    _announce(10, f"margin {margins[4.0]:.3f} > 0.1 with the offset on, "
                  f"{margins[0.0]:.3f} < 0.05 with it off")
