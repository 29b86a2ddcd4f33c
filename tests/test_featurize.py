import math
import random
import tempfile
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agribench.dataset import SpectralBand, load_dataset
from agribench.featurize import (
    FEATURE_SET_FILES,
    FeatureAssemblyError,
    TaskConfig,
    assemble_table,
    build_aef_features,
    build_covercrop_features,
    build_tillage_features,
    build_yield_features,
    expected_feature_count,
    export_feature_table,
    feature_names,
)
from agribench.harmonics import time_fraction
from agribench.synth import SynthSpec, generate
from conftest import write_bundle

B = SpectralBand
RAW = ("Red", "Green", "Blue", "NIR", "SWIR1", "SWIR2")


def flat_curve(band, day):
    return 0.4


def obs_rows(units, curve=flat_curve, start=date(2019, 9, 1), end=date(2020, 10, 31),
             step=10, skip_month=None):
    rows = []
    for unit in units:
        d = start
        while d <= end:
            if skip_month is None or (d.year, d.month) != skip_month:
                for band in RAW:
                    rows.append([unit, band, d.isoformat(), repr(curve(band, d))])
            d += timedelta(days=step)
    return rows


def climate_rows(units, start=date(2019, 1, 1), end=date(2020, 12, 31)):
    rows = []
    for unit in units:
        d = start
        while d <= end:
            rows.append([unit, d.isoformat(), "10.0", "20.0", "2.0"])
            d += timedelta(days=1)
    return rows


def emb_rows(units, years):
    return [
        [unit, str(year)] + [repr(0.01 * i + 0.1 * year % 1) for i in range(64)]
        for unit in units
        for year in years
    ]


@pytest.fixture
def complete_dataset(tmp_path):
    units = [
        ["c1", "county", "IL", "c1", "", "120.0"],
        ["c2", "county", "IA", "c2", "", "300.0"],
        ["f1", "field", "IL", "c1", "", "140.0"],
    ]
    bundle = write_bundle(
        tmp_path / "bundle",
        units=units,
        observations=obs_rows(["c1", "c2", "f1"]),
        climate=climate_rows(["c1", "c2", "f1"]),
        embeddings=emb_rows(["c1", "c2", "f1"], [2019, 2020]),
        labels=[
            ["c1", "2020", "yield", "9.0"],
            ["c2", "2020", "yield", "8.0"],
            ["c1", "2020", "tillage_ratio", "0.4"],
            ["c2", "2020", "tillage_ratio", "0.6"],
            ["f1", "2020", "tillage_class", "1"],
            ["f1", "2020", "covercrop_class", "0"],
        ],
    )
    return load_dataset(bundle)


class TestColumnContracts:
    def test_corn_yield_row_width(self, complete_dataset):
        cfg = TaskConfig(task="yield", crop="corn")
        values, causes = build_yield_features(complete_dataset, "c1", 2020, cfg)
        assert len(values) == 90
        assert not causes
        assert len(feature_names(cfg)) == 90

    def test_wheat_yield_row_width(self, complete_dataset):
        cfg = TaskConfig(task="yield", crop="winter_wheat")
        values, _ = build_yield_features(complete_dataset, "c1", 2020, cfg)
        assert len(values) == 92
        assert expected_feature_count(cfg) == 92

    def test_tillage_row_width(self, complete_dataset):
        cfg = TaskConfig(task="tillage_ratio")
        values, causes = build_tillage_features(complete_dataset, "c1", 2020, cfg)
        assert len(values) == 67
        assert not causes
        assert values["elev"] == 120.0

    def test_covercrop_row_width(self, complete_dataset):
        cfg = TaskConfig(task="covercrop_class")
        values, causes = build_covercrop_features(complete_dataset, "f1", 2020, cfg)
        assert len(values) == 144
        assert not causes

    def test_aef_widths_and_prior_year_order(self, complete_dataset):
        values, _ = build_aef_features(complete_dataset, "c1", 2020, "yield")
        assert len(values) == 64
        values, _ = build_aef_features(complete_dataset, "f1", 2020, "covercrop_class")
        assert len(values) == 128
        names = feature_names(TaskConfig(task="covercrop_class", feature_set="AEF"))
        assert names[0] == "py_A00" and names[64] == "A00"
        prior = complete_dataset.embedding_for("f1", 2019)
        assert values["py_A00"] == prior[0]

    def test_all_contract_counts(self):
        cases = [
            (TaskConfig(task="yield", crop="corn"), 90),
            (TaskConfig(task="yield", crop="soybean"), 90),
            (TaskConfig(task="yield", crop="winter_wheat"), 92),
            (TaskConfig(task="tillage_ratio"), 67),
            (TaskConfig(task="tillage_class"), 67),
            (TaskConfig(task="covercrop_class"), 144),
            (TaskConfig(task="yield", crop="corn", feature_set="AEF"), 64),
            (TaskConfig(task="tillage_class", feature_set="AEF"), 64),
            (TaskConfig(task="covercrop_class", feature_set="AEF"), 128),
        ]
        for cfg, expected in cases:
            assert expected_feature_count(cfg) == expected, cfg


class TestFeatureValues:
    def test_constant_reflectance_flattens_everything(self, complete_dataset):
        cfg = TaskConfig(task="yield", crop="corn")
        values, _ = build_yield_features(complete_dataset, "c1", 2020, cfg)
        for band in RAW:
            assert values[f"{band}_c"] == pytest.approx(0.4, abs=1e-9)
            for stat in ("a1", "b1", "a2", "b2"):
                assert values[f"{band}_{stat}"] == pytest.approx(0.0, abs=1e-9)
            for stat in ("peak", "b30", "a30"):
                assert values[f"{band}_{stat}"] == pytest.approx(0.4, abs=1e-9)
        # NDVI of equal bands is 0, GCVI is the plain ratio 1.
        assert values["NDVI_peak"] == pytest.approx(0.0, abs=1e-9)
        assert values["GCVI_peak"] == pytest.approx(1.0, abs=1e-9)

    def test_constant_monthly_extrema_collapse(self, complete_dataset):
        cfg = TaskConfig(task="tillage_ratio")
        values, _ = build_tillage_features(complete_dataset, "c1", 2020, cfg)
        for band in RAW + ("NDVI", "GCVI", "NDTI", "STI", "CRC"):
            for mon in ("apr", "may", "jun"):
                assert values[f"{band}_{mon}_min"] == values[f"{band}_{mon}_max"]

    def test_single_observation_per_month_collapses_extrema(self, tmp_path):
        def bumpy(band, day):
            return 0.3 + 0.01 * (day.month + day.day % 3)

        rows = []
        for month in (4, 5, 6):
            for band in RAW:
                d = date(2020, month, 15)
                rows.append(["c1", band, d.isoformat(), repr(bumpy(band, d))])
        bundle = write_bundle(
            tmp_path / "b",
            units=[["c1", "county", "IL", "c1", "", "50.0"]],
            observations=rows,
            climate=climate_rows(["c1"]),
            labels=[["c1", "2020", "tillage_ratio", "0.5"]],
        )
        ds = load_dataset(bundle)
        values, causes = build_tillage_features(ds, "c1", 2020, TaskConfig(task="tillage_ratio"))
        assert not causes
        for band in RAW + ("NDVI", "GCVI", "NDTI", "STI", "CRC"):
            for mon in ("apr", "may", "jun"):
                assert values[f"{band}_{mon}_min"] == values[f"{band}_{mon}_max"]

    def test_climate_cells(self, complete_dataset):
        cfg = TaskConfig(task="yield", crop="corn")
        values, _ = build_yield_features(complete_dataset, "c1", 2020, cfg)
        # Constant 10/20 days: tmean 15, ppt 2 mm/day.
        assert values["ppt_jun"] == pytest.approx(60.0)
        assert values["ppt_jul"] == pytest.approx(62.0)
        assert values["gdd_jun"] > 0

    def test_covercrop_extrema_match_fine_grid_oracle(self, tmp_path):
        # Generating curves with all monthly extrema on grid days: a cosine
        # pair phase-locked to peak exactly on Jan 1 of the label year.
        origin = date(2019, 1, 1)
        peak_t = time_fraction(origin, date(2020, 1, 1))
        amps = {"Red": 0.04, "Green": 0.003, "Blue": 0.02,
                "NIR": 0.12, "SWIR1": 0.05, "SWIR2": 0.04}
        bases = {"Red": 0.15, "Green": 0.35, "Blue": 0.10,
                 "NIR": 0.50, "SWIR1": 0.28, "SWIR2": 0.18}

        def curve_t(band, t):
            w = 2 * np.pi * (np.asarray(t) - peak_t)
            return bases[band] + amps[band] * np.cos(w) + 0.2 * amps[band] * np.cos(2 * w)

        def curve(band, day):
            return float(curve_t(band, time_fraction(origin, day)))

        bundle = write_bundle(
            tmp_path / "b",
            units=[["c1", "county", "IL", "c1", "", "100.0"]],
            observations=obs_rows(["c1"], curve=curve,
                                  start=date(2019, 10, 1), end=date(2020, 5, 31), step=8),
            climate=climate_rows(["c1"]),
            embeddings=emb_rows(["c1"], [2019, 2020]),
            labels=[["c1", "2020", "covercrop_class", "1"]],
        )
        ds = load_dataset(bundle)
        cfg = TaskConfig(task="covercrop_class")
        values, causes = build_covercrop_features(ds, "c1", 2020, cfg)
        assert not causes

        month_spans = [(2019, 10), (2019, 11), (2019, 12), (2020, 1),
                       (2020, 2), (2020, 3), (2020, 4), (2020, 5)]
        months_abbr = ["oct", "nov", "dec", "jan", "feb", "mar", "apr", "may"]
        for (yy, mm), abbr in zip(month_spans, months_abbr):
            first = date(yy, mm, 1)
            nxt = date(yy + (mm == 12), mm % 12 + 1, 1)
            t0 = time_fraction(origin, first)
            t1 = time_fraction(origin, nxt - timedelta(days=1))
            steps = int(round((t1 - t0) * 365.25 / 0.01))
            fine = np.linspace(t0, t1, steps + 1)
            for band in ("NIR", "Red", "SWIR1"):
                scan = curve_t(band, fine)
                assert values[f"{band}_{abbr}_min"] == pytest.approx(
                    float(scan.min()), abs=1e-6)
                assert values[f"{band}_{abbr}_max"] == pytest.approx(
                    float(scan.max()), abs=1e-6)


class TestAssembly:
    def test_drop_policy_excludes_and_logs(self, tmp_path):
        # c2 has no May observations: its tillage row is dropped.
        obs = obs_rows(["c1"]) + obs_rows(["c2"], skip_month=(2020, 5))
        bundle = write_bundle(
            tmp_path / "b",
            units=[["c1", "county", "IL", "c1", "", "120.0"],
                   ["c2", "county", "IA", "c2", "", "300.0"]],
            observations=obs,
            climate=climate_rows(["c1", "c2"]),
            embeddings=emb_rows(["c1", "c2"], [2020]),
            labels=[["c1", "2020", "tillage_ratio", "0.4"],
                    ["c2", "2020", "tillage_ratio", "0.6"]],
        )
        ds = load_dataset(bundle)
        table = assemble_table(ds, TaskConfig(task="tillage_ratio"))
        assert table.n_rows == 1
        assert table.unit_years == (("c1", 2020),)
        assert table.exclusion_log == {"missing_month": 1}

    @pytest.mark.parametrize("policy", ["drop", "impute_mean"])
    def test_load_without_the_feature_sets_files_is_named(self, tmp_path, policy):
        bundle = write_bundle(
            tmp_path / "b",
            units=[["c1", "county", "IL", "c1", "", "120.0"]],
            observations=obs_rows(["c1"]),
            climate=climate_rows(["c1"]),
            embeddings=emb_rows(["c1"], [2020]),
            labels=[["c1", "2020", "yield", "9.0"]],
        )
        rs = TaskConfig(task="yield", crop="corn", missing_policy=policy)
        with pytest.raises(FeatureAssemblyError) as info:
            assemble_table(load_dataset(bundle, FEATURE_SET_FILES["AEF"]), rs)
        assert str(info.value) == ("feature set 'RS' reads observations.csv, climate.csv, "
                                   "which the dataset was loaded without")
        aef = replace(rs, feature_set="AEF")
        with pytest.raises(FeatureAssemblyError, match="'AEF' reads embeddings.csv,"):
            assemble_table(load_dataset(bundle, FEATURE_SET_FILES["RS"]), aef)
        assert assemble_table(load_dataset(bundle, FEATURE_SET_FILES["RS"]), rs).n_rows == 1

    def test_impute_mean_fills_with_complete_row_means(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            units=[["c1", "county", "IL", "c1", "", "1.0"],
                   ["c2", "county", "IA", "c2", "", "2.0"],
                   ["c3", "county", "OH", "c3", "", "3.0"]],
            embeddings=emb_rows(["c1", "c2"], [2020]),  # c3 missing
            labels=[["c1", "2020", "yield", "9.0"],
                    ["c2", "2020", "yield", "8.0"],
                    ["c3", "2020", "yield", "7.0"]],
        )
        ds = load_dataset(bundle)
        cfg = TaskConfig(task="yield", crop="corn", feature_set="AEF",
                         missing_policy="impute_mean")
        table = assemble_table(ds, cfg)
        assert table.n_rows == 3
        complete = np.array([
            ds.embedding_for("c1", 2020),
            ds.embedding_for("c2", 2020),
        ])
        expected_means = complete.mean(axis=0)  # independent recomputation
        row_c3 = table.values[list(table.unit_years).index(("c3", 2020))]
        assert np.allclose(row_c3, expected_means, rtol=0, atol=0)
        assert table.exclusion_log == {"imputed_cells": 64}

    def test_drop_policy_missing_embedding(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            units=[["f1", "field", "IL", "c1", "", "1.0"]],
            embeddings=emb_rows(["f1"], [2020]),  # no 2019 for two-year concat
            labels=[["f1", "2020", "covercrop_class", "1"],
                    ["f1", "2021", "covercrop_class", "0"]],
        )
        ds = load_dataset(bundle)
        cfg = TaskConfig(task="covercrop_class", feature_set="AEF")
        with pytest.raises(FeatureAssemblyError, match="no rows survived"):
            assemble_table(ds, cfg)

    def test_assembly_is_deterministic(self, complete_dataset, tmp_path):
        cfg = TaskConfig(task="yield", crop="corn")
        a = assemble_table(complete_dataset, cfg)
        b = assemble_table(complete_dataset, cfg)
        assert a.feature_names == b.feature_names
        assert a.unit_years == b.unit_years
        assert np.array_equal(a.values, b.values)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_feature_table(a, pa)
        export_feature_table(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_undefined_index_has_its_own_cause(self, tmp_path):
        # Green is zero in every scene, so GCVI (NIR / Green) is undefined for c2.
        def green_zero(band, day):
            return 0.0 if band == "Green" else 0.4

        bundle = write_bundle(
            tmp_path / "b",
            units=[["c1", "county", "IL", "c1", "", "120.0"],
                   ["c2", "county", "IA", "c2", "", "300.0"]],
            observations=obs_rows(["c1"]) + obs_rows(["c2"], curve=green_zero),
            labels=[["c1", "2020", "tillage_ratio", "0.4"],
                    ["c2", "2020", "tillage_ratio", "0.6"]],
        )
        table = assemble_table(load_dataset(bundle), TaskConfig(task="tillage_ratio"))
        assert table.unit_years == (("c1", 2020),)
        assert table.exclusion_log == {"index_undefined": 1}

    def test_zero_denominator_scene_blanks_only_its_month(self, tmp_path):
        def green_zero_in_may(band, day):
            return 0.0 if band == "Green" and (day.year, day.month) == (2020, 5) else 0.4

        bundle = write_bundle(
            tmp_path / "b",
            units=[["c1", "county", "IL", "c1", "", "120.0"]],
            observations=obs_rows(["c1"], curve=green_zero_in_may),
            labels=[["c1", "2020", "tillage_ratio", "0.4"]],
        )
        values, causes = build_tillage_features(
            load_dataset(bundle), "c1", 2020, TaskConfig(task="tillage_ratio"))
        assert values["GCVI_apr_min"] == values["GCVI_jun_max"] == 1.0
        assert math.isnan(values["GCVI_may_min"]) and math.isnan(values["GCVI_may_max"])
        assert causes == {"missing_month"}

    def test_every_cell_finite(self, complete_dataset):
        for cfg in (
            TaskConfig(task="yield", crop="corn"),
            TaskConfig(task="tillage_ratio"),
            TaskConfig(task="yield", crop="corn", feature_set="AEF"),
        ):
            table = assemble_table(complete_dataset, cfg)
            assert np.isfinite(table.values).all()

    def test_select_preserves_schema(self, complete_dataset):
        table = assemble_table(complete_dataset, TaskConfig(task="yield", crop="corn"))
        sub = table.select([0])
        assert sub.feature_names == table.feature_names
        assert sub.n_rows == 1


class TestTaskConfig:
    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskConfig(task="pasture")

    def test_yield_requires_crop(self):
        with pytest.raises(ValueError, match="requires crop"):
            TaskConfig(task="yield")

    def test_corn_default_thresholds_flagged(self):
        assert TaskConfig(task="yield", crop="corn").flagged_defaults()
        assert not TaskConfig(task="yield", crop="soybean").flagged_defaults()

    def test_column_order_documented_scheme(self):
        names = feature_names(TaskConfig(task="yield", crop="corn"))
        assert names[0] == "Red_c"
        assert names[9] == "Red_a30int"
        assert names[10] == "Green_c"
        assert names[80] == "gdd_may"
        assert names[-1] == "ppt_sep"


BUNDLE_FILES = ("units.csv", "observations.csv", "climate.csv", "embeddings.csv", "labels.csv")
ROW_ORDER_CASES = {
    "calendar": (SynthSpec(n_counties=3, fields_per_county=1, years=(2019, 2020),
                           tasks=("yield", "tillage_ratio", "tillage_class"), dropout=0.2),
                 [TaskConfig(task="yield", crop="corn"), TaskConfig(task="tillage_ratio"),
                  TaskConfig(task="tillage_class")]),
    "covercrop": (SynthSpec(n_counties=2, fields_per_county=2, years=(2019, 2020),
                            tasks=("covercrop_class",), dropout=0.2),
                  [TaskConfig(task="covercrop_class")]),
}


def _all_tables(bundle, configs):
    dataset = load_dataset(bundle)
    tables = []
    for cfg in configs:
        for feature_set in ("RS", "AEF"):
            table = assemble_table(dataset, replace(cfg, feature_set=feature_set))
            tables.append((table.feature_names, table.unit_years, table.values.tobytes(),
                           table.labels.tobytes(), table.exclusion_log))
    return tables


@pytest.fixture(scope="module")
def row_order_bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("row_order")
    cases = {}
    for name, (spec, configs) in ROW_ORDER_CASES.items():
        generate(spec, seed=29, out_dir=root / name)
        cases[name] = (root / name, configs, _all_tables(root / name, configs))
    return cases


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_tables_independent_of_bundle_row_order(row_order_bundles, seed):
    rng = random.Random(seed)
    for bundle, configs, expected in row_order_bundles.values():
        with tempfile.TemporaryDirectory() as tmp:
            for filename in BUNDLE_FILES:
                header, *rows = (bundle / filename).read_text(encoding="utf-8").splitlines()
                rng.shuffle(rows)
                (Path(tmp) / filename).write_text("\n".join([header] + rows) + "\n",
                                                  encoding="utf-8")
            assert _all_tables(Path(tmp), configs) == expected
