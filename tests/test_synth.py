import numpy as np
import pytest

from agribench.dataset import SpectralBand, load_dataset
from agribench.featurize import SEASON_TEMPLATES, TaskConfig, assemble_table
from agribench.harmonics import fit_harmonic
from agribench.synth import SynthSpec, generate, read_truth

BUNDLE_FILES = (
    "units.csv", "observations.csv", "climate.csv",
    "embeddings.csv", "labels.csv", "truth.csv",
)


class TestSpecValidation:
    def test_defaults_ok(self):
        SynthSpec()

    def test_covercrop_cannot_mix_with_calendar_tasks(self):
        with pytest.raises(ValueError, match="cannot share"):
            SynthSpec(tasks=("yield", "covercrop_class"), fields_per_county=1)

    def test_field_tasks_need_fields(self):
        with pytest.raises(ValueError, match="fields_per_county"):
            SynthSpec(tasks=("tillage_class",))

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown tasks"):
            SynthSpec(tasks=("grazing",))

    def test_unknown_crop(self):
        with pytest.raises(ValueError, match="unknown crop 'rice'"):
            SynthSpec(crop="rice")
        with pytest.raises(ValueError, match="unknown crop 'covercrop'"):
            SynthSpec(crop="covercrop")  # a season template, not a crop

    def test_repeated_years(self):
        with pytest.raises(ValueError, match="years must not repeat"):
            SynthSpec(years=(2020, 2019, 2020))


class TestGeneration:
    @pytest.mark.parametrize("spec", [
        SynthSpec(n_counties=8, years=(2019, 2020)),
        SynthSpec(n_counties=3, fields_per_county=2, years=(2019, 2020), dropout=0.5,
                  tasks=("yield", "tillage_ratio", "tillage_class")),
        SynthSpec(n_counties=3, fields_per_county=2, years=(2020, 2021),
                  tasks=("covercrop_class",)),
    ], ids=["counties", "tillage-fields", "covercrop"])
    def test_round_trip_counts(self, tmp_path, spec):
        summary = generate(spec, seed=3, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        assert ds.manifest["units.csv"]["rows"] == summary["units"]
        assert ds.manifest["observations.csv"]["rows"] == summary["observations"]
        assert ds.manifest["climate.csv"]["rows"] == summary["climate"]
        assert ds.manifest["embeddings.csv"]["rows"] == summary["embeddings"]
        assert ds.manifest["labels.csv"]["rows"] == summary["labels"]

    def test_byte_identical_repeat(self, tmp_path):
        spec = SynthSpec(n_counties=6, years=(2020,), sigma_obs=0.01,
                         label_sigma=0.1, dropout=0.1)
        generate(spec, seed=8, out_dir=tmp_path / "a")
        generate(spec, seed=8, out_dir=tmp_path / "b")
        for name in BUNDLE_FILES:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        spec = SynthSpec(n_counties=6, years=(2020,))
        generate(spec, seed=1, out_dir=tmp_path / "a")
        generate(spec, seed=2, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "observations.csv").read_bytes() != \
               (tmp_path / "b" / "observations.csv").read_bytes()

    def test_noise_free_recovery(self, tmp_path):
        spec = SynthSpec(n_counties=5, years=(2019, 2020), sigma_obs=0.0)
        generate(spec, seed=21, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        truth = read_truth(tmp_path / "b")
        checked = 0
        for (unit, year, band), coefs in truth["coefficients"].items():
            window = SEASON_TEMPLATES["corn"].window(year)
            series = ds.series_for(unit, SpectralBand.from_name(band))
            fit = fit_harmonic(series, window)
            for name, got in zip(("c", "a1", "b1", "a2", "b2"), fit.coefficients):
                assert got == pytest.approx(coefs[name], abs=1e-8)
            checked += 1
        assert checked == 5 * 2 * 6  # units x years x raw bands

    def test_yield_table_coefficients_match_truth_end_to_end(self, tmp_path):
        # Ties featurize to the harmonics oracle: assembled coefficient
        # columns reproduce the generating coefficients on a noise-free bundle.
        spec = SynthSpec(n_counties=6, years=(2020,), sigma_obs=0.0)
        generate(spec, seed=9, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        truth = read_truth(tmp_path / "b")
        table = assemble_table(ds, TaskConfig(task="yield", crop="corn"))
        name_pos = {name: i for i, name in enumerate(table.feature_names)}
        for row, (unit, year) in zip(table.values, table.unit_years):
            for band in ("Red", "Green", "Blue", "NIR", "SWIR1", "SWIR2"):
                coefs = truth["coefficients"][(unit, year, band)]
                for stat in ("c", "a1", "b1", "a2", "b2"):
                    got = row[name_pos[f"{band}_{stat}"]]
                    assert got == pytest.approx(coefs[stat], abs=1e-8), (unit, band, stat)

    def test_label_variance_sidecar(self, tmp_path):
        spec = SynthSpec(n_counties=125, fields_per_county=1,
                         years=(2018, 2019, 2020, 2021), label_r2_ceiling=0.9)
        summary = generate(spec, seed=5, out_dir=tmp_path / "b")
        assert summary["labels"] >= 1000
        ds = load_dataset(tmp_path / "b")
        truth = read_truth(tmp_path / "b")
        labels = np.array([rec.value for rec in ds.labels if rec.task == "yield"])
        recorded = truth["meta"]["label_variance"]
        assert abs(recorded - labels.var()) / labels.var() < 0.05
        assert truth["meta"]["r2_ceiling"] == pytest.approx(0.9, abs=0.05)

    def test_region_offset_zero_balanced_embeddings(self, tmp_path):
        spec = SynthSpec(n_counties=48, years=(2019, 2020), region_offset=0.0)
        generate(spec, seed=13, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        east, west = [], []
        for (unit, _), emb in ds.embeddings.items():
            region = ds.units[unit].ecoregion
            (east if region == "East" else west).append(emb)
        gap = np.abs(np.mean(east, axis=0) - np.mean(west, axis=0))
        pooled_sd = np.std(np.vstack([east, west]), axis=0)
        # Identical in law: per-dim mean gap stays within sampling noise.
        assert np.all(gap < 0.75 * pooled_sd + 0.05)

    def test_region_offset_shifts_west(self, tmp_path):
        base = SynthSpec(n_counties=24, years=(2020,), region_offset=0.0)
        shifted = SynthSpec(n_counties=24, years=(2020,), region_offset=4.0)
        generate(base, seed=13, out_dir=tmp_path / "a")
        generate(shifted, seed=13, out_dir=tmp_path / "b")
        a = load_dataset(tmp_path / "a")
        b = load_dataset(tmp_path / "b")
        for (unit, year), emb in a.embeddings.items():
            other = b.embedding_for(unit, year)
            if a.units[unit].ecoregion == "West":
                assert not np.allclose(emb, other)
            else:
                assert np.array_equal(emb, other)

    def test_every_bundle_passes_validation(self, tmp_path):
        specs = [
            SynthSpec(n_counties=4, years=(2020,), sigma_obs=0.02, dropout=0.3,
                      label_sigma=0.2),
            SynthSpec(n_counties=4, fields_per_county=2, years=(2019, 2020),
                      tasks=("yield", "tillage_ratio", "tillage_class")),
            SynthSpec(n_counties=3, fields_per_county=2, years=(2020, 2021),
                      tasks=("covercrop_class",)),
        ]
        for i, spec in enumerate(specs):
            out = tmp_path / f"b{i}"
            generate(spec, seed=i, out_dir=out)
            ds = load_dataset(out)  # raises on any invariant violation
            assert ds.labels

    def test_covercrop_bundle_supports_both_feature_sets(self, tmp_path):
        spec = SynthSpec(n_counties=4, fields_per_county=3, years=(2020, 2021),
                         tasks=("covercrop_class",))
        generate(spec, seed=2, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        rs = assemble_table(ds, TaskConfig(task="covercrop_class"))
        assert rs.values.shape[1] == 144
        aef = assemble_table(ds, TaskConfig(task="covercrop_class", feature_set="AEF"))
        assert aef.values.shape[1] == 128

    def test_covercrop_gap_years_keep_every_labelled_row(self, tmp_path):
        # Each label year needs its prior year's embedding, not only the first.
        spec = SynthSpec(n_counties=3, fields_per_county=2, years=(2019, 2021),
                         tasks=("covercrop_class",))
        generate(spec, seed=4, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        assert sorted({year for _, year in ds.embeddings}) == [2018, 2019, 2020, 2021]
        for feature_set in ("RS", "AEF"):
            table = assemble_table(ds, TaskConfig(task="covercrop_class", feature_set=feature_set))
            assert table.n_rows == len(ds.labels), (feature_set, table.exclusion_log)

    def test_noise_free_labels_sum_weighted_truth_features(self, tmp_path):
        weights = {"GCVI_peak": 1.3, "NIR_c": -2.5, "NDVI_peak": 0.7}
        spec = SynthSpec(n_counties=6, years=(2020, 2021), label_weights=weights,
                         label_intercept=7.25, label_sigma=0.0)
        generate(spec, seed=11, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        features = read_truth(tmp_path / "b")["features"]
        assert len(ds.labels) == 12
        for rec in ds.labels:
            feats = features[(rec.unit_id, rec.year)]
            expected = 7.25 + sum(weights[name] * feats[name] for name in sorted(weights))
            assert rec.value == expected, (rec.unit_id, rec.year)

    def test_dropout_exercises_missing_policy(self, tmp_path):
        spec = SynthSpec(n_counties=30, years=(2020,), dropout=0.75)
        generate(spec, seed=17, out_dir=tmp_path / "b")
        ds = load_dataset(tmp_path / "b")
        table = assemble_table(ds, TaskConfig(task="yield", crop="corn"))
        # Heavy dropout must exclude some rows but not all.
        assert 0 < table.n_rows < 30
        assert table.exclusion_log
