import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agribench.dataset import (
    BundleValidationError,
    MaskError,
    SpectralBand,
    load_dataset,
    masked_mean,
)

UNIT_ROW = ["c1", "county", "IL", "c1", "", "120.0"]
EMB_PREFIX = ["c1", "2020"]


def test_band_raw_derived_split():
    assert SpectralBand.NIR.is_raw
    assert not SpectralBand.NIR.is_derived
    assert SpectralBand.NDVI.is_derived
    assert SpectralBand.from_name("SWIR1") is SpectralBand.SWIR1
    with pytest.raises(ValueError, match="unknown band"):
        SpectralBand.from_name("B42")


def test_load_empty_labels_ok(tmp_bundle):
    ds = load_dataset(tmp_bundle(units=[UNIT_ROW]))
    assert ds.labels == []
    assert ds.manifest["labels.csv"]["rows"] == 0
    assert ds.units["c1"].ecoregion == "East"  # filled from the default map


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nowhere")


def test_short_embedding_row_names_file_and_line(tmp_bundle):
    bundle = tmp_bundle(units=[UNIT_ROW])
    # Overwrite embeddings with a row of 63 values instead of 64.
    header = "unit_id,year," + ",".join(f"A{i:02d}" for i in range(64))
    row = "c1,2020," + ",".join("0.1" for _ in range(63))
    (bundle / "embeddings.csv").write_text(header + "\n" + row + "\n")
    with pytest.raises(BundleValidationError, match=r"embeddings\.csv line 2"):
        load_dataset(bundle)


def test_bad_value_names_column(tmp_bundle):
    bundle = tmp_bundle(
        units=[UNIT_ROW],
        observations=[["c1", "NIR", "2020-06-01", "oops"]],
    )
    with pytest.raises(BundleValidationError, match=r"observations\.csv line 2.*'value'"):
        load_dataset(bundle)


def test_duplicate_observation_rejected(tmp_bundle):
    bundle = tmp_bundle(
        units=[UNIT_ROW],
        observations=[
            ["c1", "NIR", "2020-06-01", "0.5"],
            ["c1", "NIR", "2020-06-01", "0.6"],
        ],
    )
    with pytest.raises(BundleValidationError, match="duplicate observation"):
        load_dataset(bundle)


def test_tmin_above_tmax_rejected(tmp_bundle):
    bundle = tmp_bundle(
        units=[UNIT_ROW],
        climate=[["c1", "2020-06-01", "25.0", "10.0", "0.0"]],
    )
    with pytest.raises(BundleValidationError, match=r"climate\.csv line 2"):
        load_dataset(bundle)


CLIMATE_DAY = ["c1", "2020-06-01", "10.0", "25.0", "1.5"]


@pytest.mark.parametrize("rows, line, message", [
    ([["ghost", "2020-06-01", "10.0", "25.0", "1.5"]], 2, "unknown unit_id 'ghost'"),
    ([CLIMATE_DAY, ["c1", "2020-06-01", "11.0", "24.0", "0.0"]], 3, "duplicate climate day"),
    ([CLIMATE_DAY, ["c1", "2020-06-02", "10.0", "25.0", "-0.5"]], 3, "negative precipitation"),
    ([CLIMATE_DAY, ["c1", "2020-06-02", "10.0", "inf", "0.0"]], 3, "'tmax_c': non-finite"),
], ids=["unknown_unit", "duplicate_day", "negative_ppt", "non_finite"])
def test_bad_climate_row_names_file_and_line(tmp_bundle, rows, line, message):
    bundle = tmp_bundle(units=[UNIT_ROW], climate=rows)
    with pytest.raises(BundleValidationError, match=rf"climate\.csv line {line}: .*{message}"):
        load_dataset(bundle)


@pytest.mark.parametrize("table, rows", [
    ("observations", [["c1", "NIR", "2020-06-01", "0.5"], ["ghost", "NIR", "2020-06-01", "0.5"]]),
    ("embeddings", [EMB_PREFIX + ["0.01"] * 64, ["ghost", "2020"] + ["0.01"] * 64]),
], ids=["observations", "embeddings"])
def test_unknown_unit_rejected(tmp_bundle, table, rows):
    bundle = tmp_bundle(units=[UNIT_ROW], **{table: rows})
    with pytest.raises(BundleValidationError, match=rf"{table}\.csv line 3: unknown unit_id 'ghost'"):
        load_dataset(bundle)


def test_reflectance_range_enforced(tmp_bundle):
    bundle = tmp_bundle(
        units=[UNIT_ROW],
        observations=[["c1", "Red", "2020-06-01", "1.7"]],
    )
    with pytest.raises(BundleValidationError, match="outside"):
        load_dataset(bundle)


def test_label_for_unknown_unit_rejected(tmp_bundle):
    bundle = tmp_bundle(units=[UNIT_ROW], labels=[["ghost", "2020", "yield", "9.1"]])
    with pytest.raises(BundleValidationError, match="unknown unit_id"):
        load_dataset(bundle)


def test_duplicate_label_rejected(tmp_bundle):
    bundle = tmp_bundle(units=[UNIT_ROW], labels=[
        ["c1", "2020", "yield", "9.0"],
        ["c1", "2020", "tillage_ratio", "0.5"],
        ["c1", "2020", "yield", "7.0"],
    ])
    with pytest.raises(BundleValidationError,
                       match=r"labels\.csv line 4: duplicate label for unit 'c1', "
                             r"year 2020, task 'yield'"):
        load_dataset(bundle)


def test_explicit_ecoregion_override_kept(tmp_bundle):
    bundle = tmp_bundle(units=[["c1", "county", "IL", "c1", "West", "88.0"]])
    assert load_dataset(bundle).units["c1"].ecoregion == "West"


def test_load_is_deterministic(tmp_bundle):
    bundle = tmp_bundle(
        units=[UNIT_ROW],
        observations=[
            ["c1", "NIR", "2020-06-11", "0.52"],
            ["c1", "NIR", "2020-06-01", "0.5"],
        ],
        climate=[["c1", "2020-06-01", "10.0", "25.0", "1.5"]],
        embeddings=[EMB_PREFIX + ["0.01"] * 64],
        labels=[["c1", "2020", "yield", "9.1"]],
    )
    a = load_dataset(bundle)
    b = load_dataset(bundle)
    assert a.manifest == b.manifest
    sa = a.series_for("c1", SpectralBand.NIR)
    sb = b.series_for("c1", SpectralBand.NIR)
    assert sa.dates == sb.dates
    assert np.array_equal(sa.values, sb.values)
    # Out-of-order rows are canonicalized to date order.
    assert sa.dates[0].day == 1
    assert a.labels == b.labels
    assert np.array_equal(
        a.embedding_for("c1", 2020), b.embedding_for("c1", 2020)
    )


class TestMaskedMean:
    def test_basic(self):
        assert masked_mean([1, 2, 3], [1, 0, 1]) == 2.0

    def test_singleton(self):
        assert masked_mean([5], [1]) == 5.0

    def test_all_masked(self):
        with pytest.raises(MaskError, match="no valid pixels"):
            masked_mean([1, 2, 3], [0, 0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            masked_mean([1, 2], [1])

    def test_bad_mask_element(self):
        with pytest.raises(ValueError, match="0 or 1"):
            masked_mean([1.0], [2])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_all_ones_mask_is_plain_mean(self, values):
        result = masked_mean(values, [1] * len(values))
        assert result == pytest.approx(sum(values) / len(values), rel=1e-12, abs=1e-12)
