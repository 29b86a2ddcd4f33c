import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from conftest import write_bundle
from hypothesis import given, settings
from hypothesis import strategies as st

from agribench.dataset import (
    BundleValidationError,
    SpectralBand,
    _climate_columns,
    _load_climate_rows,
    _load_observation_rows,
    _load_units,
    _observation_columns,
    load_dataset,
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


# climate.csv and observations.csv are parsed by one np.loadtxt call each;
# any row that call or its checks refuse goes to the row-wise reader, which
# words every error. These pin the row-wise reader's exact messages.
OBS_DAY = ["c1", "NIR", "2020-06-01", "0.5"]


@pytest.mark.parametrize("table, row, message", [
    ("climate", ["c1", "2020-06-02", "nan", "25.0", "0.0"], "column 'tmin_c': non-finite value"),
    ("climate", ["c1", "2020-06-02", "25.0", "10.0", "0.0"], "tmin 25.0 > tmax 10.0"),
    ("climate", ["c1", "2020-06-02", "10.0", "25.0", "-0.5"], "negative precipitation -0.5"),
    ("climate", ["c2", "2020-06-02", "10.0", "25.0", "0.0"], "unknown unit_id 'c2'"),
    ("climate", ["c1x", "2020-06-02", "10.0", "25.0", "0.0"], "unknown unit_id 'c1x'"),
    ("climate", ["c1xyz", "2020-06-02", "10.0", "25.0", "0.0"], "unknown unit_id 'c1xyz'"),
    ("climate", ["c1\0", "2020-06-02", "10.0", "25.0", "0.0"], "unknown unit_id 'c1\\x00'"),
    ("climate", ["c1", "2020-06-01", "11.0", "24.0", "0.0"],
     "duplicate climate day for unit 'c1': 2020-06-01"),
    ("climate", ["c1", "2020-1-01", "10.0", "25.0", "0.0"],
     "column 'date': not an ISO date: '2020-1-01'"),
    ("climate", ["c1", "2020-06", "10.0", "25.0", "0.0"],
     "column 'date': not an ISO date: '2020-06'"),
    ("climate", ["#c1", "2020-06-02", "10.0", "25.0", "0.0"], "unknown unit_id '#c1'"),
    ("observations", ["c1", "NIR", "2020-06-02", "inf"], "column 'value': non-finite value"),
    ("observations", ["c2", "NIR", "2020-06-02", "0.5"], "unknown unit_id 'c2'"),
    ("observations", ["c1x", "NIR", "2020-06-02", "0.5"], "unknown unit_id 'c1x'"),
    ("observations", ["c1", "NIR", "2020-06-01", "0.6"],
     "duplicate observation for unit 'c1', band NIR, date 2020-06-01"),
    ("observations", ["c1", "NIRX", "2020-06-02", "0.5"], "unknown band name: 'NIRX'"),
    ("observations", ["c1", "Red", "2020-06-02", "1.6"], "raw band Red value outside [0, 1.5]"),
    ("observations", ["c1", "NIR", "2020-1-01", "0.5"],
     "column 'date': not an ISO date: '2020-1-01'"),
    ("observations", ["c1", "NIR", "today", "0.5"], "column 'date': not an ISO date: 'today'"),
    ("observations", ["#c1", "NIR", "2020-06-02", "0.5"], "unknown unit_id '#c1'"),
], ids=[
    "climate-non_finite", "climate-tmin_above_tmax", "climate-negative_ppt",
    "climate-unknown_unit", "climate-extended_unit", "climate-long_unit", "climate-nul_unit",
    "climate-duplicate_day", "climate-short_month", "climate-month_only", "climate-comment_row",
    "observations-non_finite", "observations-unknown_unit", "observations-extended_unit",
    "observations-duplicate", "observations-unknown_band", "observations-raw_above_max",
    "observations-short_month", "observations-today", "observations-comment_row",
])
def test_bad_row_keeps_row_reader_message(tmp_bundle, table, row, message):
    first = CLIMATE_DAY if table == "climate" else OBS_DAY
    bundle = tmp_bundle(units=[UNIT_ROW], **{table: [first, row]})
    with pytest.raises(BundleValidationError) as info:
        load_dataset(bundle)
    assert str(info.value) == f"{table}.csv line 3: {message}"


def _climate_arrays(climate):
    return [(unit_id, name, getattr(series, name).dtype.str, getattr(series, name).tobytes())
            for unit_id, series in climate.items()
            for name in ("days", "tmin", "tmax", "ppt", "month_keys")]


def _observation_arrays(observations):
    return [(key, series.dates, [type(d) for d in series.dates], series.values.tobytes())
            for key, series in observations.items()]


@pytest.mark.parametrize("table, row", [
    ("climate", ["c1", "20200101", "10.0", "25.0", "0.0"]),
    ("climate", ['"c1"', "2020-06-02", "10.0", "25.0", "0.0"]),
    ("observations", ["c1", "NIR", "20200101", "0.5"]),
    ("observations", ['"c1"', "NIR", "2020-06-02", "0.5"]),
], ids=["climate-basic_date", "climate-quoted_unit",
        "observations-basic_date", "observations-quoted_unit"])
def test_row_reader_decides_what_loadtxt_refuses(tmp_bundle, table, row):
    """``20200101`` (read by date.fromisoformat from Python 3.11) and a quoted
    cell are not parsed by np.loadtxt; the row-wise reader decides them."""
    first = CLIMATE_DAY if table == "climate" else OBS_DAY
    bundle = tmp_bundle(units=[UNIT_ROW], **{table: [first, row]})
    units = _load_units(bundle / "units.csv")
    columns, rows, arrays = {
        "climate": (_climate_columns, _load_climate_rows, _climate_arrays),
        "observations": (_observation_columns, _load_observation_rows, _observation_arrays),
    }[table]
    path = bundle / f"{table}.csv"
    assert columns(path, units) is None

    def outcome(load):
        try:
            return arrays(load())
        except BundleValidationError as exc:
            return str(exc)

    assert outcome(lambda: getattr(load_dataset(bundle), table)) == \
        outcome(lambda: rows(path, units))


UNIT_IDS = ("c1", "c1x", "c10", "f", "county_17_f03")
DAYS = st.integers(date(2019, 1, 1).toordinal(), date(2021, 12, 31).toordinal())
CELLS = st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False)


@st.composite
def bundle_rows(draw):
    """Valid climate and observation rows over a few units, in random order."""
    unit_ids = draw(st.lists(st.sampled_from(UNIT_IDS), min_size=1, max_size=4, unique=True))
    climate = []
    for unit_id in unit_ids:
        for day in draw(st.sets(DAYS, max_size=12)):
            low, high = sorted(draw(st.tuples(CELLS, CELLS)))
            ppt = draw(st.floats(0.0, 80.0))
            climate.append([unit_id, date.fromordinal(day).isoformat(),
                            repr(low), repr(high), repr(ppt)])
    observations = []
    for unit_id in unit_ids:
        for band in draw(st.sets(st.sampled_from(list(SpectralBand)), max_size=4)):
            values = st.floats(0.0, 1.5) if band.is_raw else CELLS
            for day in draw(st.sets(DAYS, min_size=1, max_size=8)):
                observations.append([unit_id, band.value, date.fromordinal(day).isoformat(),
                                     repr(draw(values))])
    return (unit_ids, draw(st.permutations(climate)), draw(st.permutations(observations)))


@settings(max_examples=60, deadline=None)
@given(bundle_rows())
def test_one_call_parse_equals_row_reader(rows):
    unit_ids, climate, observations = rows
    units = [[unit_id, "county", "IL", unit_id, "", "1.0"] for unit_id in unit_ids]
    with tempfile.TemporaryDirectory() as tmp:
        bundle = write_bundle(Path(tmp) / "b", units=units, climate=climate,
                              observations=observations)
        unit_meta = _load_units(bundle / "units.csv")
        fast = _climate_columns(bundle / "climate.csv", unit_meta)
        if climate:
            assert fast is not None
            assert _climate_arrays(fast) == \
                _climate_arrays(_load_climate_rows(bundle / "climate.csv", unit_meta))
        fast = _observation_columns(bundle / "observations.csv", unit_meta)
        if observations:
            assert fast is not None
            assert _observation_arrays(fast) == _observation_arrays(
                _load_observation_rows(bundle / "observations.csv", unit_meta))


def test_load_parses_only_the_named_files(tmp_bundle):
    bundle = tmp_bundle(
        units=[UNIT_ROW],
        observations=[["c1", "NIR", "2020-06-01", "oops"]],
        climate=[["ghost", "2020-06-01", "10.0", "25.0", "1.5"]],
        embeddings=[EMB_PREFIX + ["0.01"] * 64],
        labels=[["c1", "2020", "yield", "9.1"]],
    )
    ds = load_dataset(bundle, ("units.csv", "embeddings.csv", "labels.csv"))
    assert list(ds.manifest) == ["units.csv", "embeddings.csv", "labels.csv"]
    assert ds.observations == {} and ds.climate == {}
    assert ds.embedding_for("c1", 2020).shape == (64,)
    with pytest.raises(BundleValidationError, match=r"climate\.csv line 2"):
        load_dataset(bundle, ("units.csv", "climate.csv"))
    with pytest.raises(ValueError, match="unknown bundle files"):
        load_dataset(bundle, ("units.csv", "weather.csv"))
    (bundle / "observations.csv").unlink()
    with pytest.raises(FileNotFoundError, match="observations.csv"):
        load_dataset(bundle, ("units.csv", "embeddings.csv", "labels.csv"))
