import calendar
import io
import tempfile
import warnings
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import write_bundle
from hypothesis import given, settings
from hypothesis import strategies as st

from agribench import dataset
from agribench.dataset import (
    EMBEDDING_COLUMNS,
    EMBEDDING_DIM,
    BundleValidationError,
    ClimateSeries,
    ObservationSeries,
    SpectralBand,
    UnitMeta,
    _check_unit,
    _load_units,
    _parse_float,
    _parse_int,
    _read_rows,
    load_dataset,
    month_span,
)

UNIT_ROW = ["c1", "county", "IL", "c1", "", "120.0"]
EMB_PREFIX = ["c1", "2020"]


def test_band_raw_derived_split():
    assert SpectralBand.NIR.is_raw
    assert not SpectralBand.NDVI.is_raw
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
    assert np.array_equal(sa.days, sb.days)
    assert np.array_equal(sa.values, sb.values)
    # Out-of-order rows are canonicalized to date order.
    assert sa.days.tolist() == [date(2020, 6, 1).toordinal(), date(2020, 6, 11).toordinal()]
    assert a.labels == b.labels
    assert np.array_equal(
        a.embedding_for("c1", 2020), b.embedding_for("c1", 2020)
    )


# climate.csv, observations.csv and embeddings.csv are tokenized by one
# np.loadtxt call each; when that call or a check refuses the tokens,
# csv.reader tokenizes the file again and the same checks word the error.
# These pin the messages of the row-wise readers below, which the loader
# used to carry and which now serve as the reference.
OBS_DAY = ["c1", "NIR", "2020-06-01", "0.5"]
_OBSERVATIONS_HEADER = ("unit_id", "band", "date", "value")
_CLIMATE_HEADER = ("unit_id", "date", "tmin_c", "tmax_c", "ppt_mm")


def _parse_date(text: str, filename: str, line: int, column: str) -> date:
    """The day written exactly ``YYYY-MM-DD``; other forms Python reads are refused."""
    try:
        day = date.fromisoformat(text)
        if day.isoformat() == text:
            return day
    except ValueError:
        pass
    raise BundleValidationError(filename, line, f"column {column!r}: not an ISO date: {text!r}")


def _load_observation_rows(
    path: Path, units: dict[str, UnitMeta]
) -> dict[tuple[str, SpectralBand], ObservationSeries]:
    """Row-wise reader of ``observations.csv``; its errors name file and line."""
    header = _OBSERVATIONS_HEADER
    name = path.name
    samples: dict[tuple[str, SpectralBand], list] = {}
    for line, row in _read_rows(path, header):
        unit_id, band_name, date_text, value_text = row
        _check_unit(units, unit_id, name, line)
        try:
            band = SpectralBand.from_name(band_name)
        except ValueError as exc:
            raise BundleValidationError(name, line, str(exc)) from None
        day = _parse_date(date_text, name, line, "date")
        value = _parse_float(value_text, name, line, "value")
        samples.setdefault((unit_id, band), []).append((day, value, line))

    series: dict[tuple[str, SpectralBand], ObservationSeries] = {}
    for (unit_id, band), triples in samples.items():
        triples.sort(key=lambda t: (t[0], t[2]))
        for (d1, _, _), (d2, _, line2) in zip(triples, triples[1:]):
            if d1 == d2:
                raise BundleValidationError(
                    name, line2,
                    f"duplicate observation for unit {unit_id!r}, band {band.value}, date {d2}",
                )
        try:
            series[(unit_id, band)] = ObservationSeries(
                unit_id=unit_id,
                band=band,
                days=np.array([t[0].toordinal() for t in triples], dtype=np.int64),
                values=np.array([t[1] for t in triples], dtype=float),
            )
        except ValueError as exc:
            raise BundleValidationError(name, triples[0][2], str(exc)) from None
    return series


def _load_climate_rows(path: Path, units: dict[str, UnitMeta]) -> dict[str, ClimateSeries]:
    """Row-wise reader of ``climate.csv``; its errors name file and line."""
    header = _CLIMATE_HEADER
    name = path.name
    seen: set[tuple[str, date]] = set()
    rows: dict[str, list[tuple[int, float, float, float]]] = {}
    for line, row in _read_rows(path, header):
        unit_id, date_text, tmin_text, tmax_text, ppt_text = row
        _check_unit(units, unit_id, name, line)
        day = _parse_date(date_text, name, line, "date")
        if (unit_id, day) in seen:
            raise BundleValidationError(
                name, line, f"duplicate climate day for unit {unit_id!r}: {day}"
            )
        seen.add((unit_id, day))
        tmin = _parse_float(tmin_text, name, line, "tmin_c")
        tmax = _parse_float(tmax_text, name, line, "tmax_c")
        ppt = _parse_float(ppt_text, name, line, "ppt_mm")
        if tmin > tmax:
            raise BundleValidationError(name, line, f"tmin {tmin} > tmax {tmax}")
        if ppt < 0:
            raise BundleValidationError(name, line, f"negative precipitation {ppt}")
        rows.setdefault(unit_id, []).append((day.toordinal(), tmin, tmax, ppt))
    climate: dict[str, ClimateSeries] = {}
    for unit_id, unit_rows in rows.items():
        unit_rows.sort()  # day ordinals are unique per unit
        days, tmin, tmax, ppt = np.array(unit_rows, dtype=float).T
        climate[unit_id] = ClimateSeries(days.astype(np.int64), tmin, tmax, ppt)
    return climate


def _load_embedding_rows(
    path: Path, units: dict[str, UnitMeta]
) -> dict[tuple[str, int], np.ndarray]:
    header = ("unit_id", "year") + EMBEDDING_COLUMNS
    name = path.name
    embeddings: dict[tuple[str, int], np.ndarray] = {}
    for line, row in _read_rows(path, header):
        unit_id = row[0]
        _check_unit(units, unit_id, name, line)
        year = _parse_int(row[1], name, line, "year")
        if (unit_id, year) in embeddings:
            raise BundleValidationError(
                name, line, f"duplicate embedding for unit {unit_id!r}, year {year}"
            )
        embeddings[(unit_id, year)] = np.array(
            [_parse_float(row[2 + i], name, line, EMBEDDING_COLUMNS[i])
             for i in range(EMBEDDING_DIM)],
            dtype=float,
        )
    return embeddings




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
    # date.fromisoformat reads these two from Python 3.11 (the week date as
    # 2019-12-30); a bundle date is written exactly YYYY-MM-DD on every Python.
    ("climate", ["c1", "20200101", "10.0", "25.0", "0.0"],
     "column 'date': not an ISO date: '20200101'"),
    ("climate", ["c1", "2020-W01-1", "10.0", "25.0", "0.0"],
     "column 'date': not an ISO date: '2020-W01-1'"),
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
    ("observations", ["c1", "NIR", "20200101", "0.5"],
     "column 'date': not an ISO date: '20200101'"),
    ("observations", ["c1", "NIR", "2020-W01-1", "0.5"],
     "column 'date': not an ISO date: '2020-W01-1'"),
    ("observations", ["#c1", "NIR", "2020-06-02", "0.5"], "unknown unit_id '#c1'"),
    # A row that breaks two rules reports the one the row reader checked first.
    ("climate", ["c2", "2020-1-01", "nan", "25.0", "-1.0"], "unknown unit_id 'c2'"),
    ("climate", ["c1", "2020-06-02", "25.0", "10.0", "-0.5"], "tmin 25.0 > tmax 10.0"),
    ("observations", ["c1", "NIR", "2020-06-01", "1.6"],
     "duplicate observation for unit 'c1', band NIR, date 2020-06-01"),
], ids=[
    "climate-non_finite", "climate-tmin_above_tmax", "climate-negative_ppt",
    "climate-unknown_unit", "climate-extended_unit", "climate-long_unit", "climate-nul_unit",
    "climate-duplicate_day", "climate-short_month", "climate-month_only",
    "climate-basic_date", "climate-week_date", "climate-comment_row",
    "observations-non_finite", "observations-unknown_unit", "observations-extended_unit",
    "observations-duplicate", "observations-unknown_band", "observations-raw_above_max",
    "observations-short_month", "observations-today", "observations-basic_date",
    "observations-week_date", "observations-comment_row",
    "climate-unit_before_date", "climate-tmin_before_ppt", "observations-duplicate_before_range",
])
def test_bad_row_keeps_row_reader_message(tmp_bundle, table, row, message):
    first = CLIMATE_DAY if table == "climate" else OBS_DAY
    bundle = tmp_bundle(units=[UNIT_ROW], **{table: [first, row]})
    with pytest.raises(BundleValidationError) as info:
        load_dataset(bundle)
    assert str(info.value) == f"{table}.csv line 3: {message}"


@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("year", ["2020.5", "2020.0"])
@pytest.mark.parametrize("warn_and_cast", [False, True], ids=["refused", "warn_and_cast"])
def test_float_year_is_not_an_integer(tmp_bundle, monkeypatch, year, warn_and_cast):
    """numpy before 2.0 reads "2020.5" into an integer column as 2020 and only
    warns; ``warn_and_cast`` stands in for that np.loadtxt. With warnings
    shown, not raised, the year must still be refused."""
    vector = ["0.1"] * len(EMBEDDING_COLUMNS)
    bundle = tmp_bundle(units=[UNIT_ROW],
                        embeddings=[["c1", "2019", *vector], ["c1", year, *vector]])
    if warn_and_cast:
        loadtxt = np.loadtxt

        def legacy_loadtxt(fname, *args, **kwargs):
            text = Path(fname).read_text(encoding="utf-8")
            if year in text:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            return loadtxt(io.StringIO(text.replace(year, "2020")), *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", legacy_loadtxt)
    with pytest.raises(BundleValidationError) as info:
        load_dataset(bundle)
    assert str(info.value) == f"embeddings.csv line 3: column 'year': not an integer: {year!r}"


@pytest.mark.parametrize("rows, line", [
    ([["c1", "Red", "2020-06-01", "0.5"], ["c1", "Red", "2020-06-02", "1.6"]], 3),
    ([["c1", "Red", "2020-06-02", "1.6"], ["c1", "Red", "2020-06-01", "0.5"]], 2),
], ids=["bad_row_last", "bad_row_first_later_date"])
def test_raw_range_names_the_bad_row(tmp_bundle, rows, line):
    """The row readers blamed the first line of the series, not the bad row."""
    bundle = tmp_bundle(units=[UNIT_ROW], observations=rows)
    with pytest.raises(BundleValidationError) as info:
        load_dataset(bundle)
    assert str(info.value) == f"observations.csv line {line}: raw band Red value outside [0, 1.5]"


@pytest.mark.parametrize("table, rows, line", [
    ("units", [UNIT_ROW, ["c2", "county", "IL", "c2", "", "1.0"]], 3),
    ("labels", [["c1", str(year), "yield", "9.0"] for year in range(2016, 2021)], 6),
    ("climate", [CLIMATE_DAY, ["c1", "2020-06-02", "10.0", "25.0", "1.5"]], 3),
])
def test_non_utf8_byte_names_file_and_line(tmp_bundle, table, rows, line):
    tables = {"units": [UNIT_ROW], table: rows}
    path = tmp_bundle(**tables) / f"{table}.csv"
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1].replace(b"c", b"\xffc", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(BundleValidationError) as info:
        load_dataset(path.parent)
    assert str(info.value) == f"{table}.csv line {line}: not UTF-8: invalid start byte 0xff"


def test_line_numbers_count_lines_inside_quoted_cells(tmp_bundle):
    bundle = tmp_bundle(units=[["c1", "county", '"I\nL"', "c1", "", "1.0"],
                               ["c2", "county", "IL", "c2", "", "oops"]])
    with pytest.raises(BundleValidationError) as info:
        load_dataset(bundle)
    assert str(info.value) == "units.csv line 4: column 'elevation_m': not a number: 'oops'"


def _climate_arrays(climate):
    return [(unit_id, name, getattr(series, name).dtype.str, getattr(series, name).tobytes())
            for unit_id, series in climate.items()
            for name in ("days", "tmin", "tmax", "ppt")]


def _observation_arrays(observations):
    return [(key, series.days.dtype.str, series.days.tobytes(), series.values.tobytes())
            for key, series in observations.items()]


def _embedding_arrays(embeddings):
    return [(key, vector.dtype.str, vector.shape, vector.tobytes())
            for key, vector in embeddings.items()]


REFERENCE = {
    "climate": (_load_climate_rows, _climate_arrays),
    "observations": (_load_observation_rows, _observation_arrays),
    "embeddings": (_load_embedding_rows, _embedding_arrays),
}


def _outcome(load, arrays):
    try:
        return arrays(load())
    except BundleValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("table, row", [
    ("climate", ["c1", "20200101", "10.0", "25.0", "0.0"]),
    ("climate", ['"c1"', "2020-06-02", "10.0", "25.0", "0.0"]),
    ("observations", ["c1", "NIR", "20200101", "0.5"]),
    ("observations", ['"c1"', "NIR", "2020-06-02", "0.5"]),
], ids=["climate-basic_date", "climate-quoted_unit",
        "observations-basic_date", "observations-quoted_unit"])
def test_row_reader_decides_what_loadtxt_refuses(tmp_bundle, table, row):
    """The checks refuse ``20200101`` and a quoted cell as np.loadtxt reads
    them; csv.reader's cells then decide: the first is not an ISO date,
    the second is unit ``c1``."""
    first = CLIMATE_DAY if table == "climate" else OBS_DAY
    bundle = tmp_bundle(units=[UNIT_ROW], **{table: [first, row]})
    units = _load_units(bundle / "units.csv")
    reference, arrays = REFERENCE[table]
    assert _outcome(lambda: getattr(load_dataset(bundle), table), arrays) == \
        _outcome(lambda: reference(bundle / f"{table}.csv", units), arrays)


UNIT_IDS = ("c1", "c1x", "c10", "f", "county_17_f03")
DAYS = st.integers(date(2019, 1, 1).toordinal(), date(2021, 12, 31).toordinal())
CELLS = st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False)
BULK_TABLES = ("climate", "observations", "embeddings")


@st.composite
def bundle_rows(draw):
    """Valid climate, observation and embedding rows over a few units, in random order."""
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
    embeddings = []
    for unit_id in unit_ids:
        for year in draw(st.sets(st.integers(2019, 2021), max_size=3)):
            vector = draw(st.lists(CELLS, min_size=EMBEDDING_DIM, max_size=EMBEDDING_DIM))
            embeddings.append([unit_id, str(year)] + [repr(value) for value in vector])
    return unit_ids, {"climate": draw(st.permutations(climate)),
                      "observations": draw(st.permutations(observations)),
                      "embeddings": draw(st.permutations(embeddings))}


def _write(tmp, unit_ids, tables):
    units = [[unit_id, "county", "IL", unit_id, "", "1.0"] for unit_id in unit_ids]
    return write_bundle(Path(tmp) / "b", units=units, **tables)


@settings(max_examples=60, deadline=None)
@given(bundle_rows())
def test_one_call_parse_equals_row_reader(rows):
    """``load_dataset`` returns what the row-wise readers return, and a valid
    non-empty file never needs the csv.reader pass."""
    unit_ids, tables = rows
    with tempfile.TemporaryDirectory() as tmp:
        bundle = _write(tmp, unit_ids, tables)
        read_again = []
        read_cells = dataset._read_cells

        def record(path, columns):
            read_again.append(path.stem)
            return read_cells(path, columns)

        with mock.patch.object(dataset, "_read_cells", record):
            loaded = load_dataset(bundle)
        assert set(read_again) <= {table for table in BULK_TABLES if not tables[table]}
        units = _load_units(bundle / "units.csv")
        for table in BULK_TABLES:
            reference, arrays = REFERENCE[table]
            assert arrays(getattr(loaded, table)) == \
                arrays(reference(bundle / f"{table}.csv", units))


FRESH_DAY = "2030-01-01"  # after every day bundle_rows draws
ZEROS = ["0.5"] * EMBEDDING_DIM


def _bad_rows(unit, column, band):
    """One bad row of each kind per bulk file, with the message it must raise.

    The reflectance row falls on the last day of the unit's ``band`` series,
    which the row-wise reader blamed on the series' first row.
    """
    name = EMBEDDING_COLUMNS[column]
    vector = ZEROS[:column] + ["inf"] + ZEROS[column + 1:]
    return {
        "climate": {
            "unknown_unit": (["ghost", FRESH_DAY, "1.0", "2.0", "0.0"], "unknown unit_id 'ghost'"),
            "bad_date": ([unit, "2020-02-30", "1.0", "2.0", "0.0"],
                         "column 'date': not an ISO date: '2020-02-30'"),
            "non_finite_tmin": ([unit, FRESH_DAY, "nan", "2.0", "0.0"],
                                "column 'tmin_c': non-finite value"),
            "non_finite_tmax": ([unit, FRESH_DAY, "1.0", "inf", "0.0"],
                                "column 'tmax_c': non-finite value"),
            "non_finite_ppt": ([unit, FRESH_DAY, "1.0", "2.0", "-inf"],
                               "column 'ppt_mm': non-finite value"),
            "tmin_above_tmax": ([unit, FRESH_DAY, "5.0", "1.0", "0.0"], "tmin 5.0 > tmax 1.0"),
            "negative_ppt": ([unit, FRESH_DAY, "1.0", "5.0", "-0.5"], "negative precipitation -0.5"),
            "not_a_number": ([unit, FRESH_DAY, "1.0", "x", "0.0"],
                             "column 'tmax_c': not a number: 'x'"),
            "field_count": ([unit, FRESH_DAY, "1.0"], "expected 5 fields, got 3"),
        },
        "observations": {
            "unknown_unit": (["ghost", "NIR", FRESH_DAY, "0.5"], "unknown unit_id 'ghost'"),
            "unknown_band": ([unit, "NIRX", FRESH_DAY, "0.5"], "unknown band name: 'NIRX'"),
            "bad_date": ([unit, "NIR", "2020-13-01", "0.5"],
                         "column 'date': not an ISO date: '2020-13-01'"),
            "non_finite": ([unit, "NIR", FRESH_DAY, "nan"], "column 'value': non-finite value"),
            "raw_range": ([unit, band, FRESH_DAY, "-0.25"], f"raw band {band} value outside [0, 1.5]"),
            "not_a_number": ([unit, "NIR", FRESH_DAY, "x"], "column 'value': not a number: 'x'"),
            "field_count": ([unit, "NIR", FRESH_DAY, "0", "5"], "expected 4 fields, got 5"),
        },
        "embeddings": {
            "unknown_unit": (["ghost", "2030"] + ZEROS, "unknown unit_id 'ghost'"),
            "non_finite": ([unit, "2030"] + vector, f"column {name!r}: non-finite value"),
            "not_a_number": ([unit, "2030"] + ZEROS[:-1] + ["x"], "column 'A63': not a number: 'x'"),
            "bad_year": ([unit, "20x0"] + ZEROS, "column 'year': not an integer: '20x0'"),
            "huge_year": ([unit, "9" * 20] + ZEROS, "column 'year': integer out of range"),
            "field_count": ([unit, "2030"] + ZEROS[1:], "expected 66 fields, got 65"),
        },
    }


def _duplicate(table, row):
    """A row repeating the key of ``row``, with the message it must raise."""
    if table == "climate":
        return (row[:2] + ["1.0", "2.0", "0.0"],
                f"duplicate climate day for unit {row[0]!r}: {row[1]}")
    if table == "observations":
        return (row[:3] + ["0.5"],
                f"duplicate observation for unit {row[0]!r}, band {row[1]}, date {row[2]}")
    return row[:2] + ZEROS, f"duplicate embedding for unit {row[0]!r}, year {row[1]}"


FORMAT_KINDS = {"not_a_number", "field_count", "bad_year", "huge_year"}


@st.composite
def planted_bundles(draw):
    """A valid bundle with one or two bad rows planted at random lines of one
    bulk file, and the line and message the load must report: the first
    format error if any row has one, else the first bad line."""
    unit_ids, tables = draw(bundle_rows())
    table = draw(st.sampled_from(BULK_TABLES))
    rows = tables[table]
    raw_rows = [row for row in tables["observations"] if SpectralBand(row[1]).is_raw]
    planted = []
    for _ in range(draw(st.integers(1, 2))):
        unit, band = draw(st.sampled_from(raw_rows))[:2] if raw_rows else (unit_ids[0], "Red")
        bad_rows = _bad_rows(unit, draw(st.integers(0, 63)), band)[table]
        kind = draw(st.sampled_from(sorted(bad_rows) + (["duplicate"] if rows else [])))
        if kind == "duplicate":
            earlier = draw(st.integers(0, len(rows) - 1))
            position = draw(st.integers(earlier + 1, len(rows)))
            row, message = _duplicate(table, rows[earlier])
        else:
            position = draw(st.integers(0, len(rows)))
            row, message = bad_rows[kind]
        rows.insert(position, row)
        planted.append((kind not in FORMAT_KINDS, row, message))
    reported = min((rule, next(i for i, r in enumerate(rows) if r is row) + 2, message)
                   for rule, row, message in planted)
    return unit_ids, tables, f"{table}.csv", reported[1], reported[2]


@settings(max_examples=150, deadline=None)
@given(planted_bundles())
def test_planted_bad_row_names_its_line(planted):
    unit_ids, tables, filename, line, message = planted
    with tempfile.TemporaryDirectory() as tmp:
        bundle = _write(tmp, unit_ids, tables)
        with pytest.raises(BundleValidationError) as info:
            load_dataset(bundle)
    assert str(info.value) == f"{filename} line {line}: {message}"


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


@given(st.integers(1900, 2100), st.integers(1, 12))
def test_month_span_agrees_with_calendar(year, month):
    first, following = month_span(year, month)
    assert date.fromordinal(first) == date(year, month, 1)
    assert following - first == calendar.monthrange(year, month)[1]


@settings(max_examples=60)
@given(st.sets(DAYS, max_size=60), st.integers(2019, 2021), st.integers(1, 12))
def test_climate_month_equals_per_day_filter(days, year, month):
    days = np.array(sorted(days), dtype=np.int64)
    values = np.arange(len(days), dtype=float)
    series = ClimateSeries(days, values, values + 1.0, values)
    in_month = series.month(year, month)
    wanted = [i for i, d in enumerate(days.tolist())
              if (date.fromordinal(d).year, date.fromordinal(d).month) == (year, month)]
    assert in_month.days.tolist() == days[wanted].tolist()
    assert in_month.tmin.tolist() == values[wanted].tolist()


NEW_YEAR = date(2021, 1, 1).toordinal()


@pytest.mark.parametrize("days, message", [
    ([NEW_YEAR, NEW_YEAR], "days not strictly increasing at 2021-01-01"),
    ([NEW_YEAR, NEW_YEAR - 1], "days not strictly increasing at 2020-12-31"),
    ([NEW_YEAR - 1.0, NEW_YEAR + 0.0], "days must be a 1-D integer array"),
    ([[NEW_YEAR - 1, NEW_YEAR]], "days must be a 1-D integer array"),
], ids=["repeated", "decreasing", "float", "two_dimensional"])
def test_observation_series_rejects_bad_days(days, message):
    with pytest.raises(ValueError) as info:
        ObservationSeries(unit_id="c1", band=SpectralBand.NIR, days=np.array(days),
                          values=np.array([0.1, 0.2]))
    assert str(info.value) == message
