"""Shared data model and CSV bundle loading.

A dataset bundle is a directory of five CSV files (UTF-8, header row
mandatory, "." decimal separator):

- ``units.csv``:        unit_id,level,state,county_id,ecoregion,elevation_m
- ``observations.csv``: unit_id,band,date,value
- ``climate.csv``:      unit_id,date,tmin_c,tmax_c,ppt_mm
- ``embeddings.csv``:   unit_id,year,A00,...,A63
- ``labels.csv``:       unit_id,year,task,value

Observations are long format (one row per unit/band/date), which tolerates
the irregular revisit cadence of satellite exports. All five files must
exist; ``load_dataset`` parses and validates in full the ones it is asked
for. All validation errors identify the offending file and line. A loaded
``Dataset`` is treated as immutable and may be shared across threads.
"""

import csv
import math
from collections.abc import Collection
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path

import numpy as np

EMBEDDING_DIM = 64
EMBEDDING_COLUMNS = tuple(f"A{i:02d}" for i in range(EMBEDDING_DIM))

TASKS = ("yield", "tillage_ratio", "tillage_class", "covercrop_class")
CLASSIFICATION_TASKS = ("tillage_class", "covercrop_class")

# Default state -> ecoregion assignment for the two Corn Belt ecoregions.
# Any other state maps to "Other" and is excluded from space transfer.
EAST_STATES = frozenset({"IL", "IN", "MI", "OH", "WI"})
WEST_STATES = frozenset({"IA", "KS", "MN", "MO", "ND", "NE", "SD"})


def default_ecoregion(state: str) -> str:
    if state in EAST_STATES:
        return "East"
    if state in WEST_STATES:
        return "West"
    return "Other"


class SpectralBand(Enum):
    """Raw reflectance bands and the derived index bands built from them."""

    RED = "Red"
    GREEN = "Green"
    BLUE = "Blue"
    NIR = "NIR"
    SWIR1 = "SWIR1"
    SWIR2 = "SWIR2"
    NDVI = "NDVI"
    GCVI = "GCVI"
    NDTI = "NDTI"
    STI = "STI"
    CRC = "CRC"

    @property
    def is_raw(self) -> bool:
        return self in RAW_BANDS

    @classmethod
    def from_name(cls, name: str) -> "SpectralBand":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown band name: {name!r}") from None


RAW_BANDS = (
    SpectralBand.RED,
    SpectralBand.GREEN,
    SpectralBand.BLUE,
    SpectralBand.NIR,
    SpectralBand.SWIR1,
    SpectralBand.SWIR2,
)

# Atmospheric correction can overshoot slightly; tolerate up to 1.5.
RAW_REFLECTANCE_MAX = 1.5


class BundleValidationError(ValueError):
    """Raised for malformed bundle files; message carries file and line."""

    def __init__(self, filename: str, line: int, message: str):
        self.filename = filename
        self.line = line
        super().__init__(f"{filename} line {line}: {message}")


def month_span(year: int, month: int) -> tuple[int, int]:
    """Day ordinals of the first day of the month and of the month after it."""
    return (date(year, month, 1).toordinal(),
            date(year + month // 12, month % 12 + 1, 1).toordinal())


@dataclass(frozen=True)
class ObservationSeries:
    """Samples of one band for one spatial unit on strictly increasing days.

    ``days`` holds ``date.toordinal()`` values as a 1-D integer array;
    ``values`` is aligned with it.
    """

    unit_id: str
    band: SpectralBand
    days: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        days = self.days
        if not (isinstance(days, np.ndarray) and days.ndim == 1 and days.dtype.kind == "i"):
            raise ValueError("days must be a 1-D integer array")
        if len(days) != len(self.values):
            raise ValueError("days and values must have equal length")
        repeated = np.flatnonzero(days[1:] <= days[:-1])
        if repeated.size:
            day = date.fromordinal(int(days[repeated[0] + 1]))
            raise ValueError(f"days not strictly increasing at {day}")
        if len(self.values) and not np.isfinite(self.values).all():
            raise ValueError("non-finite observation value")
        if self.band.is_raw and len(self.values):
            lo, hi = self.values.min(), self.values.max()
            if lo < 0.0 or hi > RAW_REFLECTANCE_MAX:
                raise ValueError(
                    f"raw band {self.band.value} value outside [0, {RAW_REFLECTANCE_MAX}]"
                )

    def __len__(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class ClimateSeries:
    """Daily climate of one unit as columns, in increasing day order.

    ``days`` holds ``date.toordinal()`` values; ``tmin``, ``tmax`` (deg C)
    and ``ppt`` (mm) are aligned with it.
    """

    days: np.ndarray
    tmin: np.ndarray
    tmax: np.ndarray
    ppt: np.ndarray

    def __len__(self) -> int:
        return len(self.days)

    def month(self, year: int, month: int) -> "ClimateSeries":
        """The days of one calendar month (possibly none)."""
        lo, hi = self.days.searchsorted(month_span(year, month))
        return ClimateSeries(self.days[lo:hi], self.tmin[lo:hi], self.tmax[lo:hi],
                             self.ppt[lo:hi])


@dataclass(frozen=True)
class UnitMeta:
    unit_id: str
    level: str  # "county" | "field"
    state: str
    county_id: str
    ecoregion: str  # "East" | "West" | "Other"
    elevation_m: float

    def __post_init__(self):
        if self.level not in ("county", "field"):
            raise ValueError(f"unknown unit level {self.level!r}")
        if self.ecoregion not in ("East", "West", "Other"):
            raise ValueError(f"unknown ecoregion {self.ecoregion!r}")
        if not math.isfinite(self.elevation_m):
            raise ValueError("non-finite elevation")


@dataclass(frozen=True)
class LabelRecord:
    unit_id: str
    year: int
    task: str
    value: float

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not math.isfinite(self.value):
            raise ValueError("non-finite label value")
        if self.task == "tillage_ratio" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"tillage_ratio {self.value} outside [0, 1]")
        if self.task in CLASSIFICATION_TASKS and self.value not in (0.0, 1.0):
            raise ValueError(f"class label must be 0 or 1, got {self.value}")


@dataclass
class Dataset:
    """Validated bundle contents. Treat as immutable once loaded."""

    units: dict[str, UnitMeta]
    observations: dict[tuple[str, SpectralBand], ObservationSeries]
    climate: dict[str, ClimateSeries]
    embeddings: dict[tuple[str, int], np.ndarray]  # EMBEDDING_DIM finite floats each
    labels: list[LabelRecord]
    manifest: dict[str, dict] = field(default_factory=dict)

    def series_for(self, unit_id: str, band: SpectralBand) -> ObservationSeries | None:
        return self.observations.get((unit_id, band))

    def climate_for(self, unit_id: str) -> ClimateSeries | None:
        return self.climate.get(unit_id)

    def embedding_for(self, unit_id: str, year: int) -> np.ndarray | None:
        return self.embeddings.get((unit_id, year))


def _parse_float(text: str, filename: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise BundleValidationError(
            filename, line, f"column {column!r}: not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise BundleValidationError(filename, line, f"column {column!r}: non-finite value")
    return value


def _parse_int(text: str, filename: str, line: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BundleValidationError(
            filename, line, f"column {column!r}: not an integer: {text!r}"
        ) from None


def _parse_date(text: str, filename: str, line: int, column: str) -> date:
    """The day written exactly ``YYYY-MM-DD``; other forms Python reads are refused."""
    try:
        day = date.fromisoformat(text)
        if day.isoformat() == text:
            return day
    except ValueError:
        pass
    raise BundleValidationError(filename, line, f"column {column!r}: not an ISO date: {text!r}")


def _read_rows(path: Path, expected_header: tuple[str, ...]):
    """Yield (line_number, row) after checking the header row."""
    filename = path.name
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BundleValidationError(filename, 1, "empty file, header row required") from None
        if tuple(header) != expected_header:
            raise BundleValidationError(
                filename, 1, f"bad header: expected {','.join(expected_header)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise BundleValidationError(
                    filename, line,
                    f"expected {len(expected_header)} fields, got {len(row)}",
                )
            yield line, row


def _check_unit(units: dict[str, UnitMeta], unit_id: str, filename: str, line: int) -> None:
    if unit_id not in units:
        raise BundleValidationError(filename, line, f"unknown unit_id {unit_id!r}")


# Every band name a bundle may use, sorted for np.searchsorted.
_BAND_NAMES = np.array(sorted(band.value for band in SpectralBand))
_BAND_IS_RAW = np.array([SpectralBand(name).is_raw for name in _BAND_NAMES])
# The ordinal of datetime64's day 0, and the days a ``date`` can hold.
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_FIRST_DAY, _LAST_DAY = np.datetime64(date.min, "D"), np.datetime64(date.max, "D")


def _text_dtype(names) -> str:
    """A string dtype one character wider than the longest of ``names``.

    np.loadtxt cuts text to the dtype's width; the extra character keeps a
    longer unknown value (``c1x`` against ``c1``) from matching a name.
    """
    return f"U{max(map(len, names), default=0) + 1}"


def _read_table(path: Path, header: tuple[str, ...], columns: list) -> np.ndarray | None:
    """The data rows of a bundle file as one structured array (one np.loadtxt call).

    Returns None when the row-wise reader must decide the file instead: a
    header other than ``header``, no data rows, a NUL byte (numpy drops
    trailing NULs from text, so ``c1\\0`` would read as ``c1``) or a row
    np.loadtxt refuses. np.loadtxt does no CSV quoting and, with
    ``comments=None``, keeps ``#`` rows, so a quoted or commented cell stays
    as written and fails a later check.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    if (first.rstrip(b"\r\n") != ",".join(header).encode()
            or not body or body.isspace() or b"\0" in body):
        return None
    del body
    try:
        return np.loadtxt(path, dtype=columns, delimiter=",", comments=None,
                          skiprows=1, ndmin=1, encoding="utf-8")
    except ValueError:
        return None


def _codes(column: np.ndarray, names: np.ndarray) -> np.ndarray | None:
    """Each cell's index in the sorted ``names``, or None if a cell is not a name."""
    if not len(names):
        return None
    codes = np.minimum(np.searchsorted(names, column), len(names) - 1)
    return codes if (names[codes] == column).all() else None


def _iso_days(column: np.ndarray) -> np.ndarray | None:
    """Day ordinals of ``YYYY-MM-DD`` cells, or None unless every cell is exactly that form.

    ``datetime64`` also reads other forms (``2020-1-01`` fails, but ``2020``
    or ``today`` parse), so each cell must equal its day written back. Each
    distinct cell is parsed once: bundle rows share few dates.
    """
    text, rows = np.unique(column, return_inverse=True)
    try:
        days = text.astype("datetime64[D]")
    except ValueError:
        return None
    if not ((days >= _FIRST_DAY) & (days <= _LAST_DAY)).all():  # also refuses NaT
        return None
    if not (days.astype("U10") == text).all():
        return None
    return (days.astype(np.int64) + _EPOCH_ORDINAL)[rows]


def _groups(keys: np.ndarray, days: np.ndarray):
    """Sort rows by key, then day; find each key's run of rows.

    Returns ``(order, runs)``: ``order`` sorts the rows, and ``runs`` lists
    ``(key, start, stop)`` slices of the sorted rows in order of each key's
    first row in the file, as the row-wise readers fill their dicts. None if
    a key repeats a day.
    """
    order = np.lexsort((days, keys))
    sorted_keys, sorted_days = keys[order], days[order]
    if ((sorted_keys[1:] == sorted_keys[:-1]) & (sorted_days[1:] == sorted_days[:-1])).any():
        return None
    unique, first = np.unique(keys, return_index=True)
    starts = np.searchsorted(sorted_keys, unique)
    stops = np.searchsorted(sorted_keys, unique, side="right")
    return order, [(unique[i], starts[i], stops[i]) for i in np.argsort(first)]


def _load_units(path: Path) -> dict[str, UnitMeta]:
    header = ("unit_id", "level", "state", "county_id", "ecoregion", "elevation_m")
    name = path.name
    units: dict[str, UnitMeta] = {}
    for line, row in _read_rows(path, header):
        unit_id, level, state, county_id, ecoregion, elevation = row
        if unit_id in units:
            raise BundleValidationError(name, line, f"duplicate unit_id {unit_id!r}")
        if not ecoregion:
            ecoregion = default_ecoregion(state)
        try:
            units[unit_id] = UnitMeta(
                unit_id=unit_id,
                level=level,
                state=state,
                county_id=county_id,
                ecoregion=ecoregion,
                elevation_m=_parse_float(elevation, name, line, "elevation_m"),
            )
        except ValueError as exc:
            if isinstance(exc, BundleValidationError):
                raise
            raise BundleValidationError(name, line, str(exc)) from None
    return units


_OBSERVATIONS_HEADER = ("unit_id", "band", "date", "value")


def _load_observations(
    path: Path, units: dict[str, UnitMeta]
) -> dict[tuple[str, SpectralBand], ObservationSeries]:
    series = _observation_columns(path, units)
    return _load_observation_rows(path, units) if series is None else series


def _observation_columns(
    path: Path, units: dict[str, UnitMeta]
) -> dict[tuple[str, SpectralBand], ObservationSeries] | None:
    """``observations.csv`` from one np.loadtxt call, or None to use the row-wise reader."""
    table = _read_table(path, _OBSERVATIONS_HEADER, [
        ("unit_id", _text_dtype(units)), ("band", _text_dtype(_BAND_NAMES)),
        ("date", "U11"), ("value", "f8"),
    ])
    if table is None:
        return None
    unit_ids = np.array(sorted(units))
    unit_codes = _codes(table["unit_id"], unit_ids)
    band_codes = _codes(table["band"], _BAND_NAMES)
    days = _iso_days(table["date"])
    values = table["value"]
    if unit_codes is None or band_codes is None or days is None:
        return None
    raw = _BAND_IS_RAW[band_codes]
    if not np.isfinite(values).all() or (
            raw & ((values < 0.0) | (values > RAW_REFLECTANCE_MAX))).any():
        return None
    grouped = _groups(unit_codes * len(_BAND_NAMES) + band_codes, days)
    if grouped is None:
        return None
    order, runs = grouped
    days, values = days[order], values[order]
    series: dict[tuple[str, SpectralBand], ObservationSeries] = {}
    for key, start, stop in runs:
        unit_id = str(unit_ids[key // len(_BAND_NAMES)])
        band = SpectralBand(_BAND_NAMES[key % len(_BAND_NAMES)])
        series[(unit_id, band)] = ObservationSeries(
            unit_id=unit_id, band=band,
            days=days[start:stop], values=values[start:stop],
        )
    return series


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


_CLIMATE_HEADER = ("unit_id", "date", "tmin_c", "tmax_c", "ppt_mm")


def _load_climate(path: Path, units: dict[str, UnitMeta]) -> dict[str, ClimateSeries]:
    climate = _climate_columns(path, units)
    return _load_climate_rows(path, units) if climate is None else climate


def _climate_columns(path: Path, units: dict[str, UnitMeta]) -> dict[str, ClimateSeries] | None:
    """``climate.csv`` from one np.loadtxt call, or None to use the row-wise reader."""
    table = _read_table(path, _CLIMATE_HEADER, [
        ("unit_id", _text_dtype(units)), ("date", "U11"),
        ("tmin_c", "f8"), ("tmax_c", "f8"), ("ppt_mm", "f8"),
    ])
    if table is None:
        return None
    unit_ids = np.array(sorted(units))
    unit_codes = _codes(table["unit_id"], unit_ids)
    days = _iso_days(table["date"])
    tmin, tmax, ppt = table["tmin_c"], table["tmax_c"], table["ppt_mm"]
    if unit_codes is None or days is None:
        return None
    if not (np.isfinite(tmin) & np.isfinite(tmax) & np.isfinite(ppt)).all() or (
            (tmin > tmax) | (ppt < 0)).any():
        return None
    grouped = _groups(unit_codes, days)
    if grouped is None:
        return None
    order, runs = grouped
    days, tmin, tmax, ppt = days[order], tmin[order], tmax[order], ppt[order]
    return {
        str(unit_ids[code]): ClimateSeries(days[start:stop], tmin[start:stop],
                                           tmax[start:stop], ppt[start:stop])
        for code, start, stop in runs
    }


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


def _load_embeddings(
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


def _load_labels(path: Path, units: dict[str, UnitMeta]) -> list[LabelRecord]:
    header = ("unit_id", "year", "task", "value")
    name = path.name
    labels: list[LabelRecord] = []
    seen: set[tuple[str, int, str]] = set()
    for line, row in _read_rows(path, header):
        unit_id, year_text, task, value_text = row
        _check_unit(units, unit_id, name, line)
        try:
            record = LabelRecord(
                unit_id=unit_id,
                year=_parse_int(year_text, name, line, "year"),
                task=task,
                value=_parse_float(value_text, name, line, "value"),
            )
        except ValueError as exc:
            if isinstance(exc, BundleValidationError):
                raise
            raise BundleValidationError(name, line, str(exc)) from None
        key = (record.unit_id, record.year, record.task)
        if key in seen:
            raise BundleValidationError(
                name, line,
                f"duplicate label for unit {unit_id!r}, year {record.year}, task {task!r}",
            )
        seen.add(key)
        labels.append(record)
    return labels


BUNDLE_FILES = ("units.csv", "observations.csv", "climate.csv", "embeddings.csv", "labels.csv")


def load_dataset(bundle_dir: str | Path, files: Collection[str] = BUNDLE_FILES) -> Dataset:
    """Load and validate a bundle directory, parsing only ``files``.

    All five files must exist, but only those named in ``files`` are parsed
    and validated; ``units.csv`` is always parsed, because every other file
    is checked against it. A file left out reads as empty in the returned
    ``Dataset``, and its ``manifest`` lists the parsed files only.

    Loading is deterministic: two loads of the same bundle produce identical
    in-memory contents. Raises ``FileNotFoundError`` for missing files and
    ``BundleValidationError`` (with file and line) for malformed rows or
    invariant violations.
    """
    unknown = sorted(set(files) - set(BUNDLE_FILES))
    if unknown:
        raise ValueError(f"unknown bundle files {unknown} (use {', '.join(BUNDLE_FILES)})")
    bundle = Path(bundle_dir)
    for filename in BUNDLE_FILES:
        if not (bundle / filename).exists():
            raise FileNotFoundError(f"missing bundle file: {bundle / filename}")

    def parse(filename, loader, empty):
        return loader(bundle / filename, units) if filename in files else empty

    units = _load_units(bundle / "units.csv")
    observations = parse("observations.csv", _load_observations, {})
    climate = parse("climate.csv", _load_climate, {})
    embeddings = parse("embeddings.csv", _load_embeddings, {})
    labels = parse("labels.csv", _load_labels, [])

    rows = {
        "units.csv": len(units),
        "observations.csv": int(sum(len(s) for s in observations.values())),
        "climate.csv": int(sum(len(c) for c in climate.values())),
        "embeddings.csv": len(embeddings),
        "labels.csv": len(labels),
    }
    manifest = {
        filename: {"path": str(bundle / filename), "rows": rows[filename]}
        for filename in BUNDLE_FILES
        if filename == "units.csv" or filename in files
    }
    return Dataset(
        units=units,
        observations=observations,
        climate=climate,
        embeddings=embeddings,
        labels=labels,
        manifest=manifest,
    )
