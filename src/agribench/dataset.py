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

The three bulk files (observations, climate, embeddings) have two
tokenizers and one set of checks. One ``np.loadtxt`` call reads a file into
columns; if it refuses the file, or a check refuses its cells, ``csv.reader``
reads the file again and the same checks run on its cells to word the
error. Errors come in two passes: format errors first (bad header, field
count, a cell that does not parse), then the first line any rule flags,
each rule being one vectorized row mask. ``units.csv`` and ``labels.csv``
are small and read row by row, their rules living in ``UnitMeta`` and
``LabelRecord``.
"""

import csv
import io
import math
import warnings
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
            raise ValueError(_unknown_band(name)) from None


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


def _unknown_band(name: str) -> str:
    return f"unknown band name: {name!r}"


def _outside_raw_range(band_name: str) -> str:
    return f"raw band {band_name} value outside [0, {RAW_REFLECTANCE_MAX}]"


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
                raise ValueError(_outside_raw_range(self.band.value))

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


def _unknown_unit(unit_id: str) -> str:
    return f"unknown unit_id {unit_id!r}"


def _non_finite(column: str) -> str:
    return f"column {column!r}: non-finite value"


def _parse_number(text: str, filename: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise BundleValidationError(
            filename, line, f"column {column!r}: not a number: {text!r}"
        ) from None


def _parse_float(text: str, filename: str, line: int, column: str) -> float:
    value = _parse_number(text, filename, line, column)
    if not math.isfinite(value):
        raise BundleValidationError(filename, line, _non_finite(column))
    return value


def _parse_int(text: str, filename: str, line: int, column: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise BundleValidationError(
            filename, line, f"column {column!r}: not an integer: {text!r}"
        ) from None
    if not -2**63 <= value < 2**63:
        raise BundleValidationError(filename, line, f"column {column!r}: integer out of range")
    return value


def _read_rows(path: Path, expected_header: tuple[str, ...]):
    """Yield (line_number, row) after checking the header row."""
    filename = path.name
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BundleValidationError(
            filename, data.count(b"\n", 0, exc.start) + 1,
            f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}",
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise BundleValidationError(filename, 1, "empty file, header row required") from None
    if tuple(header) != expected_header:
        raise BundleValidationError(
            filename, 1, f"bad header: expected {','.join(expected_header)}"
        )
    for row in reader:
        if not row:
            continue
        line = reader.line_num  # a quoted cell may span lines
        if len(row) != len(expected_header):
            raise BundleValidationError(
                filename, line,
                f"expected {len(expected_header)} fields, got {len(row)}",
            )
        yield line, row


def _check_unit(units: dict[str, UnitMeta], unit_id: str, filename: str, line: int) -> None:
    if unit_id not in units:
        raise BundleValidationError(filename, line, _unknown_unit(unit_id))


# Every band name a bundle may use, sorted for np.searchsorted.
_BAND_NAMES = np.array(sorted(band.value for band in SpectralBand))
_BAND_IS_RAW = np.array([SpectralBand(name).is_raw for name in _BAND_NAMES])
# Parsers of the number columns of the bulk files, keyed by np.loadtxt dtype.
_PARSERS = {"f8": _parse_number, "i8": _parse_int}


def _text_dtype(names) -> str:
    """A string dtype one character wider than the longest of ``names``.

    np.loadtxt cuts text to the dtype's width; the extra character keeps a
    longer unknown value (``c1x`` against ``c1``) from matching a name.
    """
    return f"U{max(map(len, names), default=0) + 1}"


def _read_table(path: Path, columns: list) -> np.ndarray | None:
    """The data rows of a bundle file as one structured array (one np.loadtxt call).

    ``columns`` lists ``(name, dtype)`` in header order. Returns None when
    csv.reader must tokenize the file instead: a header other than the
    column names, no data rows, a NUL byte (numpy drops trailing NULs from
    text, so ``c1\\0`` would read as ``c1``), bytes that are not UTF-8 or a
    row np.loadtxt refuses. np.loadtxt does no CSV quoting and, with
    ``comments=None``, keeps ``#`` rows, so a quoted or commented cell stays
    as written and fails a later check.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    if (first.rstrip(b"\r\n") != ",".join(name for name, _ in columns).encode()
            or not body or body.isspace() or b"\0" in body):
        return None
    del body
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads "2020.5" into an integer column as 2020,
            # with only this warning; as an error it refuses the file.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(path, dtype=columns, delimiter=",", comments=None,
                              skiprows=1, ndmin=1, encoding="utf-8")
    except (ValueError, DeprecationWarning):  # UnicodeDecodeError included
        return None


def _read_cells(path: Path, columns: list) -> tuple[list[int], dict[str, np.ndarray]]:
    """The line of each data row and the cells of each column, read by csv.reader.

    Text cells stay whole in object arrays, so ``c1xyz`` is not cut to the
    dtype's width and ``c1\\0`` keeps its NUL. Number cells are parsed row
    by row, so the first cell that is not a number names its line.
    """
    lines, rows = [], []
    for line, row in _read_rows(path, tuple(name for name, _ in columns)):
        lines.append(line)
        rows.append([_PARSERS[kind](cell, path.name, line, name) if kind in _PARSERS else cell
                     for cell, (name, kind) in zip(row, columns)])
    cells = {name: np.array([row[i] for row in rows], dtype=kind if kind in _PARSERS else object)
             for i, (name, kind) in enumerate(columns)}
    return lines, cells


def _load_columns(path: Path, columns: list, build):
    """Tokenize a bulk bundle file, then check and build its contents with ``build``.

    ``columns`` lists ``(name, np.loadtxt dtype)`` in header order.
    ``build(cells, lines)`` gets the parsed cells by column name and the
    line of each row, and raises ``BundleValidationError`` at the first
    line one of its rules flags. np.loadtxt tokenizes the file in one call;
    if it or ``build`` refuses those cells, csv.reader tokenizes the file
    again and ``build`` runs on its cells. Those carry the true lines
    (np.loadtxt skips blank rows) and text as CSV reads it: unquoted, whole
    and with NULs.
    """
    table = _read_table(path, columns)
    if table is not None:
        try:
            return build(table, range(2, len(table) + 2))
        except BundleValidationError:
            pass
    lines, cells = _read_cells(path, columns)
    return build(cells, lines)


def _check(filename: str, lines, rules: list) -> None:
    """Raise ``BundleValidationError`` at the first line any rule flags.

    ``rules`` lists ``(mask, message)`` pairs in the order a row's checks
    run: ``mask`` flags the rows that break the rule and ``message(row)``
    words it. Of the rules that flag one row, the first listed is reported.
    """
    flagged = [(int(mask.argmax()), order, message)
               for order, (mask, message) in enumerate(rules) if mask.any()]
    if flagged:
        row, _, message = min(flagged)
        raise BundleValidationError(filename, int(lines[row]), message(row))


def _lookup(column: np.ndarray, names: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's index in the sorted ``names`` (a valid index even for an
    unknown cell) and the mask of cells that are one of ``names``."""
    if not len(names):
        return np.zeros(len(column), dtype=np.intp), np.zeros(len(column), dtype=bool)
    codes = np.minimum(np.searchsorted(names, column), len(names) - 1)
    return codes, names[codes] == column


def _unit_rule(column: np.ndarray, units: dict[str, UnitMeta]):
    """The sorted unit ids, each cell's index in them, and the unknown-unit rule."""
    unit_ids = np.array(sorted(units))
    codes, known = _lookup(column, unit_ids)
    return unit_ids, codes, (~known, lambda row: _unknown_unit(column[row]))


def _iso_ordinal(text: str) -> int:
    """The day ordinal of ``text`` written exactly ``YYYY-MM-DD``, else 0.

    ``date.fromisoformat`` reads other forms too from Python 3.11
    (``20200101``, the week date ``2020-W01-1``), so the day written back
    must equal the cell.
    """
    try:
        day = date.fromisoformat(text)
    except ValueError:
        return 0
    return day.toordinal() if day.isoformat() == text else 0


def _date_rule(column: np.ndarray):
    """Day ordinals of the cells (0 where a cell is no date) and the date rule.

    Each distinct cell is parsed once: bundle rows share few dates.
    """
    text, rows = np.unique(column, return_inverse=True)
    days = np.array([_iso_ordinal(cell) for cell in text.tolist()], dtype=np.int64)[rows]
    return days, (days == 0, lambda row: f"column 'date': not an ISO date: {column[row]!r}")


def _finite_rule(cells, column: str):
    return ~np.isfinite(cells[column]), lambda row: _non_finite(column)


def _groups(keys: np.ndarray, times: np.ndarray):
    """Sort rows by key, then time; find each key's run of rows and the repeats.

    Returns ``(order, runs, repeats)``: ``order`` sorts the rows (stably),
    ``runs`` lists ``(key, start, stop)`` slices of the sorted rows in order
    of each key's first row in the file, and ``repeats`` flags every row
    whose key and time an earlier row of the file has.
    """
    order = np.lexsort((times, keys))
    sorted_keys, sorted_times = keys[order], times[order]
    repeats = np.zeros(len(keys), dtype=bool)
    repeats[order[1:]] = ((sorted_keys[1:] == sorted_keys[:-1])
                          & (sorted_times[1:] == sorted_times[:-1]))
    unique, first = np.unique(keys, return_index=True)
    starts = np.searchsorted(sorted_keys, unique)
    stops = np.searchsorted(sorted_keys, unique, side="right")
    return order, [(unique[i], starts[i], stops[i]) for i in np.argsort(first)], repeats


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


def _load_observations(
    path: Path, units: dict[str, UnitMeta]
) -> dict[tuple[str, SpectralBand], ObservationSeries]:
    def build(cells, lines):
        unit_id, band, day = cells["unit_id"], cells["band"], cells["date"]
        unit_ids, unit_codes, unit_rule = _unit_rule(unit_id, units)
        band_codes, band_known = _lookup(band, _BAND_NAMES)
        days, date_rule = _date_rule(day)
        values = cells["value"]
        order, runs, repeats = _groups(unit_codes * len(_BAND_NAMES) + band_codes, days)
        _check(path.name, lines, [
            unit_rule,
            (~band_known, lambda row: _unknown_band(band[row])),
            date_rule,
            _finite_rule(cells, "value"),
            (repeats, lambda row: f"duplicate observation for unit {unit_id[row]!r}, "
                                  f"band {band[row]}, date {day[row]}"),
            (_BAND_IS_RAW[band_codes] & ((values < 0.0) | (values > RAW_REFLECTANCE_MAX)),
             lambda row: _outside_raw_range(band[row])),
        ])
        days, values = days[order], values[order]
        series: dict[tuple[str, SpectralBand], ObservationSeries] = {}
        for key, start, stop in runs:
            unit = str(unit_ids[key // len(_BAND_NAMES)])
            spectral_band = SpectralBand(_BAND_NAMES[key % len(_BAND_NAMES)])
            series[(unit, spectral_band)] = ObservationSeries(
                unit_id=unit, band=spectral_band,
                days=days[start:stop], values=values[start:stop],
            )
        return series

    return _load_columns(path, [
        ("unit_id", _text_dtype(units)), ("band", _text_dtype(_BAND_NAMES)),
        ("date", "U11"), ("value", "f8"),
    ], build)


def _load_climate(path: Path, units: dict[str, UnitMeta]) -> dict[str, ClimateSeries]:
    def build(cells, lines):
        unit_id, day = cells["unit_id"], cells["date"]
        tmin, tmax, ppt = cells["tmin_c"], cells["tmax_c"], cells["ppt_mm"]
        unit_ids, unit_codes, unit_rule = _unit_rule(unit_id, units)
        days, date_rule = _date_rule(day)
        order, runs, repeats = _groups(unit_codes, days)
        _check(path.name, lines, [
            unit_rule,
            date_rule,
            (repeats, lambda row: f"duplicate climate day for unit {unit_id[row]!r}: {day[row]}"),
            _finite_rule(cells, "tmin_c"),
            _finite_rule(cells, "tmax_c"),
            _finite_rule(cells, "ppt_mm"),
            (tmin > tmax, lambda row: f"tmin {tmin[row]} > tmax {tmax[row]}"),
            (ppt < 0, lambda row: f"negative precipitation {ppt[row]}"),
        ])
        days, tmin, tmax, ppt = days[order], tmin[order], tmax[order], ppt[order]
        return {
            str(unit_ids[code]): ClimateSeries(days[start:stop], tmin[start:stop],
                                               tmax[start:stop], ppt[start:stop])
            for code, start, stop in runs
        }

    return _load_columns(path, [
        ("unit_id", _text_dtype(units)), ("date", "U11"),
        ("tmin_c", "f8"), ("tmax_c", "f8"), ("ppt_mm", "f8"),
    ], build)


def _load_embeddings(
    path: Path, units: dict[str, UnitMeta]
) -> dict[tuple[str, int], np.ndarray]:
    def build(cells, lines):
        unit_id, years = cells["unit_id"], cells["year"]
        unit_ids, unit_codes, unit_rule = _unit_rule(unit_id, units)
        _, _, repeats = _groups(unit_codes, years)
        matrix = np.column_stack([cells[column] for column in EMBEDDING_COLUMNS])
        bad = ~np.isfinite(matrix)
        _check(path.name, lines, [
            unit_rule,
            (repeats, lambda row: f"duplicate embedding for unit {unit_id[row]!r}, "
                                  f"year {years[row]}"),
            (bad.any(axis=1), lambda row: _non_finite(EMBEDDING_COLUMNS[bad[row].argmax()])),
        ])
        return {(str(unit_ids[code]), int(year)): vector
                for code, year, vector in zip(unit_codes, years, matrix)}

    return _load_columns(path, [("unit_id", _text_dtype(units)), ("year", "i8")]
                         + [(column, "f8") for column in EMBEDDING_COLUMNS], build)


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
