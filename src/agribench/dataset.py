"""Shared data model and CSV bundle loading.

A dataset bundle is a directory of five CSV files (UTF-8, header row
mandatory, "." decimal separator):

- ``units.csv``:        unit_id,level,state,county_id,ecoregion,elevation_m
- ``observations.csv``: unit_id,band,date,value
- ``climate.csv``:      unit_id,date,tmin_c,tmax_c,ppt_mm
- ``embeddings.csv``:   unit_id,year,A00,...,A63
- ``labels.csv``:       unit_id,year,task,value

Observations are long format (one row per unit/band/date), which tolerates
the irregular revisit cadence of satellite exports. All validation errors
identify the offending file and line. A loaded ``Dataset`` is treated as
immutable and may be shared across threads.
"""

import csv
import math
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

    @property
    def is_derived(self) -> bool:
        return not self.is_raw

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


class MaskError(ValueError):
    pass


@dataclass(frozen=True)
class ObservationSeries:
    """Dated samples of one band for one spatial unit, dates strictly increasing."""

    unit_id: str
    band: SpectralBand
    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ValueError(f"dates not strictly increasing at {b}")
        if len(self.values) and not np.isfinite(self.values).all():
            raise ValueError("non-finite observation value")
        if self.band.is_raw and len(self.values):
            lo, hi = self.values.min(), self.values.max()
            if lo < 0.0 or hi > RAW_REFLECTANCE_MAX:
                raise ValueError(
                    f"raw band {self.band.value} value outside [0, {RAW_REFLECTANCE_MAX}]"
                )

    def __len__(self) -> int:
        return len(self.dates)


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _month_key(year: int, month: int) -> int:
    """Months since January 1970, the key ``ClimateSeries.month_keys`` uses."""
    return (year - 1970) * 12 + month - 1


@dataclass(frozen=True)
class ClimateSeries:
    """Daily climate of one unit as columns, in increasing day order.

    ``days`` holds ``date.toordinal()`` values; ``tmin``, ``tmax`` (deg C)
    and ``ppt`` (mm) are aligned with it. ``month_keys`` gives each day's
    calendar month, so one month is a contiguous slice.
    """

    days: np.ndarray
    tmin: np.ndarray
    tmax: np.ndarray
    ppt: np.ndarray
    month_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        months = (self.days - _EPOCH_ORDINAL).astype("datetime64[D]").astype("datetime64[M]")
        object.__setattr__(self, "month_keys", months.astype(np.int64))

    def __len__(self) -> int:
        return len(self.days)

    def month(self, year: int, month: int) -> "ClimateSeries":
        """The days of one calendar month (possibly none)."""
        key = _month_key(year, month)
        lo, hi = np.searchsorted(self.month_keys, (key, key + 1))
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


def masked_mean(pixel_values, keep_mask) -> float:
    """Mean of the values whose mask element is 1.

    This is the aggregation step applied to exported per-pixel vectors after
    upstream cloud/crop masking; masked-out pixels carry mask 0.
    """
    if len(pixel_values) != len(keep_mask):
        raise ValueError(
            f"values ({len(pixel_values)}) and mask ({len(keep_mask)}) lengths differ"
        )
    total = 0.0
    count = 0
    for v, m in zip(pixel_values, keep_mask):
        if m not in (0, 1):
            raise ValueError(f"mask elements must be 0 or 1, got {m!r}")
        if m == 1:
            total += float(v)
            count += 1
    if count == 0:
        raise MaskError("no valid pixels")
    return total / count


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
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise BundleValidationError(
            filename, line, f"column {column!r}: not an ISO date: {text!r}"
        ) from None


def _read_rows(path: Path, expected_header: tuple[str, ...]):
    """Yield (line_number, row) after checking the header row."""
    filename = path.name
    if not path.exists():
        raise FileNotFoundError(f"missing bundle file: {path}")
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
    header = ("unit_id", "band", "date", "value")
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
                dates=tuple(t[0] for t in triples),
                values=np.array([t[1] for t in triples], dtype=float),
            )
        except ValueError as exc:
            raise BundleValidationError(name, triples[0][2], str(exc)) from None
    return series


def _load_climate(path: Path, units: dict[str, UnitMeta]) -> dict[str, ClimateSeries]:
    header = ("unit_id", "date", "tmin_c", "tmax_c", "ppt_mm")
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


def load_dataset(bundle_dir: str | Path) -> Dataset:
    """Load and validate a five-file bundle directory.

    Loading is deterministic: two loads of the same bundle produce identical
    in-memory contents. Raises ``FileNotFoundError`` for missing files and
    ``BundleValidationError`` (with file and line) for malformed rows or
    invariant violations.
    """
    bundle = Path(bundle_dir)
    units = _load_units(bundle / "units.csv")
    observations = _load_observations(bundle / "observations.csv", units)
    climate = _load_climate(bundle / "climate.csv", units)
    embeddings = _load_embeddings(bundle / "embeddings.csv", units)
    labels = _load_labels(bundle / "labels.csv", units)

    manifest = {
        "units.csv": {"path": str(bundle / "units.csv"), "rows": len(units)},
        "observations.csv": {
            "path": str(bundle / "observations.csv"),
            "rows": int(sum(len(s) for s in observations.values())),
        },
        "climate.csv": {
            "path": str(bundle / "climate.csv"),
            "rows": int(sum(len(c) for c in climate.values())),
        },
        "embeddings.csv": {"path": str(bundle / "embeddings.csv"), "rows": len(embeddings)},
        "labels.csv": {"path": str(bundle / "labels.csv"), "rows": len(labels)},
    }
    return Dataset(
        units=units,
        observations=observations,
        climate=climate,
        embeddings=embeddings,
        labels=labels,
        manifest=manifest,
    )
