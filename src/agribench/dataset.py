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
exist; ``load_dataset`` parses the ones it is asked for, and validates in
full each one whose bytes it has not validated before. All validation
errors identify the offending file and line. A loaded ``Dataset`` is
treated as immutable and may be shared across threads.

The three bulk files (observations, climate, embeddings) have two
tokenizers and one set of checks. One ``np.loadtxt`` call reads a file into
columns; if it refuses the file, or a check refuses its cells, ``csv.reader``
reads the file again and the same checks run on its cells to word the
error. Errors come in two passes: format errors first (bad header, field
count, a cell that does not parse), then the first line any rule flags,
each rule being one vectorized row mask. ``units.csv`` and ``labels.csv``
are small and read row by row, their rules living in ``UnitMeta`` and
``LabelRecord``.

A bulk file's body is first checked in chunks: an incremental UTF-8 decoder
must accept it, with no NUL byte, or ``csv.reader`` reads it and names the
line. ``np.loadtxt`` then reads the text columns (``unit_id``, ``band``,
``date``) as byte strings holding each cell's UTF-8 bytes, one byte a
character for ASCII, and unit ids and band names are matched as UTF-8
bytes. Dates are found by arithmetic on their ten bytes, with no Python
call per date, once per file: the table keeps each ``date`` cell as its
day ordinal, 0 for a cell that is no date. Rows a key already holds in
time order are not sorted again.

The chunks are also hashed, and that table (dates decoded) is cached in
``<bundle>/.agribench_cache/<file>.<hash>.npy``, keyed by the file's bytes,
the column dtypes, the numpy version and a format tag; each bundle file has
at most one entry. The chunk checks run on each load. Once every rule has
passed on a table, its entry is written with a stamp over a tag, the
``units.csv`` digest and the package source (``_load_columns``). A load
that reads back an entry with a matching stamp runs no rule: the file's
contents are built, by the same rules, on the first read of their
``Dataset`` field. An entry with no stamp or another is checked at the
load and stamped again. An ordinal outside the calendar reads as no date,
so an edited entry has no more power than an edited CSV file, and an entry
that does not read back as a 1-D array of the table's dtype (then perhaps
a stamp) is a miss. A write the OS refuses is skipped and the load goes on
uncached. The cache is safe to delete; it takes about 3.6 MB for the
covercrop-rs-rfc bundle.

Each parsed file's manifest entry records its rows (for a bulk file, the
count of its tokens), the SHA-256 of its bytes (for a bulk file, taken
from the hashed chunks; ``units.csv`` and ``labels.csv`` are hashed as
they are read) and, for a bulk file, whether its tokens came from the
token cache and whether this load or a stamp checked them.
``featurize.assemble_table`` keys the same directory's table entries on
those digests: an entry there holds a feature table (names, rows, labels,
values, exclusion log), about 150 KB for covercrop-rs-rfc, and is trusted
for its feature values and exclusion counts only; rows and labels always
come from ``labels.csv``. So a session whose tables hit and whose token
entries are stamped builds no bulk file's contents: it hashes the files
and reads their tokens.
"""

import codecs
import csv
import functools
import hashlib
import io
import math
import os
import tempfile
import threading
import unicodedata
import warnings
from collections.abc import Collection
from dataclasses import dataclass, field
from datetime import MAXYEAR, MINYEAR, date
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


class BundleChangedError(ValueError):
    """Raised when a bulk file's bytes differ from those its load hashed.

    Only a build that falls back to reading the file again can find it,
    and it reads the file's new bytes no further.
    """

    def __init__(self, filename: str):
        self.filename = filename
        super().__init__(f"{filename} changed after load_dataset read it; load the bundle again")


@functools.lru_cache(maxsize=4096)
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

    @classmethod
    def _from_loader(cls, unit_id: str, band: SpectralBand, days: np.ndarray,
                     values: np.ndarray) -> "ObservationSeries":
        """A series cut from the columns ``_load_observations`` has checked whole.

        Skips ``__post_init__``, whose rules the loader's whole-file masks
        already hold: ``_date_rule`` makes the days one int64 column, each
        series slices days and values by the same run, the repeats rule and
        ``_groups``' sort leave its days strictly increasing, and the finite
        and raw-range rules cover its values.
        """
        series = object.__new__(cls)
        series.__dict__.update(unit_id=unit_id, band=band, days=days, values=values)
        return series

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

    def __getitem__(self, rows: slice) -> "ClimateSeries":
        """The days of a slice of positions, as views of the columns."""
        return ClimateSeries(self.days[rows], self.tmin[rows], self.tmax[rows], self.ppt[rows])


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
        # Winter wheat and cover-crop seasons start in the prior year, and
        # every day a season reads must be a date.
        if not MINYEAR < self.year <= MAXYEAR:
            raise ValueError(
                f"year {self.year} outside [{MINYEAR + 1}, {MAXYEAR}]: "
                "its season and the year before it must be calendar years"
            )
        if not math.isfinite(self.value):
            raise ValueError("non-finite label value")
        if self.task == "tillage_ratio" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"tillage_ratio {self.value} outside [0, 1]")
        if self.task in CLASSIFICATION_TASKS and self.value not in (0.0, 1.0):
            raise ValueError(f"class label must be 0 or 1, got {self.value}")


class _Deferred:
    """Bulk contents that ``build`` makes on the first ``get``, once, under a lock."""

    def __init__(self, build):
        self._build, self._lock = build, threading.Lock()

    def get(self):
        with self._lock:
            if self._build is not None:
                self._contents, self._build = self._build(), None
        return self._contents


class _Bulk:
    """A ``Dataset`` field that may hold a ``_Deferred``: the first read
    builds it and puts the contents in its place."""

    def __set_name__(self, owner, name):
        self._slot = f"_{name}"

    def __get__(self, dataset, owner=None):
        if dataset is None:  # no default value: the field is required
            raise AttributeError(self._slot)
        contents = dataset.__dict__[self._slot]
        if isinstance(contents, _Deferred):
            contents = dataset.__dict__[self._slot] = contents.get()
        return contents

    def __set__(self, dataset, contents):
        dataset.__dict__[self._slot] = contents


@dataclass
class Dataset:
    """Validated bundle contents. Treat as immutable once loaded.

    ``observations``, ``climate`` and ``embeddings`` are built on their
    first read when ``load_dataset`` found their file's tokens stamped (see
    ``_load_columns``). That build runs the load's rules and fallback, once
    even when threads read the field at the same time. Only an edited cache
    entry can make it raise: the file's own error, or ``BundleChangedError``
    when the file changed since the load.
    """

    units: dict[str, UnitMeta]
    observations: dict[tuple[str, SpectralBand], ObservationSeries] = _Bulk()
    climate: dict[str, ClimateSeries] = _Bulk()
    embeddings: dict[tuple[str, int], np.ndarray] = _Bulk()  # EMBEDDING_DIM finite floats each
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


def _read_rows(path: Path, expected_header: tuple[str, ...], digest=None):
    """Yield (line_number, row) after checking the header row; ``digest``,
    a ``hashlib`` hash, is first updated with the file's bytes."""
    data = path.read_bytes()
    if digest is not None:
        digest.update(data)
    yield from _rows(path.name, data, expected_header)


def _rows(filename: str, data: bytes, expected_header: tuple[str, ...]):
    """Yield (line_number, row) of the file ``filename`` holding ``data``."""
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
_BAND_NAMES = sorted(band.value for band in SpectralBand)
_BAND_IS_RAW = np.array([SpectralBand(name).is_raw for name in _BAND_NAMES])
# Parsers of the number columns of the bulk files, keyed by np.loadtxt dtype.
_PARSERS = {"f8": _parse_number, "i8": _parse_int}
# Bytes of the body that _read_table checks at a time.
_CHUNK = 1 << 16
# The bundle's cache: a directory beside the CSV files (the token cache here,
# featurize's table cache), and the tag of the token entry format, hashed into
# every key so a new format never reads an old one.
CACHE_DIR = ".agribench_cache"
_CACHE_FORMAT = "agribench-tokens-2"
# The tag of a token entry's stamp (see _load_columns).
_STAMP_FORMAT = "agribench-checked-1"
# The one text column whose cells _read_table decodes (to day ordinals), and
# the last ordinal a date can have.
_DATE_COLUMN = "date"
_MAX_ORDINAL = date.max.toordinal()


def _text_dtype(names) -> str:
    """A byte-string dtype one byte wider than the longest of ``names`` in UTF-8.

    np.loadtxt cuts text to the dtype's width; the extra byte keeps a
    longer unknown value (``c1x`` against ``c1``) from matching a name.
    """
    return f"S{max((len(name.encode()) for name in names), default=0) + 1}"


@functools.cache
def source_digest() -> str:
    """The SHA-256 of the name and bytes of every module of this package,
    read once per process: a token entry's stamp and a table cache key
    hold it, so new code never trusts what old code checked or built."""
    source = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source.update(path.name.encode())
        source.update(path.read_bytes())
    return source.hexdigest()


def _stamp(units_sha256: str) -> np.ndarray:
    """The stamp of a token entry whose tokens ``build`` accepted: a SHA-256
    over its tag, the ``units.csv`` digest and the package source."""
    parts = (_STAMP_FORMAT, units_sha256, source_digest())
    return np.frombuffer(hashlib.sha256(repr(parts).encode()).digest(), dtype=np.uint8)


def _read_table(path: Path, columns: list
                ) -> tuple[np.ndarray, str, Path, list[np.ndarray] | None] | None:
    """The data rows of a bundle file as one structured array (one np.loadtxt
    call), the SHA-256 of the file's bytes, the file's token cache entry and,
    when that entry held the array, the arrays stored after it (a stamp, or
    none); None there when np.loadtxt read the file.

    ``columns`` lists ``(name, dtype)`` in header order; text columns are
    byte strings holding each cell's UTF-8 bytes, except ``date``, which
    ``_iso_days`` decodes once into ``<i8`` day ordinals (0 for a cell that
    is no date). Returns None when
    csv.reader must tokenize the file instead: a header other than the
    column names, no data rows, a NUL byte (numpy drops trailing NULs from
    text, so ``c1\\0`` would read as ``c1``), bytes that are not UTF-8 or a
    row np.loadtxt refuses. The body is checked one chunk at a time, with an
    incremental UTF-8 decoder, and np.loadtxt then reads it as Latin-1, which
    maps each byte to one character and back. np.loadtxt does no CSV quoting
    and, with ``comments=None``, keeps ``#`` rows, so a quoted or commented
    cell stays as written and fails a later check.

    The same chunks are hashed, and the entry is named by that hash (see
    ``_cached_tokens``); ``_load_columns`` writes it, so a file whose bytes
    have not changed is tokenized and decoded once.
    """
    dtype = np.dtype(columns)
    with open(path, "rb") as fh:
        header = fh.readline()
        if header.rstrip(b"\r\n") != ",".join(dtype.names).encode():
            return None
        utf8, blank = codecs.getincrementaldecoder("utf-8")(), True
        digest = hashlib.sha256(header)
        try:
            for chunk in iter(lambda: fh.read(_CHUNK), b""):
                if b"\0" in chunk:
                    return None
                utf8.decode(chunk)
                blank = blank and chunk.isspace()
                digest.update(chunk)
            utf8.decode(b"", final=True)
        except UnicodeDecodeError:
            return None
    if blank:
        return None
    sha256 = digest.copy().hexdigest()  # the file's bytes alone
    digest.update(repr((_CACHE_FORMAT, dtype.descr, np.__version__)).encode())
    entry = path.parent / CACHE_DIR / f"{path.name}.{digest.hexdigest()}.npy"
    decoded = np.dtype([(name, "<i8" if name == _DATE_COLUMN else kind)
                        for name, kind in columns])
    arrays = _cached_tokens(entry, decoded)
    if arrays is not None:
        return arrays[0], sha256, entry, arrays[1:]
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads "2020.5" into an integer column as 2020,
            # with only this warning; as an error it refuses the file.
            warnings.simplefilter("error", DeprecationWarning)
            tokens = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                                skiprows=1, ndmin=1, encoding="latin-1")
    except (ValueError, DeprecationWarning):
        return None
    table = tokens
    if _DATE_COLUMN in dtype.names:
        # Dates are decoded before the table is made, so their work arrays
        # and the two tables are never alive together.
        days = _iso_days(tokens[_DATE_COLUMN])
        table = np.empty(len(tokens), dtype=decoded)
        for name in dtype.names:
            table[name] = days if name == _DATE_COLUMN else tokens[name]
        del tokens, days
    return table, sha256, entry, None


def _cached_tokens(entry: Path, dtype: np.dtype) -> list[np.ndarray] | None:
    """The arrays of the token cache entry ``entry`` if it holds a 1-D array
    of ``dtype``, then perhaps a stamp, else None.

    A missing, empty, truncated, padded or foreign entry is a miss (see
    ``read_cache_entry``). The entry holds tokens with dates decoded, not
    validated data: ``build`` runs every rule on them, at the load or, when
    the stamp vouches for them, on the contents' first read, and
    ``_date_rule`` reads an ordinal outside the calendar as no date, so an
    edited entry can do no more than an edited CSV file could.
    """
    arrays = read_cache_entry(entry, 1, optional=1)
    if arrays is None or arrays[0].dtype != dtype or arrays[0].ndim != 1:
        return None
    return arrays


def read_cache_entry(entry: Path, count: int, optional: int = 0) -> list[np.ndarray] | None:
    """The arrays ``write_cache_entry`` wrote to ``entry``, ``count`` of them
    and up to ``optional`` more, or None.

    Each ``.npy`` header must declare a C-order array of a dtype that holds
    no Python object, so nothing is unpickled (as ``np.load`` with
    ``allow_pickle=False``), and the file must hold its bytes before any is
    read. A missing, empty, truncated or padded entry is a miss, and so is
    one whose header claims more bytes than the file has.
    """
    arrays = []
    try:
        with open(entry, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            while len(arrays) < count or (len(arrays) < count + optional and fh.tell() < size):
                if np.lib.format.read_magic(fh) != (1, 0):  # the version np.save writes here
                    return None
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                items = math.prod(shape)
                if (fortran or dtype.hasobject or items < 0
                        or size - fh.tell() < items * dtype.itemsize):
                    return None
                arrays.append(np.fromfile(fh, dtype=dtype, count=items).reshape(shape))
            return arrays if fh.tell() == size else None
    except (OSError, ValueError):
        return None


def write_cache_entry(entry: Path, prefix: str, arrays: list[np.ndarray]) -> None:
    """Publish ``arrays`` as the cache entry ``entry``, the only one named ``prefix...``.

    The arrays are saved one after another to a temporary file (``np.save``
    on a real file writes an array without a copy) that is renamed into
    place, so a reader never sees half an entry; then every other file named
    ``prefix...`` in the cache (older entries of the same bundle file or
    table) is deleted. A write the OS refuses (a read-only bundle, a full
    disk, a file where the cache directory should be) is skipped: the
    caller goes on uncached.
    """
    try:
        entry.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, prefix=prefix, suffix=".tmp")
        try:
            with open(fd, "wb") as fh:
                for array in arrays:
                    np.save(fh, array, allow_pickle=False)
            os.replace(tmp, entry)
        except OSError:
            os.unlink(tmp)
            raise
        for old in entry.parent.iterdir():
            if old.name.startswith(prefix) and old != entry:
                old.unlink(missing_ok=True)
    except OSError:
        pass


def _read_cells(path: Path, columns: list, sha256: str | None = None
                ) -> tuple[str, list[int], dict[str, np.ndarray]]:
    """The file's SHA-256, the line of each data row and the cells of each
    column, read by csv.reader.

    Text cells stay whole ``str`` in object arrays, so ``c1xyz`` is not cut
    to the dtype's width and ``c1\\0`` keeps its NUL. Number cells are
    parsed row by row, so the first cell that is not a number names its line.
    With ``sha256``, the digest a load took of the file, bytes with another
    digest raise ``BundleChangedError`` before any is parsed.
    """
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if sha256 not in (None, digest):
        raise BundleChangedError(path.name)
    lines, rows = [], []
    for line, row in _rows(path.name, data, tuple(name for name, _ in columns)):
        lines.append(line)
        rows.append([_PARSERS[kind](cell, path.name, line, name) if kind in _PARSERS else cell
                     for cell, (name, kind) in zip(row, columns)])
    cells = {name: np.array([row[i] for row in rows], dtype=kind if kind in _PARSERS else object)
             for i, (name, kind) in enumerate(columns)}
    return digest, lines, cells


def _load_columns(path: Path, columns: list, build, stamp: np.ndarray):
    """Tokenize a bulk bundle file, then check and build its contents with
    ``build`` now, or on their first read when a stamp vouches for the tokens.

    ``columns`` lists ``(name, np.loadtxt dtype)`` in header order.
    ``build(cells, lines)`` gets the parsed cells by column name and the
    line of each row, and raises ``BundleValidationError`` at the first
    line one of its rules flags. np.loadtxt tokenizes the file in one call;
    if it or ``build`` refuses those cells, csv.reader tokenizes the file
    again and ``build`` runs on its cells. Those carry the true lines
    (np.loadtxt skips blank rows) and text as CSV reads it: unquoted, whole,
    with NULs and as ``str``, so only they word an error.

    The tokens are written to the file's token cache entry, followed by
    ``stamp`` (see ``_stamp``) once ``build`` has accepted them. A later
    load that reads back that entry with an equal stamp returns a
    ``_Deferred`` in place of the contents: ``build`` runs on the tokens at
    the first read, as above, and csv.reader's reading must find the bytes
    this load hashed (else ``BundleChangedError``). An entry with no stamp,
    or another, is built now and stamped again; an edited units.csv, new
    source or an entry ``np.save`` rewrote lands there.

    Returns the contents and the file's manifest fields: its ``rows`` (the
    tokens' count), the ``sha256`` of its bytes, ``token_cache``, ``hit``
    when the tokens came from the token cache, else ``miss``, and
    ``checked``, ``load`` when this load ran the rules, ``stamp`` when a
    stamp vouched for them.
    """
    read = _read_table(path, columns)
    if read is None:
        sha256, lines, cells = _read_cells(path, columns)
    else:
        table, sha256, entry, stored = read
        fields = {"rows": len(table), "sha256": sha256,
                  "token_cache": "miss" if stored is None else "hit"}
        if stored and stored[0].dtype == stamp.dtype and np.array_equal(stored[0], stamp):
            return (_Deferred(lambda: _build_tokens(path, columns, build, table, sha256)),
                    {**fields, "checked": "stamp"})
        try:
            contents = build(table, range(2, len(table) + 2))
        except BundleValidationError:
            if stored is None:
                write_cache_entry(entry, f"{path.name}.", [table])
        else:
            write_cache_entry(entry, f"{path.name}.", [table, stamp])
            return contents, {**fields, "checked": "load"}
        sha256, lines, cells = _read_cells(path, columns, sha256)
    return build(cells, lines), {"rows": len(lines), "sha256": sha256, "token_cache": "miss",
                                 "checked": "load"}


def _build_tokens(path: Path, columns: list, build, table: np.ndarray, sha256: str):
    """The contents ``build`` makes of stamped tokens, or of csv.reader's
    cells of the file when it refuses them (only an edited entry's)."""
    try:
        return build(table, range(2, len(table) + 2))
    except BundleValidationError:
        _, lines, cells = _read_cells(path, columns, sha256)
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


def _lookup(column: np.ndarray, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's index in the sorted ``names`` (a valid index even for an
    unknown cell) and the mask of cells that are one of ``names``.

    Byte-string cells are matched against the names' UTF-8 bytes, which sort
    in the same order as the names, and ``str`` cells against the names.

    Each run of equal cells is matched once, at its head. That pays where a
    file holds each unit's rows together, as ``synth`` writes them: a
    73,050-cell climate column in 50 runs is matched about 5x faster than
    cell by cell. The format does not require that order. Where ids change
    row by row, every cell heads a run, and finding the runs, gathering
    their heads and repeating the results make the match about 25% slower
    than cell by cell (about 5% of a warm load of such a bundle).
    """
    if not names:
        return np.zeros(len(column), dtype=np.intp), np.zeros(len(column), dtype=bool)
    keys = np.array([name.encode() for name in names] if column.dtype.kind == "S" else names)
    heads = np.flatnonzero(np.concatenate([[len(column) > 0], column[1:] != column[:-1]]))
    lengths = np.diff(np.append(heads, len(column)))
    codes = np.minimum(np.searchsorted(keys, column[heads]), len(keys) - 1)
    return codes.repeat(lengths), (keys[codes] == column[heads]).repeat(lengths)


def _unit_rule(column: np.ndarray, units: dict[str, UnitMeta]):
    """The sorted unit ids, each cell's index in them, and the unknown-unit rule."""
    unit_ids = sorted(units)
    codes, known = _lookup(column, unit_ids)
    return unit_ids, codes, (~known, lambda row: _unknown_unit(column[row]))


# Days in each month of a common year and the days of the year before each
# month; index 0 stands for a cell whose month is no month.
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
_DAYS_BEFORE_MONTH = np.concatenate([[0, 0], np.cumsum(_MONTH_DAYS[1:12])]).astype(np.int32)


def _iso_days(cells: np.ndarray) -> np.ndarray:
    """Day ordinals (``date.toordinal()``) of byte-string cells, at least ten
    bytes wide, written exactly ``YYYY-MM-DD``, else 0.

    A cell is a date when it has ASCII digits and dashes in place and only
    NUL padding after them, a year from 1, a month from 1 to 12 and a day of
    that month, February 29 in leap years only. Other forms that
    ``date.fromisoformat`` reads from Python 3.11 (``20200101``, the week
    date ``2020-W01-1``) are no dates. An ordinal counts the days of the
    years before (leap days included), of the months before and of the month.
    """
    raw = cells[:, None].view(np.uint8)  # one row of bytes per cell
    ok = (raw[:, 4] == ord("-")) & (raw[:, 7] == ord("-")) & ~raw[:, 10:].any(axis=1)
    year, month, day = (np.zeros(len(cells), dtype=np.int32) for _ in range(3))
    for value, positions in ((year, (0, 1, 2, 3)), (month, (5, 6)), (day, (8, 9))):
        for i in positions:
            digit = raw[:, i] - np.uint8(ord("0"))  # any byte but a digit reads above 9
            ok &= digit <= 9
            value *= 10
            value += digit
    month[month > 12] = 0  # no month; keeps the table lookups in range
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok &= (year > 0) & (month > 0) & (day > 0) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
    year -= 1
    days = year.astype(np.int64) * 365
    days += year // 4 - year // 100 + year // 400
    days += _DAYS_BEFORE_MONTH[month] + (leap & (month > 2)) + day
    days[~ok] = 0
    return days


def _date_rule(column: np.ndarray):
    """Day ordinals of the cells (0 where a cell is no date) and the date rule.

    An integer column holds the ordinals ``_read_table`` decoded; one
    outside ``1.._MAX_ORDINAL`` (only an edited cache entry holds one) reads
    as 0. ``str`` cells (csv.reader's) are encoded for ``_iso_days``; a cell
    that is not ten ASCII characters cannot be a date and reads as empty.
    """
    if column.dtype.kind == "i":
        days = np.where((column >= 1) & (column <= _MAX_ORDINAL), column, 0)
    else:
        days = _iso_days(np.array([cell.encode() if len(cell) == 10 and cell.isascii() else b""
                                   for cell in column.tolist()], dtype="S10"))
    return days, (days == 0, lambda row: f"column 'date': not an ISO date: {column[row]!r}")


def _finite_rule(cells, column: str):
    return ~np.isfinite(cells[column]), lambda row: _non_finite(column)


def _groups(keys: np.ndarray, times: np.ndarray):
    """Sort rows by key, then time; find each key's run of rows and the repeats.

    Returns ``(order, runs, repeats)``: ``order`` sorts the rows (stably),
    ``runs`` lists ``(key, start, stop)`` slices of the sorted rows in order
    of each key's first row in the file, and ``repeats`` flags every row
    whose key and time an earlier row of the file has. ``order`` is None
    when the rows are sorted already: each key's rows form one run, in
    strictly increasing time, as the generator writes them.
    """
    boundary = keys[1:] != keys[:-1]
    starts = np.flatnonzero(np.concatenate([[len(keys) > 0], boundary]))
    if len(np.unique(keys[starts])) == len(starts) and (boundary | (times[1:] > times[:-1])).all():
        stops = np.append(starts[1:], len(keys))
        return None, list(zip(keys[starts], starts, stops)), np.zeros(len(keys), dtype=bool)
    order = np.lexsort((times, keys))
    sorted_keys, sorted_times = keys[order], times[order]
    repeats = np.zeros(len(keys), dtype=bool)
    repeats[order[1:]] = ((sorted_keys[1:] == sorted_keys[:-1])
                          & (sorted_times[1:] == sorted_times[:-1]))
    unique, first = np.unique(keys, return_index=True)
    starts = np.searchsorted(sorted_keys, unique)
    stops = np.searchsorted(sorted_keys, unique, side="right")
    return order, [(unique[i], starts[i], stops[i]) for i in np.argsort(first)], repeats


def _in_order(column: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """``column`` sorted by ``_groups``' order, as one contiguous array."""
    return np.ascontiguousarray(column) if order is None else column[order]


def _load_units(path: Path, digest=None) -> dict[str, UnitMeta]:
    header = ("unit_id", "level", "state", "county_id", "ecoregion", "elevation_m")
    name = path.name
    units: dict[str, UnitMeta] = {}
    for line, row in _read_rows(path, header, digest):
        unit_id, level, state, county_id, ecoregion, elevation = row
        if unit_id in units:
            raise BundleValidationError(name, line, f"duplicate unit_id {unit_id!r}")
        if any(unicodedata.category(ch) == "Cc" for ch in unit_id):
            # The bulk loaders match ids as numpy strings, which drop trailing NULs.
            raise BundleValidationError(
                name, line, f"unit_id {unit_id!r} holds a control character"
            )
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


def _load_observations(path: Path, units: dict[str, UnitMeta], stamp: np.ndarray):
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
        days, values = _in_order(days, order), _in_order(values, order)
        series: dict[tuple[str, SpectralBand], ObservationSeries] = {}
        for key, start, stop in runs:
            unit = unit_ids[key // len(_BAND_NAMES)]
            spectral_band = SpectralBand(_BAND_NAMES[key % len(_BAND_NAMES)])
            series[(unit, spectral_band)] = ObservationSeries._from_loader(
                unit, spectral_band, days[start:stop], values[start:stop])
        return series

    return _load_columns(path, [
        ("unit_id", _text_dtype(units)), ("band", _text_dtype(_BAND_NAMES)),
        ("date", "S11"), ("value", "f8"),
    ], build, stamp)


def _load_climate(path: Path, units: dict[str, UnitMeta], stamp: np.ndarray):
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
        days, tmin, tmax, ppt = (_in_order(column, order) for column in (days, tmin, tmax, ppt))
        return {
            unit_ids[code]: ClimateSeries(days[start:stop], tmin[start:stop],
                                          tmax[start:stop], ppt[start:stop])
            for code, start, stop in runs
        }

    return _load_columns(path, [
        ("unit_id", _text_dtype(units)), ("date", "S11"),
        ("tmin_c", "f8"), ("tmax_c", "f8"), ("ppt_mm", "f8"),
    ], build, stamp)


def _load_embeddings(path: Path, units: dict[str, UnitMeta], stamp: np.ndarray):
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
        return {(unit_ids[code], int(year)): vector
                for code, year, vector in zip(unit_codes, years, matrix)}

    return _load_columns(path, [("unit_id", _text_dtype(units)), ("year", "i8")]
                         + [(column, "f8") for column in EMBEDDING_COLUMNS], build, stamp)


def _load_labels(path: Path, units: dict[str, UnitMeta]) -> tuple[list[LabelRecord], dict]:
    header = ("unit_id", "year", "task", "value")
    name = path.name
    labels: list[LabelRecord] = []
    seen: set[tuple[str, int, str]] = set()
    digest = hashlib.sha256()
    for line, row in _read_rows(path, header, digest):
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
    return labels, {"rows": len(labels), "sha256": digest.hexdigest()}


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

    Each parsed file's ``manifest`` entry holds its ``path``, its ``rows``,
    the ``sha256`` of its bytes and, for a bulk file, ``token_cache``
    (``hit`` or ``miss``) and ``checked`` (``load`` or ``stamp``; see
    ``_load_columns``). A bulk file whose tokens a stamp vouches for is
    built on the first read of its field of the ``Dataset``.
    """
    unknown = sorted(set(files) - set(BUNDLE_FILES))
    if unknown:
        raise ValueError(f"unknown bundle files {unknown} (use {', '.join(BUNDLE_FILES)})")
    bundle = Path(bundle_dir)
    for filename in BUNDLE_FILES:
        if not (bundle / filename).exists():
            raise FileNotFoundError(f"missing bundle file: {bundle / filename}")

    def parse(filename, loader, empty, *args):
        if filename not in files:
            return empty
        contents, fields[filename] = loader(bundle / filename, units, *args)
        return contents

    digest = hashlib.sha256()
    units = _load_units(bundle / "units.csv", digest)
    fields = {"units.csv": {"rows": len(units), "sha256": digest.hexdigest()}}
    stamp = _stamp(fields["units.csv"]["sha256"])
    observations = parse("observations.csv", _load_observations, {}, stamp)
    climate = parse("climate.csv", _load_climate, {}, stamp)
    embeddings = parse("embeddings.csv", _load_embeddings, {}, stamp)
    labels = parse("labels.csv", _load_labels, [])

    manifest = {
        filename: {"path": str(bundle / filename), **fields[filename]}
        for filename in BUNDLE_FILES
        if filename in fields
    }
    return Dataset(
        units=units,
        observations=observations,
        climate=climate,
        embeddings=embeddings,
        labels=labels,
        manifest=manifest,
    )
