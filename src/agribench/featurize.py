"""Per-task predictor assembly.

Four feature sets are produced, each with an exact column contract:

- yield RS:     10 harmonic features per band x 8 bands (6 raw + NDVI + GCVI)
                plus monthly GDD and PPT -> 90 columns (corn/soybean, May-Sep)
                or 92 (winter wheat, Jan-Jun)
- tillage RS:   min/max per band-month for 11 bands x Apr-Jun from raw
                observations, plus elevation -> 67 columns
- covercrop RS: fitted-curve monthly min/max for 8 bands x Oct-May plus
                monthly mean temperature and accumulated precipitation
                -> 144 columns
- AEF:          the 64 embedding values of the label year (yield/tillage),
                or prior-year then label-year concatenated -> 128 columns
                (cover crop)

Column order is fixed by the naming scheme (band-major in canonical band
order, stat order as listed, months chronological), so assembled tables are
independent of input row order. Rows with missing cells are dropped or
mean-imputed according to the configured policy.

Each feature set is a fixed tuple of column blocks (``_blocks``), and a table
is their arrays side by side, each built over all rows at once. Blocks that
read band series walk each unit's run of rows, so a unit's series are fetched
and its indices derived once per table, whatever its number of label years.
"""

import hashlib
import math
from dataclasses import dataclass, field
from datetime import date
from itertools import groupby

import numpy as np

from .climate import (
    GDD_DEFAULTS,
    GddThresholds,
    daily_tmean,
    month_coverage,
    monthly_gdd,
    monthly_ppt,
    monthly_tmean,
)
from .dataset import (
    EMBEDDING_COLUMNS,
    RAW_BANDS,
    Dataset,
    SpectralBand,
    TASKS,
    month_span,
)
from .harmonics import (
    DegenerateDesignError,
    InsufficientObservationsError,
    MissingMonthError,
    SeasonWindow,
    WindowCurves,
    fit_harmonic,
    monthly_extrema,
    phenology_metrics,
    window_curves,
)
from .indices import REQUIRED_BANDS, derive_index_series

B = SpectralBand

HARMONIC_BANDS = RAW_BANDS + (B.NDVI, B.GCVI)
TILLAGE_BANDS = HARMONIC_BANDS + (B.NDTI, B.STI, B.CRC)
HARMONIC_STATS = ("c", "a1", "b1", "a2", "b2", "peak", "b30", "a30", "b30int", "a30int")

MONTH_ABBREV = ("jan", "feb", "mar", "apr", "may", "jun",
                "jul", "aug", "sep", "oct", "nov", "dec")

# Months of the label year carrying GDD/PPT predictors for yield.
CLIMATE_MONTHS = {
    "corn": (5, 6, 7, 8, 9),
    "soybean": (5, 6, 7, 8, 9),
    "winter_wheat": (1, 2, 3, 4, 5, 6),
}
TILLAGE_MONTHS = (4, 5, 6)

# A month with less than this fraction of days present is treated as missing.
MIN_CLIMATE_COVERAGE = 0.8

# Fits of one window are evaluated in chunks of at most this many curve cells
# (fit, window day), about 1 MiB per float64 curve array.
_CURVE_CELLS = 1 << 17

# The feature sets and the bundle files each reads; commands parse only these.
FEATURE_SET_FILES = {
    "RS": ("units.csv", "observations.csv", "climate.csv", "labels.csv"),
    "AEF": ("units.csv", "embeddings.csv", "labels.csv"),
}


class FeatureAssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class SeasonTemplate:
    """Window endpoints relative to the label year."""

    start_month: int
    start_day: int
    end_month: int
    end_day: int
    start_year_offset: int = 0  # every window ends in the label year

    def window(self, year: int) -> SeasonWindow:
        return SeasonWindow(
            start=date(year + self.start_year_offset, self.start_month, self.start_day),
            end=date(year, self.end_month, self.end_day),
        )


SEASON_TEMPLATES = {
    "corn": SeasonTemplate(4, 1, 10, 31),
    "soybean": SeasonTemplate(4, 1, 10, 31),
    "winter_wheat": SeasonTemplate(9, 1, 7, 15, start_year_offset=-1),
    "covercrop": SeasonTemplate(10, 1, 5, 31, start_year_offset=-1),
}

# Cover-crop monthly features run October (prior year) through May.
COVERCROP_MONTH_OFFSETS = ((-1, 10), (-1, 11), (-1, 12), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5))


@dataclass(frozen=True)
class TaskConfig:
    task: str
    crop: str | None = None
    feature_set: str = "RS"
    missing_policy: str = "drop"
    gdd_thresholds: GddThresholds | None = None
    gcvi_minus_one: bool = False
    gdd_per_day: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.feature_set not in FEATURE_SET_FILES:
            raise ValueError(f"unknown feature_set {self.feature_set!r}")
        if self.missing_policy not in ("drop", "impute_mean"):
            raise ValueError(f"unknown missing_policy {self.missing_policy!r}")
        if self.task == "yield" and self.crop not in CLIMATE_MONTHS:
            raise ValueError(f"yield task requires crop in {sorted(CLIMATE_MONTHS)}")

    def season_template(self) -> SeasonTemplate:
        key = "covercrop" if self.task == "covercrop_class" else self.crop
        if key not in SEASON_TEMPLATES:
            raise ValueError(f"no default season window for task {self.task!r}")
        return SEASON_TEMPLATES[key]

    def resolved_thresholds(self) -> GddThresholds:
        if self.gdd_thresholds is not None:
            return self.gdd_thresholds
        return GDD_DEFAULTS[self.crop]

    def flagged_defaults(self) -> list[str]:
        """Assumptions baked into this run that reports must surface."""
        flags = []
        if self.task == "yield" and self.crop == "corn" and self.gdd_thresholds is None:
            th = GDD_DEFAULTS["corn"]
            flags.append(f"corn_gdd_thresholds_default:{th.t_base}/{th.t_cap}")
        return flags


def config_fingerprint(cfg: TaskConfig) -> str:
    """Stable short hash of the semantic configuration."""
    return hashlib.sha256(repr(cfg).encode("utf-8")).hexdigest()[:16]


@dataclass
class FeatureTable:
    """Assembled predictor matrix paired 1:1 with labels."""

    task: str
    feature_set: str
    feature_names: tuple[str, ...]
    unit_years: tuple[tuple[str, int], ...]
    values: np.ndarray
    labels: np.ndarray
    exclusion_log: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        n, f = self.values.shape
        if n != len(self.unit_years) or n != len(self.labels):
            raise ValueError("row count mismatch between values, labels, and keys")
        if f != len(self.feature_names):
            raise ValueError("column count does not match feature names")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def select(self, row_indices) -> "FeatureTable":
        idx = np.asarray(row_indices, dtype=int)
        return FeatureTable(
            task=self.task,
            feature_set=self.feature_set,
            feature_names=self.feature_names,
            unit_years=tuple(self.unit_years[i] for i in idx),
            values=self.values[idx],
            labels=self.labels[idx],
            exclusion_log=dict(self.exclusion_log),
        )


def yield_feature_names(cfg: TaskConfig) -> tuple[str, ...]:
    names = [f"{band.value}_{stat}" for band in HARMONIC_BANDS for stat in HARMONIC_STATS]
    for month in CLIMATE_MONTHS[cfg.crop]:
        abbr = MONTH_ABBREV[month - 1]
        names += [f"gdd_{abbr}", f"ppt_{abbr}"]
    return tuple(names)


def tillage_feature_names() -> tuple[str, ...]:
    names = [
        f"{band.value}_{MONTH_ABBREV[month - 1]}_{stat}"
        for band in TILLAGE_BANDS
        for month in TILLAGE_MONTHS
        for stat in ("min", "max")
    ]
    return tuple(names + ["elev"])


def covercrop_feature_names() -> tuple[str, ...]:
    names = [
        f"{band.value}_{MONTH_ABBREV[month - 1]}_{stat}"
        for band in HARMONIC_BANDS
        for _, month in COVERCROP_MONTH_OFFSETS
        for stat in ("min", "max")
    ]
    for _, month in COVERCROP_MONTH_OFFSETS:
        abbr = MONTH_ABBREV[month - 1]
        names += [f"tmean_{abbr}", f"ppt_{abbr}"]
    return tuple(names)


def aef_feature_names(task: str) -> tuple[str, ...]:
    if task == "covercrop_class":
        return tuple(f"py_{c}" for c in EMBEDDING_COLUMNS) + EMBEDDING_COLUMNS
    return EMBEDDING_COLUMNS


def feature_names(cfg: TaskConfig) -> tuple[str, ...]:
    if cfg.feature_set == "AEF":
        return aef_feature_names(cfg.task)
    if cfg.task == "yield":
        return yield_feature_names(cfg)
    if cfg.task in ("tillage_ratio", "tillage_class"):
        return tillage_feature_names()
    return covercrop_feature_names()


def expected_feature_count(cfg: TaskConfig) -> int:
    return len(feature_names(cfg))


def _unit_runs(keyed: list):
    """Each unit's id with the indices of its rows; ``keyed`` is sorted by unit."""
    for unit_id, run in groupby(range(len(keyed)), key=lambda i: keyed[i].unit_id):
        yield unit_id, list(run)


def _band_series(dataset: Dataset, unit_id: str, band: SpectralBand, cfg: TaskConfig):
    """Raw series straight from the bundle; derived series from co-temporal scenes.

    Returns ``(series, None)``, or ``(None, cause)`` when there is no series:
    ``insufficient_observations`` for a missing raw band, ``index_undefined``
    when the index cannot be derived (no co-temporal scenes or a zero
    denominator).
    """
    missing = (None, "insufficient_observations")
    if band.is_raw:
        series = dataset.series_for(unit_id, band)
        return missing if series is None else (series, None)
    raw = {}
    for required in REQUIRED_BANDS[band]:
        series = dataset.series_for(unit_id, required)
        if series is None:
            return missing
        raw[required] = series
    try:
        return derive_index_series(raw, band, gcvi_minus_one=cfg.gcvi_minus_one), None
    except ValueError:
        return None, "index_undefined"


def _curve_stats(curves: WindowCurves, cfg: TaskConfig, year: int) -> np.ndarray:
    """One row of harmonic cells per curve, in feature-name order.

    Yield: the coefficients then the phenology. Cover crop: min and max of
    each month, October through May.
    """
    if cfg.task == "yield":
        m = phenology_metrics(curves)
        return np.column_stack([curves.coefficients, m.peak_value, m.b30, m.a30,
                                m.b30_int, m.a30_int])
    return np.column_stack([
        extremum
        for off, month in COVERCROP_MONTH_OFFSETS
        for extremum in monthly_extrema(curves, year + off, month)
    ])


def _curve_cells(dataset: Dataset, keyed: list, cfg: TaskConfig,
                 row_causes: list[set[str]]) -> np.ndarray:
    """The harmonic columns of every row, in two phases.

    Phase 1 fits every band of every row with one label year (one season
    window) in a single batched ``fit_harmonic`` call, reading each unit's
    series once for all its rows. A band without a fit gets a NaN
    coefficient row and adds its cause to ``row_causes``. Phase 2 evaluates
    the fits of each window together, in chunks of at most ``_CURVE_CELLS``
    curve cells.
    """
    template = cfg.season_template()
    coefficients = np.full((len(keyed), len(HARMONIC_BANDS), 5), math.nan)
    # label year -> the (row, band) cells of its batch, and their series
    batches: dict[int, tuple[list, list]] = {}
    for unit_id, rows in _unit_runs(keyed):
        bands = [_band_series(dataset, unit_id, band, cfg) for band in HARMONIC_BANDS]
        for i in rows:
            cells, batch = batches.setdefault(keyed[i].year, ([], []))
            for j, (series, cause) in enumerate(bands):
                if series is None:
                    row_causes[i].add(cause)
                else:
                    cells.append((i, j))
                    batch.append(series)
    for year, (cells, batch) in batches.items():
        fits = fit_harmonic(batch, template.window(year))
        coefficients[[i for i, _ in cells], [j for _, j in cells]] = fits.coefficients
        for (i, _), error in zip(cells, fits.errors):
            if isinstance(error, (InsufficientObservationsError, DegenerateDesignError)):
                row_causes[i].add("insufficient_observations")
            elif error is not None:
                raise error

    years = np.array([rec.year for rec in keyed])
    by_year = []
    for year in np.unique(years).tolist():
        window = template.window(year)
        fits = coefficients[years == year]
        flat = fits.reshape(-1, 5)
        step = max(1, _CURVE_CELLS // window.n_days)
        stats = np.vstack([_curve_stats(window_curves(window, flat[lo:lo + step]), cfg, year)
                           for lo in range(0, len(flat), step)])
        by_year.append(stats.reshape(len(fits), -1))
    # by_year holds the rows year by year; put them back in table order.
    stacked = np.vstack(by_year)
    cells = np.empty_like(stacked)
    cells[np.argsort(years, kind="stable")] = stacked
    return cells


def _climate_cells(dataset: Dataset, keyed: list, cfg: TaskConfig,
                   row_causes: list[set[str]]) -> np.ndarray:
    """Monthly GDD and PPT (yield) or tmean and PPT (cover crop) of every row.

    A month with no days or with too low coverage is NaN in both of its cells.
    The bounds of all of a unit's row-months come from one ``searchsorted``,
    and the sums read list slices of the unit's daily values.
    """
    if cfg.task == "yield":
        thresholds = cfg.resolved_thresholds()
        months = [(0, month) for month in CLIMATE_MONTHS[cfg.crop]]
    else:
        months = COVERCROP_MONTH_OFFSETS
    cells = np.full((len(keyed), len(months), 2), math.nan)
    for unit_id, rows in _unit_runs(keyed):
        climate = dataset.climate_for(unit_id)
        if climate is None:
            for i in rows:
                row_causes[i].add("missing_climate")
            continue
        row_months = [(i, k, keyed[i].year + off, month)
                      for i in rows for k, (off, month) in enumerate(months)]
        spans = [month_span(year, month) for _, _, year, month in row_months]
        bounds = climate.days.searchsorted(spans).tolist()
        ppt = climate.ppt.tolist()
        if cfg.task != "yield":
            midpoints = daily_tmean(climate).tolist()
        for (i, k, year, month), (lo, hi) in zip(row_months, bounds):
            if lo == hi:
                row_causes[i].add("missing_climate")
            elif month_coverage(hi - lo, year, month) < MIN_CLIMATE_COVERAGE:
                row_causes[i].add("low_climate_coverage")
            elif cfg.task == "yield":
                cells[i, k] = (monthly_gdd(climate[lo:hi], thresholds, cfg.gdd_per_day),
                               monthly_ppt(ppt[lo:hi]))
            else:
                cells[i, k] = (monthly_tmean(midpoints[lo:hi]), monthly_ppt(ppt[lo:hi]))
    return cells.reshape(len(keyed), -1)


def _tillage_cells(dataset: Dataset, keyed: list, cfg: TaskConfig,
                   row_causes: list[set[str]]) -> np.ndarray:
    """Raw-observation monthly extrema for April-June, then elevation."""
    cells = np.full((len(keyed), len(TILLAGE_BANDS), len(TILLAGE_MONTHS), 2), math.nan)
    for unit_id, rows in _unit_runs(keyed):
        for j, band in enumerate(TILLAGE_BANDS):
            series, cause = _band_series(dataset, unit_id, band, cfg)
            for i in rows:
                if series is None:
                    row_causes[i].add(cause)
                    continue
                for k, month in enumerate(TILLAGE_MONTHS):
                    try:
                        cells[i, j, k] = monthly_extrema(series, keyed[i].year, month)
                    except MissingMonthError:
                        row_causes[i].add("missing_month")
    elevation = [[dataset.units[rec.unit_id].elevation_m] for rec in keyed]
    return np.hstack([cells.reshape(len(keyed), -1), elevation])


def _embedding_cells(dataset: Dataset, keyed: list, cfg: TaskConfig,
                     row_causes: list[set[str]]) -> np.ndarray:
    """Label-year embeddings, prefixed by the prior year's for cover crop."""
    offsets = (-1, 0) if cfg.task == "covercrop_class" else (0,)
    cells = np.full((len(keyed), len(offsets), len(EMBEDDING_COLUMNS)), math.nan)
    for i, rec in enumerate(keyed):
        for k, off in enumerate(offsets):
            embedding = dataset.embedding_for(rec.unit_id, rec.year + off)
            if embedding is None:
                row_causes[i].add("missing_embedding")
            else:
                cells[i, k] = embedding
    return cells.reshape(len(keyed), -1)


def _blocks(cfg: TaskConfig) -> tuple:
    """The column blocks of the feature set, in ``feature_names`` order.

    Each maps ``(dataset, keyed, cfg, row_causes)`` to a ``(rows x width)``
    array; a missing cell is NaN and adds its cause to the row's set.
    """
    if cfg.feature_set == "AEF":
        return (_embedding_cells,)
    if cfg.task in ("tillage_ratio", "tillage_class"):
        return (_tillage_cells,)
    return (_curve_cells, _climate_cells)


def assemble_table(dataset: Dataset, cfg: TaskConfig) -> FeatureTable:
    """Build the feature table for every labeled (unit, year) of the task.

    Rows are ordered by (unit_id, year). Under the ``drop`` policy, rows with
    any missing cell are removed and their causes counted in the exclusion
    log; under ``impute_mean``, missing cells are filled with the column mean
    over complete rows. ``dataset`` must have been loaded with every file of
    ``FEATURE_SET_FILES[cfg.feature_set]``.
    """
    unloaded = [f for f in FEATURE_SET_FILES[cfg.feature_set] if f not in dataset.manifest]
    if unloaded:
        raise FeatureAssemblyError(
            f"feature set {cfg.feature_set!r} reads {', '.join(unloaded)}, "
            "which the dataset was loaded without"
        )
    names = feature_names(cfg)
    keyed = sorted(
        (rec for rec in dataset.labels if rec.task == cfg.task),
        key=lambda rec: (rec.unit_id, rec.year),
    )
    if not keyed:
        raise FeatureAssemblyError(f"no labels for task {cfg.task!r}")

    row_causes = [set() for _ in keyed]
    matrix = np.hstack([block(dataset, keyed, cfg, row_causes) for block in _blocks(cfg)])
    label_vec = np.array([rec.value for rec in keyed], dtype=float)
    unit_years = [(rec.unit_id, rec.year) for rec in keyed]
    exclusion_log: dict[str, int] = {}

    incomplete = np.isnan(matrix).any(axis=1)
    if cfg.missing_policy == "drop":
        for flag, causes in zip(incomplete, row_causes):
            if flag:
                for cause in sorted(causes) or ["unknown"]:
                    exclusion_log[cause] = exclusion_log.get(cause, 0) + 1
        keep = ~incomplete
        matrix = matrix[keep]
        label_vec = label_vec[keep]
        unit_years = [uy for uy, flag in zip(unit_years, incomplete) if not flag]
    else:
        missing_cells = np.isnan(matrix)
        if missing_cells.any():
            complete = ~incomplete
            if not complete.any():
                raise FeatureAssemblyError("impute_mean: no complete rows to impute from")
            column_means = matrix[complete].mean(axis=0)
            fill_rows, fill_cols = np.nonzero(missing_cells)
            matrix[fill_rows, fill_cols] = column_means[fill_cols]
            exclusion_log["imputed_cells"] = int(missing_cells.sum())

    if matrix.shape[0] == 0:
        raise FeatureAssemblyError(
            f"no rows survived the {cfg.missing_policy!r} policy "
            f"(exclusions: {exclusion_log})"
        )
    if matrix.shape[1] != expected_feature_count(cfg):
        raise AssertionError("assembled width violates the feature contract")
    finite = np.isfinite(matrix)
    if not finite.all():
        row, column = np.argwhere(~finite)[0].tolist()
        raise FeatureAssemblyError(
            f"column {names[column]!r} is not finite for (unit_id, year) {unit_years[row]}"
        )

    return FeatureTable(
        task=cfg.task,
        feature_set=cfg.feature_set,
        feature_names=names,
        unit_years=tuple(unit_years),
        values=matrix,
        labels=label_vec,
        exclusion_log=exclusion_log,
    )


def export_feature_table(table: FeatureTable, path) -> None:
    """Write ``unit_id,year,label,<feature columns>`` CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("unit_id", "year", "label") + table.feature_names) + "\n")
        for (unit_id, year), label, row in zip(table.unit_years, table.labels, table.values):
            cells = [unit_id, str(year), repr(float(label))]
            cells += [repr(float(v)) for v in row]
            fh.write(",".join(cells) + "\n")
