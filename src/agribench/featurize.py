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
"""

import hashlib
import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .climate import (
    GDD_DEFAULTS,
    GddThresholds,
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
)
from .harmonics import (
    DegenerateDesignError,
    InsufficientObservationsError,
    MissingMonthError,
    SeasonWindow,
    fit_harmonic,
    monthly_extrema,
    phenology_metrics,
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


def _band_fit(dataset: Dataset, unit_id: str, band: SpectralBand, cfg: TaskConfig,
              window: SeasonWindow):
    """Harmonic fit of one band over the season, or ``(None, cause)``."""
    series, cause = _band_series(dataset, unit_id, band, cfg)
    if series is None:
        return None, cause
    try:
        return fit_harmonic(series, window), None
    except (InsufficientObservationsError, DegenerateDesignError):
        return None, "insufficient_observations"


def _climate_cells(
    dataset: Dataset,
    unit_id: str,
    months: list[tuple[int, int]],
    cfg: TaskConfig,
    metrics: tuple[str, ...],
) -> tuple[dict[str, float], set[str]]:
    """Monthly climate aggregates; low-coverage months count as missing."""
    values: dict[str, float] = {}
    causes: set[str] = set()
    climate = dataset.climate_for(unit_id)
    thresholds = cfg.resolved_thresholds() if "gdd" in metrics else None
    for year, month in months:
        abbr = MONTH_ABBREV[month - 1]
        in_month = climate.month(year, month) if climate is not None else None
        ok = in_month is not None and len(in_month) > 0
        if ok and month_coverage(in_month, year, month) < MIN_CLIMATE_COVERAGE:
            ok = False
            causes.add("low_climate_coverage")
        elif not ok:
            causes.add("missing_climate")
        for metric in metrics:
            if not ok:
                values[f"{metric}_{abbr}"] = math.nan
            elif metric == "gdd":
                values[f"gdd_{abbr}"] = monthly_gdd(in_month, thresholds, cfg.gdd_per_day)
            elif metric == "ppt":
                values[f"ppt_{abbr}"] = monthly_ppt(in_month)
            else:
                values[f"tmean_{abbr}"] = monthly_tmean(in_month)
    return values, causes


def build_yield_features(
    dataset: Dataset, unit_id: str, year: int, cfg: TaskConfig
) -> tuple[dict[str, float], set[str]]:
    """Harmonic + phenology features per band plus monthly GDD/PPT.

    Missing parts are returned as NaN cells together with their causes; the
    table-level missing policy decides what happens to them.
    """
    window = cfg.season_template().window(year)
    values: dict[str, float] = {}
    causes: set[str] = set()
    for band in HARMONIC_BANDS:
        fit, cause = _band_fit(dataset, unit_id, band, cfg, window)
        if fit is None:
            causes.add(cause)
            for stat in HARMONIC_STATS:
                values[f"{band.value}_{stat}"] = math.nan
            continue
        metrics = phenology_metrics(fit)
        cells = dict(zip(HARMONIC_STATS, fit.coefficients + (
            metrics.peak_value, metrics.b30, metrics.a30,
            metrics.b30_int, metrics.a30_int,
        )))
        for stat, value in cells.items():
            values[f"{band.value}_{stat}"] = value
    months = [(year, m) for m in CLIMATE_MONTHS[cfg.crop]]
    climate_values, climate_causes = _climate_cells(
        dataset, unit_id, months, cfg, ("gdd", "ppt")
    )
    values.update(climate_values)
    causes |= climate_causes
    return values, causes


def build_tillage_features(
    dataset: Dataset, unit_id: str, year: int, cfg: TaskConfig
) -> tuple[dict[str, float], set[str]]:
    """Raw-observation monthly extrema for April-June plus elevation."""
    values: dict[str, float] = {}
    causes: set[str] = set()
    for band in TILLAGE_BANDS:
        series, cause = _band_series(dataset, unit_id, band, cfg)
        for month in TILLAGE_MONTHS:
            abbr = MONTH_ABBREV[month - 1]
            lo = hi = math.nan
            if series is not None:
                try:
                    lo, hi = monthly_extrema(series, year, month)
                except MissingMonthError:
                    causes.add("missing_month")
            else:
                causes.add(cause)
            values[f"{band.value}_{abbr}_min"] = lo
            values[f"{band.value}_{abbr}_max"] = hi
    values["elev"] = dataset.units[unit_id].elevation_m
    return values, causes


def build_covercrop_features(
    dataset: Dataset, unit_id: str, year: int, cfg: TaskConfig
) -> tuple[dict[str, float], set[str]]:
    """Fitted-curve monthly extrema over Oct-May plus monthly tmean/ppt."""
    window = cfg.season_template().window(year)
    months = [(year + off, m) for off, m in COVERCROP_MONTH_OFFSETS]
    values: dict[str, float] = {}
    causes: set[str] = set()
    for band in HARMONIC_BANDS:
        fit, cause = _band_fit(dataset, unit_id, band, cfg, window)
        if fit is None:
            causes.add(cause)
        for month_year, month in months:
            abbr = MONTH_ABBREV[month - 1]
            if fit is None:
                lo = hi = math.nan
            else:
                lo, hi = monthly_extrema(fit, month_year, month)
            values[f"{band.value}_{abbr}_min"] = lo
            values[f"{band.value}_{abbr}_max"] = hi
    climate_values, climate_causes = _climate_cells(
        dataset, unit_id, months, cfg, ("tmean", "ppt")
    )
    values.update(climate_values)
    causes |= climate_causes
    return values, causes


def build_aef_features(
    dataset: Dataset, unit_id: str, year: int, task: str
) -> tuple[dict[str, float], set[str]]:
    """Embedding columns: label year, prefixed by prior year for cover crop."""
    values: dict[str, float] = {}
    causes: set[str] = set()
    wanted = [("py_", year - 1), ("", year)] if task == "covercrop_class" else [("", year)]
    for prefix, emb_year in wanted:
        embedding = dataset.embedding_for(unit_id, emb_year)
        if embedding is None:
            embedding = np.full(len(EMBEDDING_COLUMNS), math.nan)
            causes.add("missing_embedding")
        for column, value in zip(EMBEDDING_COLUMNS, embedding.tolist()):
            values[f"{prefix}{column}"] = value
    return values, causes


_BUILDERS = {
    "yield": build_yield_features,
    "tillage_ratio": build_tillage_features,
    "tillage_class": build_tillage_features,
    "covercrop_class": build_covercrop_features,
}


def build_row(
    dataset: Dataset, unit_id: str, year: int, cfg: TaskConfig
) -> tuple[dict[str, float], set[str]]:
    if cfg.feature_set == "AEF":
        return build_aef_features(dataset, unit_id, year, cfg.task)
    return _BUILDERS[cfg.task](dataset, unit_id, year, cfg)


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

    rows = []
    labels = []
    unit_years = []
    row_causes = []
    for rec in keyed:
        values, causes = build_row(dataset, rec.unit_id, rec.year, cfg)
        rows.append([values[name] for name in names])
        labels.append(rec.value)
        unit_years.append((rec.unit_id, rec.year))
        row_causes.append(causes)

    matrix = np.array(rows, dtype=float)
    label_vec = np.array(labels, dtype=float)
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
    if not np.isfinite(matrix).all():
        raise AssertionError("assembled table contains non-finite values")

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
