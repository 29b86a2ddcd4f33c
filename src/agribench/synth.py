"""Seeded synthetic dataset bundles with known generating functions.

Every unit-year gets per-band harmonic reflectance curves with randomly
drawn coefficients; observations are sampled from those curves at an
irregular 8-16 day revisit cadence (plus optional dropout) and optional
Gaussian noise. Labels are a linear map of named true curve features plus
noise, so regression runs have an analytic R-squared ceiling of
1 - sigma_label^2 / Var(label). Embeddings are a fixed linear map of the
true latent features, with an optional region-specific offset that shifts
West-side embeddings to emulate a geographic distribution shift.

Everything is a pure function of (spec, seed): per-unit randomness derives
from hashing the seed with the unit id, so generation order cannot affect
the output, and two runs produce byte-identical bundles.

The ``truth.csv`` sidecar is long format with columns
``kind,unit_id,year,band,name,value``:

- kind=coef:    generating harmonic coefficients (name in c,a1,b1,a2,b2)
- kind=feature: true feature values used by the label function
- kind=meta:    label_sigma, label_variance, r2_ceiling, region_offset, ...
"""

import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .dataset import (
    EMBEDDING_COLUMNS, RAW_BANDS, TASKS, SpectralBand, UnitMeta, default_ecoregion,
)
from .featurize import CLIMATE_MONTHS, SEASON_TEMPLATES, SeasonTemplate
from .harmonics import DAYS_PER_YEAR, curve_values
from .indices import REQUIRED_BANDS, index_values
from .seeding import spawn_rng

B = SpectralBand

# Counties cycle through these states: five East, then seven West Corn Belt
# states (see ``dataset.default_ecoregion``).
STATES = ("IL", "IN", "MI", "OH", "WI", "IA", "KS", "MN", "MO", "ND", "NE", "SD")

# Each unit-year draws its mean revisit interval (days) from this range.
REVISIT_DAYS = (8.0, 16.0)

CALENDAR_TASKS = ("yield", "tillage_ratio", "tillage_class")

_EPOCH = date(1970, 1, 1).toordinal()  # day ordinal of numpy's datetime64 zero


@dataclass(frozen=True)
class BandModel:
    """Coefficient ranges for one band's generating harmonics."""

    c_low: float
    c_high: float
    amp1: float  # max first-order amplitude
    amp2: float  # max second-order amplitude


# Ranges keep every curve inside the valid reflectance range [0, 1.5].
BAND_MODELS: dict[SpectralBand, BandModel] = {
    B.RED: BandModel(0.08, 0.25, 0.05, 0.02),
    B.GREEN: BandModel(0.30, 0.40, 0.004, 0.002),
    B.BLUE: BandModel(0.05, 0.15, 0.03, 0.01),
    B.NIR: BandModel(0.40, 0.60, 0.15, 0.05),
    B.SWIR1: BandModel(0.20, 0.35, 0.06, 0.02),
    B.SWIR2: BandModel(0.12, 0.25, 0.05, 0.02),
}


@dataclass(frozen=True)
class SynthSpec:
    n_counties: int = 40
    fields_per_county: int = 0
    years: tuple[int, ...] = (2018, 2019, 2020, 2021)
    tasks: tuple[str, ...] = ("yield",)
    crop: str = "corn"
    dropout: float = 0.0
    sigma_obs: float = 0.0
    label_weights: dict[str, float] = field(default_factory=lambda: {"GCVI_peak": 1.0})
    label_intercept: float = 8.0
    label_sigma: float = 0.0
    label_r2_ceiling: float | None = None  # overrides label_sigma when set
    region_offset: float = 0.0

    def __post_init__(self):
        if self.n_counties < 1:
            raise ValueError("n_counties must be at least 1")
        if self.fields_per_county < 0:
            raise ValueError(f"fields_per_county must be nonnegative, got {self.fields_per_county}")
        if not self.years:
            raise ValueError("years must be nonempty")
        if len(set(self.years)) != len(self.years):
            raise ValueError(f"years must not repeat, got {list(self.years)}")
        if self.crop not in CLIMATE_MONTHS:
            raise ValueError(
                f"unknown crop {self.crop!r} (use one of {', '.join(CLIMATE_MONTHS)})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.sigma_obs < 0 or self.label_sigma < 0:
            raise ValueError("noise sigmas must be nonnegative")
        if self.label_r2_ceiling is not None and not 0.0 < self.label_r2_ceiling <= 1.0:
            raise ValueError("label_r2_ceiling must be in (0, 1]")
        if not self.tasks:
            raise ValueError("tasks must be nonempty")
        unknown = set(self.tasks) - set(TASKS)
        if unknown:
            raise ValueError(f"unknown tasks {sorted(unknown)}")
        has_calendar = any(t in CALENDAR_TASKS for t in self.tasks)
        if "covercrop_class" in self.tasks and has_calendar:
            raise ValueError(
                "covercrop_class uses Oct-May curve regimes and cannot share a "
                "bundle with calendar-year tasks"
            )
        needs_fields = {"tillage_class", "covercrop_class"} & set(self.tasks)
        if needs_fields and self.fields_per_county < 1:
            raise ValueError(f"tasks {sorted(needs_fields)} require fields_per_county >= 1")
        for name in self.label_weights:
            _band_value_name(name)

    def season_template(self) -> SeasonTemplate:
        if "covercrop_class" in self.tasks:
            return SEASON_TEMPLATES["covercrop"]
        return SEASON_TEMPLATES[self.crop]


@dataclass(frozen=True)
class Curve:
    """One unit-year-band generating harmonic, t in years from January 1 of
    the season window's start year (evaluated with ``curve_values``)."""

    c: float
    a1: float
    b1: float
    a2: float
    b2: float


def _plan_units(spec: SynthSpec, seed: int) -> list[UnitMeta]:
    """Each county, followed by its fields."""
    units = []
    for i in range(spec.n_counties):
        state = STATES[i % len(STATES)]
        county_id = f"{state}{i:03d}"
        members = [(county_id, "county")]
        members += [(f"{county_id}_f{j:02d}", "field") for j in range(spec.fields_per_county)]
        for unit_id, level in members:
            rng = spawn_rng(seed, "elev", unit_id)
            units.append(UnitMeta(
                unit_id=unit_id,
                level=level,
                state=state,
                county_id=county_id,
                ecoregion=default_ecoregion(state),
                elevation_m=round(float(rng.uniform(150, 550)), 1),
            ))
    return units


def _draw_curve(seed: int, unit_id: str, year: int, band: SpectralBand) -> Curve:
    model = BAND_MODELS[band]
    rng = spawn_rng(seed, "coef", unit_id, year, band.value)
    c = float(rng.uniform(model.c_low, model.c_high))
    r1 = float(rng.uniform(0.2 * model.amp1, model.amp1))
    th1 = float(rng.uniform(0, 2 * math.pi))
    r2 = float(rng.uniform(0, model.amp2))
    th2 = float(rng.uniform(0, 2 * math.pi))
    return Curve(
        c=c,
        a1=r1 * math.cos(th1),
        b1=r1 * math.sin(th1),
        a2=r2 * math.cos(th2),
        b2=r2 * math.sin(th2),
    )


def _observation_days(spec: SynthSpec, seed: int, unit_id: str, year: int,
                      window) -> np.ndarray:
    """Day ordinals of one unit-year's observations within ``window``."""
    rng = spawn_rng(seed, "dates", unit_id, year)
    mean_revisit = float(rng.uniform(*REVISIT_DAYS))
    span = (window.end - window.start).days
    offsets = []
    position = float(rng.uniform(0, mean_revisit))
    while position <= span:
        offsets.append(int(round(position)))
        position += max(1.0, float(rng.exponential(mean_revisit)))
    # Dropout draws one number per distinct offset, in order.
    kept = [off for off in sorted(set(offsets))
            if not (spec.dropout > 0 and rng.random() < spec.dropout)]
    return window.start.toordinal() + np.array(kept, dtype=np.int64)


def _iso_days(ordinals: np.ndarray) -> list[str]:
    """``YYYY-MM-DD`` of each day ordinal."""
    return np.datetime_as_string((ordinals - _EPOCH).astype("datetime64[D]")).tolist()


def _band_value_name(name: str) -> tuple[SpectralBand, str]:
    """Band and statistic of a true feature: ``<Band>_peak``, or ``<Band>_c`` for a raw band."""
    band_name, _, stat = name.rpartition("_")
    band = next((band for band in SpectralBand if band.value == band_name), None)
    if band is None or stat not in ("peak", "c") or (stat == "c" and not band.is_raw):
        raise ValueError(
            f"synth.label_feature {name!r}: expected <Band>_peak, or <Band>_c for a raw band"
        )
    return band, stat


def _true_feature(name: str, curves: dict[SpectralBand, Curve], t: np.ndarray) -> float:
    """Feature ``name`` of the curves, peaks taken over the window's days ``t``."""
    band, stat = _band_value_name(name)
    if stat == "c":
        return curves[band].c
    if band.is_raw:
        return float(curve_values(curves[band], t).max())
    columns = {raw: curve_values(curves[raw], t) for raw in REQUIRED_BANDS[band]}
    return float(index_values(band, columns).max())


def _format(value: float) -> str:
    return repr(float(value))


def generate(spec: SynthSpec, seed: int, out_dir: str | Path) -> dict:
    """Write the five bundle CSVs plus ``truth.csv``; returns row counts.

    Observations, labels and truth cover each year of ``spec.years``.
    Embeddings cover each label year and, for cover crop, each prior year
    too (the AEF two-year concatenation reads it). Climate runs daily from
    January 1 of the first embedding year to December 31 of the last label
    year. Fully deterministic for a fixed (spec, seed): same bytes every run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    units = _plan_units(spec, seed)
    template = spec.season_template()
    years = tuple(sorted(spec.years))
    prior_years = {year - 1 for year in years} if "covercrop_class" in spec.tasks else set()
    emb_years = tuple(sorted(set(years) | prior_years))
    feature_names = sorted(spec.label_weights)
    lines = {
        "units": ["unit_id,level,state,county_id,ecoregion,elevation_m"],
        "observations": ["unit_id,band,date,value"],
        "climate": ["unit_id,date,tmin_c,tmax_c,ppt_mm"],
        "embeddings": ["unit_id,year," + ",".join(EMBEDDING_COLUMNS)],
        "labels": ["unit_id,year,task,value"],
        "truth": ["kind,unit_id,year,band,name,value"],
    }

    # Per unit-year: curves, their observations and truth rows, and the
    # latent vector [label signal, raw band levels].
    latents: dict[tuple[str, int], list[float]] = {}
    for unit in units:
        uid = unit.unit_id
        lines["units"].append(
            f"{uid},{unit.level},{unit.state},{unit.county_id},{unit.ecoregion},{unit.elevation_m}"
        )
        for year in years:
            window = template.window(year)
            origin = date(window.start.year, 1, 1)
            curves = {band: _draw_curve(seed, uid, year, band) for band in RAW_BANDS}
            days = _observation_days(spec, seed, uid, year, window)
            t = (days - origin.toordinal()) / DAYS_PER_YEAR
            day_names = _iso_days(days)
            noise_rng = spawn_rng(seed, "obsnoise", uid, year)
            for band, curve in curves.items():
                values = curve_values(curve, t)
                if spec.sigma_obs > 0:
                    values = values + spec.sigma_obs * noise_rng.standard_normal(len(t))
                    values = np.clip(values, 0.001, 1.499)
                prefix = f"{uid},{band.value}"
                lines["observations"].extend(
                    f"{prefix},{day},{v!r}" for day, v in zip(day_names, values.tolist())
                )
                lines["truth"].extend(
                    f"coef,{uid},{year},{band.value},{name},{_format(getattr(curve, name))}"
                    for name in ("c", "a1", "b1", "a2", "b2")
                )
            window_t = window.day_times(origin)
            feats = {name: _true_feature(name, curves, window_t) for name in feature_names}
            lines["truth"].extend(
                f"feature,{uid},{year},,{name},{_format(feats[name])}" for name in feature_names
            )
            # One sum, then the intercept: adding term by term changes label bits.
            signal = spec.label_intercept + sum(
                spec.label_weights[name] * feats[name] for name in feature_names
            )
            latents[(uid, year)] = [signal] + [curve.c for curve in curves.values()]

    # Climate: one calendar per bundle, one generator per unit.
    first = date(emb_years[0], 1, 1).toordinal()
    calendar = np.arange(first, date(years[-1], 12, 31).toordinal() + 1)
    day_names = _iso_days(calendar)
    days = (calendar - _EPOCH).astype("datetime64[D]")
    doy = (days - days.astype("datetime64[Y]")).astype(np.int64) + 1
    seasonal = 10.0 + 14.0 * np.sin(2 * np.pi * (doy - 105) / 365.25)
    n_days = len(calendar)
    for unit in units:
        rng = spawn_rng(seed, "climate", unit.unit_id)
        tmean = seasonal + rng.normal(0, 2.0, n_days)
        diurnal = rng.uniform(6.0, 12.0, n_days)
        wet = rng.random(n_days) < 0.35
        ppt = np.where(wet, rng.exponential(6.0, n_days), 0.0)
        tmin = tmean - diurnal / 2.0
        tmax = tmean + diurnal / 2.0
        lines["climate"].extend(
            f"{unit.unit_id},{day},{lo!r},{hi!r},{wet_mm!r}"
            for day, lo, hi, wet_mm in zip(day_names, tmin.tolist(), tmax.tolist(), ppt.tolist())
        )

    # Resolve the label noise scale.
    keys = sorted(latents)
    signal_values = np.array([latents[key][0] for key in keys])
    if spec.label_r2_ceiling is not None:
        sigma_label = math.sqrt(float(signal_values.var()) * (1.0 / spec.label_r2_ceiling - 1.0))
    else:
        sigma_label = spec.label_sigma

    # Embeddings: fixed linear map of the standardized latents, plus the
    # optional West-side offset emulating a geographic shift.
    n_latent = 1 + len(RAW_BANDS)
    map_rng = spawn_rng(seed, "embedding_map")
    weight = map_rng.normal(0, 1.0 / math.sqrt(n_latent), size=(64, n_latent))
    bias = map_rng.normal(0, 0.2, size=64)
    # The region shift is an exact misread of the signal latent: adding
    # (offset/2) * W[:, 0] makes a West row read as if its signal latent were
    # offset/2 standard deviations higher, in every informative dimension at
    # once, so models trained in one region systematically mispredict the
    # other. A region beacon of the same magnitude on the four least
    # signal-loaded dims keeps the regions separable for in-domain models.
    beacon = np.zeros(64)
    beacon_dims = np.argsort(np.abs(weight[:, 0]))[:4]
    beacon[beacon_dims] = 1.0
    shift_dir = 0.5 * (weight[:, 0] + beacon)

    latent_matrix = np.array([latents[key] for key in keys])
    latent_mean = latent_matrix.mean(axis=0)
    latent_std = latent_matrix.std(axis=0)
    latent_std[latent_std == 0] = 1.0

    for unit in units:
        for year in emb_years:
            key = (unit.unit_id, year)
            if key in latents:
                z = (np.array(latents[key]) - latent_mean) / latent_std
            else:
                # Pre-window year for two-year concatenation: latent draws
                # from the unit's climatology, seeded like everything else.
                pre_rng = spawn_rng(seed, "prelatent", unit.unit_id, year)
                z = pre_rng.normal(0, 1, n_latent)
            vec = weight @ z + bias
            if spec.region_offset != 0.0 and unit.ecoregion == "West":
                vec = vec + spec.region_offset * shift_dir
            lines["embeddings"].append(
                f"{unit.unit_id},{year}," + ",".join(map(repr, vec.tolist()))
            )

    label_values: list[float] = []
    median_signal = float(np.median(signal_values))
    for task in spec.tasks:
        levels = {"yield": ("county", "field"), "tillage_ratio": ("county",)}.get(task, ("field",))
        for unit in units:
            if unit.level not in levels:
                continue
            for year in years:
                signal = latents[(unit.unit_id, year)][0]
                rng = spawn_rng(seed, "label", task, unit.unit_id, year)
                noise = sigma_label * float(rng.standard_normal()) if sigma_label else 0.0
                if task == "yield":
                    value = signal + noise
                    label_values.append(value)
                elif task == "tillage_ratio":
                    value = 1.0 / (1.0 + math.exp(-(signal + noise - median_signal)))
                else:
                    value = 1.0 if signal + noise > median_signal else 0.0
                lines["labels"].append(f"{unit.unit_id},{year},{task},{_format(value)}")

    label_var = float(np.var(np.array(label_values))) if label_values else float("nan")
    r2_ceiling = 1.0 - sigma_label**2 / label_var if label_var > 0 else float("nan")
    meta = {
        "label_sigma": sigma_label,
        "label_variance": label_var,
        "r2_ceiling": r2_ceiling,
        "label_intercept": spec.label_intercept,
        "region_offset": spec.region_offset,
        "sigma_obs": spec.sigma_obs,
    }
    lines["truth"].extend(f"meta,,,,{name},{_format(meta[name])}" for name in sorted(meta))

    for stem, rows in lines.items():
        (out / f"{stem}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    counts = {stem: len(lines[stem]) - 1 for stem in lines if stem != "truth"}
    return {**counts, "label_sigma": sigma_label, "r2_ceiling": r2_ceiling}


def read_truth(bundle_dir: str | Path) -> dict:
    """Parse ``truth.csv`` back into coefficient/feature/meta lookups."""
    path = Path(bundle_dir) / "truth.csv"
    coefs: dict[tuple[str, int, str], dict[str, float]] = {}
    feats: dict[tuple[str, int], dict[str, float]] = {}
    meta: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "kind,unit_id,year,band,name,value":
            raise ValueError(f"unexpected truth.csv header: {header}")
        for line in fh:
            kind, unit_id, year, band, name, value = line.rstrip("\n").split(",")
            if kind == "coef":
                coefs.setdefault((unit_id, int(year), band), {})[name] = float(value)
            elif kind == "feature":
                feats.setdefault((unit_id, int(year)), {})[name] = float(value)
            else:
                meta[name] = float(value)
    return {"coefficients": coefs, "features": feats, "meta": meta}
