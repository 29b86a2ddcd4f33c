"""Derived spectral indices computed from co-temporal raw-band reflectance.

Two vegetation indices (NDVI, GCVI) and three crop-residue/tillage
indices (NDTI, STI, CRC). Index series are derived only on days where all
required raw bands were observed (scene exports share days, so exact-day
matching is used with no tolerance window).
"""

import numpy as np

from .dataset import ObservationSeries, SpectralBand

# Raw bands each derived index needs, in formula order.
REQUIRED_BANDS: dict[SpectralBand, tuple[SpectralBand, ...]] = {
    SpectralBand.NDVI: (SpectralBand.NIR, SpectralBand.RED),
    SpectralBand.GCVI: (SpectralBand.NIR, SpectralBand.GREEN),
    SpectralBand.NDTI: (SpectralBand.SWIR1, SpectralBand.SWIR2),
    SpectralBand.STI: (SpectralBand.SWIR1, SpectralBand.SWIR2),
    SpectralBand.CRC: (SpectralBand.SWIR1, SpectralBand.BLUE),
}


class IndexDomainError(ValueError):
    """Raised when an index denominator is zero for the given inputs."""


def _ratio_terms(
    kind: SpectralBand, columns: dict[SpectralBand, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, denominator) of ``kind`` over aligned raw-band columns."""
    x, y = (np.asarray(columns[band], dtype=float) for band in REQUIRED_BANDS[kind])
    if kind in (SpectralBand.GCVI, SpectralBand.STI):
        return x, y
    return x - y, x + y


def index_values(
    kind: SpectralBand,
    columns: dict[SpectralBand, np.ndarray],
    gcvi_minus_one: bool = False,
) -> np.ndarray:
    """Evaluate one derived index elementwise over aligned raw-band columns.

    ``columns`` maps each band of ``REQUIRED_BANDS[kind]`` to an array of
    values, one per scene (or per time point). ``gcvi_minus_one`` switches
    GCVI to the conventional NIR/Green - 1 form; the default is the plain
    ratio. Raises ``IndexDomainError`` naming the index if any denominator
    is zero.
    """
    numerator, denominator = _ratio_terms(kind, columns)
    zero = np.flatnonzero(denominator == 0.0)
    if zero.size:
        i = zero[0]
        shown = {band.value: float(np.ravel(col)[i]) for band, col in columns.items()}
        raise IndexDomainError(f"{kind.value}: zero denominator for inputs {shown}")
    values = numerator / denominator
    if kind is SpectralBand.GCVI and gcvi_minus_one:
        values = values - 1.0
    return values


def derive_index_series(
    raw_series: dict[SpectralBand, ObservationSeries],
    kind: SpectralBand,
    gcvi_minus_one: bool = False,
) -> ObservationSeries:
    """Build an index time series from raw-band series of one unit.

    Output has one sample per day present in every required raw-band
    series; days missing from any input are dropped, and so are scenes
    where the index denominator is zero. Raises ``IndexDomainError`` when
    co-temporal scenes exist but every one of them has a zero denominator.
    """
    required = REQUIRED_BANDS[kind]
    for band in required:
        if band not in raw_series:
            raise ValueError(f"{kind.value} requires a series for band {band.value}")

    unit_ids = {raw_series[b].unit_id for b in required}
    if len(unit_ids) != 1:
        raise ValueError(f"input series mix units: {sorted(unit_ids)}")
    (unit_id,) = unit_ids

    x, y = (raw_series[band] for band in required)
    days, x_rows, y_rows = np.intersect1d(x.days, y.days, assume_unique=True,
                                          return_indices=True)
    if not len(days):
        raise ValueError(f"{kind.value}: no co-temporal observations")

    columns = {required[0]: x.values[x_rows], required[1]: y.values[y_rows]}
    defined = _ratio_terms(kind, columns)[1] != 0.0
    if not defined.all():
        if not defined.any():
            raise IndexDomainError(
                f"{kind.value}: zero denominator in all {len(days)} co-temporal scenes"
            )
        columns = {band: column[defined] for band, column in columns.items()}
        days = days[defined]
    values = index_values(kind, columns, gcvi_minus_one=gcvi_minus_one)
    return ObservationSeries(unit_id=unit_id, band=kind, days=days, values=values)
