"""Monthly climate aggregates: accumulated precipitation and growing degree days.

GDD accumulates hourly thermal time between a base and a cap temperature,
with hourly temperatures interpolated sinusoidally between the daily minimum
and maximum. The double sum over days and hours 1..24 is accumulated in
loop order and yields degree-hours; set ``gdd_per_day`` to divide by 24 for
conventional degree-day units. ``monthly_gdd`` takes one month of a unit's
``ClimateSeries`` columns; ``monthly_ppt`` and ``monthly_tmean`` take one
month of daily values, which may be slices of a list made once per unit.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import ClimateSeries, month_span


class NoClimateDataError(ValueError):
    pass


@dataclass(frozen=True)
class GddThresholds:
    """Lower/upper biological temperature thresholds in deg C."""

    t_base: float
    t_cap: float

    def __post_init__(self):
        if not (math.isfinite(self.t_base) and math.isfinite(self.t_cap)):
            raise ValueError(
                f"GDD thresholds must be finite, got t_base {self.t_base}, t_cap {self.t_cap}")
        if not self.t_base < self.t_cap:
            raise ValueError(f"t_base {self.t_base} must be below t_cap {self.t_cap}")


GDD_SOYBEAN = GddThresholds(t_base=8.0, t_cap=30.0)
GDD_WINTER_WHEAT = GddThresholds(t_base=0.0, t_cap=26.0)
# Corn thresholds are a configurable default (standard agronomic limits);
# runs that rely on them flag the assumption in their reports.
GDD_CORN_DEFAULT = GddThresholds(t_base=10.0, t_cap=30.0)

GDD_DEFAULTS = {
    "soybean": GDD_SOYBEAN,
    "winter_wheat": GDD_WINTER_WHEAT,
    "corn": GDD_CORN_DEFAULT,
}


# sin(pi * (hour - 6) / 12) for hour = 1..24: the shape of the diurnal cycle.
# The hourly temperature is mid + amp * _HOURLY_SIN[hour - 1], with its maximum
# at hour 12; any fixed phase gives the same daily GDD sum.
_HOURLY_SIN = tuple(math.sin(math.pi * (hour - 6) / 12.0) for hour in range(1, 25))


def _check_nonempty(days: Sequence) -> None:
    if not len(days):
        raise NoClimateDataError("no climate data for month")


def daily_tmean(days: ClimateSeries) -> np.ndarray:
    """The daily (tmin + tmax) / 2 midpoints, in deg C."""
    return (days.tmin + days.tmax) / 2.0


def monthly_gdd(
    days: ClimateSeries, thresholds: GddThresholds, gdd_per_day: bool = False
) -> float:
    """Accumulated thermal time for one month, in degree-hours.

    ``days`` holds one month's columns: a unit's series sliced between the
    ``searchsorted`` bounds of ``month_span``. Missing calendar days simply
    contribute nothing (their absence shows up in ``month_coverage``). The
    hourly terms are summed in day, then hour order with a sequential
    cumulative sum, so the total equals the literal double loop bit for bit.
    Thresholds far enough apart overflow the sum to ``inf`` without a
    warning, and the feature table's finite check names the cell.
    """
    _check_nonempty(days)
    mid = daily_tmean(days)
    amp = (days.tmax - days.tmin) / 2.0
    hourly = mid[:, None] + amp[:, None] * np.array(_HOURLY_SIN)
    terms = np.maximum(np.minimum(hourly - thresholds.t_base,
                                  thresholds.t_cap - thresholds.t_base), 0.0)
    with np.errstate(over="ignore"):
        # Adding 0.0 turns an all-(-0.0) sum into the loop's 0.0.
        total = 0.0 + float(np.cumsum(terms.ravel())[-1])
    return total / 24.0 if gdd_per_day else total


def monthly_ppt(ppt: Sequence[float]) -> float:
    """Sum of one month's daily precipitation totals, in mm.

    Uses exactly rounded (compensated) summation, so the result is
    independent of accumulation order. ``math.fsum`` reads a list about
    twice as fast as an array.
    """
    _check_nonempty(ppt)
    return math.fsum(ppt)


def monthly_tmean(midpoints: Sequence[float]) -> float:
    """Mean of one month's ``daily_tmean`` midpoints, in deg C."""
    _check_nonempty(midpoints)
    return math.fsum(midpoints) / len(midpoints)


def month_coverage(present: int, year: int, month: int) -> float:
    """Fraction of the month's calendar days that the ``present`` days make up."""
    first, following = month_span(year, month)
    return present / (following - first)
