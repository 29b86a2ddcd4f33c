"""Second-order harmonic regression for irregular satellite time series.

The model is a constant plus first- and second-order annual sinusoids:

    y(t) = c + a1*cos(2*pi*t) + b1*sin(2*pi*t) + a2*cos(4*pi*t) + b2*sin(4*pi*t)

with t in years: t = (when - t_origin) / 365.25 and t_origin fixed to
January 1 of the fit window's start year. The curve is globally defined, so
evaluation and integration accept any time point, including points outside
the fit window. Time arguments may be ``datetime.date`` or
``datetime.datetime``; the latter allows fractional-day resolution.

Fits that share a season window are evaluated together: ``window_curves``
puts a batch of coefficient rows on the window's daily grid once, and
``phenology_metrics`` and fitted-curve ``monthly_extrema`` read that one
``(fits x days)`` array.
"""

import math
from dataclasses import dataclass
from datetime import date, datetime
from typing import NamedTuple

import numpy as np

from .dataset import ObservationSeries, SpectralBand, month_span

DAYS_PER_YEAR = 365.25
MIN_FIT_SAMPLES = 6  # 5 parameters plus one degree of freedom of slack


class InsufficientObservationsError(ValueError):
    pass


class DegenerateDesignError(ValueError):
    pass


class MissingMonthError(ValueError):
    pass


@dataclass(frozen=True)
class SeasonWindow:
    """Inclusive date range the harmonic is fitted over (at most 400 days)."""

    start: date
    end: date

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} must precede end {self.end}")
        if (self.end - self.start).days > 400:
            raise ValueError("window longer than 400 days")

    @property
    def origin(self) -> date:
        """January 1 of the start year: time zero of every curve fitted over the window."""
        return date(self.start.year, 1, 1)

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1

    def day_times(self, origin: date) -> np.ndarray:
        """Each day of the window, endpoints inclusive, in years since ``origin``.

        Element ``k`` is ``start + k`` days, with the same value
        ``time_fraction(origin, start + timedelta(days=k))`` gives.
        """
        first = (self.start - origin).days
        return np.arange(first, first + self.n_days) / DAYS_PER_YEAR


@dataclass(frozen=True)
class HarmonicFit:
    c: float
    a1: float
    b1: float
    a2: float
    b2: float
    band: SpectralBand
    window: SeasonWindow
    n_obs: int
    t_origin: date

    def __post_init__(self):
        coefs = (self.c, self.a1, self.b1, self.a2, self.b2)
        if not all(math.isfinite(v) for v in coefs):
            raise ValueError("non-finite harmonic coefficient")
        if self.n_obs < MIN_FIT_SAMPLES:
            raise ValueError(f"n_obs {self.n_obs} below minimum {MIN_FIT_SAMPLES}")

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.c, self.a1, self.b1, self.a2, self.b2)


class CurveColumns(NamedTuple):
    """Coefficient arrays of several curves, one element per curve.

    ``curve_values`` and the antiderivative broadcast them against time
    arrays like the scalar coefficients of one ``HarmonicFit``.
    """

    c: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class WindowCurves:
    """Harmonic curves sharing one season window, on the window's daily grid.

    Row ``i`` of ``coefficients`` is curve ``i``'s ``(c, a1, b1, a2, b2)``
    and row ``i`` of ``values`` is that curve on
    ``window.day_times(window.origin)``: element ``k`` is the value on
    ``window.start + k`` days. A NaN coefficient row (a band without a fit)
    gives NaN in every result derived from it.
    """

    window: SeasonWindow
    coefficients: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class PhenologyMetrics:
    """Peak and around-peak summary of a batch; element ``i`` is curve ``i``'s."""

    peak_value: np.ndarray
    peak_day: np.ndarray  # days after the window start, int
    b30: np.ndarray
    a30: np.ndarray
    b30_int: np.ndarray
    a30_int: np.ndarray


def time_fraction(origin: date, when: date | datetime) -> float:
    """Convert a time point to fractional years since ``origin``."""
    if isinstance(when, datetime):
        delta = when - datetime(origin.year, origin.month, origin.day)
        days = delta.total_seconds() / 86400.0
    else:
        days = float((when - origin).days)
    return days / DAYS_PER_YEAR


def _design_matrix(t: np.ndarray) -> np.ndarray:
    w = 2.0 * np.pi * t
    return np.column_stack([np.ones_like(t), np.cos(w), np.sin(w), np.cos(2 * w), np.sin(2 * w)])


def _solve_ols(design: np.ndarray, y: np.ndarray, context: str) -> np.ndarray:
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 5:
        raise DegenerateDesignError(f"degenerate design: rank {rank} < 5 for {context}")
    return solution


def fit_harmonic(
    series: ObservationSeries,
    window: SeasonWindow,
    designs: dict[bytes, np.ndarray] | None = None,
) -> HarmonicFit:
    """Ordinary least-squares fit of the harmonic model to in-window samples.

    Parameters
    ----------
    series : ObservationSeries
        Samples of one band for one unit.
    window : SeasonWindow
        Only samples dated inside the window (inclusive) enter the fit.
    designs : dict, optional
        Design matrices keyed by the bytes of their in-window day ordinals,
        shared by fits over one window. A fit whose in-window days are
        exactly those of an earlier fit reuses its design; otherwise it
        builds one and adds it. The solve is the same either way.

    Returns
    -------
    HarmonicFit
        Coefficients minimizing the residual sum of squares, with
        t_origin = January 1 of the window's start year.

    Raises
    ------
    InsufficientObservationsError
        Fewer than 6 in-window samples.
    DegenerateDesignError
        The design matrix is rank deficient (e.g. all samples on one date).
    """
    origin = window.origin
    lo = int(series.days.searchsorted(window.start.toordinal()))
    hi = int(series.days.searchsorted(window.end.toordinal(), side="right"))
    n_obs = hi - lo
    if n_obs < MIN_FIT_SAMPLES:
        raise InsufficientObservationsError(
            f"insufficient observations: {n_obs} in window "
            f"{window.start}..{window.end} for band {series.band.value} "
            f"(need {MIN_FIT_SAMPLES})"
        )
    days = series.days[lo:hi]
    key = days.tobytes()
    design = designs.get(key) if designs is not None else None
    if design is None:
        design = _design_matrix((days - origin.toordinal()) / DAYS_PER_YEAR)
        if designs is not None:
            designs[key] = design
    solution = _solve_ols(design, series.values[lo:hi], f"band {series.band.value}")
    c, a1, b1, a2, b2 = solution.tolist()
    return HarmonicFit(
        c=c, a1=a1, b1=b1, a2=a2, b2=b2,
        band=series.band, window=window, n_obs=n_obs, t_origin=origin,
    )


def curve_values(curve, t: np.ndarray) -> np.ndarray:
    """The harmonic model at times ``t`` (fractional years since the origin).

    ``curve`` is anything with ``c, a1, b1, a2, b2`` attributes: a
    ``HarmonicFit``, a synthetic generating curve, or ``CurveColumns``,
    whose arrays broadcast against ``t``.
    """
    w = 2.0 * np.pi * np.asarray(t, dtype=float)
    return (
        curve.c
        + curve.a1 * np.cos(w)
        + curve.b1 * np.sin(w)
        + curve.a2 * np.cos(2 * w)
        + curve.b2 * np.sin(2 * w)
    )


def eval_harmonic(fit: HarmonicFit, when: date | datetime) -> float:
    """Evaluate the fitted curve at a time point (defined for all t)."""
    return float(curve_values(fit, np.array(time_fraction(fit.t_origin, when))))


def _antiderivative(curve, t):
    """An antiderivative of the curve at ``t``; broadcasts like ``curve_values``."""
    two_pi = 2.0 * math.pi
    four_pi = 4.0 * math.pi
    return (
        curve.c * t
        + curve.a1 / two_pi * np.sin(two_pi * t)
        - curve.b1 / two_pi * np.cos(two_pi * t)
        + curve.a2 / four_pi * np.sin(four_pi * t)
        - curve.b2 / four_pi * np.cos(four_pi * t)
    )


def harmonic_integral(
    fit: HarmonicFit, start: date | datetime, end: date | datetime
) -> float:
    """Exact integral of the fitted curve over [start, end], in value*years."""
    t1 = time_fraction(fit.t_origin, start)
    t2 = time_fraction(fit.t_origin, end)
    if t1 >= t2:
        raise ValueError(f"integral start {start} must precede end {end}")
    return float(_antiderivative(fit, t2) - _antiderivative(fit, t1))


def window_curves(window: SeasonWindow, coefficients) -> WindowCurves:
    """Evaluate a batch of curves fitted over ``window`` on its daily grid.

    ``coefficients`` is one ``(c, a1, b1, a2, b2)`` row per curve; the
    result holds a ``(curves x window days)`` array.
    """
    coefficients = np.asarray(coefficients, dtype=float).reshape(-1, 5)
    rows = CurveColumns(*coefficients.T[:, :, np.newaxis])
    values = curve_values(rows, window.day_times(window.origin))
    return WindowCurves(window=window, coefficients=coefficients, values=values)


def phenology_metrics(curves: WindowCurves) -> PhenologyMetrics:
    """Peak and around-peak summary of each curve of a window's batch.

    A curve's peak is the maximum of its row of ``curves.values`` (earliest
    date wins ties). Values 30 days before/after the peak and the partial
    integrals over those 30-day spans are evaluated on the global curve
    without clipping to the window; they equal ``eval_harmonic`` and
    ``harmonic_integral`` at those dates.
    """
    idx = curves.values.argmax(axis=1)  # first occurrence = earliest date
    peak_value = np.take_along_axis(curves.values, idx[:, np.newaxis], axis=1)[:, 0]
    window = curves.window
    peak_days = (window.start - window.origin).days + idx
    t_before, t_peak, t_after = ((peak_days + d) / DAYS_PER_YEAR for d in (-30, 0, 30))
    columns = CurveColumns(*curves.coefficients.T)
    before, peak, after = (_antiderivative(columns, t) for t in (t_before, t_peak, t_after))
    return PhenologyMetrics(
        peak_value=peak_value,
        peak_day=idx,
        b30=curve_values(columns, t_before),
        a30=curve_values(columns, t_after),
        b30_int=peak - before,
        a30_int=after - peak,
    )


def monthly_extrema(
    source: ObservationSeries | WindowCurves, year: int, month: int
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(min, max) of one band, or of each curve of a batch, over a calendar month.

    With an ``ObservationSeries`` the extrema are floats taken over the
    observed samples dated in the month. With ``WindowCurves`` they are
    arrays, one element per curve, taken over the columns of
    ``curves.values`` that cover the month's overlap with the window.
    """
    first, following = month_span(year, month)
    if isinstance(source, ObservationSeries):
        lo = source.days.searchsorted(first)
        hi = source.days.searchsorted(following)
        if lo == hi:
            raise MissingMonthError(
                f"missing month: no observations in {year}-{month:02d} "
                f"for band {source.band.value}"
            )
        in_month = source.values[lo:hi].tolist()
        return (min(in_month), max(in_month))

    if isinstance(source, WindowCurves):
        window = source.window
        start = window.start.toordinal()
        lo = max(first - start, 0)
        hi = min(following - start, window.n_days)
        if lo >= hi:
            raise MissingMonthError(
                f"missing month: {year}-{month:02d} does not overlap fit window "
                f"{window.start}..{window.end}"
            )
        in_month = source.values[:, lo:hi]
        return (in_month.min(axis=1), in_month.max(axis=1))

    raise TypeError(
        f"source must be ObservationSeries or WindowCurves, got {type(source).__name__}"
    )
