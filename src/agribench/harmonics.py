"""Second-order harmonic regression for irregular satellite time series.

The model is a constant plus first- and second-order annual sinusoids:

    y(t) = c + a1*cos(2*pi*t) + b1*sin(2*pi*t) + a2*cos(4*pi*t) + b2*sin(4*pi*t)

with t in years: t = (when - t_origin) / 365.25 and t_origin fixed to
January 1 of the fit window's start year. The curve is globally defined, so
evaluation and integration accept any time point, including points outside
the fit window. Time arguments may be ``datetime.date`` or
``datetime.datetime``; the latter allows fractional-day resolution.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import cached_property

import numpy as np

from .dataset import ObservationSeries, SpectralBand

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

    def day_times(self, origin: date) -> np.ndarray:
        """Each day of the window, endpoints inclusive, in years since ``origin``.

        Element ``k`` is ``start + k`` days, with the same value
        ``time_fraction(origin, start + timedelta(days=k))`` gives.
        """
        first = (self.start - origin).days
        return np.arange(first, first + (self.end - self.start).days + 1) / DAYS_PER_YEAR


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

    @cached_property
    def window_curve(self) -> np.ndarray:
        """The fitted curve on the window's daily grid (``window.day_times``).

        Element ``k`` is the value on ``window.start + k`` days. Computed once
        per fit; phenology and every monthly extremum read slices of it.
        """
        values = curve_values(self, self.window.day_times(self.t_origin))
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class PhenologyMetrics:
    peak_value: float
    peak_date: date
    b30: float
    a30: float
    b30_int: float
    a30_int: float


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


def _solve_ols(t: np.ndarray, y: np.ndarray, context: str) -> np.ndarray:
    design = _design_matrix(t)
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 5:
        raise DegenerateDesignError(f"degenerate design: rank {rank} < 5 for {context}")
    return solution


def fit_harmonic(series: ObservationSeries, window: SeasonWindow) -> HarmonicFit:
    """Ordinary least-squares fit of the harmonic model to in-window samples.

    Parameters
    ----------
    series : ObservationSeries
        Samples of one band for one unit.
    window : SeasonWindow
        Only samples dated inside the window (inclusive) enter the fit.

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
    origin = date(window.start.year, 1, 1)
    lo = bisect_left(series.dates, window.start)
    hi = bisect_right(series.dates, window.end)
    n_obs = hi - lo
    if n_obs < MIN_FIT_SAMPLES:
        raise InsufficientObservationsError(
            f"insufficient observations: {n_obs} in window "
            f"{window.start}..{window.end} for band {series.band.value} "
            f"(need {MIN_FIT_SAMPLES})"
        )
    t = np.array([(d - origin).days for d in series.dates[lo:hi]]) / DAYS_PER_YEAR
    solution = _solve_ols(t, series.values[lo:hi], f"band {series.band.value}")
    c, a1, b1, a2, b2 = (float(v) for v in solution)
    return HarmonicFit(
        c=c, a1=a1, b1=b1, a2=a2, b2=b2,
        band=series.band, window=window, n_obs=n_obs, t_origin=origin,
    )


def curve_values(curve, t: np.ndarray) -> np.ndarray:
    """The harmonic model at times ``t`` (fractional years since the origin).

    ``curve`` is anything with ``c, a1, b1, a2, b2`` attributes: a
    ``HarmonicFit`` or a synthetic generating curve.
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


def _antiderivative(fit: HarmonicFit, t: float) -> float:
    two_pi = 2.0 * math.pi
    four_pi = 4.0 * math.pi
    return (
        fit.c * t
        + fit.a1 / two_pi * math.sin(two_pi * t)
        - fit.b1 / two_pi * math.cos(two_pi * t)
        + fit.a2 / four_pi * math.sin(four_pi * t)
        - fit.b2 / four_pi * math.cos(four_pi * t)
    )


def harmonic_integral(
    fit: HarmonicFit, start: date | datetime, end: date | datetime
) -> float:
    """Exact integral of the fitted curve over [start, end], in value*years."""
    t1 = time_fraction(fit.t_origin, start)
    t2 = time_fraction(fit.t_origin, end)
    if t1 >= t2:
        raise ValueError(f"integral start {start} must precede end {end}")
    return _antiderivative(fit, t2) - _antiderivative(fit, t1)


def phenology_metrics(fit: HarmonicFit) -> PhenologyMetrics:
    """Peak and around-peak summary of the fitted curve.

    The peak is the maximum of ``fit.window_curve``, the curve evaluated
    once on the window's daily grid (earliest date wins ties). Values 30
    days before/after the peak and the partial integrals over those 30-day
    spans are evaluated on the global curve without clipping to the window;
    they equal ``eval_harmonic`` and ``harmonic_integral`` at those dates.
    """
    values = fit.window_curve
    idx = int(np.argmax(values))  # first occurrence = earliest date
    peak_date = fit.window.start + timedelta(days=idx)
    peak_days = (peak_date - fit.t_origin).days
    t_before, t_peak, t_after = ((peak_days + d) / DAYS_PER_YEAR for d in (-30, 0, 30))
    before, peak, after = (_antiderivative(fit, t) for t in (t_before, t_peak, t_after))
    # Two 0-d evaluations: on numpy scalars they cost less than one 2-element array.
    return PhenologyMetrics(
        peak_value=float(values[idx]),
        peak_date=peak_date,
        b30=float(curve_values(fit, np.array(t_before))),
        a30=float(curve_values(fit, np.array(t_after))),
        b30_int=peak - before,
        a30_int=after - peak,
    )


def monthly_extrema(
    source: ObservationSeries | HarmonicFit, year: int, month: int
) -> tuple[float, float]:
    """(min, max) of one band over a calendar month.

    With an ``ObservationSeries`` the extrema are taken over the observed
    samples dated in the month; with a ``HarmonicFit`` they are taken over
    the slice of ``fit.window_curve`` (the curve on the window's daily grid,
    computed once per fit) that covers the month's overlap with the window.
    """
    first = date(year, month, 1)
    following = date(year + month // 12, month % 12 + 1, 1)  # first of next month
    if isinstance(source, ObservationSeries):
        lo = bisect_left(source.dates, first)
        hi = bisect_left(source.dates, following)
        if lo == hi:
            raise MissingMonthError(
                f"missing month: no observations in {year}-{month:02d} "
                f"for band {source.band.value}"
            )
        in_month = source.values[lo:hi].tolist()
        return (min(in_month), max(in_month))

    if isinstance(source, HarmonicFit):
        window, curve = source.window, source.window_curve
        lo = max((first - window.start).days, 0)
        hi = min((following - window.start).days, len(curve))
        if lo >= hi:
            raise MissingMonthError(
                f"missing month: {year}-{month:02d} does not overlap fit window "
                f"{window.start}..{window.end}"
            )
        in_month = curve[lo:hi]
        return (float(in_month.min()), float(in_month.max()))

    raise TypeError(f"source must be ObservationSeries or HarmonicFit, got {type(source).__name__}")
