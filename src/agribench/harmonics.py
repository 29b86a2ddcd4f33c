"""Second-order harmonic regression for irregular satellite time series.

The model is a constant plus first- and second-order annual sinusoids:

    y(t) = c + a1*cos(2*pi*t) + b1*sin(2*pi*t) + a2*cos(4*pi*t) + b2*sin(4*pi*t)

with t in years: t = (when - t_origin) / 365.25 and t_origin fixed to
January 1 of the fit window's start year. The curve is globally defined, so
evaluation and integration accept any time point, including points outside
the fit window. Time arguments may be ``datetime.date`` or
``datetime.datetime``; the latter allows fractional-day resolution.

Fits that share a season window are made and evaluated together.
``fit_harmonic`` solves a whole batch of series in one pass: the normal
equations of every fit are summed segment by segment over the concatenated
samples and solved by a 5x5 Cholesky vectorized over the fits. It uses
only basic IEEE arithmetic and numpy's pairwise sums, with no BLAS or
LAPACK call, so the coefficients do not depend on the host's OpenBLAS
kernel or numpy's SIMD dispatch; the design's ``np.sin``/``np.cos`` still
call the C library's. ``window_curves`` puts a batch of coefficient rows
on the window's daily grid once, and ``phenology_metrics`` and
fitted-curve ``monthly_extrema`` read that one ``(fits x days)`` array.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date, datetime
from typing import NamedTuple

import numpy as np

from .dataset import ObservationSeries, SpectralBand, month_span

DAYS_PER_YEAR = 365.25
MIN_FIT_SAMPLES = 6  # 5 parameters plus one degree of freedom of slack
# A design is rank deficient when a Cholesky pivot of its Gram matrix is at
# or below this fraction of the sample count, the largest Gram diagonal
# (every other column is bounded by 1). Six samples on consecutive days
# still pass (their smallest pivot is about 2e-12 of the count).
RANK_TOLERANCE = 1e-12
# The upper triangle of the 5x5 Gram matrix, row by row.
_GRAM_ENTRIES = tuple((i, j) for i in range(5) for j in range(i, 5))


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


@dataclass(frozen=True)
class HarmonicFits:
    """Fits of a batch of series over one window; entry ``i`` is series ``i``'s.

    A failed fit has a NaN coefficient row and, in ``errors``, the error a
    single-series ``fit_harmonic`` raises for it; a good fit's error is None.
    """

    coefficients: np.ndarray  # (series x 5): c, a1, b1, a2, b2
    n_obs: np.ndarray  # in-window samples of each series
    errors: tuple[ValueError | None, ...]


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


def _design_columns(days: Sequence[np.ndarray], origin: date) -> list[np.ndarray]:
    """The non-constant design columns cos(w), sin(w), cos(2w), sin(2w).

    They are taken at the concatenated day ordinals ``days``; ``w`` is 2*pi
    times the years since ``origin``. The angles are scaled in place, so the
    columns' temporaries hold one array beyond them.
    """
    w = (np.concatenate(days) - origin.toordinal()) / DAYS_PER_YEAR
    w *= 2.0 * np.pi
    columns = [np.cos(w), np.sin(w)]
    w *= 2
    return columns + [np.cos(w), np.sin(w)]


def _solve_normal(columns: list[np.ndarray], values: np.ndarray, counts: np.ndarray):
    """Least-squares coefficients of a batch of fits by the normal equations.

    Fit ``i`` reads the next ``counts[i]`` samples of the design ``columns``
    (``_design_columns``) and of ``values``, which are overwritten by the
    residuals of the first solution. Each fit's 15 Gram entries and
    5 right-hand sides are segmented sums (``np.add.reduceat``) of products
    of its own samples, and the 5x5 Cholesky runs over all fits at once in
    basic IEEE operations, so a fit's bits depend neither on the rest of the
    batch nor on the host's BLAS. One product is held at a time.

    Returns ``(solution, pivot)``: the ``(fits x 5)`` coefficients, NaN where
    the design is rank deficient, and the index of the first Cholesky pivot
    at or below ``RANK_TOLERANCE`` times the sample count (-1 where none is).
    """
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    columns = [None] + columns  # the constant column's products are never formed
    n = counts.astype(float)  # the constant column's diagonal, the largest
    gram = {(i, j): np.add.reduceat(columns[j] if i == 0 else columns[i] * columns[j], starts)
            for i, j in _GRAM_ENTRIES if j}
    gram[0, 0] = n
    floor = RANK_TOLERANCE * n
    pivot = np.full(len(counts), -1)
    chol: dict[tuple[int, int], np.ndarray] = {}
    for j in range(5):
        d = gram.pop((j, j)) - sum(chol[j, k] * chol[j, k] for k in range(j))
        pivot[~(d > floor) & (pivot < 0)] = j
        chol[j, j] = np.sqrt(np.where(pivot < 0, d, 1.0))
        for i in range(j + 1, 5):
            chol[i, j] = (gram.pop((j, i)) - sum(chol[i, k] * chol[j, k] for k in range(j))) \
                / chol[j, j]

    def solve(residuals: np.ndarray) -> list[np.ndarray]:
        """The coefficients fitting ``residuals``: forward, then back substitution."""
        z: list[np.ndarray] = []
        for i in range(5):
            rhs = np.add.reduceat(residuals if i == 0 else columns[i] * residuals, starts)
            z.append((rhs - sum(chol[i, k] * z[k] for k in range(i))) / chol[i, i])
        x = z[:]
        for i in reversed(range(5)):
            x[i] = (z[i] - sum(chol[k, i] * x[k] for k in range(i + 1, 5))) / chol[i, i]
        return x

    # One step of iterative refinement: fit the residuals of the first
    # solution and add the correction. It brings the error from the normal
    # equations' (condition number squared) down to about that of a QR solve.
    x = solve(values)
    values -= np.repeat(x[0], counts)
    for i in range(1, 5):
        term = np.repeat(x[i], counts)
        term *= columns[i]
        values -= term
    x = [a + b for a, b in zip(x, solve(values))]
    solution = np.column_stack(x)
    solution[pivot >= 0] = math.nan
    return solution, pivot


def fit_harmonic(
    series: ObservationSeries | Sequence[ObservationSeries], window: SeasonWindow
) -> HarmonicFit | HarmonicFits:
    """Ordinary least-squares fit of the harmonic model to in-window samples.

    Parameters
    ----------
    series : ObservationSeries or sequence of them
        Samples of one band for one unit, or a batch of such series, fitted
        together in one solve. Each fit reads only its own samples, so its
        coefficients are the same bits in any batch, alone included.
    window : SeasonWindow
        Only samples dated inside the window (inclusive) enter the fit.

    Returns
    -------
    HarmonicFit or HarmonicFits
        For one series: coefficients minimizing the residual sum of squares,
        with t_origin = January 1 of the window's start year. For a batch:
        every series' coefficients, and for each failed fit the error the
        single-series call raises.

    Raises
    ------
    InsufficientObservationsError
        One series with fewer than 6 in-window samples.
    DegenerateDesignError
        One series whose design matrix is rank deficient (e.g. all samples
        on one date): a Cholesky pivot of its Gram matrix is at or below
        ``RANK_TOLERANCE`` times the sample count.
    ValueError
        One series whose coefficients are not finite.
    """
    if isinstance(series, ObservationSeries):
        fits = _fit_batch([series], window)
        if fits.errors[0] is not None:
            raise fits.errors[0]
        c, a1, b1, a2, b2 = fits.coefficients[0].tolist()
        return HarmonicFit(
            c=c, a1=a1, b1=b1, a2=a2, b2=b2,
            band=series.band, window=window, n_obs=int(fits.n_obs[0]), t_origin=window.origin,
        )
    return _fit_batch(series, window)


def _fit_batch(batch: Sequence[ObservationSeries], window: SeasonWindow) -> HarmonicFits:
    """The fits of ``fit_harmonic`` for a batch; see there."""
    bounds = (window.start.toordinal(), window.end.toordinal() + 1)
    spans = [s.days.searchsorted(bounds).tolist() for s in batch]
    n_obs = np.array([hi - lo for lo, hi in spans], dtype=np.int64)
    enough = n_obs >= MIN_FIT_SAMPLES
    coefficients = np.full((len(batch), 5), math.nan)
    pivot = np.full(len(batch), -1)
    if enough.any():
        fitted = [(s, lo, hi) for s, (lo, hi), ok in zip(batch, spans, enough.tolist()) if ok]
        columns = _design_columns([s.days[lo:hi] for s, lo, hi in fitted], window.origin)
        values = np.concatenate([s.values[lo:hi] for s, lo, hi in fitted])
        coefficients[enough], pivot[enough] = _solve_normal(columns, values, n_obs[enough])
    errors: list[ValueError | None] = [None] * len(batch)
    finite = np.isfinite(coefficients).all(axis=1)
    for i in np.flatnonzero(~finite).tolist():
        band = batch[i].band.value
        if not enough[i]:
            errors[i] = InsufficientObservationsError(
                f"insufficient observations: {n_obs[i]} in window "
                f"{window.start}..{window.end} for band {band} "
                f"(need {MIN_FIT_SAMPLES})"
            )
        elif pivot[i] >= 0:
            errors[i] = DegenerateDesignError(
                f"degenerate design: Gram pivot {pivot[i]} at or below "
                f"{RANK_TOLERANCE:g} of the sample count for band {band}"
            )
        else:
            errors[i] = ValueError(f"non-finite harmonic coefficient for band {band}")
    return HarmonicFits(coefficients=coefficients, n_obs=n_obs, errors=tuple(errors))


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
