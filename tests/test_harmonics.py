import math
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from agribench.dataset import ObservationSeries, SpectralBand
from agribench.harmonics import (
    DegenerateDesignError,
    HarmonicFit,
    InsufficientObservationsError,
    SeasonWindow,
    _solve_ols,
    eval_harmonic,
    fit_harmonic,
    harmonic_integral,
    monthly_extrema,
    phenology_metrics,
    time_fraction,
)

B = SpectralBand
WINDOW = SeasonWindow(start=date(2020, 4, 1), end=date(2020, 10, 31))
YEAR_WINDOW = SeasonWindow(start=date(2020, 1, 1), end=date(2020, 12, 31))


def series_at(dates, values, band=B.NDVI, unit="u1"):
    return ObservationSeries(unit_id=unit, band=band, dates=tuple(dates), values=np.asarray(values, float))


def spread_dates(window, n):
    span = (window.end - window.start).days
    return [window.start + timedelta(days=round(i * span / (n - 1))) for i in range(n)]


# Windows of each season shape the featurizer uses: in-year (corn), crossing
# a year boundary through a leap February (cover crop), and starting and
# ending mid-month (winter wheat, partial first and last months).
GRID_WINDOWS = (
    WINDOW,
    SeasonWindow(start=date(2019, 10, 1), end=date(2020, 5, 31)),
    SeasonWindow(start=date(2018, 9, 14), end=date(2019, 7, 15)),
)


def daily_scan(fit, first, last):
    """Reference: (day, eval_harmonic) for every day in [first, last], one at a time."""
    days = [first + timedelta(days=k) for k in range((last - first).days + 1)]
    return days, [eval_harmonic(fit, d) for d in days]


def window_months(window):
    """(year, month, first, last) of each month the window touches, clipped to it."""
    first = window.start
    while first <= window.end:
        following = (first.replace(day=1) + timedelta(days=32)).replace(day=1)
        yield first.year, first.month, first, min(following - timedelta(days=1), window.end)
        first = following


def random_fits(seed, n):
    rng = np.random.default_rng(seed)
    for window in GRID_WINDOWS:
        origin = date(window.start.year, 1, 1)
        for _ in range(n):
            yield HarmonicFit(*rng.normal(0, 0.5, 5), band=B.NDVI, window=window,
                              n_obs=6, t_origin=origin)


def model_values(t, coefs):
    c, a1, b1, a2, b2 = coefs
    w = 2 * np.pi * np.asarray(t)
    return c + a1 * np.cos(w) + b1 * np.sin(w) + a2 * np.cos(2 * w) + b2 * np.sin(2 * w)


def normal_equations_fit(t, y):
    """Independent oracle: explicit 5x5 normal equations, pivoted elimination."""
    t = np.asarray(t, float)
    cols = [np.ones_like(t), np.cos(2 * np.pi * t), np.sin(2 * np.pi * t),
            np.cos(4 * np.pi * t), np.sin(4 * np.pi * t)]
    ata = [[math.fsum(cols[i] * cols[j]) for j in range(5)] for i in range(5)]
    aty = [math.fsum(cols[i] * np.asarray(y, float)) for i in range(5)]
    # Gaussian elimination with partial pivoting on the augmented system.
    m = [row[:] + [rhs] for row, rhs in zip(ata, aty)]
    for col in range(5):
        pivot = max(range(col, 5), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular normal equations")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, 5):
            factor = m[r][col] / m[col][col]
            for k in range(col, 6):
                m[r][k] -= factor * m[col][k]
    beta = [0.0] * 5
    for r in range(4, -1, -1):
        beta[r] = (m[r][5] - sum(m[r][k] * beta[k] for k in range(r + 1, 5))) / m[r][r]
    return beta


class TestFit:
    def test_constant_series(self):
        s = series_at(spread_dates(WINDOW, 6), [2.0] * 6)
        fit = fit_harmonic(s, WINDOW)
        assert fit.c == pytest.approx(2.0, abs=1e-9)
        for coef in (fit.a1, fit.b1, fit.a2, fit.b2):
            assert coef == pytest.approx(0.0, abs=1e-9)
        assert fit.n_obs == 6
        assert fit.t_origin == date(2020, 1, 1)

    def test_exact_family_member(self):
        dates = spread_dates(WINDOW, 12)
        t = [time_fraction(date(2020, 1, 1), d) for d in dates]
        y = 1.0 + 0.5 * np.sin(2 * np.pi * np.array(t))
        fit = fit_harmonic(series_at(dates, y), WINDOW)
        assert fit.c == pytest.approx(1.0, abs=1e-9)
        assert fit.b1 == pytest.approx(0.5, abs=1e-9)
        for coef in (fit.a1, fit.a2, fit.b2):
            assert coef == pytest.approx(0.0, abs=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        origin = date(2020, 1, 1)
        for _ in range(25):
            n = int(rng.integers(8, 30))
            offsets = np.sort(rng.choice(np.arange(0, 214), size=n, replace=False))
            dates = [WINDOW.start + timedelta(days=int(k)) for k in offsets]
            y = rng.normal(0.5, 0.3, size=n)
            fit = fit_harmonic(series_at(dates, y), WINDOW)
            t = [time_fraction(origin, d) for d in dates]
            expected = normal_equations_fit(t, y)
            for got, want in zip(fit.coefficients, expected):
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_out_of_window_samples_ignored(self):
        dates = spread_dates(WINDOW, 8) + [date(2020, 12, 15)]
        values = [1.0] * 8 + [99.0]
        fit = fit_harmonic(series_at(dates, values), WINDOW)
        assert fit.n_obs == 8
        assert fit.c == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_observations(self):
        s = series_at(spread_dates(WINDOW, 5), [1.0] * 5)
        with pytest.raises(InsufficientObservationsError, match="insufficient observations"):
            fit_harmonic(s, WINDOW)

    def test_degenerate_design(self):
        # All samples at the same time point: rank-1 design.
        t = np.zeros(6)
        with pytest.raises(DegenerateDesignError, match="degenerate design"):
            _solve_ols(t, np.arange(6.0), "test")

    def test_ols_optimality_under_perturbation(self):
        rng = np.random.default_rng(3)
        dates = spread_dates(WINDOW, 20)
        y = rng.normal(0.4, 0.2, size=20)
        fit = fit_harmonic(series_at(dates, y), WINDOW)
        t = np.array([time_fraction(fit.t_origin, d) for d in dates])

        def rss(coefs):
            return float(np.sum((y - model_values(t, coefs)) ** 2))

        best = rss(fit.coefficients)
        for i in range(5):
            for delta in (-1e-3, 1e-3):
                perturbed = list(fit.coefficients)
                perturbed[i] += delta
                assert rss(perturbed) >= best


class TestEval:
    FIT = HarmonicFit(c=1.0, a1=1.0, b1=0.0, a2=0.0, b2=0.0,
                      band=B.NDVI, window=YEAR_WINDOW, n_obs=6,
                      t_origin=date(2020, 1, 1))

    def test_at_origin(self):
        assert eval_harmonic(self.FIT, date(2020, 1, 1)) == pytest.approx(2.0)

    def test_quarter_period(self):
        quarter = datetime(2020, 1, 1) + timedelta(days=0.25 * 365.25)
        assert eval_harmonic(self.FIT, quarter) == pytest.approx(1.0, abs=1e-12)

    def test_half_period(self):
        half = datetime(2020, 1, 1) + timedelta(days=0.5 * 365.25)
        assert eval_harmonic(self.FIT, half) == pytest.approx(0.0, abs=1e-12)

    def test_one_year_periodic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            fit = HarmonicFit(*rng.normal(0, 1, 5), band=B.NIR, window=WINDOW,
                              n_obs=6, t_origin=date(2020, 1, 1))
            when = datetime(2020, 3, 1) + timedelta(days=float(rng.uniform(0, 300)))
            later = when + timedelta(days=365.25)
            assert eval_harmonic(fit, later) == pytest.approx(
                eval_harmonic(fit, when), abs=1e-9
            )


class TestIntegral:
    def test_constant_rectangle(self):
        fit = HarmonicFit(2.0, 0, 0, 0, 0, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        got = harmonic_integral(fit, date(2020, 5, 1), date(2020, 5, 31))
        assert got == pytest.approx(2.0 * 30 / 365.25, rel=1e-12)

    def test_full_period_cosine_is_zero(self):
        fit = HarmonicFit(0, 1.0, 0, 0, 0, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        start = datetime(2020, 2, 1)
        got = harmonic_integral(fit, start, start + timedelta(days=365.25))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_matches_trapezoid_quadrature(self):
        rng = np.random.default_rng(13)
        origin = date(2020, 1, 1)
        for _ in range(20):
            coefs = (rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
                     *rng.normal(0, 0.4, 4))
            fit = HarmonicFit(*coefs, band=B.NDVI, window=WINDOW,
                              n_obs=6, t_origin=origin)
            start_off = float(rng.uniform(0, 200))
            span = float(rng.uniform(10, 365))
            start = datetime(2020, 1, 1) + timedelta(days=start_off)
            end = start + timedelta(days=span)
            got = harmonic_integral(fit, start, end)
            t1 = time_fraction(origin, start)
            t2 = time_fraction(origin, end)
            steps = max(2, int(round(span / 0.01)))
            grid = np.linspace(t1, t2, steps + 1)
            oracle = float(np.trapezoid(model_values(grid, coefs), grid))
            assert got == pytest.approx(oracle, rel=1e-6)

    def test_additivity(self):
        fit = HarmonicFit(0.8, 0.3, -0.2, 0.1, 0.05, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        a, b, c = date(2020, 4, 1), date(2020, 6, 15), date(2020, 9, 30)
        whole = harmonic_integral(fit, a, c)
        parts = harmonic_integral(fit, a, b) + harmonic_integral(fit, b, c)
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_reversed_span_rejected(self):
        fit = HarmonicFit(1, 0, 0, 0, 0, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        with pytest.raises(ValueError, match="must precede"):
            harmonic_integral(fit, date(2020, 6, 1), date(2020, 5, 1))


class TestPhenology:
    def test_constant_curve(self):
        fit = HarmonicFit(5.0, 0, 0, 0, 0, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        m = phenology_metrics(fit)
        assert m.peak_value == pytest.approx(5.0)
        assert m.peak_date == WINDOW.start  # earliest tie wins
        assert m.b30 == pytest.approx(5.0)
        assert m.a30 == pytest.approx(5.0)
        assert m.b30_int == pytest.approx(5.0 * 30 / 365.25, rel=1e-12)
        assert m.a30_int == pytest.approx(5.0 * 30 / 365.25, rel=1e-12)

    def test_cosine_peaks_at_origin(self):
        fit = HarmonicFit(0.0, 1.0, 0, 0, 0, band=B.NDVI, window=YEAR_WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        m = phenology_metrics(fit)
        assert m.peak_date == date(2020, 1, 1)
        assert m.peak_value == pytest.approx(1.0)
        expected_a30 = math.cos(2 * math.pi * 30 / 365.25)  # about 0.870
        assert m.a30 == pytest.approx(expected_a30, abs=1e-12)
        assert expected_a30 == pytest.approx(0.870, abs=5e-4)

    def test_grid_argmax_matches_fine_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            coefs = rng.normal(0, 0.5, 5)
            fit = HarmonicFit(*coefs, band=B.NDVI, window=WINDOW,
                              n_obs=6, t_origin=date(2020, 1, 1))
            m = phenology_metrics(fit)
            t0 = time_fraction(fit.t_origin, fit.window.start)
            t1 = time_fraction(fit.t_origin, fit.window.end)
            fine = np.linspace(t0, t1, int((t1 - t0) * 365.25 / 0.01) + 1)
            best_t = fine[int(np.argmax(model_values(fine, coefs)))]
            coarse_t = time_fraction(fit.t_origin, m.peak_date)
            assert abs(coarse_t - best_t) * 365.25 <= 1.0 + 1e-9

    def test_peak_value_equals_grid_max(self):
        fit = HarmonicFit(0.3, 0.2, 0.4, -0.1, 0.05, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        m = phenology_metrics(fit)
        _, grid_values = daily_scan(fit, WINDOW.start, WINDOW.end)
        assert m.peak_value == max(grid_values)

    def test_peak_matches_daily_scan_exactly(self):
        for fit in random_fits(31, 40):
            m = phenology_metrics(fit)
            days, values = daily_scan(fit, fit.window.start, fit.window.end)
            best = max(values)
            assert m.peak_value == best
            assert m.peak_date == days[values.index(best)]  # earliest tie

    def test_around_peak_values_equal_point_evaluations(self):
        for fit in random_fits(37, 200):
            m = phenology_metrics(fit)
            before = m.peak_date - timedelta(days=30)
            after = m.peak_date + timedelta(days=30)
            assert m.b30 == eval_harmonic(fit, before)
            assert m.a30 == eval_harmonic(fit, after)
            assert m.b30_int == harmonic_integral(fit, before, m.peak_date)
            assert m.a30_int == harmonic_integral(fit, m.peak_date, after)

    def test_interior_peak_dominates_neighbors(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 10:
            coefs = rng.normal(0, 0.5, 5)
            fit = HarmonicFit(*coefs, band=B.NDVI, window=WINDOW,
                              n_obs=6, t_origin=date(2020, 1, 1))
            m = phenology_metrics(fit)
            interior = (m.peak_date - WINDOW.start).days >= 30 and \
                       (WINDOW.end - m.peak_date).days >= 30
            if not interior:
                continue
            assert m.peak_value >= m.b30
            assert m.peak_value >= m.a30
            checked += 1


class TestMonthlyExtrema:
    def test_raw_samples(self):
        s = series_at([date(2020, 5, 3), date(2020, 5, 20)], [0.2, 0.6])
        assert monthly_extrema(s, 2020, 5) == (0.2, 0.6)

    def test_raw_missing_month(self):
        s = series_at([date(2020, 5, 3)], [0.2])
        from agribench.harmonics import MissingMonthError

        with pytest.raises(MissingMonthError, match="missing month"):
            monthly_extrema(s, 2020, 6)

    def test_fitted_constant(self):
        fit = HarmonicFit(1.0, 0, 0, 0, 0, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        lo, hi = monthly_extrema(fit, 2020, 7)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_fitted_cosine_january(self):
        fit = HarmonicFit(0.0, 1.0, 0, 0, 0, band=B.NDVI, window=YEAR_WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        lo, hi = monthly_extrema(fit, 2020, 1)
        assert hi == pytest.approx(1.0)  # at Jan 1
        assert lo == pytest.approx(math.cos(2 * math.pi * 30 / 365.25), abs=1e-12)

    def test_fitted_month_outside_window(self):
        fit = HarmonicFit(1.0, 0, 0, 0, 0, band=B.NDVI, window=WINDOW,
                          n_obs=6, t_origin=date(2020, 1, 1))
        from agribench.harmonics import MissingMonthError

        with pytest.raises(MissingMonthError):
            monthly_extrema(fit, 2020, 1)

    def test_fitted_random_matches_daily_scan(self):
        checked = partial = 0
        for fit in random_fits(29, 10):
            for year, month, first, last in window_months(fit.window):
                _, values = daily_scan(fit, first, last)
                assert monthly_extrema(fit, year, month) == (min(values), max(values))
                checked += 1
                partial += (last - first).days + 1 < 28
        assert checked == 10 * (7 + 8 + 11)
        assert partial == 10 * 2  # wheat's mid-month start and end


class TestSeasonWindow:
    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            SeasonWindow(start=date(2020, 10, 1), end=date(2020, 4, 1))

    def test_too_long_rejected(self):
        with pytest.raises(ValueError, match="400"):
            SeasonWindow(start=date(2020, 1, 1), end=date(2021, 3, 1))

    def test_grid_is_inclusive_daily(self):
        w = SeasonWindow(start=date(2020, 1, 1), end=date(2020, 1, 5))
        origin = date(2019, 1, 1)
        expected = [time_fraction(origin, date(2020, 1, 1) + timedelta(days=k))
                    for k in range(5)]
        assert w.day_times(origin).tolist() == expected
