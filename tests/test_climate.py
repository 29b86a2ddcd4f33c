import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agribench.climate import (
    GDD_SOYBEAN,
    GDD_WINTER_WHEAT,
    GddThresholds,
    NoClimateDataError,
    _HOURLY_SIN,
    month_coverage,
    monthly_gdd,
    monthly_ppt,
    monthly_tmean,
)
from conftest import climate_series


def make_month(year, month, tmin, tmax, ppt=0.0, n_days=None):
    days = []
    d = date(year, month, 1)
    while d.month == month:
        days.append((d, tmin, tmax, ppt))
        d += timedelta(days=1)
    return climate_series(days if n_days is None else days[:n_days])


def gdd_oracle(days, t_base, t_cap):
    """Independent literal double sum over days and hours."""
    total = 0.0
    for _, tmin_c, tmax_c, _ in sorted(days):
        mid = (tmax_c + tmin_c) / 2.0
        amp = (tmax_c - tmin_c) / 2.0
        for h in range(1, 25):
            t_h = mid + amp * math.sin(math.pi * (h - 6) / 12.0)
            total += max(0.0, min(t_h - t_base, t_cap - t_base))
    return total


class TestHourlyTemp:
    """The diurnal cycle, hour 1..24 at mid + amp * _HOURLY_SIN[hour - 1]."""

    def test_zero_amplitude(self):
        # Every hour of a day at 20 deg C adds exactly 20 above a base of 0.
        day = make_month(2020, 6, 20.0, 20.0, n_days=1)
        assert monthly_gdd(day, GddThresholds(t_base=0.0, t_cap=30.0)) == 24 * 20.0

    def test_max_at_noon(self):
        assert max(_HOURLY_SIN) == _HOURLY_SIN[12 - 1] == pytest.approx(1.0)

    def test_midpoint_at_six(self):
        assert _HOURLY_SIN[6 - 1] == 0.0

    @given(
        tmin=st.floats(-30, 25),
        spread=st.floats(0, 25),
    )
    def test_bounded_by_daily_extremes(self, tmin, spread):
        day = make_month(2020, 6, tmin, tmin + spread, n_days=1)
        # No hour rises above tmax: nothing accumulates over a base at tmax.
        above = monthly_gdd(day, GddThresholds(t_base=tmin + spread, t_cap=tmin + spread + 1.0))
        assert above <= 24 * 1e-9
        # No hour falls below tmin: every hour reaches a cap 1 deg C above tmin - 1.
        assert monthly_gdd(day, GddThresholds(t_base=tmin - 1.0, t_cap=tmin)) >= 24 * (1 - 1e-9)


class TestMonthlyGdd:
    def test_constant_20c_soybean_month(self):
        days = make_month(2020, 6, 20.0, 20.0, n_days=30)
        assert monthly_gdd(days, GDD_SOYBEAN) == 30 * 24 * 12.0  # exactly 8640

    def test_at_base_is_zero(self):
        days = make_month(2020, 6, 8.0, 8.0, n_days=30)
        assert monthly_gdd(days, GDD_SOYBEAN) == 0.0

    def test_cap_binds(self):
        days = make_month(2020, 6, 35.0, 35.0, n_days=1)
        assert monthly_gdd(days, GDD_SOYBEAN) == 24 * 22.0  # exactly 528

    def test_gdd_per_day_flag(self):
        days = make_month(2020, 6, 20.0, 20.0, n_days=30)
        assert monthly_gdd(days, GDD_SOYBEAN, gdd_per_day=True) == pytest.approx(8640 / 24)

    def test_empty_month_rejected(self):
        with pytest.raises(NoClimateDataError, match="no climate data"):
            monthly_gdd(climate_series([]), GDD_SOYBEAN)

    def test_matches_hourly_loop_oracle_exactly(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            month = int(rng.integers(1, 13))
            n_days = int(rng.integers(1, 29))
            days = []
            for k in range(n_days):
                tmin = float(rng.uniform(-15, 28))
                days.append(
                    (date(2021, month, 1) + timedelta(days=k), tmin,
                     tmin + float(rng.uniform(0, 18)), 0.0)
                )
            th = GDD_SOYBEAN if rng.random() < 0.5 else GDD_WINTER_WHEAT
            assert monthly_gdd(climate_series(days), th) == gdd_oracle(days, th.t_base, th.t_cap)

    @settings(max_examples=50)
    @given(
        tmin=st.floats(-10, 25),
        spread=st.floats(0, 15),
        bump=st.floats(0, 5),
    )
    def test_monotone_in_daily_temps(self, tmin, spread, bump):
        base = climate_series([(date(2020, 6, 1), tmin, tmin + spread, 0.0)])
        warmer = climate_series([(date(2020, 6, 1), tmin + bump, tmin + spread + bump, 0.0)])
        assert monthly_gdd(warmer, GDD_SOYBEAN) >= monthly_gdd(base, GDD_SOYBEAN)

    @given(
        tmin=st.floats(-10, 25),
        spread=st.floats(0, 15),
        n_days=st.integers(1, 28),
    )
    def test_upper_bound(self, tmin, spread, n_days):
        days = climate_series([
            (date(2020, 6, 1) + timedelta(days=k), tmin, tmin + spread, 0.0)
            for k in range(n_days)
        ])
        span = GDD_SOYBEAN.t_cap - GDD_SOYBEAN.t_base
        assert monthly_gdd(days, GDD_SOYBEAN) <= n_days * 24 * span + 1e-9

    def test_upper_bound_reached_iff_saturated(self):
        span = GDD_SOYBEAN.t_cap - GDD_SOYBEAN.t_base
        hot = make_month(2020, 6, 31.0, 40.0, n_days=5)  # every hour above cap
        assert monthly_gdd(hot, GDD_SOYBEAN) == 5 * 24 * span
        mild = make_month(2020, 6, 25.0, 40.0, n_days=5)  # trough below cap
        assert monthly_gdd(mild, GDD_SOYBEAN) < 5 * 24 * span


class TestMonthlyPpt:
    def test_simple_sum(self):
        days = make_month(2020, 6, 10, 20, ppt=2.0, n_days=10)
        assert monthly_ppt(days) == 20.0

    def test_all_zero(self):
        days = make_month(2020, 6, 10, 20, ppt=0.0)
        assert monthly_ppt(days) == 0.0

    def test_matches_compensated_resummation(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(1, 31))
            ppts = rng.uniform(0, 40, n)
            days = [
                (date(2020, 6, 1) + timedelta(days=int(k)), 10, 20, float(p))
                for k, p in enumerate(ppts)
            ]
            shuffled = list(days)
            rng.shuffle(shuffled)
            assert monthly_ppt(climate_series(days)) == math.fsum(r[3] for r in shuffled)

    def test_empty_rejected(self):
        with pytest.raises(NoClimateDataError):
            monthly_ppt(climate_series([]))


class TestMonthlyTmean:
    def test_one_day(self):
        days = climate_series([(date(2020, 6, 1), 10, 20, 0)])
        assert monthly_tmean(days) == 15.0

    def test_two_days(self):
        days = climate_series([
            (date(2020, 6, 1), 10, 20, 0),
            (date(2020, 6, 2), 20, 30, 0),
        ])
        assert monthly_tmean(days) == 20.0

    def test_matches_independent_mean(self):
        rng = np.random.default_rng(47)
        days = []
        for k in range(25):
            tmin = float(rng.uniform(-5, 20))
            days.append(
                (date(2020, 6, 1) + timedelta(days=k),
                 tmin, tmin + float(rng.uniform(0, 12)), 0.0)
            )
        oracle = np.mean([(r[1] + r[2]) / 2 for r in days])
        assert monthly_tmean(climate_series(days)) == pytest.approx(float(oracle), rel=1e-12)


class TestCoverageAndSummary:
    def test_full_coverage(self):
        days = make_month(2020, 6, 10, 20)
        assert month_coverage(days, 2020, 6) == 1.0

    def test_partial_coverage(self):
        days = make_month(2020, 6, 10, 20, n_days=15)
        assert month_coverage(days, 2020, 6) == pytest.approx(0.5)

    def test_summary_record(self):
        days = make_month(2020, 6, 20, 20, ppt=1.0)
        assert monthly_gdd(days, GDD_SOYBEAN) == 30 * 24 * 12.0
        assert monthly_ppt(days) == 30.0
        assert monthly_tmean(days) == 20.0
        assert month_coverage(days, 2020, 6) == 1.0

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            GddThresholds(t_base=30.0, t_cap=8.0)
