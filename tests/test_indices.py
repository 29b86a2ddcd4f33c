from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agribench.dataset import SpectralBand
from agribench.indices import IndexDomainError, derive_index_series, index_values
from conftest import make_series

B = SpectralBand
reflectance = st.floats(0.01, 1.5)


def index_at(kind, inputs, gcvi_minus_one=False):
    """One scene's index value, from raw-band values given as scalars."""
    return float(index_values(kind, inputs, gcvi_minus_one=gcvi_minus_one))


def test_ndvi_direct():
    assert index_at(B.NDVI, {B.NIR: 0.5, B.RED: 0.1}) == pytest.approx(0.4 / 0.6)


def test_ndvi_symmetry():
    assert index_at(B.NDVI, {B.NIR: 0.3, B.RED: 0.3}) == 0.0


def test_gcvi_plain_ratio():
    assert index_at(B.GCVI, {B.NIR: 0.6, B.GREEN: 0.2}) == pytest.approx(3.0)


def test_gcvi_minus_one_flag_shifts_by_constant():
    plain = index_at(B.GCVI, {B.NIR: 0.6, B.GREEN: 0.2})
    shifted = index_at(B.GCVI, {B.NIR: 0.6, B.GREEN: 0.2}, gcvi_minus_one=True)
    assert shifted == pytest.approx(plain - 1.0)


def test_tillage_indices_direct():
    assert index_at(B.NDTI, {B.SWIR1: 0.3, B.SWIR2: 0.2}) == pytest.approx(0.2)
    assert index_at(B.STI, {B.SWIR1: 0.3, B.SWIR2: 0.2}) == pytest.approx(1.5)
    assert index_at(B.CRC, {B.SWIR1: 0.3, B.BLUE: 0.1}) == pytest.approx(0.5)


def test_zero_denominator_names_index():
    with pytest.raises(IndexDomainError, match="GCVI"):
        index_at(B.GCVI, {B.NIR: 0.6, B.GREEN: 0.0})
    with pytest.raises(IndexDomainError, match="NDVI"):
        index_at(B.NDVI, {B.NIR: 0.0, B.RED: 0.0})


def test_missing_band_rejected():
    nir = make_series(B.NIR, date(2020, 5, 1), [0.5, 0.6])
    with pytest.raises(ValueError, match="NDVI requires a series for band Red"):
        derive_index_series({B.NIR: nir}, B.NDVI)


@given(nir=reflectance, red=reflectance)
def test_ndvi_bounded(nir, red):
    assert -1.0 <= index_at(B.NDVI, {B.NIR: nir, B.RED: red}) <= 1.0


@given(s1=reflectance, s2=reflectance)
def test_ndti_bounded(s1, s2):
    assert -1.0 <= index_at(B.NDTI, {B.SWIR1: s1, B.SWIR2: s2}) <= 1.0


@given(s1=reflectance, blue=reflectance)
def test_crc_bounded(s1, blue):
    assert -1.0 <= index_at(B.CRC, {B.SWIR1: s1, B.BLUE: blue}) <= 1.0


@given(
    kind=st.sampled_from([B.NDVI, B.GCVI, B.NDTI, B.STI, B.CRC]),
    x=reflectance,
    y=reflectance,
    scale=st.floats(0.1, 10.0),
)
def test_scale_invariance(kind, x, y, scale):
    from agribench.indices import REQUIRED_BANDS

    bands = REQUIRED_BANDS[kind]
    inputs = {bands[0]: x, bands[1]: y}
    scaled = {b: v * scale for b, v in inputs.items()}
    assert index_at(kind, scaled) == pytest.approx(
        index_at(kind, inputs), rel=1e-9
    )


def test_series_intersection_counts():
    start = date(2020, 5, 1)
    nir = make_series(B.NIR, start, [0.5, 0.6], step_days=10)
    red = make_series(B.RED, start, [0.1, 0.2], step_days=10)
    green = make_series(B.GREEN, start, [0.2], step_days=10)
    raw = {B.NIR: nir, B.RED: red, B.GREEN: green}
    assert len(derive_index_series(raw, B.NDVI)) == 2
    assert len(derive_index_series(raw, B.GCVI)) == 1


def test_identical_series_gives_zero_ndvi():
    start = date(2020, 5, 1)
    raw = {
        B.NIR: make_series(B.NIR, start, [0.4] * 5),
        B.RED: make_series(B.RED, start, [0.4] * 5),
    }
    out = derive_index_series(raw, B.NDVI)
    assert np.all(out.values == 0.0)


def test_zero_denominator_drops_only_that_scene():
    start = date(2020, 5, 1)
    nir = make_series(B.NIR, start, [0.6, 0.6, 0.6], step_days=10)
    green = make_series(B.GREEN, start, [0.2, 0.0, 0.3], step_days=10)
    out = derive_index_series({B.NIR: nir, B.GREEN: green}, B.GCVI)
    assert out.days.tolist() == [nir.days[0], nir.days[2]]
    assert out.values.tolist() == [0.6 / 0.2, 0.6 / 0.3]

    all_zero = make_series(B.GREEN, start, [0.0, 0.0, 0.0], step_days=10)
    with pytest.raises(IndexDomainError, match="GCVI: zero denominator in all 3"):
        derive_index_series({B.NIR: nir, B.GREEN: all_zero}, B.GCVI)


def test_overflowing_index_fails_the_series_checks():
    """Derived series keep ``ObservationSeries``' own checks (only the
    loader's series skip them): a ratio that overflows to inf is refused."""
    start = date(2020, 5, 1)
    nir = make_series(B.NIR, start, [0.6, 0.6])
    green = make_series(B.GREEN, start, [0.2, 5e-324])  # the smallest subnormal
    with np.errstate(over="ignore"), pytest.raises(ValueError) as info:
        derive_index_series({B.NIR: nir, B.GREEN: green}, B.GCVI)
    assert str(info.value) == "non-finite observation value"


def test_empty_intersection_errors():
    nir = make_series(B.NIR, date(2020, 5, 1), [0.5, 0.6])
    red = make_series(B.RED, date(2020, 7, 1), [0.1, 0.2])
    with pytest.raises(ValueError, match="no co-temporal"):
        derive_index_series({B.NIR: nir, B.RED: red}, B.NDVI)


def test_series_values_match_per_date_recomputation():
    rng = np.random.default_rng(7)
    start = date(2021, 4, 3)
    nir = make_series(B.NIR, start, rng.uniform(0.2, 0.9, 12), step_days=9)
    red = make_series(B.RED, start, rng.uniform(0.05, 0.4, 12), step_days=9)
    out = derive_index_series({B.NIR: nir, B.RED: red}, B.NDVI)
    assert out.days.tolist() == nir.days.tolist()
    for d, v in zip(out.days.tolist(), out.values):
        i = nir.days.tolist().index(d)
        n, r = nir.values[i], red.values[i]
        assert v == pytest.approx((n - r) / (n + r), rel=1e-12)
    # output days are a subset of every input and strictly increasing
    assert set(out.days) <= set(nir.days) and set(out.days) <= set(red.days)
    assert all(a < b for a, b in zip(out.days, out.days[1:]))
