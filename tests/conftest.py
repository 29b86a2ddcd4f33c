import importlib.util
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from agribench.dataset import ClimateSeries, EMBEDDING_COLUMNS, ObservationSeries, SpectralBand

ROOT = Path(__file__).resolve().parents[1]


def perfbench_workloads() -> dict:
    """perfbench's workload table, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module.WORKLOADS


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_bundle(
    bundle: Path,
    units: list[list] | None = None,
    observations: list[list] | None = None,
    climate: list[list] | None = None,
    embeddings: list[list] | None = None,
    labels: list[list] | None = None,
) -> Path:
    """Write a minimal five-file bundle; omitted tables are empty."""
    bundle.mkdir(parents=True, exist_ok=True)
    write_csv(bundle / "units.csv",
              ["unit_id", "level", "state", "county_id", "ecoregion", "elevation_m"],
              units or [])
    write_csv(bundle / "observations.csv",
              ["unit_id", "band", "date", "value"],
              observations or [])
    write_csv(bundle / "climate.csv",
              ["unit_id", "date", "tmin_c", "tmax_c", "ppt_mm"],
              climate or [])
    write_csv(bundle / "embeddings.csv",
              ["unit_id", "year"] + list(EMBEDDING_COLUMNS),
              embeddings or [])
    write_csv(bundle / "labels.csv",
              ["unit_id", "year", "task", "value"],
              labels or [])
    return bundle


def make_series(
    band: SpectralBand,
    start: date,
    values,
    step_days: int = 10,
    unit_id: str = "u1",
) -> ObservationSeries:
    values = np.asarray(values, dtype=float)
    days = start.toordinal() + step_days * np.arange(len(values), dtype=np.int64)
    return ObservationSeries(unit_id=unit_id, band=band, days=days, values=values)


def climate_series(rows) -> ClimateSeries:
    """Climate columns from ``(date, tmin_c, tmax_c, ppt_mm)`` rows in day order."""
    days, tmin, tmax, ppt = zip(*rows) if rows else ((), (), (), ())
    return ClimateSeries(
        days=np.array([d.toordinal() for d in days], dtype=np.int64),
        tmin=np.array(tmin, dtype=float),
        tmax=np.array(tmax, dtype=float),
        ppt=np.array(ppt, dtype=float),
    )


@pytest.fixture
def tmp_bundle(tmp_path):
    def _build(**tables):
        return write_bundle(tmp_path / "bundle", **tables)
    return _build
