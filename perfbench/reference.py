"""A fixed reference computation that measures how fast the machine is now.

The benchmark host is shared: the same session can run 25-40% slower for
minutes at a time, and a run's own process slows with it. So the benchmark
times this reference before and after each measurement, and reports the
measurement in reference seconds: measured seconds times
``REFERENCE_SECONDS`` divided by the reference's time around it. On a
2-vCPU shared host this cut the run-to-run spread of the session time by
about half; ``perfbench/baseline.json`` has both spreads.

The reference mixes what agribench spends its time on: parsing CSV rows
into small frozen objects, and many numpy calls on arrays of a hundred
elements. It uses no agribench code, so a change to the program cannot
move it. Rows are made and dropped one at a time, so it adds nothing to the
peak memory the benchmark reports. The cyclic garbage collector is paused
while it runs, so the heap the program leaves behind does not change its
cost.
"""

import csv
import gc
import statistics
import time
from dataclasses import dataclass
from datetime import date

import numpy as np

REFERENCE_SECONDS = 0.28  # sets the unit; one reference run took 0.18-0.31 s on the baseline host
ROWS = 30_000


@dataclass(frozen=True)
class _Row:
    unit: str
    day: date
    low: float
    high: float


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        lines = (f"u{i % 40:03d},{date.fromordinal(737000 + i % 1500).isoformat()},"
                 f"{i % 17 * 0.5!r},{i % 23 * 0.7!r}" for i in range(ROWS))
        rows = 0
        total = 0.0
        for unit, day, low, high in csv.reader(lines):
            row = _Row(unit, date.fromisoformat(day), float(low), float(high))
            total += row.high - row.low
            rows += 1
        rng = np.random.default_rng(0)
        arrays = [rng.random(120) for _ in range(50)]
        for k in range(7500):
            values = arrays[k % len(arrays)]
            sums = np.cumsum(values[np.argsort(values, kind="stable")])
            total += float(sums[-1] - sums.min())
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if rows != ROWS or not total > 0:
        raise RuntimeError("reference computation went wrong")
    return elapsed


def in_reference_seconds(measured: list[float], references: list[float]) -> float:
    """Median of the measured times, each scaled by the reference speed
    around it: ``references[i]`` ran just before ``measured[i]`` and
    ``references[i + 1]`` just after."""
    if len(references) != len(measured) + 1:
        raise ValueError("need one reference before each measurement and one after the last")
    return statistics.median(
        seconds * REFERENCE_SECONDS * 2.0 / (before + after)
        for seconds, before, after in zip(measured, references, references[1:])
    )
