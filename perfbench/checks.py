"""Output checks. Each returns a list of problems; an empty list passes."""

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

AGGREGATE = "mean"
REPORT_HEADER = ["task", "crop", "feature_set", "model", "scheme",
                 "fold", "seed", "metric", "value"]
REGRESSION_METRICS = ("R2", "RMSE")
CLASSIFICATION_METRICS = ("Accuracy", "F1_class0", "F1_class1", "F1_weighted")
SCORE_CEILING_SLACK = 0.05  # as criterion 7: a score may exceed its ceiling by this much


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def report_problems(path: Path, metrics: tuple[str, ...], n_folds: int,
                    n_repeats: int, pooled: bool) -> list[str]:
    """One row per fold x repeat x metric, plus the aggregate rows.

    Aggregates are a seed-mean row per fold and metric and one overall row
    per metric; ``pooled`` (yearly CV) adds an ``all`` row per repeat and
    metric plus their mean.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != REPORT_HEADER:
        return [f"report header is {header}"]
    keys = [tuple(row[5:8]) for row in rows if len(row) == len(REPORT_HEADER)]
    if len(keys) != len(rows):
        return ["report has rows of the wrong width"]
    folds = sorted({fold for fold, _, _ in keys} - {AGGREGATE, "all"})
    seeds = [str(i) for i in range(1, n_repeats + 1)]
    expected = {(f, s, m) for f in folds for s in seeds + [AGGREGATE] for m in metrics}
    expected |= {(AGGREGATE, AGGREGATE, m) for m in metrics}
    if pooled:
        expected |= {("all", s, m) for s in seeds + [AGGREGATE] for m in metrics}
    problems = []
    if len(folds) != n_folds:
        problems.append(f"report has {len(folds)} folds, expected {n_folds}")
    if len(keys) != len(set(keys)):
        problems.append("report repeats a (fold, seed, metric) row")
    if set(keys) != expected:
        problems.append(f"report rows {len(set(keys))} != expected {len(expected)}")
    for row in rows:
        try:
            float(row[8])
        except ValueError:
            problems.append(f"report value {row[8]!r} is not a number")
            break
    return problems


def report_score(path: Path, metric: str) -> float:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if (row["fold"], row["seed"], row["metric"]) == (AGGREGATE, AGGREGATE, metric):
            return float(row["value"])
    raise ValueError(f"report has no aggregate {metric} row")


def score_ceiling(meta: dict) -> float:
    """The generator's analytic ceiling; noise-free labels have ceiling 1."""
    ceiling = meta.get("r2_ceiling", math.nan)
    if math.isnan(ceiling) and meta.get("label_sigma") == 0.0:
        return 1.0
    return ceiling


def score_problems(score: float, ceiling: float, floor: float) -> list[str]:
    """As criterion 7: ceiling - floor <= score <= ceiling + slack."""
    if not math.isfinite(score):
        return [f"score {score} is not finite"]
    if not ceiling - floor <= score <= ceiling + SCORE_CEILING_SLACK:
        return [f"score {score:.4f} outside [{ceiling - floor:.4f}, "
                f"{ceiling + SCORE_CEILING_SLACK:.4f}] (ceiling {ceiling:.4f})"]
    return []


def table_problems(values: np.ndarray, width: int) -> list[str]:
    problems = []
    if values.ndim != 2 or values.shape[1] != width:
        problems.append(f"feature table shape {values.shape}, expected width {width}")
    if values.size == 0:
        problems.append("feature table is empty")
    elif not np.isfinite(values).all():
        problems.append("feature table has non-finite values")
    return problems


def prediction_problems(in_memory: np.ndarray, reloaded: np.ndarray) -> list[str]:
    if not np.array_equal(in_memory, reloaded):
        n = int(np.sum(in_memory != reloaded)) if in_memory.shape == reloaded.shape else -1
        return [f"reloaded model.json predicts differently ({n} rows differ)"]
    return []
