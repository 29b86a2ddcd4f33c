"""Evaluation schemes, metrics, and the repeated benchmark protocol.

Four schemes are supported:

- ``group_cv``:       leakage-aware k-fold CV over state-year groups
                      (county rows) or county-year groups (field rows);
                      no group ever straddles the train/test boundary
- ``yearly_cv``:      leave-one-year-out, one fold per distinct year
- ``scale_transfer``: train on county-level rows, test on field-level rows
- ``space_transfer``: train in one ecoregion, test in the other
                      (rows outside both ecoregions are excluded)

A benchmark run repeats each scheme ``n_repeats`` times under seeds derived
from the base seed, reports per-fold per-seed metrics, and aggregates by
seed mean and fold mean. Yearly CV additionally reports an "all" row per
seed computed over the pooled predictions of all folds.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .dataset import CLASSIFICATION_TASKS, Dataset, UnitMeta
from .featurize import FeatureTable, TaskConfig, assemble_table, config_fingerprint
from .models import ModelSpec, predict, train
from .seeding import derive_seed

SCHEMES = ("group_cv", "yearly_cv", "scale_transfer", "space_transfer")
REPORT_COLUMNS = ("task", "crop", "feature_set", "model", "scheme",
                  "fold", "seed", "metric", "value")
DIRECTIONS = ("East->West", "West->East")

AGGREGATE = "mean"  # fold/seed label used for aggregate rows


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class SplitPlan:
    scheme: str
    fold_labels: tuple[str, ...]
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for train_ids, test_ids in self.folds:
            if test_ids.size == 0:
                raise SplitError(f"{self.scheme}: empty test side in a fold")
            if train_ids.size == 0:
                raise SplitError(f"{self.scheme}: empty train side in a fold")
            if np.intersect1d(train_ids, test_ids).size:
                raise SplitError(f"{self.scheme}: train/test overlap")


def _row_groups(table: FeatureTable, units: dict[str, UnitMeta]) -> list[str]:
    """Group identifier per row: state-year for counties, county-year for fields."""
    groups = []
    for unit_id, year in table.unit_years:
        meta = units[unit_id]
        region = meta.state if meta.level == "county" else meta.county_id
        groups.append(f"{region}|{year}")
    return groups


def build_split_plan(
    table: FeatureTable,
    units: dict[str, UnitMeta],
    scheme: str,
    k: int = 5,
    direction: str | None = None,
    seed: int = 0,
) -> SplitPlan:
    """Construct the train/test folds realizing one evaluation scheme."""
    if scheme not in SCHEMES:
        raise SplitError(f"unknown scheme {scheme!r}")
    if table.n_rows == 0:
        raise SplitError("empty feature table")
    all_rows = np.arange(table.n_rows)

    if scheme == "group_cv":
        if k < 2:
            raise SplitError(f"group_cv requires k >= 2, got {k}")
        groups = _row_groups(table, units)
        distinct = sorted(set(groups))
        if len(distinct) < k:
            raise SplitError(f"only {len(distinct)} groups for k={k} folds")
        rng = np.random.default_rng(derive_seed(seed, "group_cv"))
        shuffled = [distinct[i] for i in rng.permutation(len(distinct))]
        fold_groups = np.array_split(np.array(shuffled, dtype=object), k)
        group_arr = np.array(groups, dtype=object)
        folds = []
        for part in fold_groups:
            test_mask = np.isin(group_arr, part)
            folds.append((all_rows[~test_mask], all_rows[test_mask]))
        labels = tuple(f"fold{i}" for i in range(k))
        return SplitPlan("group_cv", labels, tuple(folds))

    if scheme == "yearly_cv":
        years = sorted({year for _, year in table.unit_years})
        if len(years) < 2:
            raise SplitError("yearly_cv requires at least 2 distinct years")
        year_arr = np.array([year for _, year in table.unit_years])
        folds = tuple(
            (all_rows[year_arr != year], all_rows[year_arr == year]) for year in years
        )
        return SplitPlan("yearly_cv", tuple(str(y) for y in years), folds)

    if scheme == "scale_transfer":
        levels = np.array([units[u].level for u, _ in table.unit_years])
        train_ids = all_rows[levels == "county"]
        test_ids = all_rows[levels == "field"]
        if train_ids.size == 0 or test_ids.size == 0:
            raise SplitError(
                f"scale_transfer needs both county and field rows "
                f"(county={train_ids.size}, field={test_ids.size})"
            )
        return SplitPlan("scale_transfer", ("transfer",), ((train_ids, test_ids),))

    if direction not in DIRECTIONS:
        raise SplitError(f"space_transfer direction must be one of {DIRECTIONS}")
    source, target = direction.split("->")
    regions = np.array([units[u].ecoregion for u, _ in table.unit_years])
    train_ids = all_rows[regions == source]
    test_ids = all_rows[regions == target]
    if train_ids.size == 0 or test_ids.size == 0:
        raise SplitError(
            f"space_transfer {direction}: empty side "
            f"(train={train_ids.size}, test={test_ids.size})"
        )
    return SplitPlan("space_transfer", ("transfer",), ((train_ids, test_ids),))


def regression_metrics(truth, pred) -> dict[str, float]:
    """Coefficient of determination and root mean squared error.

    R2 can be negative for predictors worse than the truth mean; for
    constant truth it is undefined and reported as NaN.
    """
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.shape != pred.shape or truth.size == 0:
        raise ValueError("truth and prediction must be equal-length and nonempty")
    sse = float(np.sum((truth - pred) ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    rmse = float(np.sqrt(sse / truth.size))
    r2 = 1.0 - sse / ss_tot if ss_tot > 0 else float("nan")
    return {"R2": r2, "RMSE": rmse}


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def classification_metrics(truth, pred) -> dict[str, float]:
    """Accuracy, per-class F1, and the support-weighted mean F1.

    Zero-denominator precision/recall/F1 are defined as 0.
    """
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.shape != pred.shape or truth.size == 0:
        raise ValueError("truth and prediction must be equal-length and nonempty")
    if not np.all(np.isin(truth, (0.0, 1.0))) or not np.all(np.isin(pred, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")
    n = truth.size
    accuracy = float((truth == pred).mean())
    f1 = {}
    weighted = 0.0
    for cls in (0.0, 1.0):
        tp = int(np.sum((pred == cls) & (truth == cls)))
        fp = int(np.sum((pred == cls) & (truth != cls)))
        fn = int(np.sum((pred != cls) & (truth == cls)))
        score = _f1(tp, fp, fn)
        f1[int(cls)] = score
        weighted += (tp + fn) / n * score
    return {
        "Accuracy": accuracy,
        "F1_class0": f1[0],
        "F1_class1": f1[1],
        "F1_weighted": weighted,
    }


def metrics_for_task(task: str, truth, pred) -> dict[str, float]:
    if task in CLASSIFICATION_TASKS:
        return classification_metrics(truth, pred)
    return regression_metrics(truth, pred)


def model_task_for(task: str) -> str:
    return "classification" if task in CLASSIFICATION_TASKS else "regression"


@dataclass
class MetricReport:
    """Per-fold, per-seed metric values plus their aggregates.

    ``rows`` hold (fold, seed, metric, value) with seed ``"mean"`` marking
    seed-mean aggregates and fold ``"mean"`` the overall aggregate.
    """

    context: dict
    rows: list[tuple[str, str, str, float]]

    def value(self, fold: str, seed: str, metric: str) -> float:
        for f, s, m, v in self.rows:
            if (f, s, m) == (fold, seed, metric):
                return v
        raise KeyError((fold, seed, metric))

    def aggregate(self, metric: str) -> float:
        return self.value(AGGREGATE, AGGREGATE, metric)

    def to_csv(self, path) -> None:
        header = ",".join(REPORT_COLUMNS)
        prefix = ",".join(
            str(self.context.get(key, "")) or "-"
            for key in ("task", "crop", "feature_set", "model", "scheme")
        )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for fold, seed, metric, value in self.rows:
                fh.write(f"{prefix},{fold},{seed},{metric},{value!r}\n")

    def to_json(self, path) -> None:
        payload = {
            "context": self.context,
            "rows": [
                {"fold": f, "seed": s, "metric": m, "value": v}
                for f, s, m, v in self.rows
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)


def _fit_and_score(
    table: FeatureTable,
    plan: SplitPlan,
    model_spec: ModelSpec,
    repeat_seed: int,
    threads: int,
):
    """Train/evaluate every fold; returns per-fold metrics and pooled pairs."""
    per_fold = {}
    pooled_truth = []
    pooled_pred = []
    for label, (train_ids, test_ids) in zip(plan.fold_labels, plan.folds):
        if test_ids.size == 0:
            raise SplitError(f"fold {label}: empty test set")
        spec = replace(model_spec, seed=derive_seed(repeat_seed, label))
        model = train(spec, table.select(train_ids), table.labels[train_ids], threads=threads)
        pred = predict(model, table.select(test_ids))
        truth = table.labels[test_ids]
        per_fold[label] = metrics_for_task(table.task, truth, pred)
        pooled_truth.append(truth)
        pooled_pred.append(pred)
    pooled = metrics_for_task(
        table.task, np.concatenate(pooled_truth), np.concatenate(pooled_pred)
    )
    return per_fold, pooled


def run_benchmark(
    dataset: Dataset,
    task_cfg: TaskConfig,
    model_spec: ModelSpec,
    scheme: str,
    k: int = 5,
    direction: str | None = None,
    n_repeats: int = 5,
    base_seed: int = 0,
    threads: int = 1,
) -> MetricReport:
    """Run the repeated evaluation protocol and assemble the metric report."""
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be at least 1, got {n_repeats}")
    expected = model_task_for(task_cfg.task)
    if model_spec.task != expected:
        raise ValueError(
            f"model task {model_spec.task!r} does not fit {task_cfg.task!r} "
            f"(needs {expected!r})"
        )
    table = assemble_table(dataset, task_cfg)

    fold_labels: tuple[str, ...] = ()
    rows: list[tuple[str, str, str, float]] = []
    fold_seed_values: dict[tuple[str, str], dict[str, float]] = {}
    pooled_values: dict[str, dict[str, float]] = {}
    for i in range(1, n_repeats + 1):
        repeat_seed = derive_seed(base_seed, i)
        plan = build_split_plan(
            table, dataset.units, scheme, k=k, direction=direction, seed=repeat_seed
        )
        fold_labels = plan.fold_labels
        per_fold, pooled = _fit_and_score(table, plan, model_spec, repeat_seed, threads)
        for label in plan.fold_labels:
            for metric, value in per_fold[label].items():
                rows.append((label, str(i), metric, value))
            fold_seed_values[(label, str(i))] = per_fold[label]
        if scheme == "yearly_cv":
            pooled_values[str(i)] = pooled

    metric_names = sorted({m for _, _, m, _ in rows})

    # Seed-mean aggregate per fold, then the overall mean across folds.
    fold_means: dict[str, dict[str, float]] = {}
    for label in fold_labels:
        fold_means[label] = {}
        for metric in metric_names:
            values = [fold_seed_values[(label, str(i))][metric]
                      for i in range(1, n_repeats + 1)]
            mean = float(np.mean(values))
            fold_means[label][metric] = mean
            rows.append((label, AGGREGATE, metric, mean))
    for metric in metric_names:
        overall = float(np.mean([fold_means[label][metric] for label in fold_labels]))
        rows.append((AGGREGATE, AGGREGATE, metric, overall))
    if scheme == "yearly_cv":
        for i in range(1, n_repeats + 1):
            for metric in metric_names:
                rows.append(("all", str(i), metric, pooled_values[str(i)][metric]))
        for metric in metric_names:
            mean = float(np.mean([pooled_values[str(i)][metric]
                                  for i in range(1, n_repeats + 1)]))
            rows.append(("all", AGGREGATE, metric, mean))

    context = {
        "task": task_cfg.task,
        "crop": task_cfg.crop or "-",
        "feature_set": task_cfg.feature_set,
        "model": model_spec.kind,
        "scheme": scheme,
        "k": k if scheme == "group_cv" else None,
        "direction": direction,
        "n_repeats": n_repeats,
        "base_seed": base_seed,
        "config_hash": config_fingerprint(task_cfg),
        "n_rows": table.n_rows,
        "n_features": len(table.feature_names),
        "exclusions": dict(table.exclusion_log),
        "flagged_defaults": task_cfg.flagged_defaults(),
    }
    return MetricReport(context=context, rows=rows)
