"""Tree-ensemble learners: random forest and gradient-boosted trees.

Both ensembles are built on the same greedy CART grower. Splits minimize
variance (regression) or Gini impurity (classification); candidate
thresholds are midpoints between consecutive distinct sorted values, and
ties break to the lowest feature index, then the lowest threshold, which
makes training fully deterministic for a fixed seed.

Random forest trees are trained on bootstrap resamples whose randomness
derives only from (seed, tree index), so tree construction can run in
parallel with results independent of scheduling. Gradient boosting fits
each tree to the negative gradient of squared loss (regression) or logistic
loss (classification) and adds it with shrinkage; with mean-of-gradient
leaf values the training loss is non-increasing for any learning rate in
(0, 1].

Feature importance is mean decrease in impurity: per-feature impurity
decreases weighted by node size, summed within each tree, averaged across
trees, and normalized to sum one.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .featurize import FeatureTable
from .seeding import derive_seed

MODEL_FORMAT = "agribench-model"
MODEL_FORMAT_VERSION = 1


class SchemaError(ValueError):
    """Prediction input columns do not match the trained model."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "RF" | "GBT"
    task: str  # "regression" | "classification"
    n_trees: int = 200
    max_depth: int | None = None  # None: unlimited for RF, 6 for GBT
    learning_rate: float = 0.1  # GBT only
    max_features: str | None = None  # None: "sqrt" for RF classification, else "all"
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("RF", "GBT"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown model task {self.task!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_features not in (None, "all", "sqrt"):
            raise ValueError(f"unknown max_features {self.max_features!r}")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")

    def resolved_max_depth(self) -> int | None:
        if self.max_depth is not None:
            return self.max_depth
        return None if self.kind == "RF" else 6

    def resolved_max_features(self) -> str:
        if self.max_features is not None:
            return self.max_features
        if self.kind == "RF" and self.task == "classification":
            return "sqrt"
        return "all"


@dataclass
class Tree:
    """Flat array representation; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = self.feature[node]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                return self.value[node]
            current = node[active]
            go_left = X[active, feat[active]] <= self.threshold[current]
            node[active] = np.where(go_left, self.left[current], self.right[current])


@dataclass
class TrainedModel:
    spec: ModelSpec
    feature_names: tuple[str, ...]
    trees: list[Tree]
    importance: np.ndarray
    base_score: float = 0.0  # GBT initial prediction; unused for RF

    n_features: int = field(init=False)

    def __post_init__(self):
        self.n_features = len(self.feature_names)


def _best_split(sub: np.ndarray, ys: np.ndarray, min_leaf: int, classification: bool):
    """Vectorized search over all candidate columns and thresholds of a node.

    Returns (column, threshold, left_mask, impurity_decrease) or None when no
    valid split exists. Columns must correspond to features sorted ascending
    so that cost ties resolve to the lowest feature index, then the lowest
    threshold. The impurity decrease is the node Gini/variance minus the
    size-weighted child impurity, computed from the same split statistics.
    """
    m = sub.shape[0]
    # Default introsort: deterministic for identical input, and within-tie
    # permutations never affect the chosen split (tie positions are invalid).
    order = np.argsort(sub, axis=0)
    x_sorted = np.take_along_axis(sub, order, axis=0)
    y_sorted = ys[order]

    left_cnt = np.arange(1, m, dtype=float)[:, None]
    right_cnt = m - left_cnt
    left_sum = np.cumsum(y_sorted, axis=0)[:-1]
    total = float(ys.sum())
    right_sum = total - left_sum

    if classification:
        # Sum of per-side pos*(cnt-pos)/cnt; weighted child Gini is 2*cost/m.
        cost = (
            left_sum * (left_cnt - left_sum) / left_cnt
            + right_sum * (right_cnt - right_sum) / right_cnt
        )
    else:
        # Children SSE = sum(y^2) - (ls^2/lc + rs^2/rc): minimizing the
        # negated bracket minimizes the total weighted variance.
        cost = -(left_sum * left_sum / left_cnt + right_sum * right_sum / right_cnt)

    valid = x_sorted[:-1] < x_sorted[1:]
    if min_leaf > 1:
        positions = np.arange(1, m)[:, None]
        valid &= (positions >= min_leaf) & (m - positions >= min_leaf)
    if not valid.any():
        return None
    cost[~valid] = np.inf

    flat = np.argmin(cost.T)  # feature-major scan fixes the tie order
    column, split_pos = divmod(int(flat), m - 1)
    best = float(cost[split_pos, column])
    if not np.isfinite(best):
        return None

    if classification:
        node_imp = 2.0 * total * (m - total) / (m * m)
        child_imp = 2.0 * best / m
    else:
        total_sq = float(ys @ ys)
        node_imp = total_sq / m - (total / m) ** 2
        child_imp = (total_sq + best) / m  # best is the negated bracket
    decrease = max(0.0, node_imp - child_imp)

    lo = float(x_sorted[split_pos, column])
    hi = float(x_sorted[split_pos + 1, column])
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint rounded up; keep the intended partition
        threshold = lo
    left_mask = sub[:, column] <= threshold
    return column, threshold, left_mask, decrease


def _leaf_value(y: np.ndarray) -> float:
    return float(y.mean())


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    root_idx: np.ndarray,
    max_depth: int | None,
    min_leaf: int,
    max_features: str,
    classification: bool,
    rng: np.random.Generator | None,
    importance_acc: np.ndarray,
) -> Tree:
    n_features = X.shape[1]
    if max_features == "sqrt":
        n_candidates = max(1, int(math.sqrt(n_features)))
    else:
        n_candidates = n_features
    all_features = np.arange(n_features)
    n_root = root_idx.size

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, root_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        if (
            (max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
            or np.all(ys == ys[0])
        ):
            value[node] = _leaf_value(ys)
            continue
        if n_candidates < n_features:
            candidates = np.sort(rng.choice(all_features, size=n_candidates, replace=False))
            sub = X.take(idx, axis=0).take(candidates, axis=1)
        else:
            candidates = all_features
            sub = X.take(idx, axis=0)
        split = _best_split(sub, ys, min_leaf, classification)
        if split is None:
            value[node] = _leaf_value(ys)
            continue
        column, thr, left_mask, decrease = split
        importance_acc[candidates[column]] += idx.size / n_root * decrease

        feature[node] = int(candidates[column])
        threshold[node] = thr
        left_node = new_node()
        right_node = new_node()
        left[node] = left_node
        right[node] = right_node
        stack.append((right_node, idx[~left_mask], depth + 1))
        stack.append((left_node, idx[left_mask], depth + 1))

    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=float),
    )


def _as_matrix(X) -> tuple[np.ndarray, tuple[str, ...] | None]:
    if isinstance(X, FeatureTable):
        return X.values, X.feature_names
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
    return arr, None


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` and the first non-finite entry."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        where = ", ".join(f"{axis} {int(i)}" for axis, i in zip(("row", "column"), bad[0]))
        raise ValueError(f"non-finite {what} at {where}")


def _train_rf(spec: ModelSpec, X: np.ndarray, y: np.ndarray, threads: int):
    n = X.shape[0]
    classification = spec.task == "classification"
    max_depth = spec.resolved_max_depth()
    max_features = spec.resolved_max_features()

    def build(tree_index: int):
        rng = np.random.default_rng(derive_seed(spec.seed, tree_index))
        bootstrap = rng.integers(0, n, size=n)
        acc = np.zeros(X.shape[1])
        tree = _grow_tree(
            X, y, np.sort(bootstrap), max_depth, spec.min_samples_leaf,
            max_features, classification, rng, acc,
        )
        return tree, acc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(build, range(spec.n_trees)))
    else:
        results = [build(i) for i in range(spec.n_trees)]
    trees = [tree for tree, _ in results]
    per_tree = np.stack([acc for _, acc in results])
    return trees, per_tree.mean(axis=0), 0.0


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-scores))


def _train_gbt(spec: ModelSpec, X: np.ndarray, y: np.ndarray):
    classification = spec.task == "classification"
    max_depth = spec.resolved_max_depth()
    max_features = spec.resolved_max_features()
    rng = np.random.default_rng(derive_seed(spec.seed, "gbt"))
    all_idx = np.arange(X.shape[0])

    if classification:
        p = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        base = math.log(p / (1.0 - p))
    else:
        base = float(y.mean())
    scores = np.full(X.shape[0], base)

    trees = []
    accs = []
    for _ in range(spec.n_trees):
        residual = y - _sigmoid(scores) if classification else y - scores
        acc = np.zeros(X.shape[1])
        # Trees are fit to the gradient with the regression criterion.
        tree = _grow_tree(
            X, residual, all_idx, max_depth, spec.min_samples_leaf,
            max_features, False, rng, acc,
        )
        trees.append(tree)
        accs.append(acc)
        scores = scores + spec.learning_rate * tree.apply(X)
    return trees, np.stack(accs).mean(axis=0), base


def train(spec: ModelSpec, X, y, threads: int = 1) -> TrainedModel:
    """Fit the configured ensemble; deterministic for a fixed spec seed."""
    matrix, names = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"labels ({y.shape}) do not match feature rows ({matrix.shape[0]})"
        )
    if matrix.shape[0] < 2:
        raise ValueError("training requires at least 2 rows")
    _require_finite(matrix, "features")
    _require_finite(y, "labels")
    if spec.task == "classification" and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")

    if spec.kind == "RF":
        trees, raw_importance, base = _train_rf(spec, matrix, y, threads)
    else:
        trees, raw_importance, base = _train_gbt(spec, matrix, y)

    total = raw_importance.sum()
    importance = raw_importance / total if total > 0 else np.zeros_like(raw_importance)
    if names is None:
        names = tuple(f"x{i}" for i in range(matrix.shape[1]))
    return TrainedModel(
        spec=spec,
        feature_names=tuple(names),
        trees=trees,
        importance=importance,
        base_score=base,
    )


def _check_schema(model: TrainedModel, names: tuple[str, ...] | None, width: int) -> None:
    if names is not None:
        if names != model.feature_names:
            for i, (got, want) in enumerate(zip(names, model.feature_names)):
                if got != want:
                    raise SchemaError(
                        f"feature column {i} is {got!r}, model expects {want!r}"
                    )
            raise SchemaError(
                f"feature count {len(names)} does not match model "
                f"({len(model.feature_names)})"
            )
    elif width != model.n_features:
        raise SchemaError(
            f"feature count {width} does not match model ({model.n_features})"
        )


def predict_scores(model: TrainedModel, X) -> np.ndarray:
    """Raw ensemble output: tree mean (RF) or boosted additive score (GBT)."""
    matrix, names = _as_matrix(X)
    _check_schema(model, names, matrix.shape[1])
    _require_finite(matrix, "features")
    if model.spec.kind == "RF":
        outputs = np.stack([tree.apply(matrix) for tree in model.trees])
        if model.spec.task == "classification":
            votes = (outputs > 0.5).astype(float)
            return votes.mean(axis=0)
        return outputs.mean(axis=0)
    scores = np.full(matrix.shape[0], model.base_score)
    for tree in model.trees:
        scores = scores + model.spec.learning_rate * tree.apply(matrix)
    return scores


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Class-1 probability: vote fraction (RF) or logistic link (GBT)."""
    if model.spec.task != "classification":
        raise ValueError("probabilities are defined for classification models only")
    scores = predict_scores(model, X)
    return scores if model.spec.kind == "RF" else _sigmoid(scores)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Predicted values (regression) or classes in {0, 1} (classification).

    Columns of ``X`` must match the model's feature names exactly when ``X``
    is a FeatureTable. Class ties (probability exactly 0.5) go to class 0.
    """
    if model.spec.task == "regression":
        return predict_scores(model, X)
    return (predict_proba(model, X) > 0.5).astype(float)


def feature_importance(model: TrainedModel) -> dict[str, float]:
    """Named mean-decrease-in-impurity scores, normalized to sum one."""
    return {name: float(v) for name, v in zip(model.feature_names, model.importance)}


def top_features(model: TrainedModel, k: int = 10) -> list[tuple[str, float]]:
    """The k most important features, highest first (name order breaks ties)."""
    ranked = sorted(
        feature_importance(model).items(), key=lambda item: (-item[1], item[0])
    )
    return ranked[:k]


def save_model(model: TrainedModel, path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "spec": asdict(model.spec),
        "feature_names": list(model.feature_names),
        "base_score": model.base_score,
        "importance": [float(v) for v in model.importance],
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
            }
            for tree in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {payload.get('version')}")
    trees = [
        Tree(
            feature=np.array(t["feature"], dtype=np.intp),
            threshold=np.array(t["threshold"], dtype=float),
            left=np.array(t["left"], dtype=np.intp),
            right=np.array(t["right"], dtype=np.intp),
            value=np.array(t["value"], dtype=float),
        )
        for t in payload["trees"]
    ]
    return TrainedModel(
        spec=ModelSpec(**payload["spec"]),
        feature_names=tuple(payload["feature_names"]),
        trees=trees,
        importance=np.array(payload["importance"], dtype=float),
        base_score=float(payload["base_score"]),
    )
