import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agribench import models
from agribench.featurize import FeatureTable
from agribench.models import (
    ModelSpec,
    SchemaError,
    Tree,
    TrainedModel,
    _grow_trees,
    _Presorted,
    _sigmoid,
    feature_importance,
    load_model,
    predict,
    predict_proba,
    predict_scores,
    save_model,
    top_features,
    train,
)

rng = np.random.default_rng(2024)


def make_table(X, y, names=None):
    names = names or tuple(f"x{i}" for i in range(X.shape[1]))
    return FeatureTable(
        task="yield", feature_set="RS", feature_names=tuple(names),
        unit_years=tuple((f"u{i}", 2020) for i in range(X.shape[0])),
        values=np.asarray(X, float), labels=np.asarray(y, float),
    )


class TestSpec:
    def test_kind_defaults(self):
        rf = ModelSpec(kind="RF", task="regression")
        assert rf.resolved_max_depth() is None
        assert rf.resolved_max_features() == "all"
        rfc = ModelSpec(kind="RF", task="classification")
        assert rfc.resolved_max_features() == "sqrt"
        gbt = ModelSpec(kind="GBT", task="regression")
        assert gbt.resolved_max_depth() == 6
        assert gbt.resolved_max_features() == "all"

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="SVM", task="regression")
        with pytest.raises(ValueError):
            ModelSpec(kind="RF", task="regression", n_trees=0)
        with pytest.raises(ValueError):
            ModelSpec(kind="GBT", task="regression", learning_rate=0.0)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_max_depth_below_one_rejected(self, depth):
        for kind in ("RF", "GBT"):
            with pytest.raises(ValueError, match="max_depth must be at least 1"):
                ModelSpec(kind=kind, task="regression", max_depth=depth)
        assert ModelSpec(kind="RF", task="regression", max_depth=1).resolved_max_depth() == 1


class TestTrainBasics:
    def test_constant_target(self):
        X = rng.normal(size=(50, 4))
        y = np.full(50, 3.25)
        for kind in ("RF", "GBT"):
            model = train(ModelSpec(kind=kind, task="regression", n_trees=10, seed=1), X, y)
            assert np.allclose(predict(model, X), 3.25)
            assert np.all(model.importance == 0.0)

    def test_constant_features_nonconstant_target(self):
        X = np.ones((20, 3))
        y = np.arange(20.0)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=5, seed=1), X, y)
        preds = predict(model, X)
        assert np.all(preds == preds[0])  # best constant, no error

    def test_single_informative_feature(self):
        X = rng.normal(size=(500, 11))
        y = X[:, 0].copy()
        for kind in ("RF", "GBT"):
            model = train(ModelSpec(kind=kind, task="regression", n_trees=100, seed=3), X, y)
            pred = predict(model, X)
            r2 = 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
            assert r2 >= 0.99, kind
            ranked = top_features(model, 1)
            assert ranked[0][0] == "x0", kind

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            train(ModelSpec(kind="RF", task="regression"), np.ones((5, 2)), np.ones(4))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            train(ModelSpec(kind="RF", task="regression"), np.ones((1, 2)), np.ones(1))

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            train(ModelSpec(kind="RF", task="regression"), np.ones((4, 2)), np.arange(4.0),
                  threads=threads)

    def test_classification_labels_checked(self):
        with pytest.raises(ValueError, match="0 or 1"):
            train(ModelSpec(kind="RF", task="classification"),
                  np.ones((4, 2)), np.array([0.0, 1.0, 2.0, 0.0]))

    @pytest.mark.parametrize("kind", ["RF", "GBT"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, kind, bad):
        local = np.random.default_rng(5)
        X = local.normal(size=(20, 3))
        y = local.normal(size=20)
        spec = ModelSpec(kind=kind, task="regression", n_trees=3, seed=1)
        bad_y = y.copy()
        bad_y[7] = bad
        # GBT used to fit this and predict NaN for every row.
        with pytest.raises(ValueError, match="non-finite labels at row 7"):
            train(spec, X, bad_y)
        bad_X = X.copy()
        bad_X[4, 2] = bad
        with pytest.raises(ValueError, match="non-finite features at row 4, column 2"):
            train(spec, bad_X, y)
        model = train(spec, X, y)
        with pytest.raises(ValueError, match="non-finite features at row 4, column 2"):
            predict(model, bad_X)
        with pytest.raises(ValueError, match="non-finite features at row 4, column 2"):
            predict_scores(model, bad_X)

    def test_deterministic_per_seed(self):
        X = rng.normal(size=(120, 6))
        y = rng.normal(size=120)
        probe = rng.normal(size=(40, 6))
        spec = ModelSpec(kind="RF", task="regression", n_trees=15, seed=9)
        a = predict(train(spec, X, y), probe)
        b = predict(train(spec, X, y), probe)
        assert np.array_equal(a, b)
        c = predict(train(spec, X, y, threads=4), probe)
        assert np.array_equal(a, c)
        other = ModelSpec(kind="RF", task="regression", n_trees=15, seed=10)
        assert not np.array_equal(a, predict(train(other, X, y), probe))


class TestPredict:
    def test_single_tree_rf(self):
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=1, seed=4), X, y)
        probe = rng.normal(size=(20, 4))
        assert np.array_equal(predict(model, probe), model.trees[0].apply(probe))

    def test_all_trees_vote_one(self):
        X = rng.normal(size=(30, 3))
        y = np.ones(30)
        model = train(ModelSpec(kind="RF", task="classification", n_trees=7, seed=4), X, y)
        probe = rng.normal(size=(10, 3))
        assert np.all(predict_proba(model, probe) == 1.0)
        assert np.all(predict(model, probe) == 1.0)

    def test_ensemble_mean_matches_per_tree_average(self):
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=12, seed=5), X, y)
        probe = rng.normal(size=(25, 5))
        expected = np.mean([tree.apply(probe) for tree in model.trees], axis=0)
        assert np.allclose(predict(model, probe), expected, rtol=0, atol=0)

    def test_tree_order_permutation_invariant(self):
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=10, seed=6), X, y)
        probe = rng.normal(size=(25, 5))
        before = predict(model, probe)
        perm = list(rng.permutation(len(model.trees)))
        model.trees = [model.trees[i] for i in perm]
        assert np.allclose(predict(model, probe), before)

    def test_rf_regression_bounded_by_training_labels(self):
        X = rng.normal(size=(100, 4))
        y = rng.uniform(5, 9, size=100)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=25, seed=7), X, y)
        probe = rng.normal(size=(200, 4)) * 10  # far outside training support
        pred = predict(model, probe)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_classification_probability_and_tie_break(self):
        X = rng.normal(size=(60, 4))
        y = (X[:, 1] > 0).astype(float)
        model = train(ModelSpec(kind="RF", task="classification", n_trees=8, seed=8), X, y)
        probe = rng.normal(size=(50, 4))
        proba = predict_proba(model, probe)
        assert np.all((proba >= 0) & (proba <= 1))
        classes = predict(model, probe)
        assert np.array_equal(classes, (proba > 0.5).astype(float))  # 0.5 -> class 0

    def test_schema_error_names_first_mismatch(self):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        table = make_table(X, y, names=("a", "b", "c"))
        model = train(ModelSpec(kind="RF", task="regression", n_trees=3, seed=1),
                      table, y)
        wrong = make_table(X, y, names=("a", "zz", "c"))
        with pytest.raises(SchemaError, match="column 1 is 'zz'"):
            predict(model, wrong)

    def test_width_mismatch_plain_array(self):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=3, seed=1), X, y)
        with pytest.raises(SchemaError, match="feature count"):
            predict(model, rng.normal(size=(5, 4)))


class TestGbt:
    def _squared_loss_curve(self, X, y, spec):
        model = train(spec, X, y)
        scores = np.full(X.shape[0], model.base_score)
        losses = [float(np.mean((y - scores) ** 2))]
        for tree in model.trees:
            scores = scores + spec.learning_rate * tree.apply(X)
            losses.append(float(np.mean((y - scores) ** 2)))
        return losses

    def test_squared_loss_non_increasing(self):
        X = rng.normal(size=(150, 6))
        y = X[:, 0] + 0.3 * rng.normal(size=150)
        losses = self._squared_loss_curve(
            X, y, ModelSpec(kind="GBT", task="regression", n_trees=60, seed=11))
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_logistic_loss_non_increasing(self):
        X = rng.normal(size=(150, 6))
        y = (X[:, 2] + 0.5 * rng.normal(size=150) > 0).astype(float)
        spec = ModelSpec(kind="GBT", task="classification", n_trees=60, seed=11)
        model = train(spec, X, y)
        scores = np.full(X.shape[0], model.base_score)

        def logloss(s):
            p = _sigmoid(s)
            return float(-np.mean(y * np.log(p) + (1 - y) * np.log1p(-p)))

        losses = [logloss(scores)]
        for tree in model.trees:
            scores = scores + spec.learning_rate * tree.apply(X)
            losses.append(logloss(scores))
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_gbt_classification_threshold(self):
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0.2).astype(float)
        model = train(ModelSpec(kind="GBT", task="classification", n_trees=50, seed=12), X, y)
        proba = predict_proba(model, X)
        assert np.all((proba >= 0) & (proba <= 1))
        assert np.array_equal(predict(model, X), (proba > 0.5).astype(float))
        assert (predict(model, X) == y).mean() > 0.95


class TestImportance:
    def test_stump_forest_single_feature(self):
        X = rng.normal(size=(200, 6))
        y = (X[:, 3] > 0).astype(float) * 2.0
        spec = ModelSpec(kind="RF", task="regression", n_trees=20, max_depth=1, seed=13)
        model = train(spec, X, y)
        imp = feature_importance(model)
        assert imp["x3"] == pytest.approx(1.0)
        assert sum(imp.values()) == pytest.approx(1.0)

    def test_additive_target_orders_features(self):
        X = rng.normal(size=(400, 5))
        y = X[:, 0] + 0.1 * X[:, 1]
        model = train(ModelSpec(kind="RF", task="regression", n_trees=40, seed=14), X, y)
        imp = feature_importance(model)
        assert imp["x0"] > imp["x1"]
        assert imp["x1"] > 0

    def test_importance_sums_to_one(self):
        X = rng.normal(size=(100, 7))
        y = rng.normal(size=100)
        for kind in ("RF", "GBT"):
            model = train(ModelSpec(kind=kind, task="regression", n_trees=10, seed=15), X, y)
            assert float(model.importance.sum()) == pytest.approx(1.0, abs=1e-12)
            assert np.all(model.importance >= 0)

    def test_top_features_query(self):
        X = rng.normal(size=(100, 5))
        y = X[:, 4].copy()
        model = train(ModelSpec(kind="RF", task="regression", n_trees=10, seed=16), X, y)
        top = top_features(model, 3)
        assert len(top) == 3
        assert top[0][0] == "x4"


class TestSerialization:
    def test_round_trip_identical_predictions(self, tmp_path):
        X = rng.normal(size=(80, 6))
        y = rng.normal(size=80)
        for kind in ("RF", "GBT"):
            spec = ModelSpec(kind=kind, task="regression", n_trees=8, seed=17)
            model = train(spec, X, y)
            path = tmp_path / f"{kind}.json"
            save_model(model, path)
            loaded = load_model(path)
            probe = rng.normal(size=(30, 6))
            assert np.array_equal(predict_scores(model, probe),
                                  predict_scores(loaded, probe))
            assert loaded.spec == model.spec
            assert loaded.feature_names == model.feature_names

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a"):
            load_model(path)


class TestModelFile:
    """``load_model`` accepts sound trees only, so ``predict`` always ends."""

    def _saved_rf(self, tmp_path):
        local = np.random.default_rng(21)
        X = local.normal(size=(40, 3))
        model = train(ModelSpec(kind="RF", task="regression", n_trees=1, seed=2),
                      X, local.normal(size=40))
        path = tmp_path / "model.json"
        save_model(model, path)
        return path

    def _edit(self, path, field, index, value):
        payload = json.loads(path.read_text())
        payload["trees"][0][field][index] = value
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("edit, message", [
        (lambda p: "{", "not JSON"),
        (lambda p: json.dumps([p]), "not a agribench-model file"),
        (lambda p: json.dumps({k: v for k, v in p.items() if k != "feature_names"}),
         "missing 'feature_names'"),
        (lambda p: json.dumps({**p, "spec": {**p["spec"], "colour": "red"}}),
         "bad 'spec' (ModelSpec.__init__() got an unexpected keyword argument 'colour')"),
        (lambda p: json.dumps({**p, "spec": "RF"}), "bad 'spec'"),
        (lambda p: json.dumps({**p, "base_score": None}), "bad 'base_score'"),
        (lambda p: json.dumps({**p, "base_score": float("nan")}),
         "bad 'base_score' (nan is not finite)"),
        (lambda p: json.dumps({**p, "trees": []}), "0 trees, but n_trees is 1"),
        (lambda p: json.dumps({**p, "feature_names": "abc"}),
         "bad 'feature_names' (expected a list, got str)"),
        (lambda p: json.dumps({**p, "feature_names": ["a", 2, "c"]}),
         "bad 'feature_names' (expected a list of strings)"),
        (lambda p: json.dumps({**p, "trees": {"0": p["trees"][0]}}),
         "bad 'trees' (expected a list, got dict)"),
    ], ids=["not_json", "json_array", "no_feature_names", "spec_unknown_field",
            "spec_not_object", "null_base_score", "nan_base_score", "no_trees",
            "feature_names_string", "feature_names_not_strings", "trees_object"])
    def test_malformed_file_named(self, tmp_path, edit, message):
        path = self._saved_rf(tmp_path)
        path.write_text(edit(json.loads(path.read_text())))
        # Most of these used to raise KeyError, AttributeError or TypeError;
        # the file without trees loaded, and predict failed inside np.stack.
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(path) in str(info.value) and message in str(info.value)

    def test_cycle_rejected(self, tmp_path):
        path = self._saved_rf(tmp_path)
        self._edit(path, "left", 0, 0)
        self._edit(path, "right", 0, 0)
        # This file used to load, and predict on it never returned.
        with pytest.raises(ValueError, match="tree 0: node 0: left child 0 is not a later node"):
            load_model(path)

    def test_out_of_range_feature_rejected(self, tmp_path):
        path = self._saved_rf(tmp_path)
        self._edit(path, "feature", 0, 99)
        # This used to load and then fail in predict with a raw IndexError.
        with pytest.raises(ValueError, match="tree 0: node 0: feature 99 is not a column below 3"):
            load_model(path)

    @pytest.mark.parametrize("field, index, value, message", [
        ("right", 0, 10_000, "right child 10000 is not a later node"),
        ("threshold", 0, float("nan"), "threshold is not finite"),
        ("value", -1, float("inf"), "value is not finite"),
        ("feature", 0, -2, "feature -2 is not a column below 3"),
    ])
    def test_bad_field_rejected(self, tmp_path, field, index, value, message):
        path = self._saved_rf(tmp_path)
        self._edit(path, field, index, value)
        with pytest.raises(ValueError, match=f"tree 0: node \\d+: {message}"):
            load_model(path)

    def test_length_mismatch_rejected(self, tmp_path):
        path = self._saved_rf(tmp_path)
        payload = json.loads(path.read_text())
        payload["trees"][0]["value"].pop()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="tree 0: arrays differ in length"):
            load_model(path)

    def test_leaf_with_children_rejected(self, tmp_path):
        path = self._saved_rf(tmp_path)
        payload = json.loads(path.read_text())
        tree = payload["trees"][0]
        leaf = tree["feature"].index(-1)
        tree["left"][leaf] = len(tree["feature"]) - 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"node {leaf}: is a leaf"):
            load_model(path)

    def test_shared_child_rejected(self, tmp_path):
        path = self._saved_rf(tmp_path)
        payload = json.loads(path.read_text())
        tree = payload["trees"][0]
        tree["right"][0] = tree["left"][0]  # two edges into one node
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="has 2 parents|has 0 parents"):
            load_model(path)


@st.composite
def sound_trees(draw, n_features=3, max_nodes=31):
    """A random sound tree: nodes numbered so that children follow parents."""
    feature, threshold, left, right, value = [], [], [], [], []
    pending = [0]
    count = 1
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    while pending:
        node = pending.pop(0)
        for array in (feature, threshold, left, right, value):
            array.append(None)
        if count + 2 <= max_nodes and draw(st.booleans()):
            feature[node] = draw(st.integers(0, n_features - 1))
            threshold[node] = draw(finite)
            left[node], right[node] = count, count + 1
            pending += [count, count + 1]
            count += 2
            value[node] = 0.0
        else:
            feature[node], threshold[node], left[node], right[node] = -1, 0.0, -1, -1
            value[node] = draw(finite)
    return Tree(
        feature=np.array(feature, dtype=np.intp), threshold=np.array(threshold),
        left=np.array(left, dtype=np.intp), right=np.array(right, dtype=np.intp),
        value=np.array(value),
    )


def _model_of(trees, n_features=3):
    return TrainedModel(
        spec=ModelSpec(kind="RF", task="regression", n_trees=len(trees)),
        feature_names=tuple(f"x{i}" for i in range(n_features)),
        trees=list(trees), importance=np.full(n_features, 1.0 / n_features),
    )


class TestModelFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(trees=st.lists(sound_trees(), min_size=1, max_size=3), seed=st.integers(0, 99))
    def test_round_trip_keeps_predictions(self, tmp_path_factory, trees, seed):
        path = tmp_path_factory.mktemp("model") / "model.json"
        model = _model_of(trees)
        save_model(model, path)
        loaded = load_model(path)
        probe = np.random.default_rng(seed).normal(scale=1e6, size=(50, 3))
        assert np.array_equal(predict_scores(loaded, probe), predict_scores(model, probe))

    @settings(max_examples=80, deadline=None)
    @given(tree=sound_trees(), data=st.data())
    def test_every_single_field_defect_rejected(self, tmp_path_factory, tree, data):
        n = tree.feature.size
        node = data.draw(st.integers(0, n - 1))
        split_nodes = np.flatnonzero(tree.feature >= 0).tolist()
        kinds = ["nan_threshold", "nan_value", "feature_range", "length"]
        if split_nodes:
            kinds += ["cycle", "child_range"]
        kind = data.draw(st.sampled_from(kinds))
        arrays = {k: getattr(tree, k).tolist() for k in
                  ("feature", "threshold", "left", "right", "value")}
        if kind == "nan_threshold":
            arrays["threshold"][node] = float("nan")
        elif kind == "nan_value":
            arrays["value"][node] = data.draw(st.sampled_from([float("nan"), float("inf")]))
        elif kind == "feature_range":
            arrays["feature"][node] = data.draw(st.sampled_from([3, 50, -2]))
        elif kind == "length":
            field = data.draw(st.sampled_from(sorted(arrays)))
            arrays[field] = arrays[field][:-1] if n > 1 else arrays[field] + [0]
        else:
            parent = data.draw(st.sampled_from(split_nodes))
            side = data.draw(st.sampled_from(["left", "right"]))
            if kind == "cycle":
                arrays[side][parent] = data.draw(st.integers(0, parent))
            else:
                arrays[side][parent] = data.draw(st.sampled_from([n, n + 7, -1]))
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(_model_of([tree]), path)
        payload = json.loads(path.read_text())
        payload["trees"][0] = arrays
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="tree 0"):
            load_model(path)


# Reference: the depth-first per-node grower that the level-wise grower
# replaced, kept verbatim (its only change is the module it lives in).

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


def _same_tree(a: Tree, b: Tree) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("feature", "threshold", "left", "right", "value"))


class TestLevelWiseGrower:
    """The level-wise grower builds the reference grower's trees bit for bit."""

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("max_depth", [None, 2, 3])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_matches_depth_first_reference(self, min_leaf, max_depth, ties):
        local = np.random.default_rng([min_leaf, max_depth or 0, ties])
        for _ in range(8):
            n = int(local.integers(6, 70))
            n_features = int(local.integers(1, 7))
            if ties:
                # Equal values across distinct rows; integer labels keep every
                # sum exact, whatever order a tie block is summed in.
                X = local.integers(0, 4, size=(n, n_features)).astype(float)
                y = local.integers(-3, 4, size=n).astype(float)
            else:
                X = local.normal(size=(n, n_features))
                y = local.normal(size=n) * 10.0 ** local.integers(-3, 4)
            data = _Presorted(X)
            # Random forest: three bootstrap trees (rows repeat) grown together.
            draws = [local.integers(0, n, size=n) for _ in range(3)]
            grown = _grow_trees(data, y, [np.bincount(d, minlength=n) for d in draws],
                                [None] * 3, max_depth, min_leaf, "all", False)
            # Gradient boosting: one tree over every row once.
            grown += _grow_trees(data, y, [None], [None], max_depth, min_leaf, "all", False)
            for rows, (tree, importance, _) in zip([np.sort(d) for d in draws] + [np.arange(n)],
                                                   grown):
                acc = np.zeros(n_features)
                reference = _grow_tree(X, y, rows, max_depth, min_leaf, "all", False, None, acc)
                assert _same_tree(tree, reference)
                assert np.array_equal(importance, acc)

    @pytest.mark.parametrize("classification", [False, True])
    @pytest.mark.parametrize("max_features", ["all", "sqrt"])
    def test_batched_trees_equal_trees_grown_alone(self, max_features, classification):
        local = np.random.default_rng(8)
        X = local.normal(size=(50, 16))
        y = X[:, 0] + local.normal(size=50)
        if classification:
            y = (y > 0).astype(float)
        data = _Presorted(X)
        counts = [np.bincount(local.integers(0, 50, size=50), minlength=50) for _ in range(4)]
        together = _grow_trees(data, y, counts, [np.random.default_rng(s) for s in range(4)],
                               None, 1, max_features, classification)
        for s, c in enumerate(counts):
            [alone] = _grow_trees(data, y, [c], [np.random.default_rng(s)], None, 1,
                                  max_features, classification)
            assert _same_tree(alone[0], together[s][0])
            assert np.array_equal(alone[1], together[s][1])

    @pytest.mark.parametrize("min_leaf", [1, 2])
    def test_sqrt_candidates_drawn_per_level(self, min_leaf):
        """Per level, a tree draws one key per (node, feature) for its nodes
        in creation order; a node searches its smallest keys' features."""
        local = np.random.default_rng(30 + min_leaf)
        for _ in range(6):
            n, n_features = int(local.integers(10, 60)), int(local.integers(4, 20))
            X = local.normal(size=(n, n_features))
            y = (X[:, 0] + local.normal(size=n) > 0).astype(float)
            counts = np.bincount(local.integers(0, n, size=n), minlength=n)
            [(tree, _, _)] = _grow_trees(_Presorted(X), y, [counts], [np.random.default_rng(7)],
                                         None, min_leaf, "sqrt", True)
            reference = _reference_sqrt_tree(X, y, np.repeat(np.arange(n), counts),
                                             np.random.default_rng(7), min_leaf)
            assert _same_tree(tree, reference)


class TestBatching:
    """Batch size changes how many trees grow per pass, never the model."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_model_bytes_independent_of_batch_size(self, monkeypatch, tmp_path, task, threads):
        local = np.random.default_rng(21)
        X = local.normal(size=(40, 9))
        y = X[:, 0] + local.normal(size=40)
        if task == "classification":
            y = (y > 0).astype(float)
        spec = ModelSpec(kind="RF", task=task, n_trees=7, seed=5)
        saved = []
        for cells in (1, 1 << 30):  # one tree per pass; every tree in one pass
            monkeypatch.setattr(models, "_BATCH_CELLS", cells)
            path = tmp_path / f"{cells}.json"
            save_model(train(spec, X, y, threads=threads), path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    def test_sqrt_forest_holds_no_per_tree_copy_of_x(self):
        """A batch's working set is bounded by the budget, not by the trees
        times the width of X: 200 sqrt trees on 95 x 144 grow 114 per pass,
        and a per-tree copy of X alone would take about 12 MiB. Without it
        the peak measured 6.3 MiB."""
        local = np.random.default_rng(0)
        X = local.normal(size=(95, 144))
        y = (X[:, 0] + local.normal(size=95) > 0).astype(float)
        spec = ModelSpec(kind="RF", task="classification", n_trees=200)
        tracemalloc.start()
        try:
            train(spec, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Eight float64 arrays of the per-level cell budget.
        assert peak < 8 * 8 * models._BATCH_CELLS


@st.composite
def gbt_problems(draw):
    """A small table, with tied values when drawn from few levels."""
    n = draw(st.integers(4, 40))
    n_features = draw(st.integers(1, 6))
    levels = draw(st.sampled_from([3, 1000]))
    seed = draw(st.integers(0, 2**32 - 1))
    local = np.random.default_rng(seed)
    X = local.integers(0, levels, size=(n, n_features)) / levels
    y = X[:, 0] + local.normal(size=n)
    return X, y


class TestGbtFittedValues:
    @settings(max_examples=40, deadline=None)
    @given(problem=gbt_problems(), classification=st.booleans(),
           max_depth=st.sampled_from([1, 3, None]), min_leaf=st.integers(1, 3),
           max_features=st.sampled_from(["all", "sqrt"]))
    def test_fitted_values_equal_apply(self, problem, classification, max_depth, min_leaf,
                                       max_features):
        """Each round's fitted values are ``tree.apply(X)`` bit for bit."""
        X, y = problem
        if classification:
            y = (y > np.median(y)).astype(float)
        grown = []

        def spy(*args):
            result = _grow_trees(*args)
            grown.extend(result)
            return result

        spec = ModelSpec(kind="GBT", task="classification" if classification else "regression",
                         n_trees=4, max_depth=max_depth, min_samples_leaf=min_leaf,
                         max_features=max_features, seed=3)
        with mock.patch.object(models, "_grow_trees", spy):
            train(spec, X, y)
        assert len(grown) == spec.n_trees
        for tree, _, fitted in grown:
            assert np.array_equal(fitted.view(np.int64), tree.apply(X).view(np.int64))


def _reference_sqrt_tree(X, y, rows, rng, min_leaf):
    """Level by level with the reference ``_best_split`` on drawn candidates,
    numbered as the depth-first grower numbers its nodes."""
    n_candidates = max(1, int(math.sqrt(X.shape[1])))
    nodes, level, made = {}, [(0, rows)], 1
    while level:
        open_nodes = []
        for node, idx in level:
            nodes[node] = (-1, 0.0, None, float(y[idx].mean()))
            if idx.size >= 2 * min_leaf and not np.all(y[idx] == y[idx][0]):
                open_nodes.append((node, idx))
        keys = rng.random((len(open_nodes), X.shape[1])) if open_nodes else []
        level = []
        for (node, idx), key in zip(open_nodes, keys):
            candidates = np.sort(np.argsort(key)[:n_candidates])
            split = _best_split(X[idx][:, candidates], y[idx], min_leaf, True)
            if split is None:
                continue
            column, threshold, left_mask, _ = split
            nodes[node] = (int(candidates[column]), threshold, made, 0.0)
            level += [(made, idx[left_mask]), (made + 1, idx[~left_mask])]
            made += 2
    number, order, stack = {0: 0}, [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        child = nodes[node][2]
        if child is not None:
            number[child], number[child + 1] = len(number), len(number) + 1
            stack += [child + 1, child]
    at = sorted(order, key=number.get)
    left = [number[nodes[k][2]] if nodes[k][2] is not None else -1 for k in at]
    return Tree(
        feature=np.array([nodes[k][0] for k in at], dtype=np.intp),
        threshold=np.array([nodes[k][1] for k in at]),
        left=np.array(left, dtype=np.intp),
        right=np.array([c + 1 if c >= 0 else -1 for c in left], dtype=np.intp),
        value=np.array([nodes[k][3] for k in at]),
    )
