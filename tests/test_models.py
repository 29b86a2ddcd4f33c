import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
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
    boost_folds,
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

    @pytest.mark.parametrize("spec, reads", [
        (ModelSpec(kind="RF", task="regression", n_trees=3), True),
        (ModelSpec(kind="RF", task="classification", n_trees=3, max_features="all"), True),
        (ModelSpec(kind="GBT", task="regression", n_trees=3, max_features="sqrt"), True),
        (ModelSpec(kind="GBT", task="regression", n_trees=3), False),
        (ModelSpec(kind="GBT", task="classification", n_trees=3), False),
    ])
    def test_reads_seed_says_whether_the_seed_changes_the_model(self, spec, reads):
        local = np.random.default_rng(12)
        X = local.normal(size=(40, 9))
        y = X[:, 0] + local.normal(size=40)
        if spec.task == "classification":
            y = (y > 0).astype(float)
        a, b = (train(replace(spec, seed=seed), X, y) for seed in (1, 2))
        same = all(np.array_equal(getattr(s, k), getattr(t, k))
                   for s, t in zip(a.trees, b.trees) for k in ("feature", "threshold"))
        assert spec.reads_seed() == reads == (not same)


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

    @pytest.mark.parametrize("fit", [
        lambda X, y: train(ModelSpec(kind="RF", task="regression"), X, y),
        lambda X, y: train(ModelSpec(kind="RF", task="classification"), X, y),
        lambda X, y: train(ModelSpec(kind="GBT", task="regression"), X, y),
        lambda X, y: boost_folds(ModelSpec(kind="GBT", task="regression"), X, y,
                                 [(1, np.arange(6))]),
    ], ids=["rf_regression", "rf_classification", "gbt", "boost_folds"])
    def test_no_feature_columns_rejected(self, fit):
        with pytest.raises(ValueError, match="training requires at least one feature column"):
            fit(np.zeros((6, 0)), np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0]))

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
        assert np.array_equal(predict(model, probe), _reference_apply(model.trees[0], probe))

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
        expected = np.mean([_reference_apply(tree, probe) for tree in model.trees], axis=0)
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
            scores = scores + spec.learning_rate * _reference_apply(tree, X)
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
            scores = scores + spec.learning_rate * _reference_apply(tree, X)
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
            # One feature takes every decrease, whatever order they are summed in.
            model = train(ModelSpec(kind=kind, task="regression", n_trees=10, seed=15),
                          X[:, :1], y)
            assert model.importance.tolist() == [1.0]

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
        (lambda p: json.dumps({**p, "importance": [float("nan")] * 3}),
         "bad 'importance' (nan is not finite)"),
        (lambda p: json.dumps({**p, "importance": [None] * 3}),
         "bad 'importance' (null is not a number)"),
        (lambda p: json.dumps({**p, "importance": [-0.5, 1.0, 0.5]}),
         "bad 'importance' (-0.5 is negative)"),
        (lambda p: json.dumps({**p, "importance": [0.5, "0.25", 0.25]}),
         "bad 'importance' (\"0.25\" is not a number)"),
        (lambda p: json.dumps({**p, "base_score": "1.5"}),
         "bad 'base_score' (\"1.5\" is not a number)"),
        (lambda p: json.dumps({**p, "base_score": True}),
         "bad 'base_score' (true is not a number)"),
        (lambda p: json.dumps({**p, "base_score": 10**400}),
         "bad 'base_score' (int too large to convert to float)"),
    ], ids=["not_json", "json_array", "no_feature_names", "spec_unknown_field",
            "spec_not_object", "null_base_score", "nan_base_score", "no_trees",
            "feature_names_string", "feature_names_not_strings", "trees_object",
            "nan_importance", "null_importance", "negative_importance",
            "string_importance", "string_base_score", "boolean_base_score",
            "huge_base_score"])
    def test_malformed_file_named(self, tmp_path, edit, message):
        path = self._saved_rf(tmp_path)
        path.write_text(edit(json.loads(path.read_text())))
        # Most of these used to raise KeyError, AttributeError or TypeError;
        # the file without trees loaded, and predict failed inside np.stack.
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(path) in str(info.value) and message in str(info.value)

    @pytest.mark.parametrize("name, value, message", [
        ("kind", 1, "kind 1 is not a string"),
        ("task", None, "task null is not a string"),
        ("n_trees", 1.0, "n_trees 1.0 is not an integer"),
        ("max_depth", 2.5, "max_depth 2.5 is not an integer or null"),
        ("learning_rate", True, "learning_rate true is not a number"),
        ("max_features", 3, "max_features 3 is not a string or null"),
        ("min_samples_leaf", 1.5, "min_samples_leaf 1.5 is not an integer"),
        ("seed", "abc", 'seed "abc" is not an integer'),
    ])
    def test_ill_typed_spec_field_rejected(self, tmp_path, name, value, message):
        path = self._saved_rf(tmp_path)
        payload = json.loads(path.read_text())
        payload["spec"][name] = value
        path.write_text(json.dumps(payload))
        # Each of these used to load; with "learning_rate": true a GBT
        # predicted with a learning rate of 1.
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: bad 'spec' ({message})"

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
        # Entries of the wrong JSON type; each of these used to load, cast.
        ("feature", 0, 0.5, "feature 0.5 is not an integer"),
        ("feature", 0, True, "feature true is not an integer"),
        ("left", 0, True, "left true is not an integer"),
        ("right", 0, 2.0, "right 2.0 is not an integer"),
        ("threshold", 0, "0.5", 'threshold "0.5" is not a number'),
        ("value", -1, False, "value false is not a number"),
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
# replaced, kept as it was but for optional row weights (a bootstrap's draw
# counts); unit weights give its old arithmetic bit for bit.

def _best_split(sub: np.ndarray, ys: np.ndarray, min_leaf: int, classification: bool,
                ws: np.ndarray):
    """Vectorized search over all candidate columns and thresholds of a node.

    Returns (column, threshold, left_mask, impurity_decrease) or None when no
    valid split exists. Columns must correspond to features sorted ascending
    so that cost ties resolve to the lowest feature index, then the lowest
    threshold. The impurity decrease is the node Gini/variance minus the
    size-weighted child impurity, computed from the same split statistics.
    Counts and sums are over the rows' weights ``ws``.
    """
    m = sub.shape[0]
    # Default introsort: deterministic for identical input, and within-tie
    # permutations never affect the chosen split (tie positions are invalid).
    order = np.argsort(sub, axis=0)
    x_sorted = np.take_along_axis(sub, order, axis=0)
    y_sorted = ys[order]
    w_sorted = ws[order]

    count = float(ws.sum())
    left_cnt = np.cumsum(w_sorted, axis=0)[:-1]
    right_cnt = count - left_cnt
    left_sum = np.cumsum(y_sorted * w_sorted, axis=0)[:-1]
    total = float((ws * ys).sum())
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
        valid &= (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
    if not valid.any():
        return None
    cost[~valid] = np.inf

    flat = np.argmin(cost.T)  # feature-major scan fixes the tie order
    column, split_pos = divmod(int(flat), m - 1)
    best = float(cost[split_pos, column])
    if not np.isfinite(best):
        return None

    if classification:
        node_imp = 2.0 * total * (count - total) / (count * count)
        child_imp = 2.0 * best / count
        decrease = max(0.0, node_imp - child_imp)
    else:
        # Node variance sum(w*y^2)/count - mean^2 less the children's
        # (sum(w*y^2) - bracket)/count: the sum of squares cancels.
        mean = total / count
        decrease = max(0.0, -best / count - mean * mean)  # best is the negated bracket

    lo = float(x_sorted[split_pos, column])
    hi = float(x_sorted[split_pos + 1, column])
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint rounded up; keep the intended partition
        threshold = lo
    left_mask = sub[:, column] <= threshold
    return column, threshold, left_mask, decrease


def _leaf_value(y: np.ndarray, w: np.ndarray) -> float:
    return float((w * y).sum() / w.sum())


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
    weights: np.ndarray | None = None,
) -> Tree:
    """Grow on ``X[root_idx]``, each row weighted by ``weights[row]`` (default 1)."""
    w = np.ones(X.shape[0]) if weights is None else weights.astype(float)
    n_features = X.shape[1]
    if max_features == "sqrt":
        n_candidates = max(1, int(math.sqrt(n_features)))
    else:
        n_candidates = n_features
    all_features = np.arange(n_features)
    n_root = float(w[root_idx].sum())

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
        ys, ws = y[idx], w[idx]
        if (
            (max_depth is not None and depth >= max_depth)
            or ws.sum() < 2 * min_leaf
            or np.all(ys == ys[0])
        ):
            value[node] = _leaf_value(ys, ws)
            continue
        if n_candidates < n_features:
            candidates = np.sort(rng.choice(all_features, size=n_candidates, replace=False))
            sub = X.take(idx, axis=0).take(candidates, axis=1)
        else:
            candidates = all_features
            sub = X.take(idx, axis=0)
        split = _best_split(sub, ys, min_leaf, classification, ws)
        if split is None:
            value[node] = _leaf_value(ys, ws)
            continue
        column, thr, left_mask, decrease = split
        importance_acc[candidates[column]] += ws.sum() / n_root * decrease

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


def _grow(data, *args):
    """One ``_grow_trees`` call's trees, numbered, as ``(tree, importance,
    fitted)`` per tree (``fitted`` ``None`` for a bootstrap tree)."""
    nodes, fitted = _grow_trees(data, *args)
    trees, importance = models._number([nodes], data.n_features)
    return list(zip(trees, importance, [None] * nodes.trees if fitted is None else fitted))


# Reference: the per-tree numbering that ``models._number`` replaced, kept as
# it was.

def _renumber(root, feature, threshold, left, left_of, value, gain, number, n_features):
    """One tree's arrays, numbered as a depth-first grower popping left first.

    That grower numbers a split node's children (``left``, ``left + 1`` in
    creation order) when it pops the node, so the numbers follow the split
    nodes' pre-order; importance is summed in that order too, which fixes
    its rounding. ``left_of`` is ``left`` as a list, shared by every tree
    of the call, and ``number`` is scratch space over all node ids.
    """
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        child = left_of[node]
        if child >= 0:
            order.append(node)
            stack.append(child + 1)
            stack.append(child)
    split_nodes = np.array(order, dtype=np.intp)
    pairs = 2 * np.arange(split_nodes.size)
    at = np.empty(2 * split_nodes.size + 1, dtype=np.intp)
    at[0] = root
    at[1::2] = left[split_nodes]
    at[2::2] = left[split_nodes] + 1
    number[at] = np.arange(at.size)
    new_left = np.full(at.size, -1, dtype=np.intp)
    new_left[number[split_nodes]] = pairs + 1
    importance = np.zeros(n_features)
    np.add.at(importance, feature[split_nodes], gain[split_nodes])
    tree = Tree(
        feature=feature[at],
        threshold=threshold[at],
        left=new_left,
        right=np.where(new_left >= 0, new_left + 1, -1),
        value=value[at],
    )
    return tree, importance


def _captured_calls(run):
    """The grower calls that ``run()`` hands ``models._number``, which it
    must call once."""
    captured = []
    number = models._number

    def spy(grown, n_features):
        captured.append(list(grown))
        return number(grown, n_features)

    with mock.patch.object(models, "_number", spy):
        run()
    [grown] = captured
    return grown


def _renumbered(grown, n_features):
    """Every tree of a fit's grower calls, numbered one tree at a time by the
    reference, and each tree's importance."""
    results = []
    for call in grown:
        number = np.empty(call.left.size, dtype=np.intp)
        left_of = call.left.tolist()
        results += [
            _renumber(root, call.feature, call.threshold, call.left, left_of, call.value,
                      call.gain, number, n_features)
            for root in range(call.trees)
        ]
    return results


# Regression label scales, up to where label sums overflow to inf.
_LABEL_SCALES = 10.0 ** np.array([-3, -2, -1, 0, 1, 2, 3, 150, 300, 307])


class TestLevelWiseGrower:
    """The level-wise grower builds the reference grower's trees bit for bit."""

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("max_depth", [None, 2, 3])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_matches_depth_first_reference(self, min_leaf, max_depth, ties):
        """Float labels: a bootstrap tree is the reference grown on the drawn
        rows, weighted by their counts. Integer labels keep every sum exact,
        so it is also the reference grown on the rows repeated. A subset tree
        is the reference grown on its mask's rows. Regression labels range
        up to 1e307, where label sums overflow to inf and the grower must
        still stop where the reference stops; classification labels are 0/1."""
        for classification in (False, True):
            local = np.random.default_rng([min_leaf, max_depth or 0, ties, classification])
            subsets = np.random.default_rng([min_leaf, max_depth or 0, ties, classification, 1])
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(8):
                    self._check_problem(local, subsets, min_leaf, max_depth, ties,
                                        classification)

    @staticmethod
    def _check_problem(local, subsets, min_leaf, max_depth, ties, classification):
        def labels_of(local, size):
            if ties:
                # Integer labels keep every sum exact, whatever order a tie
                # block is summed in.
                y = local.integers(-3, 4, size=size).astype(float)
            else:
                y = local.normal(size=size) * local.choice(_LABEL_SCALES)
            return (y > 0).astype(float) if classification else y

        n = int(local.integers(6, 70))
        n_features = int(local.integers(1, 7))
        if ties:
            # Equal values across distinct rows.
            X = local.integers(0, 4, size=(n, n_features)).astype(float)
        else:
            X = local.normal(size=(n, n_features))
        y = labels_of(local, n)
        data = _Presorted(X)
        # Random forest: three bootstrap trees grown together.
        counts = [np.bincount(local.integers(0, n, size=n), minlength=n) for _ in range(3)]
        grown = _grow(data, y, counts, [None] * 3, max_depth, min_leaf, "all", classification)
        if ties:
            samples = [(np.repeat(np.arange(n), c), None) for c in counts]
        else:
            samples = [(np.flatnonzero(c), c) for c in counts]
        labels = [y] * 4
        # Gradient boosting, one fit: a subset tree over an all-true mask.
        grown += _grow(data, y, [np.ones(n, dtype=bool)], [None], max_depth, min_leaf,
                       "all", classification)
        samples.append((np.arange(n), None))
        # Boosted folds: three subset trees that leave rows out, grown
        # together, each reading its own row of labels.
        masks = []
        for _ in range(3):
            mask = subsets.random(n) < 0.7
            kept_a, kept_b, left_out = subsets.choice(n, 3, replace=False)
            mask[[kept_a, kept_b]] = True
            mask[left_out] = False
            masks.append(mask)
        Y = np.stack([labels_of(subsets, n) for _ in range(3)])
        grown += _grow(data, Y, masks, [None] * 3, max_depth, min_leaf, "all", classification)
        labels += list(Y)
        samples += [(np.flatnonzero(mask), None) for mask in masks]
        for label, (rows, weights), (tree, importance, _) in zip(labels, samples, grown):
            acc = np.zeros(n_features)
            reference = _grow_tree(X, label, rows, max_depth, min_leaf, "all", classification,
                                   None, acc, weights)
            assert _same_tree(tree, reference)
            assert np.array_equal(importance, acc)

    @pytest.mark.parametrize("classification", [False, True])
    @pytest.mark.parametrize("max_features", ["all", "sqrt"])
    def test_batched_trees_equal_trees_grown_alone(self, max_features, classification):
        """Bootstrap trees reading one label row."""
        self._check_batched(max_features, classification, "bootstrap")

    @pytest.mark.parametrize("labels", ["shared_row", "row_per_tree"])
    @pytest.mark.parametrize("classification", [False, True])
    @pytest.mark.parametrize("max_features", ["all", "sqrt"])
    def test_batched_subset_trees_equal_trees_grown_alone(self, max_features, classification,
                                                          labels):
        """Subset trees reading one shared label row, which the grower tiles
        per tree, or a ``(trees, rows)`` label array."""
        self._check_batched(max_features, classification, labels)

    @staticmethod
    def _check_batched(max_features, classification, selection):
        local = np.random.default_rng(8)
        X = local.normal(size=(50, 16))
        y = X[:, 0] + local.normal(size=50)
        if classification:
            y = (y > 0).astype(float)
        data = _Presorted(X)
        if selection == "bootstrap":
            counts = [np.bincount(local.integers(0, 50, size=50), minlength=50)
                      for _ in range(4)]
        else:
            counts = [local.random(50) < 0.7 for _ in range(4)]
        labels = y
        if selection == "row_per_tree":
            labels = np.stack([local.permutation(y) for _ in range(4)])
        together = _grow(data, labels, counts, [np.random.default_rng(s) for s in range(4)],
                         None, 1, max_features, classification)
        for s, c in enumerate(counts):
            [alone] = _grow(data, labels if labels.ndim == 1 else labels[s], [c],
                            [np.random.default_rng(s)], None, 1, max_features, classification)
            assert _same_tree(alone[0], together[s][0])
            assert np.array_equal(alone[1], together[s][1])
            if selection != "bootstrap":
                assert np.array_equal(alone[2], together[s][2])

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
            [(tree, _, _)] = _grow(_Presorted(X), y, [counts], [np.random.default_rng(7)],
                                   None, min_leaf, "sqrt", True)
            reference = _reference_sqrt_tree(X, y, np.repeat(np.arange(n), counts),
                                             np.random.default_rng(7), min_leaf)
            assert _same_tree(tree, reference)


@st.composite
def bootstrap_problems(draw):
    """A small table with integer labels and one bootstrap's draw counts."""
    n = draw(st.integers(4, 40))
    n_features = draw(st.integers(1, 9))
    levels = draw(st.sampled_from([3, 1000]))
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = local.integers(0, levels, size=(n, n_features)) / levels
    y = local.integers(-3, 4, size=n).astype(float)
    return X, y, np.bincount(local.integers(0, n, size=n), minlength=n)


class TestWeightedBootstrap:
    @settings(max_examples=60, deadline=None)
    @given(problem=bootstrap_problems(), classification=st.booleans(),
           max_features=st.sampled_from(["all", "sqrt"]), min_leaf=st.integers(1, 4))
    def test_weighted_tree_equals_tree_on_repeated_rows(self, problem, classification,
                                                        max_features, min_leaf):
        """With integer labels every weighted sum is exact, so a tree over the
        drawn rows weighted by their counts is the tree over the rows repeated."""
        X, y, counts = problem
        if classification:
            y = (y > 0).astype(float)
        [(tree, importance, _)] = _grow(
            _Presorted(X), y, [counts], [np.random.default_rng(7)], None, min_leaf,
            max_features, classification,
        )
        repeated = np.repeat(np.arange(X.shape[0]), counts)
        if max_features == "sqrt":
            reference = _reference_sqrt_tree(X, y, repeated, np.random.default_rng(7), min_leaf,
                                             classification)
        else:
            acc = np.zeros(X.shape[1])
            reference = _grow_tree(X, y, repeated, None, min_leaf, "all", classification, None,
                                   acc)
            assert np.array_equal(importance, acc)
        assert _same_tree(tree, reference)


def _exact_impurity(y, w, classification):
    """Weighted Gini (2p(1-p)) or variance of integer labels, as a Fraction."""
    weight = sum(w)
    mean = Fraction(sum(wi * yi for wi, yi in zip(w, y)), weight)
    if classification:
        return 2 * mean * (1 - mean)
    return Fraction(sum(wi * yi * yi for wi, yi in zip(w, y)), weight) - mean * mean


class TestImpurityDecrease:
    @settings(max_examples=60, deadline=None)
    @given(problem=bootstrap_problems(), classification=st.booleans(), weighted=st.booleans())
    def test_each_gain_matches_exact_arithmetic(self, problem, classification, weighted):
        """Each split's gain, w/n times the node's impurity less its children's
        size-weighted impurity, is within a few ulps of the exact value: of
        the node's second moment for regression, whose closed form subtracts
        terms of that size, or of w/n for Gini. A bootstrap tree weights rows
        by their counts; a subset tree on the drawn rows counts each once."""
        X, y, counts = problem
        if classification:
            y = (y > 0).astype(float)
        selection = counts if weighted else counts > 0
        [grown] = _captured_calls(
            lambda: _grow(_Presorted(X), y, [selection], [None], None, 1, "all",
                          classification))
        feature, threshold, left, gain = grown.feature, grown.threshold, grown.left, grown.gain
        w = selection.astype(int).tolist()
        labels = y.astype(int).tolist()
        n_sample = X.shape[0] if weighted else int(selection.sum())
        stack = [(0, np.flatnonzero(selection))]
        while stack:
            node, rows = stack.pop()
            if left[node] < 0:
                continue
            go_left = X[rows, feature[node]] <= threshold[node]
            sides = [rows[go_left], rows[~go_left]]
            node_w = sum(w[r] for r in rows)
            children = sum(
                Fraction(sum(w[r] for r in side), node_w)
                * _exact_impurity([labels[r] for r in side], [w[r] for r in side],
                                  classification)
                for side in sides
            )
            node_imp = _exact_impurity([labels[r] for r in rows], [w[r] for r in rows],
                                       classification)
            exact = Fraction(node_w, n_sample) * (node_imp - children)
            moment = Fraction(sum(w[r] * labels[r] ** 2 for r in rows), node_w)
            scale = Fraction(node_w, n_sample) * (1 if classification else max(1, moment))
            assert abs(Fraction(gain[node]) - exact) <= 8 * Fraction(2) ** -52 * scale
            stack += [(left[node], sides[0]), (left[node] + 1, sides[1])]


@st.composite
def segments(draw):
    """One level's segment sizes, from under 8 to either side of 8192 values
    (a forest's root level at a few thousand rows), and their values:
    magnitudes over 24 decades, and signed zeros."""
    n_nodes = draw(st.sampled_from([1, 5, 31, 32, 80]))
    ranges = draw(st.lists(st.sampled_from([(1, 8), (8, 129), (129, 300), (8_190, 8_201)]),
                           min_size=1, max_size=3, unique=True))
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = np.array([local.integers(*ranges[k]) for k in local.integers(len(ranges),
                                                                         size=n_nodes)])
    size = int(sizes.sum())
    values = local.normal(size=size) * (10.0 ** np.arange(-12, 13))[local.integers(25, size=size)]
    zeros = local.random(size)
    values[zeros < 0.1] = -0.0
    values[zeros > 0.95] = 0.0
    if draw(st.booleans()):
        values[: sizes[0]] = -0.0
    return values, sizes


class TestSegmentSums:
    @settings(max_examples=100, deadline=None)
    @given(problem=segments())
    def test_equals_add_reduce_of_each_segment(self, problem):
        """Bit for bit, which also flags a numpy that sums another way."""
        values, sizes = problem
        starts = sizes.cumsum() - sizes
        want = [np.add.reduce(values[s : s + m]) for s, m in zip(starts, sizes)]
        assert np.array_equal(_bits(models._segment_sums(values, starts)), _bits(want))


# Reference: the split search that NaN-marked slots replaced, kept as it was.
# It weighs the labels itself and writes -inf or inf over every invalid slot.

def _reference_best_splits(ys, ws, sizes, weights, totals, ties, min_leaf, classification,
                           right_sum):
    width, n_nodes, n_columns = ys.shape
    rows_up_to = np.arange(1.0, width + 1.0)[:, None, None]  # rows in slots 0..k
    if ws is None:
        left_cnt = rows_up_to
    else:
        ys *= ws
        left_cnt = models._slot_cumsum(ws, sizes)
    right_cnt = weights[:, None] - left_cnt
    cost = models._slot_cumsum(ys, sizes)  # the left sums, then the cost in place
    right_sum = np.subtract(totals[:, None], cost, out=right_sum)
    if classification:
        # Sum of per-side pos*(cnt-pos)/cnt; weighted child Gini is 2*cost/m.
        part = right_cnt - right_sum
        right_sum *= part
        right_sum /= right_cnt
        np.subtract(left_cnt, cost, out=part)
        cost *= part
        del part
        cost /= left_cnt
        cost += right_sum
    else:
        cost *= cost
        cost /= left_cnt
        right_sum *= right_sum
        right_sum /= right_cnt
        cost += right_sum
    del right_sum
    invalid = rows_up_to >= sizes[:, None]  # the last row or padding: none right of it
    if min_leaf > 1:
        invalid = invalid | (left_cnt < min_leaf) | (right_cnt < min_leaf)
    if ties is not None:
        invalid = invalid | ties
    np.copyto(cost, np.inf if classification else -np.inf, where=invalid)
    del invalid
    # Feature-major order: ties go to the lowest feature, then the lowest
    # threshold.
    nodes = np.arange(n_nodes)
    if classification:
        per_column = cost.min(axis=0)
        column = per_column.argmin(axis=1)
        slot = cost[:, nodes, column].argmin(axis=0)
    else:
        per_column = cost.max(axis=0)
        column = per_column.argmax(axis=1)
        slot = cost[:, nodes, column].argmax(axis=0)
    return per_column[nodes, column], column, slot


@st.composite
def padded_levels(draw):
    """One level's split-search input as the grower builds it: nodes of
    decreasing size, each column a random order of its node's rows, padded
    to the widest node by repeating the node's last row. Rows carry unit
    weights (``ws`` ``None``) or draw counts; ties are none, random slots,
    a column that ties everywhere or a node that ties everywhere."""
    n_nodes, n_columns = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    sizes = np.array(sorted(draw(st.lists(st.integers(2, 12), min_size=n_nodes,
                                          max_size=n_nodes)), reverse=True))
    classification, weighted = draw(st.booleans()), draw(st.booleans())
    scale = draw(st.sampled_from(_LABEL_SCALES.tolist()))
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = int(sizes[0])
    ys, ws = np.empty((2, width, n_nodes, n_columns))
    weights, totals = np.empty(n_nodes), np.empty(n_nodes)
    for j, m in enumerate(sizes.tolist()):
        if classification:
            y = (local.random(m) < 0.5).astype(float)
        else:
            y = local.normal(size=m) * scale
        w = local.integers(1, 5, size=m).astype(float) if weighted else np.ones(m)
        with np.errstate(over="ignore"):  # large labels: the sum may overflow
            weights[j], totals[j] = w.sum(), np.add.reduce(w * y)
        for c in range(n_columns):
            rows = local.permutation(m)[np.minimum(np.arange(width), m - 1)]
            ys[:, j, c], ws[:, j, c] = y[rows], w[rows]
    ties = None
    kind = draw(st.sampled_from(["none", "random", "column", "node"]))
    if kind != "none":
        ties = local.random(ys.shape) < draw(st.sampled_from([0.1, 0.5, 0.9]))
        if kind == "column":
            ties[:, :, int(local.integers(n_columns))] = True
        elif kind == "node":
            ties[:, int(local.integers(n_nodes)), :] = True
    if not weighted:
        ws, weights = None, sizes
    return ys, ws, sizes, weights, totals, ties, draw(st.integers(1, 3)), classification


class TestBestSplits:
    @settings(max_examples=300, deadline=None)
    @given(level=padded_levels())
    def test_equals_reference(self, level):
        """NaN-marked invalid slots choose what -inf or inf marks chose: the
        same column, slot and cost wherever the best split is finite. A node
        without one gets a non-finite cost either way and becomes a leaf.
        Its column and slot may then differ: where label sums overflow, the
        reference's max or min returns a NaN cost, and the search now skips
        NaN. Its slot still has a slot after it, which the threshold reads."""
        ys, ws, sizes, weights, totals, ties, min_leaf, classification = level
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want_best, want_column, want_slot = _reference_best_splits(
                ys.copy(), None if ws is None else ws.copy(), sizes, weights, totals, ties,
                min_leaf, classification, None,
            )
            best, column, slot = models._best_splits(
                ys if ws is None else ys * ws, None if ws is None else ws.copy(), sizes, weights,
                totals, ties, min_leaf, classification, None,
            )
        finite = np.isfinite(want_best)
        assert np.array_equal(np.isfinite(best), finite)
        assert np.array_equal(_bits(best[finite]), _bits(want_best[finite]))
        assert np.array_equal(column[finite], want_column[finite])
        assert np.array_equal(slot[finite], want_slot[finite])
        assert (slot < ys.shape[0] - 1).all()


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

    def test_all_feature_forest_holds_no_right_count_array(self):
        """A weighted split search writes the right counts over the left
        counts' buffer, and the block partition writes its two halves
        straight into the child block. A 30-tree all-feature forest on
        160 x 90 grows 9 trees per pass; ``train`` peaked at 4.93 MiB with
        a right-count array of its own and the halves concatenated, and at
        4.31 MiB without them."""
        local = np.random.default_rng(0)
        X = local.normal(size=(160, 90))
        y = X[:, 0] + local.normal(size=160)
        spec = ModelSpec(kind="RF", task="regression", n_trees=30, max_features="all")
        tracemalloc.start()
        try:
            train(spec, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.6 * 2**20


class TestForestNumbering:
    """A fit numbers all of its trees in one pass, bit for bit as the
    reference numbers them one tree at a time."""

    @pytest.mark.parametrize("cells", [1, 1 << 30])  # one tree per pass; every tree in one pass
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("max_features", ["all", "sqrt"])
    def test_forest_batches(self, monkeypatch, max_features, task, cells):
        monkeypatch.setattr(models, "_BATCH_CELLS", cells)
        local = np.random.default_rng(41)
        X = local.normal(size=(45, 9))
        y = X[:, 0] + local.normal(size=45)
        if task == "classification":
            y = (y > 0).astype(float)
        spec = ModelSpec(kind="RF", task=task, n_trees=7, max_features=max_features, seed=2)
        model = None

        def fit():
            nonlocal model
            model = train(spec, X, y)

        grown = _captured_calls(fit)
        assert len(grown) == (spec.n_trees if cells == 1 else 1)
        reference = _renumbered(grown, X.shape[1])
        self._check(grown, X.shape[1], reference)
        raw = sum((acc for _, acc in reference), np.zeros(X.shape[1])) / spec.n_trees
        assert all(_same_tree(a, b) for a, (b, _) in zip(model.trees, reference, strict=True))
        assert np.array_equal(_bits(model.importance), _bits(raw / raw.sum()))

    @pytest.mark.parametrize("cells", [1, 1 << 30])  # one fold per pass; every fold in one pass
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_boosted_fold_groups(self, monkeypatch, task, cells):
        monkeypatch.setattr(models, "_BATCH_CELLS", cells)
        local = np.random.default_rng(43)
        X = local.normal(size=(40, 6))
        y = X[:, 0] + local.normal(size=40)
        if task == "classification":
            y = (y > 0).astype(float)
        spec = ModelSpec(kind="GBT", task=task, n_trees=6, max_depth=3)
        folds = [(seed, np.flatnonzero(np.arange(40) % 3 != seed)) for seed in range(3)]
        models_ = None

        def fit():
            nonlocal models_
            models_ = boost_folds(spec, X, y, folds)

        grown = _captured_calls(fit)
        assert len(grown) == spec.n_trees * (3 if cells == 1 else 1)
        reference = _renumbered(grown, X.shape[1])
        self._check(grown, X.shape[1], reference)
        for i, model in enumerate(models_):
            # Fold i's tree of round t is the fit's tree t * folds + i.
            mine = reference[i::3]
            assert all(_same_tree(a, b) for a, (b, _) in zip(model.trees, mine, strict=True))
            raw = np.zeros(X.shape[1])
            for _, acc in mine:
                raw += acc
            raw /= spec.n_trees
            assert np.array_equal(_bits(model.importance), _bits(raw / raw.sum()))

    def test_numbering_holds_the_nodes_about_twice(self, monkeypatch):
        """Numbering lets each grower call's nodes and each work array go
        once spent. On 10 deep trees, one per pass, ``train`` peaked at 2.3
        times the model's node bytes; holding every work array to the end
        peaked at 4.9 times."""
        monkeypatch.setattr(models, "_BATCH_CELLS", 1)
        local = np.random.default_rng(47)
        X = local.normal(size=(1000, 5))
        y = X[:, 0] + local.normal(size=1000)
        spec = ModelSpec(kind="RF", task="regression", n_trees=10, seed=1)
        tracemalloc.start()
        try:
            model = train(spec, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(getattr(tree, name).nbytes for tree in model.trees for name in models._NODE_ARRAYS)
        assert peak < 3 * held

    @staticmethod
    def _check(grown, n_features, reference):
        trees, importance = models._number(grown, n_features)
        assert len(trees) == len(reference) == importance.shape[0]
        for tree, acc, (want, want_acc) in zip(trees, importance, reference):
            assert _same_tree(tree, want)
            assert np.array_equal(_bits(tree.threshold), _bits(want.threshold))
            assert np.array_equal(_bits(tree.value), _bits(want.value))
            assert np.array_equal(_bits(acc), _bits(want_acc))


def _reference_apply(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The per-tree walk that the forest walk replaced, kept as it was."""
    node = np.zeros(X.shape[0], dtype=np.intp)
    while True:
        feat = tree.feature[node]
        active = np.nonzero(feat >= 0)[0]
        if active.size == 0:
            return tree.value[node]
        current = node[active]
        go_left = X[active, feat[active]] <= tree.threshold[current]
        node[active] = np.where(go_left, tree.left[current], tree.right[current])


def _tree_order_sum(outputs):
    """The trees' outputs added one after another, as a loop adds them."""
    total = outputs[0]
    for out in outputs[1:]:
        total = total + out
    return total


class TestForestWalk:
    @settings(max_examples=80, deadline=None)
    @given(trees=st.lists(st.one_of(sound_trees(), sound_trees(max_nodes=1)),
                          min_size=1, max_size=5),
           kind=st.sampled_from(["RF", "GBT"]), task=st.sampled_from(["regression",
                                                                      "classification"]),
           n_rows=st.sampled_from([0, 1, 2, 3, 9, 40]), cells=st.sampled_from([1, 7, 1 << 17]),
           seed=st.integers(0, 99))
    def test_walk_equals_per_tree_reference(self, trees, kind, task, n_rows, cells, seed):
        """Bit for bit: each tree alone, and the ensemble output as the
        trees' outputs added in tree order, in blocks of any size."""
        local = np.random.default_rng(seed)
        X = local.normal(scale=1e6, size=(n_rows, 3))
        X[local.random(X.shape) < 0.2] = 0.0
        model = _model_of(trees)
        model.spec = ModelSpec(kind=kind, task=task, n_trees=len(trees), learning_rate=0.3)
        model.base_score = float(local.normal())
        outputs = np.stack([_reference_apply(tree, X) for tree in trees])
        if kind == "RF":
            votes = (outputs > 0.5).astype(float) if task == "classification" else outputs
            want = _tree_order_sum(votes) / len(trees)
        else:
            want = np.full(n_rows, model.base_score)
            for out in outputs:
                want = want + model.spec.learning_rate * out
        with mock.patch.object(models, "_BATCH_CELLS", cells):
            assert np.array_equal(_bits(predict_scores(model, X)), _bits(want))
            for tree, out in zip(trees, outputs):
                alone = _model_of([tree])  # one-tree regression forest: the tree's walk
                assert np.array_equal(_bits(predict_scores(alone, X)), _bits(out))

    def test_trained_forest(self):
        """Deep trees of a trained forest, one row and many, against the
        reference: the trees' outputs added in tree order."""
        local = np.random.default_rng(44)
        X = local.normal(size=(70, 4))
        y = X[:, 0] + local.normal(size=70)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=30, seed=3), X, y)
        for n_rows in (1, 2, 3, 50):
            probe = local.normal(size=(n_rows, 4))
            outputs = [_reference_apply(tree, probe) for tree in model.trees]
            want = _tree_order_sum(outputs) / len(model.trees)
            for cells in (1, 31, 1 << 17):
                with mock.patch.object(models, "_BATCH_CELLS", cells):
                    assert np.array_equal(_bits(predict_scores(model, probe)), _bits(want))

    @pytest.mark.parametrize("kind, task, n_trees", [
        ("RF", "regression", 9), ("RF", "regression", 50), ("RF", "classification", 50),
        ("GBT", "regression", 20), ("GBT", "classification", 20),
    ])
    def test_row_alone_equals_row_in_batch(self, kind, task, n_trees):
        """A row predicted alone has the bits of its row of a batch, in blocks
        of any size. With 8 trees or more numpy sums a one-row column
        pairwise, which a batch of rows does not."""
        local = np.random.default_rng(46)
        X = local.normal(size=(60, 4))
        y = X[:, 0] + local.normal(size=60)
        if task == "classification":
            y = (y > 0).astype(float)
        model = train(ModelSpec(kind=kind, task=task, n_trees=n_trees, seed=2), X, y)
        probe = local.normal(size=(40, 4))
        for cells in (n_trees * 7, 1 << 17):
            with mock.patch.object(models, "_BATCH_CELLS", cells):
                batch = predict_scores(model, probe)
                alone = [predict_scores(model, probe[i : i + 1])[0] for i in range(40)]
            assert np.array_equal(_bits(alone), _bits(batch))

    def test_predict_holds_one_block_of_pairs(self):
        """200 trees on 20,000 rows: the walk holds (tree, row) arrays for one
        block of rows at a time, never one array of all 4,000,000 outputs (the
        per-tree walk held two, a 64 MB peak). Measured: 9.0 MB."""
        local = np.random.default_rng(45)
        X = local.normal(size=(60, 4))
        y = X[:, 0] + local.normal(size=60)
        model = train(ModelSpec(kind="RF", task="regression", n_trees=200, seed=1), X, y)
        probe = local.normal(size=(20_000, 4))
        tracemalloc.start()
        try:
            predict_scores(model, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(model.trees) * probe.shape[0] / 2


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
        """Each round's fitted values are the tree's walk of ``X`` bit for bit."""
        X, y = problem
        if classification:
            y = (y > np.median(y)).astype(float)
        spec = ModelSpec(kind="GBT", task="classification" if classification else "regression",
                         n_trees=4, max_depth=max_depth, min_samples_leaf=min_leaf,
                         max_features=max_features, seed=3)
        fitted = []

        def spy(*args):
            nodes, values = grow(*args)
            fitted.append(values)
            return nodes, values

        grow = models._grow_trees
        with mock.patch.object(models, "_grow_trees", spy):
            model = train(spec, X, y)
        assert len(fitted) == len(model.trees) == spec.n_trees
        for values, tree in zip(fitted, model.trees):
            assert np.array_equal(_bits(values[0]), _bits(_reference_apply(tree, X)))


@st.composite
def subset_problems(draw):
    """A small table, one to four row masks of at least two rows, and one
    row of labels per mask."""
    n = draw(st.integers(6, 40))
    n_features = draw(st.integers(1, 6))
    levels = draw(st.sampled_from([3, 1000]))
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = local.integers(0, levels, size=(n, n_features)) / levels
    masks = []
    for _ in range(draw(st.integers(1, 4))):
        mask = local.random(n) < draw(st.sampled_from([0.3, 0.7, 1.0]))
        mask[local.choice(n, 2, replace=False)] = True
        masks.append(mask)
    Y = X[:, 0] + local.normal(size=(len(masks), n))
    return X, Y, masks


def _bits(values):
    return np.asarray(values).view(np.int64)


class TestSubsetTrees:
    @settings(max_examples=50, deadline=None)
    @given(problem=subset_problems(), max_depth=st.sampled_from([1, 3, None]),
           min_leaf=st.integers(1, 3), max_features=st.sampled_from(["all", "sqrt"]))
    def test_subset_tree_is_the_tree_on_its_rows(self, problem, max_depth, min_leaf,
                                                 max_features):
        """Trees on row masks grown together, each reading its own labels,
        equal the trees grown alone on each mask's rows, bit for bit; each
        fitted value is the row's leaf value, 0 outside the mask."""
        X, Y, masks = problem
        grown = _grow(_Presorted(X), Y, masks,
                      [np.random.default_rng(t) for t in range(len(masks))],
                      max_depth, min_leaf, max_features, False)
        for t, (mask, (tree, importance, fitted)) in enumerate(zip(masks, grown)):
            [(alone, alone_importance, alone_fitted)] = _grow(
                _Presorted(X[mask]), Y[t, mask], [np.ones(int(mask.sum()), dtype=bool)],
                [np.random.default_rng(t)],
                max_depth, min_leaf, max_features, False,
            )
            for name in ("feature", "left", "right"):
                assert np.array_equal(getattr(tree, name), getattr(alone, name))
            for name in ("threshold", "value"):
                assert np.array_equal(_bits(getattr(tree, name)), _bits(getattr(alone, name)))
            assert np.array_equal(_bits(importance), _bits(alone_importance))
            assert np.array_equal(_bits(fitted[mask]), _bits(alone_fitted))
            assert not fitted[~mask].any()


class TestBoostFoldsInput:
    X = rng.normal(size=(12, 3))
    y = X[:, 0]
    SPEC = ModelSpec(kind="GBT", task="regression", n_trees=3)

    @pytest.mark.parametrize("spec, folds, message", [
        (ModelSpec(kind="RF", task="regression"), [(1, np.arange(12))],
         "boost_folds fits gradient boosting, not 'RF'"),
        (SPEC, [], "no folds to fit"),
        (SPEC, [(1, np.arange(12)), (2, np.array([4]))], "at least 2 rows"),
        (SPEC, [(1, np.array([3, 1, 5]))], "strictly increasing row ids below 12"),
        (SPEC, [(1, np.array([2, 2, 5]))], "strictly increasing row ids below 12"),
        (SPEC, [(1, np.array([0, 12]))], "strictly increasing row ids below 12"),
        (SPEC, [(1, np.array([0.0, 1.0]))], "1-D integer array"),
    ], ids=["rf", "no_folds", "one_row", "unsorted", "repeated", "out_of_range", "float_ids"])
    def test_bad_folds_rejected(self, spec, folds, message):
        with pytest.raises(ValueError, match=message):
            boost_folds(spec, self.X, self.y, folds)

    def test_inputs_checked_as_train_checks_them(self):
        X = self.X.copy()
        X[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite features at row 5, column 1"):
            boost_folds(self.SPEC, X, self.y, [(1, np.arange(12))])


def _reference_sqrt_tree(X, y, rows, rng, min_leaf, classification=True):
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
            split = _best_split(X[idx][:, candidates], y[idx], min_leaf, classification,
                                np.ones(idx.size))
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


class TestLabelMagnitude:
    """Regression labels whose split sums could square to inf are refused."""

    X = np.random.default_rng(41).normal(size=(100, 5))
    y = X[:, 0] * 3.0 + np.random.default_rng(42).normal(size=100)
    FOLDS = [(1, np.arange(0, 100, 2)), (2, np.arange(1, 100, 2))]

    @pytest.mark.parametrize("kind", ["RF", "GBT"])
    def test_huge_labels_rejected(self, kind):
        """Labels scaled by 1e160 grew single-leaf trees, with no error."""
        spec = ModelSpec(kind=kind, task="regression", n_trees=3, seed=1)
        with pytest.raises(ValueError, match="regression labels too large"):
            train(spec, self.X, self.y * 1e160)
        if kind == "GBT":
            with pytest.raises(ValueError, match="regression labels too large"):
                boost_folds(spec, self.X, self.y * 1e160, self.FOLDS)

    @pytest.mark.parametrize("kind", ["RF", "GBT"])
    def test_limit_is_two_to_the_512(self, kind):
        """``max|y| * 2 * rows`` at 2^512 is refused; one float below it
        fits trees that split, with no overflow anywhere."""
        spec = ModelSpec(kind=kind, task="regression", n_trees=3, seed=1)
        at_limit = self.y / np.abs(self.y).max() * (2.0 ** 512 / (2 * self.y.size))
        with pytest.raises(ValueError, match="reaches 2\\^512"):
            train(spec, self.X, at_limit)
        below = at_limit / np.abs(at_limit).max() * np.nextafter(np.abs(at_limit).max(), 0)
        assert np.abs(below).max() * 2 * below.size < 2.0 ** 512
        model = train(spec, self.X, below)  # warnings are errors here
        assert all(tree.feature.size > 1 for tree in model.trees)

    @pytest.mark.parametrize("kind", ["RF", "GBT"])
    def test_power_of_two_scale_is_exact(self, kind):
        """Labels scaled by 2^300 fit the same splits and importance, and
        leaf values exactly 2^300 times the unscaled fit's."""
        spec = ModelSpec(kind=kind, task="regression", n_trees=5, seed=3)
        scale = 2.0 ** 300
        plain, scaled = train(spec, self.X, self.y), train(spec, self.X, self.y * scale)
        assert np.array_equal(plain.importance, scaled.importance)
        assert scaled.base_score == plain.base_score * scale
        for a, b in zip(plain.trees, scaled.trees, strict=True):
            assert np.array_equal(a.feature, b.feature)
            assert np.array_equal(a.threshold, b.threshold)
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.value * scale, b.value)


@st.composite
def candidate_keys(draw):
    """A level's (node, feature) keys and a candidate count ``k``: uniform
    draws, or coarse ones that tie often, with ties planted at some rows'
    ``k``-th smallest key."""
    n_nodes, n_features = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    k = draw(st.integers(1, n_features))
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        keys = local.random((n_nodes, n_features))
    else:
        keys = local.integers(0, draw(st.integers(1, 6)), (n_nodes, n_features)) / 8.0
    kth = np.sort(keys, axis=1)[:, k - 1]
    for node in draw(st.sets(st.integers(0, n_nodes - 1))):
        for column in draw(st.sets(st.integers(0, n_features - 1), min_size=1, max_size=3)):
            keys[node, column] = kth[node]
    return keys, k


class TestSmallestKeys:
    @settings(max_examples=300, deadline=None)
    @given(candidate_keys())
    def test_equals_argsort_pick(self, problem):
        """The partition pick equals the sorted first ``k`` of each row's
        argsort, ties at the ``k``-th key included."""
        keys, k = problem
        expected = np.sort(np.argsort(keys, axis=1)[:, :k], axis=1)
        picked = models._smallest_keys(keys.copy(), k)
        assert picked.dtype == expected.dtype
        assert np.array_equal(picked, expected)


@st.composite
def presort_matrices(draw):
    """Columns of distinct values beside tied ones: few repeated values,
    -0.0 beside 0.0, a constant column."""
    n_rows, n_columns = draw(st.integers(1, 300)), draw(st.integers(1, 6))
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    makers = {
        "distinct": lambda: local.normal(size=n_rows),
        "repeated": lambda: local.integers(0, 4, n_rows).astype(float),
        "signed_zero": lambda: local.choice([-0.0, 0.0, -1.5, 2.0], n_rows),
        "constant": lambda: np.full(n_rows, 2.5),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=n_columns,
                          max_size=n_columns))
    return np.column_stack([makers[kind]() for kind in kinds])


class TestPresort:
    @settings(max_examples=150, deadline=None)
    @given(presort_matrices())
    def test_equals_stable_argsort(self, X):
        """The presort is the stable one, whichever sort numpy runs first."""
        n_rows, n_columns = X.shape
        data = _Presorted(X)
        stable = np.argsort(X, axis=0, kind="stable").T
        assert np.array_equal(data.columns_sorted, stable)
        rank = np.full((n_columns, n_rows + 1), n_rows)
        rank[np.arange(n_columns)[:, None], stable] = np.arange(n_rows)
        assert np.array_equal(data.rank, rank)
        assert data.distinct == all(len(set(column.tolist())) == n_rows for column in X.T)
