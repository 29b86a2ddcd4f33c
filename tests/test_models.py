import numpy as np
import pytest

from agribench.featurize import FeatureTable
from agribench.models import (
    ModelSpec,
    SchemaError,
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
        config_hash="test",
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
