import math
import weakref

import numpy as np
import pytest
from dataclasses import replace
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from agribench.dataset import EAST_STATES, WEST_STATES, UnitMeta
from agribench import evaluate, models
from agribench.evaluate import (
    SplitError,
    SplitPlan,
    build_split_plan,
    classification_metrics,
    metrics_for_task,
    regression_metrics,
    run_benchmark,
)
from agribench.featurize import FeatureTable, TaskConfig, assemble_table
from agribench.models import ModelSpec, boost_folds, predict, train
from agribench.seeding import derive_seed


def meta(unit_id, level="county", state="IL", county_id=None, ecoregion=None):
    from agribench.dataset import default_ecoregion

    return UnitMeta(
        unit_id=unit_id, level=level, state=state,
        county_id=county_id or unit_id,
        ecoregion=ecoregion or default_ecoregion(state),
        elevation_m=100.0,
    )


def toy_table(unit_years, n_features=3):
    n = len(unit_years)
    rng = np.random.default_rng(1)
    return FeatureTable(
        task="yield", feature_set="RS",
        feature_names=tuple(f"x{i}" for i in range(n_features)),
        unit_years=tuple(unit_years),
        values=rng.normal(size=(n, n_features)),
        labels=rng.normal(size=n),
    )


class TestRegressionMetrics:
    def test_perfect(self):
        m = regression_metrics([1, 2, 3], [1, 2, 3])
        assert m["R2"] == 1.0 and m["RMSE"] == 0.0

    def test_mean_predictor_gives_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 6.0])
        m = regression_metrics(truth, np.full(4, truth.mean()))
        assert m["R2"] == pytest.approx(0.0, abs=1e-12)

    def test_spec_fixture(self):
        m = regression_metrics([0, 1, 2, 3], [0, 0, 2, 2])
        assert m["RMSE"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert m["R2"] == pytest.approx(0.6, abs=1e-12)

    def test_negative_r2_allowed(self):
        m = regression_metrics([0.0, 1.0], [10.0, -9.0])
        assert m["R2"] < 0

    def test_constant_truth_undefined_r2(self):
        m = regression_metrics([2.0, 2.0], [1.0, 3.0])
        assert math.isnan(m["R2"])
        assert m["RMSE"] == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regression_metrics([1, 2], [1])


class TestClassificationMetrics:
    def test_perfect(self):
        m = classification_metrics([1, 0, 1], [1, 0, 1])
        assert all(v == 1.0 for v in m.values())

    def test_spec_fixture(self):
        m = classification_metrics([1, 1, 1, 0], [1, 1, 0, 0])
        assert m["Accuracy"] == pytest.approx(0.75)
        assert m["F1_class1"] == pytest.approx(0.8)
        assert m["F1_class0"] == pytest.approx(2 / 3)
        assert m["F1_weighted"] == pytest.approx(0.75 * 0.8 + 0.25 * (2 / 3), abs=1e-12)

    def test_degenerate_predictor(self):
        m = classification_metrics([1, 1, 1], [0, 0, 0])
        assert m["Accuracy"] == 0.0
        assert m["F1_class1"] == 0.0

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=40))
    def test_relabel_symmetry(self, pairs):
        truth = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        m = classification_metrics(truth, pred)
        flipped = classification_metrics([1 - t for t in truth], [1 - p for p in pred])
        assert flipped["Accuracy"] == pytest.approx(m["Accuracy"], abs=1e-12)
        assert flipped["F1_class0"] == pytest.approx(m["F1_class1"], abs=1e-12)
        assert flipped["F1_class1"] == pytest.approx(m["F1_class0"], abs=1e-12)


class TestSplitPlans:
    def test_yearly_cv_partitions_rows(self):
        years = range(2017, 2025)
        unit_years = [(f"c{i}", y) for y in years for i in range(3)]
        units = {f"c{i}": meta(f"c{i}") for i in range(3)}
        table = toy_table(unit_years)
        plan = build_split_plan(table, units, "yearly_cv")
        assert len(plan.folds) == 8
        assert plan.fold_labels == tuple(str(y) for y in years)
        covered = np.concatenate([test for _, test in plan.folds])
        assert sorted(covered.tolist()) == list(range(table.n_rows))
        for (_, t1), (_, t2) in zip(plan.folds, plan.folds[1:]):
            assert np.intersect1d(t1, t2).size == 0
        for label, (train_ids, test_ids) in zip(plan.fold_labels, plan.folds):
            test_years = {table.unit_years[i][1] for i in test_ids}
            assert test_years == {int(label)}

    def test_group_cv_no_group_straddles(self):
        states = ["IL", "IN", "IA", "KS", "MI"]
        unit_years = [(f"{s}{i}", y) for s in states for i in range(4) for y in (2020, 2021)]
        units = {f"{s}{i}": meta(f"{s}{i}", state=s) for s in states for i in range(4)}
        table = toy_table(unit_years)
        plan = build_split_plan(table, units, "group_cv", k=5, seed=11)
        assert len(plan.folds) == 5
        groups = [f"{units[u].state}|{y}" for u, y in table.unit_years]
        for train_ids, test_ids in plan.folds:
            train_groups = {groups[i] for i in train_ids}
            test_groups = {groups[i] for i in test_ids}
            assert not train_groups & test_groups

    def test_group_cv_field_level_uses_county(self):
        unit_years = [(f"f{i}", 2020) for i in range(8)]
        units = {
            f"f{i}": meta(f"f{i}", level="field", county_id=f"cty{i % 4}")
            for i in range(8)
        }
        table = toy_table(unit_years)
        plan = build_split_plan(table, units, "group_cv", k=2, seed=0)
        counties = [units[u].county_id for u, _ in table.unit_years]
        for train_ids, test_ids in plan.folds:
            assert not {counties[i] for i in train_ids} & {counties[i] for i in test_ids}

    def test_group_cv_ten_groups_k5(self):
        unit_years = [(f"c{i}", y) for i in range(5) for y in (2020, 2021)]
        units = {f"c{i}": meta(f"c{i}", state="IL") for i in range(5)}
        # 5 units x 2 years but groups key on (state, year): only 2 groups.
        with pytest.raises(SplitError, match="groups"):
            build_split_plan(toy_table(unit_years), units, "group_cv", k=5)
        # Distinct states give 10 groups: 5 folds of exactly 2 test groups.
        states = ["IL", "IN", "IA", "KS", "MI"]
        unit_years = [(f"{s}0", y) for s in states for y in (2020, 2021)]
        units = {f"{s}0": meta(f"{s}0", state=s) for s in states}
        table = toy_table(unit_years)
        plan = build_split_plan(table, units, "group_cv", k=5, seed=3)
        for _, test_ids in plan.folds:
            groups = {f"{units[table.unit_years[i][0]].state}|{table.unit_years[i][1]}"
                      for i in test_ids}
            assert len(groups) == 2

    def test_space_transfer_respects_state_lists(self):
        states = ["IL", "IN", "MI", "OH", "WI", "IA", "KS", "MN", "MO", "ND", "NE", "SD", "TX"]
        unit_years = [(f"{s}0", 2020) for s in states]
        units = {f"{s}0": meta(f"{s}0", state=s) for s in states}
        table = toy_table(unit_years)
        plan = build_split_plan(table, units, "space_transfer", direction="East->West")
        (train_ids, test_ids), = plan.folds
        train_states = {units[table.unit_years[i][0]].state for i in train_ids}
        test_states = {units[table.unit_years[i][0]].state for i in test_ids}
        assert train_states == set(EAST_STATES)
        assert test_states == set(WEST_STATES)
        # TX is Other: excluded from both sides.
        used = set(train_ids) | set(test_ids)
        tx_row = [i for i, (u, _) in enumerate(table.unit_years) if u == "TX0"][0]
        assert tx_row not in used

    def test_space_transfer_direction_validated(self):
        units = {"c1": meta("c1")}
        table = toy_table([("c1", 2020)])
        with pytest.raises(SplitError, match="direction"):
            build_split_plan(table, units, "space_transfer", direction="North->South")

    def test_scale_transfer_sides(self):
        unit_years = [("c1", 2020), ("c2", 2020), ("f1", 2020)]
        units = {
            "c1": meta("c1"), "c2": meta("c2"),
            "f1": meta("f1", level="field", county_id="c1"),
        }
        table = toy_table(unit_years)
        plan = build_split_plan(table, units, "scale_transfer")
        (train_ids, test_ids), = plan.folds
        assert {table.unit_years[i][0] for i in train_ids} == {"c1", "c2"}
        assert {table.unit_years[i][0] for i in test_ids} == {"f1"}

    def test_scale_transfer_requires_both_levels(self):
        units = {"c1": meta("c1"), "c2": meta("c2")}
        table = toy_table([("c1", 2020), ("c2", 2020)])
        with pytest.raises(SplitError, match="both county and field"):
            build_split_plan(table, units, "scale_transfer")

    @pytest.mark.parametrize("train_ids, test_ids, message", [
        ([0, 1], [], "empty test side"),
        ([], [0, 1], "empty train side"),
        ([0, 1], [1, 2], "train/test overlap"),
    ])
    def test_plan_checks_each_fold(self, train_ids, test_ids, message):
        fold = (np.array(train_ids, dtype=np.intp), np.array(test_ids, dtype=np.intp))
        with pytest.raises(SplitError, match=f"^group_cv: {message}"):
            SplitPlan("group_cv", ("fold0",), (fold,))

    def test_single_year_yearly_cv_rejected(self):
        units = {"c1": meta("c1"), "c2": meta("c2")}
        table = toy_table([("c1", 2020), ("c2", 2020)])
        with pytest.raises(SplitError, match="2 distinct years"):
            build_split_plan(table, units, "yearly_cv")


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    from agribench.dataset import load_dataset
    from agribench.synth import SynthSpec, generate

    out = tmp_path_factory.mktemp("bench") / "bundle"
    spec = SynthSpec(n_counties=14, years=(2019, 2020, 2021), label_r2_ceiling=0.85)
    generate(spec, seed=33, out_dir=out)
    return load_dataset(out)


class TestRunBenchmark:
    CFG = TaskConfig(task="yield", crop="corn", feature_set="AEF")
    MODEL = ModelSpec(kind="RF", task="regression", n_trees=10)

    def test_five_seed_entries_per_fold(self, small_bundle):
        report = run_benchmark(small_bundle, self.CFG, self.MODEL,
                               "group_cv", k=3, n_repeats=5, base_seed=1)
        for fold in (f"fold{i}" for i in range(3)):
            seeds = [s for f, s, m, _ in report.rows
                     if f == fold and m == "R2" and s != "mean"]
            assert sorted(seeds) == ["1", "2", "3", "4", "5"]

    def test_aggregates_are_constituent_means(self, small_bundle):
        report = run_benchmark(small_bundle, self.CFG, self.MODEL,
                               "group_cv", k=3, n_repeats=3, base_seed=1)
        for metric in ("R2", "RMSE"):
            fold_means = []
            for fold in (f"fold{i}" for i in range(3)):
                values = [v for f, s, m, v in report.rows
                          if f == fold and m == metric and s != "mean"]
                mean = report.value(fold, "mean", metric)
                assert mean == pytest.approx(np.mean(values), abs=1e-12)
                fold_means.append(mean)
            assert report.aggregate(metric) == pytest.approx(
                np.mean(fold_means), abs=1e-12)

    def test_yearly_pooled_rows(self, small_bundle):
        report = run_benchmark(small_bundle, self.CFG, self.MODEL,
                               "yearly_cv", n_repeats=2, base_seed=1)
        pooled = [r for r in report.rows if r[0] == "all"]
        # 2 seeds x 2 metrics + 2 metric means
        assert len(pooled) == 6

    def test_deterministic_report_bytes(self, small_bundle, tmp_path):
        paths = []
        for threads, name in ((1, "a.csv"), (4, "b.csv")):
            report = run_benchmark(small_bundle, self.CFG, self.MODEL,
                                   "group_cv", k=3, n_repeats=2, base_seed=9,
                                   threads=threads)
            p = tmp_path / name
            report.to_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("n_repeats", [0, -2])
    def test_n_repeats_below_one_rejected(self, small_bundle, n_repeats):
        with pytest.raises(ValueError, match="n_repeats must be at least 1"):
            run_benchmark(small_bundle, self.CFG, self.MODEL, "group_cv", k=3,
                          n_repeats=n_repeats)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, small_bundle, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            run_benchmark(small_bundle, self.CFG, self.MODEL, "group_cv", k=3,
                          threads=threads)

    def test_model_task_must_match(self, small_bundle):
        bad = ModelSpec(kind="RF", task="classification")
        with pytest.raises(ValueError, match="does not fit"):
            run_benchmark(small_bundle, self.CFG, bad, "group_cv")

    def test_report_context_records_flags(self, small_bundle):
        report = run_benchmark(small_bundle, self.CFG, self.MODEL,
                               "group_cv", k=3, n_repeats=1, base_seed=1)
        assert report.context["task"] == "yield"
        assert report.context["flagged_defaults"]  # corn GDD default
        assert "config_hash" in report.context

    @pytest.mark.parametrize("scheme, recorded", [
        ("group_cv", None), ("yearly_cv", None), ("space_transfer", "East->West"),
    ])
    def test_report_context_records_only_an_applied_direction(
            self, small_bundle, scheme, recorded):
        report = run_benchmark(small_bundle, self.CFG, self.MODEL, scheme, k=3,
                               direction="East->West", n_repeats=1, base_seed=1)
        assert report.context["direction"] == recorded

    def test_rf_fold_model_dropped_before_the_next_fit(self, small_bundle, monkeypatch):
        """No random-forest fold model is alive when the next fold's fit starts."""
        fitted, live = [], []

        def spy(*args, **kwargs):
            live.append(sum(ref() is not None for ref in fitted))
            model = train(*args, **kwargs)
            fitted.append(weakref.ref(model))
            return model

        monkeypatch.setattr(evaluate, "train", spy)
        run_benchmark(small_bundle, self.CFG, self.MODEL, "group_cv", k=3,
                      n_repeats=2, base_seed=1)
        assert live == [0] * 6

    def test_records_rebuild_the_report(self, small_bundle, monkeypatch):
        """Each (repeat, fold) record matches an independent recomputation,
        holds its plan's own index arrays, and scores to its report rows."""
        plans = []

        def keep_plan(*args, **kwargs):
            plans.append(build_split_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(evaluate, "build_split_plan", keep_plan)
        report = run_benchmark(small_bundle, self.CFG, self.MODEL, "group_cv", k=3,
                               n_repeats=2, base_seed=1)
        table = assemble_table(small_bundle, self.CFG)
        records = report.records
        assert [(r.repeat, r.fold) for r in records] == [
            (repeat, f"fold{j}") for repeat in (1, 2) for j in range(3)]
        for repeat, plan in zip((1, 2), plans):
            own = [r for r in records if r.repeat == repeat]
            covered = np.sort(np.concatenate([r.test_ids for r in own]))
            assert np.array_equal(covered, np.arange(table.n_rows))
            for record, (train_ids, test_ids) in zip(own, plan.folds):
                assert record.train_ids is train_ids and record.test_ids is test_ids
        for record in records:
            assert np.intersect1d(record.train_ids, record.test_ids).size == 0
            assert record.seed == derive_seed(derive_seed(1, record.repeat), record.fold)
            assert np.array_equal(record.truth, table.labels[record.test_ids])
            for metric, value in metrics_for_task(table.task, record.truth, record.pred).items():
                got = report.value(record.fold, str(record.repeat), metric)
                assert _bits(got) == _bits(value), (record.repeat, record.fold, metric)
        record = records[4]
        alone = train(replace(self.MODEL, seed=record.seed), table.select(record.train_ids),
                      table.labels[record.train_ids])
        assert np.array_equal(_bits(predict(alone, table.select(record.test_ids))),
                              _bits(record.pred))

    def test_classification_report_metric_names(self, tmp_path_factory):
        from agribench.dataset import load_dataset
        from agribench.synth import SynthSpec, generate

        out = tmp_path_factory.mktemp("cls") / "bundle"
        spec = SynthSpec(n_counties=10, fields_per_county=2, years=(2019, 2020),
                         tasks=("tillage_class",), label_sigma=0.05)
        generate(spec, seed=44, out_dir=out)
        dataset = load_dataset(out)
        cfg = TaskConfig(task="tillage_class", feature_set="AEF")
        model = ModelSpec(kind="RF", task="classification", n_trees=10)
        report = run_benchmark(dataset, cfg, model, "group_cv", k=3,
                               n_repeats=2, base_seed=4)
        metrics = {m for _, _, m, _ in report.rows}
        assert metrics == {"Accuracy", "F1_class0", "F1_class1", "F1_weighted"}
        assert 0.0 <= report.aggregate("Accuracy") <= 1.0

    def test_csv_layout(self, small_bundle, tmp_path):
        report = run_benchmark(small_bundle, self.CFG, self.MODEL,
                               "group_cv", k=3, n_repeats=1, base_seed=1)
        path = tmp_path / "r.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "task,crop,feature_set,model,scheme,fold,seed,metric,value"
        assert lines[1].startswith("yield,corn,AEF,RF,group_cv,")


@pytest.fixture(scope="module")
def tillage_bundle(tmp_path_factory):
    from agribench.dataset import load_dataset
    from agribench.synth import SynthSpec, generate

    out = tmp_path_factory.mktemp("tillage") / "bundle"
    spec = SynthSpec(n_counties=10, fields_per_county=2, years=(2019, 2020),
                     tasks=("tillage_class",), label_sigma=0.05)
    generate(spec, seed=44, out_dir=out)
    return load_dataset(out)


def _bits(values):
    """Float arrays as their bit patterns, so -0.0 and 0.0 differ."""
    values = np.asarray(values)
    return values.view(np.int64) if values.dtype == np.float64 else values


def _assert_same_model(got, want):
    assert got.spec == want.spec
    assert got.feature_names == want.feature_names
    assert len(got.trees) == len(want.trees)
    for index, (a, b) in enumerate(zip(got.trees, want.trees)):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name))), (index, name)
    assert np.array_equal(_bits(got.importance), _bits(want.importance))
    assert _bits(np.float64(got.base_score)) == _bits(np.float64(want.base_score))


class TestBoostedFolds:
    """The folds of a repeat boosted together give each fold the model
    ``train`` fits on that fold's rows alone, bit for bit."""

    def _check(self, dataset, cfg, spec, scheme, per_pass=None, **plan_args):
        """Fit the plan's folds together and each alone; ``per_pass`` is the
        number of folds each grower pass grows (default: every fold)."""
        table = assemble_table(dataset, cfg)
        plan = build_split_plan(table, dataset.units, scheme, seed=5, **plan_args)
        seeds = [derive_seed(5, label) for label in plan.fold_labels]
        folds = [(seed, train_ids) for seed, (train_ids, _) in zip(seeds, plan.folds)]
        calls = []

        def spy(*args):
            calls.append(len(args[2]))
            return grow(*args)

        grow = models._grow_trees
        with mock.patch.object(models, "_grow_trees", spy):
            together = boost_folds(spec, table, table.labels, folds)
        # By default one grower pass per round grows every fold's tree.
        per_pass = per_pass or len(folds)
        assert calls == [per_pass] * (spec.n_trees * len(folds) // per_pass)
        assert len(together) == len(folds)
        for model, (seed, rows) in zip(together, folds):
            alone = train(replace(spec, seed=seed), table.select(rows), table.labels[rows])
            _assert_same_model(model, alone)
        return plan

    def test_regression(self, small_bundle):
        spec = ModelSpec(kind="GBT", task="regression", n_trees=12, max_depth=3)
        self._check(small_bundle, TestRunBenchmark.CFG, spec, "yearly_cv")

    def test_classification(self, tillage_bundle):
        spec = ModelSpec(kind="GBT", task="classification", n_trees=12, max_depth=3)
        self._check(tillage_bundle, TaskConfig(task="tillage_class", feature_set="AEF"), spec,
                    "group_cv", k=3)

    def test_sqrt_candidates(self, small_bundle):
        spec = ModelSpec(kind="GBT", task="regression", n_trees=12, max_depth=4,
                         max_features="sqrt", min_samples_leaf=2)
        self._check(small_bundle, TestRunBenchmark.CFG, spec, "yearly_cv")

    def test_group_cv_folds_of_unequal_size(self, small_bundle):
        spec = ModelSpec(kind="GBT", task="regression", n_trees=10)
        plan = self._check(small_bundle, TestRunBenchmark.CFG, spec, "group_cv", k=4)
        assert len({train_ids.size for train_ids, _ in plan.folds}) > 1

    def test_one_fold_space_transfer(self, small_bundle):
        spec = ModelSpec(kind="GBT", task="regression", n_trees=10, max_depth=3)
        plan = self._check(small_bundle, TestRunBenchmark.CFG, spec, "space_transfer",
                           direction="East->West")
        assert len(plan.folds) == 1

    def test_folds_split_over_passes_by_cell_budget(self, small_bundle, monkeypatch):
        """With a budget below one fold's cells each fold grows in its own
        pass, and each model is still the fold's model alone."""
        monkeypatch.setattr(models, "_BATCH_CELLS", 1)
        spec = ModelSpec(kind="GBT", task="regression", n_trees=5, max_depth=3)
        self._check(small_bundle, TestRunBenchmark.CFG, spec, "yearly_cv", per_pass=1)

    def test_report_bytes_independent_of_threads(self, small_bundle, tmp_path):
        spec = ModelSpec(kind="GBT", task="regression", n_trees=15, max_depth=3)
        written = []
        for threads in (1, 8):
            report = run_benchmark(small_bundle, TestRunBenchmark.CFG, spec, "group_cv", k=3,
                                   n_repeats=2, base_seed=9, threads=threads)
            path = tmp_path / f"report-{threads}.csv"
            report.to_csv(path)
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("max_features, fits", [("all", 1), ("sqrt", 3)])
    def test_repeats_of_one_plan_fit_once(self, small_bundle, monkeypatch, max_features,
                                          fits):
        """``yearly_cv`` builds the same plan in every repeat. A boosted fit
        over every feature reads no seed, so it is fit once and each repeat
        records its predictions under the repeat's own seeds; a sqrt search
        reads its seed and is fit in every repeat."""
        calls = []

        def spy(*args):
            calls.append(args)
            return boost_folds(*args)

        monkeypatch.setattr(evaluate, "boost_folds", spy)
        spec = ModelSpec(kind="GBT", task="regression", n_trees=6, max_depth=2,
                         max_features=max_features)
        report = run_benchmark(small_bundle, TestRunBenchmark.CFG, spec, "yearly_cv",
                               n_repeats=3, base_seed=4)
        assert len(calls) == fits
        table = assemble_table(small_bundle, TestRunBenchmark.CFG)
        for record in report.records:
            assert record.seed == derive_seed(derive_seed(4, record.repeat), record.fold)
            if record.repeat == 3:
                alone = train(replace(spec, seed=record.seed), table.select(record.train_ids),
                              table.labels[record.train_ids])
                assert np.array_equal(_bits(predict(alone, table.select(record.test_ids))),
                                      _bits(record.pred))
