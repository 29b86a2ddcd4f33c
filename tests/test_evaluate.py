import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agribench.dataset import EAST_STATES, WEST_STATES, UnitMeta
from agribench.evaluate import (
    SplitError,
    build_split_plan,
    classification_metrics,
    regression_metrics,
    run_benchmark,
)
from agribench.featurize import FeatureTable, TaskConfig
from agribench.models import ModelSpec


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
