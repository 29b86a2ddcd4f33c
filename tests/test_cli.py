import csv
import json
import shutil
from dataclasses import MISSING, fields

import pytest

from agribench.cli import KNOWN_KEYS, ConfigError, RunConfig, execute, main, parse_config_file

BUNDLE_CFG = """
# synthetic bundle for CLI tests
out_dir={out}
base_seed=12
synth.n_counties=14
synth.years=2019,2020
synth.fields_per_county=1
synth.tasks=yield,tillage_ratio,tillage_class
synth.label_r2_ceiling=0.9
"""


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "synth.cfg"
    out = root / "bundle"
    cfg.write_text(BUNDLE_CFG.format(out=out))
    assert main(["synth", "--config", str(cfg)]) == 0
    return out


def test_config_parse_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("out_dir=x\nmystery=1\n")
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'mystery'"):
        parse_config_file(cfg)


def test_config_parse_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file(cfg)


def test_unknown_key_exits_nonzero(bundle, capsys):
    status = execute("featurize", None, [f"bundle={bundle}", "bogus.key=1"])
    assert status == 1
    assert "bogus.key" in capsys.readouterr().err


def test_missing_bundle_reported(capsys):
    status = execute("featurize", None, ["bundle=/nonexistent", "task.name=yield"])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: featurize:")
    assert "\n" == err[err.index("\n"):]  # single line


def test_featurize_tillage_column_count(bundle, tmp_path):
    out = tmp_path / "feat"
    status = execute("featurize", None, [
        f"bundle={bundle}", "task.name=tillage_ratio", f"out_dir={out}",
    ])
    assert status == 0
    with open(out / "features.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:3] == ["unit_id", "year", "label"]
    assert len(header) == 3 + 67
    assert (out / "features.csv.config").exists()


def test_flag_overrides_take_precedence(bundle, tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"bundle={bundle}\ntask.name=yield\ntask.crop=corn\n"
                   f"task.feature_set=RS\nout_dir={tmp_path / 'a'}\n")
    assert execute("featurize", str(cfg), []) == 0
    assert execute("featurize", str(cfg), [
        "task.feature_set=AEF", f"out_dir={tmp_path / 'b'}",
    ]) == 0
    with open(tmp_path / "a" / "features.csv", newline="") as fh:
        wide = len(next(csv.reader(fh)))
    with open(tmp_path / "b" / "features.csv", newline="") as fh:
        narrow = len(next(csv.reader(fh)))
    assert wide == 3 + 90 and narrow == 3 + 64


def test_train_writes_model_and_importance(bundle, tmp_path):
    out = tmp_path / "train"
    status = execute("train", None, [
        f"bundle={bundle}", "task.name=yield", "task.crop=corn",
        "task.feature_set=AEF", "model.kind=RF", "model.n_trees=10",
        f"out_dir={out}",
    ])
    assert status == 0
    model = json.loads((out / "model.json").read_text())
    assert model["format"] == "agribench-model"
    assert len(model["trees"]) == 10
    with open(out / "importance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    assert abs(sum(float(r["importance"]) for r in rows) - 1.0) < 1e-9


def test_benchmark_report_five_seed_rows(bundle, tmp_path):
    out = tmp_path / "bm"
    status = execute("benchmark", None, [
        f"bundle={bundle}", "task.name=yield", "task.crop=corn",
        "task.feature_set=AEF", "model.n_trees=10", "scheme=group_cv",
        "scheme.k=3", f"out_dir={out}",
    ])
    assert status == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for fold in ("fold0", "fold1", "fold2"):
        seeds = {r["seed"] for r in rows
                 if r["fold"] == fold and r["metric"] == "R2" and r["seed"] != "mean"}
        assert seeds == {"1", "2", "3", "4", "5"}
    assert (out / "report.json").exists()


def test_identical_configs_identical_outputs(bundle, tmp_path):
    args = [
        f"bundle={bundle}", "task.name=yield", "task.crop=corn",
        "task.feature_set=AEF", "model.n_trees=8", "scheme=yearly_cv",
        "n_repeats=2",
    ]
    assert execute("benchmark", None, args + [f"out_dir={tmp_path / 'a'}"]) == 0
    assert execute("benchmark", None, args + [f"out_dir={tmp_path / 'b'}"]) == 0
    assert (tmp_path / "a" / "report.csv").read_bytes() == \
           (tmp_path / "b" / "report.csv").read_bytes()
    assert (tmp_path / "a" / "report.json").read_bytes() == \
           (tmp_path / "b" / "report.json").read_bytes()


def test_report_command_summarizes(bundle, tmp_path, capsys):
    out = tmp_path / "bm"
    execute("benchmark", None, [
        f"bundle={bundle}", "task.name=yield", "task.crop=corn",
        "task.feature_set=AEF", "model.n_trees=8", "scheme=yearly_cv",
        "n_repeats=2", f"out_dir={out}",
    ])
    capsys.readouterr()
    assert main(["report", str(out / "report.csv")]) == 0
    text = capsys.readouterr().out
    assert "yield" in text and "R2" in text and "2019" in text

    assert execute("report", None, [], report_paths=["/nope.csv"]) == 1


def test_malformed_report_is_an_error_not_a_traceback(tmp_path, capsys):
    no_metric = tmp_path / "no_metric.csv"
    no_metric.write_text("task,crop,fold,value\nyield,corn,2019,0.5\n")
    assert main(["report", str(no_metric)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: report: {no_metric}: missing column "
                          "feature_set, model, scheme, seed, metric")

    short = tmp_path / "short.csv"
    short.write_text("task,crop,feature_set,model,scheme,fold,seed,metric,value\n"
                     "yield,corn,RS,RF,yearly_cv,2019,mean,R2,0.5\n"
                     "yield,corn,RS,RF\n")
    assert main(["report", str(short)]) == 1
    assert capsys.readouterr().err == f"error: report: {short} line 3: too few cells\n"

    assert main(["report", str(tmp_path)]) == 1  # a directory, not a file
    assert capsys.readouterr().err.startswith("error: report: ")


def test_report_shows_tillage_rmse_as_percent(bundle, tmp_path, capsys):
    out = tmp_path / "bm_till"
    execute("benchmark", None, [
        f"bundle={bundle}", "task.name=tillage_ratio", "task.feature_set=AEF",
        "model.n_trees=8", "scheme=group_cv", "scheme.k=3", "n_repeats=1",
        f"out_dir={out}",
    ])
    capsys.readouterr()
    assert main(["report", str(out / "report.csv")]) == 0
    assert "%" in capsys.readouterr().out


def test_config_hash_excludes_execution_keys(bundle, tmp_path):
    base = [
        f"bundle={bundle}", "task.name=yield", "task.crop=corn",
        "task.feature_set=AEF",
    ]
    execute("featurize", None, base + [f"out_dir={tmp_path / 'a'}", "threads=1"])
    execute("featurize", None, base + [f"out_dir={tmp_path / 'b'}", "threads=8"])
    hash_a = [l for l in (tmp_path / "a" / "features.csv.config").read_text().splitlines()
              if l.startswith("config_hash=")]
    hash_b = [l for l in (tmp_path / "b" / "features.csv.config").read_text().splitlines()
              if l.startswith("config_hash=")]
    assert hash_a == hash_b


@pytest.mark.parametrize("task", [["task.name=yield", "task.crop=corn"],
                                  ["task.name=tillage_class"]])
def test_model_bytes_independent_of_threads(bundle, tmp_path, task):
    # Random-forest regression, and classification with sqrt candidate draws.
    base = [f"bundle={bundle}", *task, "task.feature_set=RS", "model.kind=RF",
            "model.n_trees=24"]
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        assert execute("train", None, base + [f"out_dir={out}", f"threads={threads}"]) == 0
    for name in ("model.json", "importance.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t8" / name).read_bytes()


def test_bad_synth_settings_are_named_errors(tmp_path, capsys):
    out = tmp_path / "bundle"
    for setting, message in (("synth.crop=rice", "unknown crop 'rice'"),
                             ("synth.years=2020,2020", "years must not repeat"),
                             ("synth.label_feature=NDVI",
                              "synth.label_feature 'NDVI': expected <Band>_peak"),
                             ("synth.label_feature=NDVI_c",
                              "synth.label_feature 'NDVI_c': expected <Band>_peak"),
                             ("synth.tasks=,", "tasks must be nonempty"),
                             ("synth.fields_per_county=-3",
                              "fields_per_county must be nonnegative, got -3")):
        assert main(["synth", "--set", setting, "--set", f"out_dir={out}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: synth: {message}")
        assert not out.exists()


def test_aef_commands_do_not_read_climate(bundle, tmp_path, capsys):
    broken = tmp_path / "bundle"
    shutil.copytree(bundle, broken)
    climate = broken / "climate.csv"
    line = climate.read_text().count("\n") + 1
    with open(climate, "a", encoding="utf-8") as fh:
        fh.write("ghost,2020-06-01,10.0,25.0,1.5\n")
    base = [f"bundle={broken}", "task.name=yield", "task.crop=corn", f"out_dir={tmp_path}"]
    assert execute("featurize", None, base + ["task.feature_set=AEF"]) == 0
    capsys.readouterr()
    assert execute("featurize", None, base + ["task.feature_set=RS"]) == 1
    assert capsys.readouterr().err == (
        f"error: featurize: climate.csv line {line}: unknown unit_id 'ghost'\n")
    climate.unlink()
    assert execute("featurize", None, base + ["task.feature_set=AEF"]) == 1
    assert capsys.readouterr().err.startswith("error: featurize: missing bundle file:")


def test_bad_run_settings_are_named_errors(bundle, tmp_path, capsys):
    base = [f"bundle={bundle}", "task.name=yield", "task.crop=corn", "task.feature_set=AEF",
            "model.n_trees=4", f"out_dir={tmp_path}"]
    for n_repeats in ("0", "-2"):
        assert execute("benchmark", None, base + [f"n_repeats={n_repeats}"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: benchmark: n_repeats must be at least 1, got {n_repeats}")
    assert not (tmp_path / "report.csv").exists()
    assert execute("train", None, base + ["model.max_depth=-1"]) == 1
    assert capsys.readouterr().err.startswith("error: train: max_depth must be at least 1")
    assert not (tmp_path / "model.json").exists()
    for command in ("train", "benchmark"):
        assert execute(command, None, base + ["threads=-4"]) == 1
        assert capsys.readouterr().err == (
            f"error: {command}: key 'threads': expected at least 1, got -4\n")
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "report.csv").exists()


# A valid value for every config key, each different from its default.
NON_DEFAULT_SETTINGS = {
    "bundle": "bundle", "out_dir": "elsewhere", "threads": "2", "base_seed": "5",
    "n_repeats": "2", "scheme": "space_transfer", "scheme.k": "3",
    "scheme.direction": "West->East",
    "task.name": "tillage_class", "task.crop": "soybean", "task.feature_set": "AEF",
    "task.missing_policy": "impute_mean", "task.gcvi_minus_one": "true",
    "task.gdd_per_day": "true", "task.gdd_base": "8", "task.gdd_cap": "29",
    "model.kind": "GBT", "model.n_trees": "7", "model.max_depth": "3",
    "model.learning_rate": "0.3", "model.max_features": "sqrt",
    "model.min_samples_leaf": "2",
    "synth.n_counties": "9", "synth.fields_per_county": "2", "synth.years": "2020,2021",
    "synth.tasks": "yield,tillage_class", "synth.crop": "soybean", "synth.dropout": "0.1",
    "synth.sigma_obs": "0.01", "synth.label_sigma": "0.2", "synth.label_r2_ceiling": "0.8",
    "synth.region_offset": "1.5", "synth.label_feature": "NDVI_peak",
    "synth.label_intercept": "3",
}


def test_every_config_field_has_a_key():
    # A field that no key reaches is a setting no run can change.
    assert set(NON_DEFAULT_SETTINGS) == set(KNOWN_KEYS)
    cfg = RunConfig(NON_DEFAULT_SETTINGS)
    task_cfg = cfg.task_config()
    unreached = []
    for built in (task_cfg, cfg.model_spec(task_cfg.task), cfg.synth_spec()):
        for f in fields(built):
            if f.default is not MISSING:
                default = f.default
            elif f.default_factory is not MISSING:
                default = f.default_factory()
            else:
                continue  # required: always set
            if getattr(built, f.name) == default:
                unreached.append(f"{type(built).__name__}.{f.name}")
    assert unreached == []
