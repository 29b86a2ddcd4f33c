"""Command-line entry point.

Commands:

- ``synth``      generate a seeded synthetic bundle
- ``featurize``  assemble a feature table CSV from a bundle
- ``train``      train one model, write it with its feature importances
- ``benchmark``  run the repeated evaluation protocol, write report CSV/JSON
- ``report``     print a human-readable summary of one or more report CSVs

Configuration is a flat ``key=value`` text file with dotted sections
(``model.kind=RF``); ``--set key=value`` flags override file values. Unknown
keys are rejected. All randomness flows from the single ``base_seed`` key.
Every output artifact gets a ``<name>.config`` sidecar echoing the effective
configuration with a content hash; the hash covers semantic keys only, so
execution-only keys (``threads``, ``out_dir``) never change artifact bytes.
"""

import argparse
import csv
import hashlib
import sys
from pathlib import Path

from .climate import GddThresholds
from .dataset import load_dataset
from .evaluate import REPORT_COLUMNS, run_benchmark
from .featurize import FEATURE_SET_FILES, TaskConfig, assemble_table, export_feature_table
from .models import ModelSpec, save_model, top_features, train
from .synth import SynthSpec, generate

KNOWN_KEYS = {
    "bundle": "path to a dataset bundle directory",
    "out_dir": "output directory",
    "threads": "worker threads for random forests, default 1 (results are independent of it)",
    "base_seed": "single source of all randomness",
    "n_repeats": "benchmark repetitions under derived seeds",
    "scheme": "group_cv | yearly_cv | scale_transfer | space_transfer",
    "scheme.k": "fold count for group_cv",
    "scheme.direction": "East->West | West->East",
    "task.name": "yield | tillage_ratio | tillage_class | covercrop_class",
    "task.crop": "corn | soybean | winter_wheat",
    "task.feature_set": "RS | AEF",
    "task.missing_policy": "drop | impute_mean",
    "task.gcvi_minus_one": "use the NIR/Green - 1 GCVI form",
    "task.gdd_per_day": "divide GDD degree-hours by 24",
    "task.gdd_base": "GDD base temperature override",
    "task.gdd_cap": "GDD cap temperature override",
    "model.kind": "RF | GBT",
    "model.n_trees": "ensemble size",
    "model.max_depth": "tree depth limit (empty = kind default)",
    "model.learning_rate": "GBT shrinkage",
    "model.max_features": "all | sqrt (empty = kind default)",
    "model.min_samples_leaf": "minimum samples per leaf",
    "synth.n_counties": "county count",
    "synth.fields_per_county": "fields generated per county",
    "synth.years": "comma-separated label years",
    "synth.tasks": "comma-separated tasks to label",
    "synth.crop": "crop for the season window and labels",
    "synth.dropout": "observation dropout rate",
    "synth.sigma_obs": "observation noise sigma",
    "synth.label_sigma": "label noise sigma",
    "synth.label_r2_ceiling": "derive label noise from a target R2 ceiling",
    "synth.region_offset": "West-side embedding shift strength",
    "synth.label_feature": "true feature driving the label",
    "synth.label_intercept": "label intercept",
}

EXECUTION_KEYS = ("threads", "out_dir")  # excluded from the content hash


class ConfigError(ValueError):
    pass


def parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path.name} line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path.name} line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    merged = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        merged[key] = value.strip()
    return merged


class RunConfig:
    """Typed view over the flat key=value mapping."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    def get(self, key: str, default: str | None = None) -> str | None:
        value = self.values.get(key, default)
        return value if value != "" else default

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected integer, got {raw!r}") from None

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected number, got {raw!r}") from None

    def get_bool(self, key: str, default: bool = False) -> bool:
        raw = self.get(key)
        if raw is None:
            return default
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected boolean, got {raw!r}")

    @property
    def threads(self) -> int:
        # One thread by default: a second worker thread made random-forest
        # fits slower, not faster (gradient boosting never uses threads).
        threads = self.get_int("threads", 1)
        if threads < 1:
            raise ConfigError(f"key 'threads': expected at least 1, got {threads}")
        return threads

    @property
    def base_seed(self) -> int:
        return self.get_int("base_seed", 0)

    @property
    def out_dir(self) -> Path:
        return Path(self.get("out_dir", "out"))

    def bundle_path(self) -> Path:
        raw = self.get("bundle")
        if raw is None:
            raise ConfigError("key 'bundle' is required for this command")
        path = Path(raw)
        if not path.is_dir():
            raise ConfigError(f"bundle directory does not exist: {path}")
        return path

    def content_hash(self) -> str:
        semantic = sorted(
            (k, v) for k, v in self.values.items()
            if k not in EXECUTION_KEYS and v != ""
        )
        blob = "\n".join(f"{k}={v}" for k, v in semantic)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def write_sidecar(self, artifact: Path) -> None:
        lines = [f"{k}={self.values[k]}" for k in sorted(self.values)]
        lines.append(f"config_hash={self.content_hash()}")
        artifact.with_suffix(artifact.suffix + ".config").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

    def task_config(self) -> TaskConfig:
        task = self.get("task.name")
        if task is None:
            raise ConfigError("key 'task.name' is required for this command")
        thresholds = None
        base, cap = self.get_float("task.gdd_base"), self.get_float("task.gdd_cap")
        if (base is None) != (cap is None):
            raise ConfigError("task.gdd_base and task.gdd_cap must be set together")
        if base is not None:
            thresholds = GddThresholds(t_base=base, t_cap=cap)
        return TaskConfig(
            task=task,
            crop=self.get("task.crop"),
            feature_set=self.get("task.feature_set", "RS"),
            missing_policy=self.get("task.missing_policy", "drop"),
            gdd_thresholds=thresholds,
            gcvi_minus_one=self.get_bool("task.gcvi_minus_one"),
            gdd_per_day=self.get_bool("task.gdd_per_day"),
        )

    def model_spec(self, task: str) -> ModelSpec:
        from .evaluate import model_task_for

        return ModelSpec(
            kind=self.get("model.kind", "RF"),
            task=model_task_for(task),
            n_trees=self.get_int("model.n_trees", 200),
            max_depth=self.get_int("model.max_depth"),
            learning_rate=self.get_float("model.learning_rate", 0.1),
            max_features=self.get("model.max_features"),
            min_samples_leaf=self.get_int("model.min_samples_leaf", 1),
            seed=self.base_seed,
        )

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(**{
            name: parse(self, key)
            for key, (name, parse) in SYNTH_KEYS.items()
            if self.get(key) is not None
        })


def _get_years(cfg: RunConfig, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(y) for y in cfg.get(key).split(",") if y)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma-separated integers") from None


# synth.* config key -> (SynthSpec field, parser of the key's value)
SYNTH_KEYS = {
    "synth.n_counties": ("n_counties", RunConfig.get_int),
    "synth.fields_per_county": ("fields_per_county", RunConfig.get_int),
    "synth.years": ("years", _get_years),
    "synth.tasks": ("tasks", lambda cfg, key: tuple(t for t in cfg.get(key).split(",") if t)),
    "synth.crop": ("crop", RunConfig.get),
    "synth.dropout": ("dropout", RunConfig.get_float),
    "synth.sigma_obs": ("sigma_obs", RunConfig.get_float),
    "synth.label_sigma": ("label_sigma", RunConfig.get_float),
    "synth.label_r2_ceiling": ("label_r2_ceiling", RunConfig.get_float),
    "synth.region_offset": ("region_offset", RunConfig.get_float),
    "synth.label_feature": ("label_weights", lambda cfg, key: {cfg.get(key): 1.0}),
    "synth.label_intercept": ("label_intercept", RunConfig.get_float),
}


def _cmd_synth(cfg: RunConfig) -> int:
    out = cfg.out_dir
    summary = generate(cfg.synth_spec(), seed=cfg.base_seed, out_dir=out)
    cfg.write_sidecar(out / "bundle")
    print(
        f"bundle written to {out}: "
        + ", ".join(f"{k}={summary[k]}" for k in ("units", "observations", "labels"))
    )
    return 0


def _cmd_featurize(cfg: RunConfig) -> int:
    task_cfg = cfg.task_config()
    dataset = load_dataset(cfg.bundle_path(), FEATURE_SET_FILES[task_cfg.feature_set])
    table = assemble_table(dataset, task_cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "features.csv"
    export_feature_table(table, path)
    cfg.write_sidecar(path)
    print(
        f"features written to {path}: {table.n_rows} rows x "
        f"{len(table.feature_names)} columns, exclusions {table.exclusion_log or '{}'}"
    )
    return 0


def _cmd_train(cfg: RunConfig) -> int:
    task_cfg = cfg.task_config()
    dataset = load_dataset(cfg.bundle_path(), FEATURE_SET_FILES[task_cfg.feature_set])
    table = assemble_table(dataset, task_cfg)
    spec = cfg.model_spec(task_cfg.task)
    model = train(spec, table, table.labels, threads=cfg.threads)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    save_model(model, model_path)
    cfg.write_sidecar(model_path)
    importance_path = out / "importance.csv"
    with open(importance_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("feature,importance\n")
        for name, value in top_features(model, k=len(model.feature_names)):
            fh.write(f"{name},{value!r}\n")
    cfg.write_sidecar(importance_path)
    print(f"model written to {model_path} ({spec.kind}, {spec.n_trees} trees)")
    return 0


def _cmd_benchmark(cfg: RunConfig) -> int:
    task_cfg = cfg.task_config()
    dataset = load_dataset(cfg.bundle_path(), FEATURE_SET_FILES[task_cfg.feature_set])
    scheme = cfg.get("scheme", "group_cv")
    report = run_benchmark(
        dataset,
        task_cfg,
        cfg.model_spec(task_cfg.task),
        scheme,
        k=cfg.get_int("scheme.k", 5),
        direction=cfg.get("scheme.direction"),
        n_repeats=cfg.get_int("n_repeats", 5),
        base_seed=cfg.base_seed,
        threads=cfg.threads,
    )
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    report.to_csv(csv_path)
    report.to_json(out / "report.json")
    cfg.write_sidecar(csv_path)
    aggregates = sorted(
        {m for f, s, m, _ in report.rows if f == "mean" and s == "mean"}
    )
    shown = ", ".join(f"{m}={report.aggregate(m):.4f}" for m in aggregates)
    print(f"report written to {csv_path}: {shown}")
    return 0


def _cmd_report(cfg: RunConfig, paths: list[str]) -> int:
    if not paths:
        raise ConfigError("report command needs at least one report.csv path")
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"report file does not exist: {path}")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = []
            for row in reader:
                if None in row.values():
                    raise ValueError(f"{path} line {reader.line_num}: too few cells")
                rows.append(row)
        if not rows:
            print(f"{path}: empty report")
            continue
        missing = [column for column in REPORT_COLUMNS if column not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing column {', '.join(missing)}")
        ctx = rows[0]
        print(f"== {ctx['task']} ({ctx['crop']}) {ctx['feature_set']} "
              f"{ctx['model']} {ctx['scheme']} [{path}]")
        # Tillage-ratio RMSE is a share of cropland; display it as percent.
        as_percent = ctx["task"] == "tillage_ratio"
        metrics = sorted({r["metric"] for r in rows})
        folds = []
        for r in rows:
            if r["fold"] not in folds:
                folds.append(r["fold"])
        header = "fold".ljust(10) + "".join(m.rjust(14) for m in metrics)
        print(header)
        for fold in folds:
            cells = []
            for metric in metrics:
                mean_rows = [
                    r["value"] for r in rows
                    if r["fold"] == fold and r["seed"] == "mean" and r["metric"] == metric
                ]
                if not mean_rows:
                    cells.append("-".rjust(14))
                elif metric == "RMSE" and as_percent:
                    cells.append(f"{100 * float(mean_rows[0]):.2f}%".rjust(14))
                else:
                    cells.append(f"{float(mean_rows[0]):.4f}".rjust(14))
            print(fold.ljust(10) + "".join(cells))
    return 0


COMMANDS = {
    "synth": _cmd_synth,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "benchmark": _cmd_benchmark,
}


def execute(command: str, config_path: str | None, overrides: list[str],
            report_paths: list[str] | None = None) -> int:
    """Run one command; returns the process exit status."""
    stage = command
    try:
        values = parse_config_file(Path(config_path)) if config_path else {}
        values = apply_overrides(values, overrides)
        cfg = RunConfig(values)
        if command == "report":
            return _cmd_report(cfg, report_paths or [])
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        return COMMANDS[command](cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="agribench",
        description="Feature engineering, tree-ensemble training, and "
                    "leakage-aware benchmarking for agricultural tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "featurize", "train", "benchmark", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config value")
        if name == "report":
            p.add_argument("reports", nargs="*", help="report.csv files to summarize")
    args = parser.parse_args(argv)
    return execute(
        args.command,
        args.config,
        args.overrides,
        getattr(args, "reports", None),
    )


if __name__ == "__main__":
    sys.exit(main())
