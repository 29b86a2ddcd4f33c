"""Where each agribench layer is wrapped, and its per-layer metrics.

A target is a public function at a call site between layers, named in the
namespace of its caller. A layer with a target that no longer exists (a
refactor removed the call site) is reported as unmeasured; the run goes on.
"""

import statistics

from tracing import self_times

LAYERS = ("synth", "dataset", "featurize", "climate", "harmonics", "indices",
          "models", "evaluate", "cli")


def _rows_loaded(args, kwargs, dataset):
    manifest = getattr(dataset, "manifest", {}) or {}
    return {"rows": sum(entry.get("rows", 0) for entry in manifest.values())}


def _rows_assembled(args, kwargs, table):
    built = getattr(table, "n_rows", 0)
    dataset = args[0] if args else kwargs.get("dataset")
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    labelled = sum(1 for rec in getattr(dataset, "labels", ())
                   if rec.task == getattr(cfg, "task", None))
    return {"rows_built": built, "rows_dropped": max(0, labelled - built)}


def _nodes(args, kwargs, model):
    return {"nodes": sum(tree.feature.size for tree in getattr(model, "trees", ()))}


def _rows_predicted(args, kwargs, pred):
    return {"rows": getattr(pred, "size", 0)}


def _folds(args, kwargs, plan):
    return {"folds": len(getattr(plan, "folds", ()))}


# (dotted path at the call site, span name, count function)
TARGETS = (
    ("agribench.cli.execute", "cli.execute", None),
    ("agribench.cli.RunConfig.write_sidecar", "cli.write", None),
    ("agribench.cli.save_model", "cli.write", None),
    ("agribench.cli.export_feature_table", "cli.write", None),
    ("agribench.evaluate.MetricReport.to_csv", "cli.write", None),
    ("agribench.evaluate.MetricReport.to_json", "cli.write", None),
    ("agribench.cli.load_dataset", "dataset.load", _rows_loaded),
    ("agribench.cli.assemble_table", "featurize.assemble", _rows_assembled),
    ("agribench.evaluate.assemble_table", "featurize.assemble", _rows_assembled),
    ("agribench.featurize.monthly_gdd", "climate.gdd", None),
    ("agribench.featurize.monthly_ppt", "climate.aggregate", None),
    ("agribench.featurize.monthly_tmean", "climate.aggregate", None),
    ("agribench.featurize.month_coverage", "climate.aggregate", None),
    ("agribench.featurize.fit_harmonic", "harmonics.fit", None),
    ("agribench.featurize.phenology_metrics", "harmonics.phenology", None),
    ("agribench.featurize.monthly_extrema", "harmonics.extrema", None),
    ("agribench.featurize.derive_index_series", "indices.derive", None),
    ("agribench.cli.train", "models.train", _nodes),
    ("agribench.evaluate.train", "models.train", _nodes),
    ("agribench.evaluate.predict", "models.predict", _rows_predicted),
    ("agribench.cli.run_benchmark", "evaluate.protocol", None),
    ("agribench.evaluate.build_split_plan", "evaluate.split", _folds),
)

# Per-layer metrics with their units, in report order.
METRICS = {
    "synth.generate_s": "s", "synth.rows_written": "count",
    "synth.bytes_written": "bytes",
    "dataset.load_s": "s", "dataset.loads": "count", "dataset.rows": "count",
    "dataset.rows_per_s": "1/s",
    "featurize.assemble_s": "s", "featurize.self_s": "s", "featurize.calls": "count",
    "featurize.rows_built": "count", "featurize.rows_dropped": "count",
    "climate.gdd_s": "s", "climate.gdd_months": "count", "climate.aggregate_s": "s",
    "harmonics.fit_s": "s", "harmonics.fits": "count",
    "harmonics.fit_failures": "count", "harmonics.phenology_s": "s",
    "harmonics.extrema_s": "s", "harmonics.extrema_calls": "count",
    "indices.derive_s": "s", "indices.series": "count", "indices.failures": "count",
    "models.train_s": "s", "models.fits": "count", "models.fit_p50_s": "s",
    "models.fit_max_s": "s", "models.nodes": "count", "models.nodes_per_s": "1/s",
    "models.cpu_util": "ratio", "models.predict_s": "s",
    "models.rows_predicted": "count",
    "evaluate.protocol_s": "s", "evaluate.self_s": "s", "evaluate.split_s": "s",
    "evaluate.folds": "count",
    "cli.self_s": "s", "cli.write_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}


def unmeasured_layers(missing_targets) -> set[str]:
    by_path = {path: name.split(".")[0] for path, name, _ in TARGETS}
    return {by_path[path] for path in missing_targets}


def layer_self_seconds(spans) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix)."""
    totals = dict.fromkeys(LAYERS[1:], 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span.name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def session_metrics(spans, wall_s: float, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced session from its spans."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = layer_self_seconds(spans)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def counted(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def failures(name):
        return sum(1 for s in by_name.get(name, ()) if s.failed)

    fits = [s.duration for s in by_name.get("models.train", ())]
    train_s = total("models.train")
    train_cpu = sum(s.cpu for s in by_name.get("models.train", ()))
    load_s = total("dataset.load")
    roots = sum(s.duration for s in spans if s.parent is None)
    return {
        "dataset.load_s": load_s,
        "dataset.loads": calls("dataset.load"),
        "dataset.rows": counted("dataset.load", "rows"),
        "dataset.rows_per_s": counted("dataset.load", "rows") / load_s if load_s else 0.0,
        "featurize.assemble_s": total("featurize.assemble"),
        "featurize.self_s": own["featurize"],
        "featurize.calls": calls("featurize.assemble"),
        "featurize.rows_built": counted("featurize.assemble", "rows_built"),
        "featurize.rows_dropped": counted("featurize.assemble", "rows_dropped"),
        "climate.gdd_s": total("climate.gdd"),
        "climate.gdd_months": calls("climate.gdd"),
        "climate.aggregate_s": total("climate.aggregate"),
        "harmonics.fit_s": total("harmonics.fit"),
        "harmonics.fits": calls("harmonics.fit"),
        "harmonics.fit_failures": failures("harmonics.fit"),
        "harmonics.phenology_s": total("harmonics.phenology"),
        "harmonics.extrema_s": total("harmonics.extrema"),
        "harmonics.extrema_calls": calls("harmonics.extrema"),
        "indices.derive_s": total("indices.derive"),
        "indices.series": calls("indices.derive"),
        "indices.failures": failures("indices.derive"),
        "models.train_s": train_s,
        "models.fits": len(fits),
        "models.fit_p50_s": statistics.median(fits) if fits else 0.0,
        "models.fit_max_s": max(fits, default=0.0),
        "models.nodes": counted("models.train", "nodes"),
        "models.nodes_per_s": counted("models.train", "nodes") / train_s if train_s else 0.0,
        "models.cpu_util": train_cpu / train_s if train_s else 0.0,
        "models.predict_s": total("models.predict"),
        "models.rows_predicted": counted("models.predict", "rows"),
        "evaluate.protocol_s": total("evaluate.protocol"),
        "evaluate.self_s": own["evaluate"],
        "evaluate.split_s": total("evaluate.split"),
        "evaluate.folds": counted("evaluate.split", "folds"),
        "cli.self_s": own["cli"],
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": bytes_written,
        "trace.coverage": roots / wall_s if wall_s else 0.0,
    }
