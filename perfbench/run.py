"""Layered benchmark for agribench.

    python3 perfbench/run.py --workload yield-rs-rf --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Set-up generates the workload's bundle
from ``--seed`` with ``synth.generate`` (in a child process, several times,
reporting the median). The timed part then runs sessions back to back for
``--seconds``: a session is the workload's ``agribench`` commands, run
in-process through ``agribench.cli.execute`` on the bundle already on disk.
After the window the outputs are checked.

``--trace 0`` reports the end-to-end metrics: median session time and
set-up time (both in reference seconds, see ``reference.py``), peak RSS of
this process, and the report score. ``--trace 1``
alternates untraced and traced sessions and reports per-layer metrics from
the spans of the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment, the
input sizes and the output digests.

Every CLI command and every output check is one attempted operation. A
non-zero status, an exception or a failed check counts as failed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
import layers
from reference import in_reference_seconds, reference_seconds
from tracing import Tracer, install, uninstall
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
BASELINE_SEED = 1  # seed of the recorded baseline
HELD_OUT_SEED = 7919  # never used while tuning; for checking claims
OUTPUTS = ("report.csv", "features.csv", "model.json")


@dataclass
class Session:
    wall: float
    traced: bool
    statuses: list
    digests: dict[str, str]
    bytes_written: int
    spans: list = field(default_factory=list)


class Ops:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def check(self, what: str, fn, *args) -> None:
        """Run a check returning problems; an exception is a failed check."""
        try:
            problems = fn(*args)
        except Exception as exc:  # the check's subject misbehaved: count, go on
            traceback.print_exc()
            problems = [repr(exc)]
        self.record(what, problems)


def overrides(workload: Workload, bundle: Path, out_dir: Path, seed: int) -> list[str]:
    return [f"bundle={bundle}", f"out_dir={out_dir}", f"base_seed={seed}",
            *workload.settings]


def run_setup(workload: Workload, seed: int, bundle: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_bundle.py"), json.dumps(workload.synth), str(seed),
         str(bundle), str(SETUP_REPEATS)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_session(workload: Workload, bundle: Path, out_dir: Path, seed: int,
                tracer: Tracer | None) -> tuple[Session, list[str]]:
    """One timed session; returns it with the trace targets that are missing."""
    from agribench import cli

    args = overrides(workload, bundle, out_dir, seed)
    undo, missing = install(tracer, layers.TARGETS) if tracer else ([], [])
    statuses = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for command in workload.commands:
                try:
                    statuses.append(cli.execute(command, None, args))
                except Exception as exc:  # a raw traceback is a failed operation
                    traceback.print_exc()
                    statuses.append(repr(exc))
    finally:
        wall = time.perf_counter() - start
        uninstall(undo)
    digests = {name: checks.sha256(out_dir / name)
               for name in OUTPUTS if (out_dir / name).is_file()}
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    spans = tracer.spans if tracer else []
    return Session(wall, tracer is not None, statuses, digests, written, spans), missing


def check_recorded(work_root: Path, key: str, digests: dict[str, str]) -> list[str]:
    """Digests must match every earlier run of the same seed and code."""
    path = work_root / "digests.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    if key not in record:
        record[key] = digests
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        tmp.replace(path)
        return []
    return [f"{name} digest differs from an earlier run of this seed"
            for name in sorted(set(digests) | set(record[key]))
            if digests.get(name) != record[key].get(name)]


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "agribench").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    from agribench.cli import RunConfig

    return {
        "threads": RunConfig({}).threads,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "code_hash": code_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "baseline_seed": BASELINE_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_root: Path = WORK) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns (result, detail lines)."""
    run_dir = work_root / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, work_root, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, work_root, run_dir):
    bundle = run_dir / "bundle"
    setup = run_setup(workload, seed, bundle)
    ops = Ops()
    run_id = f"{workload.name}-seed{seed}-{os.getpid()}"
    sessions: list[Session] = []
    references: list[float] = []
    missing: set[str] = set()
    start = time.perf_counter()
    while True:
        references.append(reference_seconds())
        traced = trace and len(sessions) % 2 == 1
        out_dir = run_dir / f"session{len(sessions)}"
        session, absent = run_session(workload, bundle, out_dir, seed,
                                      Tracer(run_id) if traced else None)
        missing.update(absent)
        sessions.append(session)
        for command, status in zip(workload.commands, session.statuses):
            ops.record(f"{command} (session {len(sessions)})",
                       [] if status == 0 else [f"status {status}"])
        if "benchmark" in workload.commands:
            ops.check("report rows", checks.report_problems, out_dir / "report.csv",
                      metrics_of(workload), workload.n_folds,
                      int(setting(workload, "n_repeats", "5")),
                      setting(workload, "scheme", "group_cv") == "yearly_cv")
        ops.record("digests agree across sessions",
                   [] if session.digests == sessions[0].digests else
                   [f"session {len(sessions)} digests {session.digests} "
                    f"!= {sessions[0].digests}"])
        if len(sessions) > 1:
            shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(s.wall for s in sessions)
        if len(sessions) >= (2 if trace else 1) and elapsed + typical > seconds:
            break
    references.append(reference_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = run_dir / "session0"
    built, digests = {}, dict(sessions[0].digests)
    ops.check("feature table", check_features, workload, bundle, seed, run_dir,
              built, digests)
    ops.check("score", check_score, workload, bundle, first, built)
    if "train" in workload.commands:
        ops.check("model.json reload", check_reload, workload, bundle, first, seed,
                  built.get("table"))
    inputs = {name: entry["rows"] for name, entry in built["dataset"].manifest.items()} \
        if "dataset" in built else {}
    if "table" in built:
        inputs["table"] = list(built["table"].values.shape)
    key = f"{workload.name}|seed={seed}|code={code_hash()}"
    ops.check("digests agree with earlier runs", check_recorded, work_root, key, digests)

    walls = [s.wall for s in sessions if not s.traced]
    details = [
        f"# environment: {json.dumps(environment(), sort_keys=True)}",
        f"# inputs: {json.dumps(inputs, sort_keys=True)}",
        f"# digests: {json.dumps(digests, sort_keys=True)}",
        f"# sessions: untraced={len(walls)} wall-second quartiles="
        f"{[round(q, 4) for q in quartiles(walls)]} reference median="
        f"{statistics.median(references):.4f}",
        f"# set-up: wall seconds={setup['times']} reference median="
        f"{statistics.median(setup['references']):.4f}",
    ]
    if trace:
        metrics, layer_self = traced_metrics(sessions, setup, missing)
        details.append(f"# layer self seconds (median session): "
                       f"{json.dumps(layer_self, sort_keys=True)}")
        details.append(f"# unmeasured layers: {sorted(layers.unmeasured_layers(missing))}")
        write_trace(work_root, workload, seed, sessions)
    else:
        metrics = {
            "run_s": {"value": in_reference_seconds(walls, references), "unit": "s"},
            "setup_s": {"value": in_reference_seconds(setup["times"], setup["references"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "score": {"value": built.get("score"), "unit": "score"},
        }
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    return result, details


def metrics_of(workload: Workload) -> tuple[str, ...]:
    if workload.score_metric == "F1_weighted":
        return checks.CLASSIFICATION_METRICS
    return checks.REGRESSION_METRICS


def setting(workload: Workload, key: str, default: str) -> str:
    return dict(item.split("=", 1) for item in workload.settings).get(key, default)


def _config(workload, bundle, out_dir, seed):
    from agribench.cli import RunConfig, apply_overrides

    return RunConfig(apply_overrides({}, overrides(workload, bundle, out_dir, seed)))


def check_features(workload, bundle, seed, run_dir, built, digests):
    """Width contract and finiteness of the table the commands assemble.

    Keeps the dataset and table in ``built`` for the later checks, and
    records the features.csv digest when no command wrote one.
    """
    from agribench.dataset import load_dataset
    from agribench.featurize import assemble_table, export_feature_table

    cfg = _config(workload, bundle, run_dir, seed)
    built["dataset"] = load_dataset(bundle)
    built["table"] = table = assemble_table(built["dataset"], cfg.task_config())
    if "features.csv" not in digests:
        export_feature_table(table, run_dir / "features.csv")
        digests["features.csv"] = checks.sha256(run_dir / "features.csv")
    return checks.table_problems(table.values, workload.width)


def check_score(workload, bundle, first, built):
    """The report's aggregate score, kept in ``built``, against the ceiling."""
    from agribench.synth import read_truth

    built["score"] = score = checks.report_score(first / "report.csv", workload.score_metric)
    ceiling = checks.score_ceiling(read_truth(bundle)["meta"])
    return checks.score_problems(score, ceiling, workload.score_floor)


def check_reload(workload, bundle, first, seed, table):
    """model.json reloaded predicts exactly as the same model trained in memory."""
    from agribench.models import load_model, predict, train

    cfg = _config(workload, bundle, first, seed)
    model = train(cfg.model_spec(table.task), table, table.labels, threads=cfg.threads)
    loaded = load_model(first / "model.json")
    return checks.prediction_problems(predict(model, table), predict(loaded, table))


def traced_metrics(sessions, setup, missing):
    untraced = statistics.median(s.wall for s in sessions if not s.traced)
    traced = [s for s in sessions if s.traced]
    per_session = [layers.session_metrics(s.spans, s.wall, s.bytes_written) for s in traced]
    values = {name: statistics.median(p[name] for p in per_session)
              for name in per_session[0]}
    values["trace.overhead"] = statistics.median(s.wall for s in traced) / untraced - 1.0
    values["synth.generate_s"] = statistics.median(setup["times"])
    values["synth.rows_written"] = setup["rows"]
    values["synth.bytes_written"] = setup["bytes"]
    unmeasured = layers.unmeasured_layers(missing)
    metrics = {
        name: {"value": None if name.split(".")[0] in unmeasured else values[name],
               "unit": unit}
        for name, unit in layers.METRICS.items()
    }
    own = [layers.layer_self_seconds(s.spans) for s in traced]
    layer_self = {name: round(statistics.median(o[name] for o in own), 4) for name in own[0]}
    return metrics, layer_self


def write_trace(work_root: Path, workload: Workload, seed: int, sessions) -> None:
    """Spans of each traced session; parents index into the session's list."""
    path = work_root / "traces" / f"{workload.name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([[asdict(span) for span in s.spans]
                                for s in sessions if s.traced]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "agribench" / "__init__.py").is_file():
        print(f"error: agribench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details = run(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    for line in details:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
