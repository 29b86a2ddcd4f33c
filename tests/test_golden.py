"""Golden outputs: sha256 digests of a fixed matrix of bundles and command outputs.

The matrix is the synthetic bundles' CSVs plus the ``features.csv``,
``model.json``, ``importance.csv``, ``report.csv`` and ``report.json`` that
``featurize``, ``train`` and ``benchmark`` write for

- 4 tasks x RS/AEF x RF/GBT, 20 trees, ``scheme.k=3``, ``n_repeats=2``,
  ``base_seed=17``, on the corn (seed 41) and cover-crop (seed 43) bundles
  of acceptance criterion 6;
- one random forest that searches ``sqrt`` features for yield;
- the other three schemes on the corn bundle (``group_cv`` is the default):
  RS RF yield under ``space_transfer East->West``, AEF GBT yield under
  ``scale_transfer`` (one boosted fold that leaves rows out), and
  ``yearly_cv`` with its pooled ``all`` rows for AEF RF yield and RS GBT
  tillage class;
- the three perfbench workloads' settings, on their bundles at seed 1.

The bytes depend on the numpy build, so the manifest records the Python
version, the numpy version and the machine, and the test skips on any other
environment. They may also depend on the CPU: the RS features do not follow
OpenBLAS's kernel or numpy's SIMD dispatch (``test_host_independence.py``),
but ``np.sin``/``np.cos`` follow the C library's FMA code paths, and the
embeddings and gradient-boosted classifiers still go through BLAS and
``np.exp``.

A change that alters output bytes on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which entries changed and why.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import perfbench_workloads

from agribench.cli import execute
from agribench.dataset import TASKS
from agribench.synth import SynthSpec, generate

MANIFEST = Path(__file__).with_name("golden_manifest.json")
OUTPUTS = ("features.csv", "model.json", "importance.csv", "report.csv", "report.json")
COMMANDS = ("featurize", "train", "benchmark")
MATRIX = ("model.n_trees=20", "scheme.k=3", "n_repeats=2", "base_seed=17")


def bundles_and_cases() -> tuple[dict, dict]:
    """``{bundle: (SynthSpec, seed)}`` and ``{case: (bundle, settings)}``."""
    bundles = {
        "corn": (SynthSpec(n_counties=12, fields_per_county=1, years=(2019, 2020),
                           tasks=("yield", "tillage_ratio", "tillage_class")), 41),
        "cover": (SynthSpec(n_counties=6, fields_per_county=2, years=(2019, 2020),
                            tasks=("covercrop_class",)), 43),
    }
    cases = {}
    for task in TASKS:
        bundle = "cover" if task == "covercrop_class" else "corn"
        crop = ("task.crop=corn",) if task == "yield" else ()
        for feature_set in ("RS", "AEF"):
            for kind in ("RF", "GBT"):
                cases[f"{task}-{feature_set}-{kind}"] = (bundle, (
                    f"task.name={task}", *crop, f"task.feature_set={feature_set}",
                    f"model.kind={kind}", *MATRIX,
                ))
    cases["yield-RS-RF-sqrt"] = (
        "corn", cases["yield-RS-RF"][1] + ("model.max_features=sqrt",)
    )
    for case, base, scheme in (
        ("yield-RS-RF-space", "yield-RS-RF",
         ("scheme=space_transfer", "scheme.direction=East->West")),
        ("yield-AEF-GBT-scale", "yield-AEF-GBT", ("scheme=scale_transfer",)),
        ("yield-AEF-RF-yearly", "yield-AEF-RF", ("scheme=yearly_cv",)),
        ("tillage_class-RS-GBT-yearly", "tillage_class-RS-GBT", ("scheme=yearly_cv",)),
    ):
        cases[case] = ("corn", cases[base][1] + scheme)
    for name, workload in perfbench_workloads().items():
        bundles[name] = (SynthSpec(**workload.synth), 1)
        cases[name] = (name, (*workload.settings, "base_seed=1"))
    return bundles, cases


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compute_digests(root: Path) -> dict[str, str]:
    """``{"<bundle or case>/<file>": sha256}`` over the whole matrix."""
    bundles, cases = bundles_and_cases()
    digests = {}
    for name, (spec, seed) in bundles.items():
        generate(spec, seed=seed, out_dir=root / name)
        for path in sorted((root / name).glob("*.csv")):
            digests[f"bundle-{name}/{path.name}"] = _sha256(path)
    for case, (bundle, settings) in cases.items():
        out = root / "out" / case
        args = [f"bundle={root / bundle}", f"out_dir={out}", *settings]
        with contextlib.redirect_stdout(io.StringIO()):
            for command in COMMANDS:
                assert execute(command, None, args) == 0, (case, command)
        for name in OUTPUTS:
            digests[f"{case}/{name}"] = _sha256(out / name)
    return digests


def environment() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def test_outputs_match_golden_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    here = environment()
    differ = [f"{key} {manifest['environment'][key]} (here {here[key]})"
              for key in here if manifest["environment"][key] != here[key]]
    if differ:
        pytest.skip("golden digests were recorded on another environment: " + ", ".join(differ))
    digests = compute_digests(tmp_path)
    recorded = manifest["digests"]
    changed = [key for key in recorded if key in digests and digests[key] != recorded[key]]
    assert not changed, f"output bytes differ from the golden manifest: {', '.join(changed)}"
    assert sorted(digests) == sorted(recorded), "the case matrix differs from the manifest's"


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        digests = compute_digests(Path(root))
    MANIFEST.write_text(
        json.dumps({"environment": environment(), "digests": digests}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(digests)} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
