"""RS feature tables hold the same bits whatever kernels the host's numpy picks.

The harmonic fits are summed and solved in basic IEEE operations, with no
BLAS or LAPACK call, so neither OpenBLAS's run-time kernel nor numpy's SIMD
dispatch reaches a feature. Subprocesses assemble a small yield and a small
cover-crop RS table under kernel overrides and must print the parent
process's digests. Not covered: the C library's FMA code paths, which
``np.sin``/``np.cos`` in the harmonic design still follow.

Run as a script, this module prints the table digests of the bundles under
the directory it is given.
"""

import ast
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from agribench.dataset import load_dataset
from agribench.featurize import FEATURE_SET_FILES, TaskConfig, assemble_table
from agribench.synth import SynthSpec, generate

SRC = Path(__file__).resolve().parents[1] / "src"

BUNDLES = {
    "yield": (SynthSpec(n_counties=4, years=(2019, 2020)),
              TaskConfig(task="yield", crop="corn")),
    "cover": (SynthSpec(n_counties=2, fields_per_county=2, years=(2019, 2020),
                        tasks=("covercrop_class",)),
              TaskConfig(task="covercrop_class")),
}

# Each simulates another x86-64 host for the subprocess alone.
OVERRIDES = {
    "older OpenBLAS kernel": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "AVX2 CPU without AVX-512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                                 "OPENBLAS_CORETYPE": "Haswell"},
}

BLAS_NAMES = ("linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum")


def table_digests(root: Path) -> dict[str, str]:
    """sha256 of each bundle's RS table: values, labels and row keys."""
    digests = {}
    for name, (_, cfg) in BUNDLES.items():
        table = assemble_table(load_dataset(root / name, FEATURE_SET_FILES["RS"]), cfg)
        digest = hashlib.sha256(table.values.tobytes())
        digest.update(table.labels.tobytes())
        digest.update(repr(table.unit_years).encode())
        digests[name] = digest.hexdigest()
    return digests


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel overrides name x86-64 kernels")
@pytest.mark.parametrize("host", OVERRIDES)
def test_rs_tables_do_not_depend_on_numpy_kernels(tmp_path, host):
    for name, (spec, _) in BUNDLES.items():
        generate(spec, seed=5, out_dir=tmp_path / name)
    here = table_digests(tmp_path)
    env = {**os.environ, **OVERRIDES[host],
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == here


@pytest.mark.parametrize("module", ["harmonics.py", "featurize.py"])
def test_no_blas_call_on_the_feature_path(module):
    """No ``np.linalg``, ``@``, ``np.dot`` or other BLAS-backed product in the
    modules that compute RS features."""
    tree = ast.parse((SRC / "agribench" / module).read_text(encoding="utf-8"))
    found = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
             or isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_NAMES]
    assert found == []


if __name__ == "__main__":
    print(json.dumps(table_digests(Path(sys.argv[1]))))
