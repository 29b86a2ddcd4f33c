"""Set-up step: generate a workload's bundle with ``synth.generate``.

Runs as its own process so that the timed run's peak memory excludes
set-up. Builds a ``SynthSpec`` from the JSON keyword arguments and
generates the bundle ``repeats`` times into the same directory
(the generator is deterministic, so each pass writes the same bytes),
timing the reference computation before each pass and after the last. It
prints one JSON line with those times and the bundle's size.

    python3 perfbench/setup_bundle.py '<SynthSpec kwargs JSON>' <seed> <out_dir> <repeats>
"""

import json
import sys
import time
from pathlib import Path

from reference import reference_seconds

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    kwargs, seed, out_dir, repeats = json.loads(argv[0]), int(argv[1]), Path(argv[2]), int(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    from agribench.synth import SynthSpec, generate

    spec = SynthSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in kwargs.items()})
    times, references = [], []
    for _ in range(repeats):
        references.append(reference_seconds())
        start = time.perf_counter()
        generate(spec, seed=seed, out_dir=out_dir)
        times.append(time.perf_counter() - start)
    references.append(reference_seconds())
    files = sorted(out_dir.glob("*.csv"))
    rows = sum(path.read_bytes().count(b"\n") - 1 for path in files)
    size = sum(path.stat().st_size for path in files)
    print(json.dumps({"times": times, "references": references, "rows": rows,
                      "bytes": size}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
