"""Benchmark command for the speq decoder.

    python3 bench/run.py --workload chat-short --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer ones. The last line of
standard output is one JSON object; the lines before it are the run stamp,
notes and every metric with its unit. The exit code is 0 only when every
request and check passed.

The package is imported from ``src/`` next to this directory, never from
anywhere else, so a checkout without the sources fails before printing a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One compute thread. Set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMBA_NUM_THREADS",
):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "speq" / "__init__.py").is_file():
        print(f"error: no speq sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import speqbench  # noqa: E402  (needs the paths above)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(speqbench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = speqbench.WORKLOADS[args.workload]
    stamp = speqbench.run_stamp(wl, args.seed)
    scratch = ROOT / ".speqbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    try:
        run = speqbench.run_traced if args.trace else speqbench.run_end_to_end
        result = run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    line = speqbench.result_line(result, "per_layer" if args.trace else "end_to_end")
    print(speqbench.report(stamp, result, line))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
