"""ressm benchmark: train and eval throughput, with per-layer timings.

    python3 bench/run.py --workload train-L256 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process, closed loop: each round is one call into
``training.train`` or ``training.evaluate``, and the next round starts
when the last returns.  Rounds repeat until ``--seconds`` is spent and
at least 100 steps have run, so the 90th percentile step time has ten
samples beyond it.  Every round of a workload does the same
work from the same restored checkpoint.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The program is single-threaded by design; pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "ressm")):
        print(f"error: no ressm sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    result = workloads.run(workloads.WORKLOADS[args.workload], args.workload, args.seed,
                           args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
