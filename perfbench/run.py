"""freqlens benchmark entry point.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run from the repository root.  Imports freqlens from ``src/`` of the same
checkout, prints a human-readable report, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
ones with ``--trace 1``).  Work files and traces go to ``perfbench/out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"  # one closed-loop client on one core, so at most nproc


def main(argv=None) -> int:
    # fixed before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import freqlens
    except ImportError as exc:
        print(f"perfbench: cannot import freqlens from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(freqlens.__file__).resolve().parent != ROOT / "src" / "freqlens":
        print(f"perfbench: freqlens sources are not in {ROOT / 'src'} (found {freqlens.__file__})",
              file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = bench.load_spec(ROOT)
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), spec, HERE / "out")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
