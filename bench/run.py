"""Training benchmark entry point.

    python3 bench/run.py --workload denoise-c4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; eqreg is imported from its src/.
Prints a few human-readable lines, then, as the last line, one JSON object
with correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-module metrics with --trace 1). Exits 1 if a correctness check
fails and 2 if the checkout has no eqreg sources.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "eqreg", "__init__.py")):
        print(f"bench: no eqreg sources under {src}", file=sys.stderr)
        return 2
    # BLAS stays on one thread, as the eqreg CLI pins it; this must precede numpy's import.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    import_s = time.perf_counter() - start
    result, checks, notes = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s, ROOT)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {notes}")
    for name, (ok, detail) in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
