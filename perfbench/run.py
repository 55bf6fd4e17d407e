"""Run one workload of the repo benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dirty-d50k --seed 201 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). The lines above it print every metric by
name and unit. The full run record, with the spans of a traced run, is
written to ``.perfbench/records/``. Workloads and metrics are described in
``BENCHMARK.json`` and ``perfbench/bench.py``.
"""
import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# Before NumPy or Spark load: single-threaded BLAS, and temporary files
# inside the checkout.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ["TMPDIR"] = str(WORK / "tmp")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="analog generator seed (default: each analog's config seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum measured time; whole passes repeat until reached")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    import bench

    if args.workload not in bench.workloads():
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.workloads())}", file=sys.stderr)
        return 2
    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       ROOT, work=WORK)
    result = bench.report(record)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (records / name).write_text(json.dumps({**record, "result": result}, indent=1,
                                           default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
