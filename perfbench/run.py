"""Benchmark entry point.

    python3 perfbench/run.py --workload desk-lasso --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  BLAS is
limited to one thread through this process's own environment, set before
numpy loads; no machine setting is changed.  The last line of standard
output is the result object; ``--workload all`` runs each workload in its
own child process (so each peak RSS is its own) and ends with a combined
object whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("desk-lasso", "seeds-stochastic", "large-variants")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="")
        if child.returncode != 0:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "iprox", "__init__.py")):
        print(f"no iprox sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        work_dir=os.path.join(BENCH_DIR, "scratch", f"{args.workload}-{os.getpid()}"),
        results_dir=os.path.join(BENCH_DIR, "results"))
    for metric, m in result["metrics"].items():
        print(f"{args.workload} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
