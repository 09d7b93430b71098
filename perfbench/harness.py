"""Closed-loop runner: rounds of one workload for a fixed time, then checks.

A run repeats whole rounds of its workload until ``seconds`` have passed
(and at least ``MIN_ROUNDS``), each round under the light tracer, or, with
``trace`` on, alternating light and full tracing.  After the timed rounds
it reads the peak RSS, runs every round's output checks and prints one
JSON object as its last line.

End-to-end figures per round, reported as medians over the rounds:

  setup_s              round start -> entry of its first solver call
  run_s                that entry -> every output written
  coord_updates_per_s  coordinates updated / time inside solvers.run_*

plus ``peak_rss_mb`` of the process at the end of the timed rounds.
Per-layer figures come from the fully traced rounds: times are medians,
counts (which repeat exactly for a given seed) come from the first traced
round, and ``trace.overhead_s`` is traced minus light median ``run_s``.
The spans of that first traced round are written next to the results.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

from . import checks
from .tracing import Tracer
from .workloads import WORKLOADS

MIN_ROUNDS = 3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TIME_UNITS = ("s", "us")


def metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_dir: str, results_dir: str | None = None,
                 sizes: dict | None = None) -> dict:
    """Run one workload; returns the result object the entry point prints."""
    workload = WORKLOADS[name]
    sizes = sizes or workload.sizes
    tracer = Tracer()
    rounds = []
    attempted = failed = 0
    os.makedirs(work_dir, exist_ok=True)
    began = perf_counter()
    r = 0
    while r < MIN_ROUNDS or perf_counter() - began < seconds:
        traced = trace and r % 2 == 1
        a = len(tracer.name)
        tracer.install(full=traced)
        try:
            outcome = workload.run(sizes, seed, r, work_dir, tracer)
        except Exception:  # the loop must go on; the round counts as failed
            traceback.print_exc()
            outcome = None
        finally:
            tracer.uninstall()
        b = len(tracer.name)
        r += 1
        attempted += workload.ops(sizes)
        failed += workload.ops(sizes) if outcome is None else outcome.failed
        if outcome is None or outcome.check is None:
            continue
        runners = tracer.runner_spans(a, b)
        entry = min(tracer.start[i] for i in runners)
        solver_s = sum(tracer.end[i] - tracer.start[i] for i in runners)
        rounds.append({
            "round": r - 1,
            "traced": traced,
            "setup_s": entry - outcome.t0,
            "run_s": outcome.t_end - entry,
            "coord_updates_per_s": tracer.note_sum("coords", runners) / solver_s,
            "check": outcome.check,
            "layers": tracer.layer_metrics(a, b, outcome.matvecs_per_grad) if traced else None,
            "spans": (a, b),
        })
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    for rd in rounds:
        try:
            rd.pop("check")()
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            # a missing or malformed output file fails its check too
            correct = False
            print(f"check failed in round {rd['round']}: {exc}", file=sys.stderr)
    shutil.rmtree(work_dir, ignore_errors=True)
    if not rounds:
        raise RuntimeError(f"{name}: no round completed ({failed} of {attempted} operations failed)")

    specs = metric_specs()
    light = [rd for rd in rounds if not rd["traced"]]
    if trace:
        full = [rd for rd in rounds if rd["traced"]]
        values = {}
        for metric, unit in specs["per_layer"].items():
            if metric == "trace.overhead_s":
                values[metric] = (statistics.median(rd["run_s"] for rd in full)
                                  - statistics.median(rd["run_s"] for rd in light))
            elif unit in TIME_UNITS:
                values[metric] = statistics.median(rd["layers"][metric] for rd in full)
            else:
                values[metric] = full[0]["layers"][metric]
        units = specs["per_layer"]
    else:
        values = {metric: statistics.median(rd[metric] for rd in light)
                  for metric in ("setup_s", "run_s", "coord_updates_per_s")}
        values["peak_rss_mb"] = peak_rss_mb
        units = specs["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    if results_dir is not None:
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir, f"{name}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "seconds": seconds,
                       "sizes": sizes, "machine": machine_info(),
                       "peak_rss_mb": peak_rss_mb, "rounds": rounds,
                       "result": result}, fh, indent=1)
        if trace:
            tracer.save(stem + "-spans", *full[0]["spans"])
    return result
