"""The three workloads: one experiment each, plus the checks of its outputs.

An experiment is one closed-loop round; the harness runs rounds back to
back in one process.  Each experiment function times nothing itself except
its own start and end: the harness takes the first solver entry from the
tracer's runner spans.  It returns an :class:`Outcome` whose ``check``
re-derives the instance from its seed and checks the written outputs (see
``checks``); the harness runs the checks after the timed rounds, so their
memory does not count in the peak RSS.

Seeds: every input comes from ``numpy.random.SeedSequence([seed, workload,
round])``, so the same ``--seed`` replays the same instances and block
choices, round by round.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import iprox
from iprox import cli, traceio

from . import checks as ck

LAMBDA = 0.1


@dataclass
class Outcome:
    t0: float                    # experiment start
    t_end: float                 # every output written
    failed: int                  # operations of the round that failed
    check: Optional[Callable[[], None]]
    matvecs_per_grad: int        # gradient cost in matvecs for this kind


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable
    sizes: dict                  # the benchmark's sizes
    tiny: dict                   # the same code path at test size

    def ops(self, sizes: dict) -> int:
        """Operations one round attempts: CLI invocations or solver runs."""
        return 2 + sizes["seeds"] if self.name == "large-variants" else 1


def derive(seed: int, tag: int, round_: int, count: int) -> list:
    ss = np.random.SeedSequence([seed % 2 ** 64, tag, round_])
    return [int(v) for v in ss.generate_state(count, np.uint32)]


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli_run(cfg: dict, out: str):
    cfg_path = out + ".json"
    _write_json(cfg_path, cfg)
    t0 = perf_counter()
    rc = cli.main(["run", "--config", cfg_path, "--out", out])
    return t0, perf_counter(), rc


# --------------------------------------------------------------- desk-lasso

def desk_lasso(sizes, seed, round_, work, tracer) -> Outcome:
    n, rows, iters = sizes["n"], sizes["rows"], sizes["iters"]
    (inst_seed,) = derive(seed, 0, round_, 1)
    out = os.path.join(work, f"desk-lasso-{round_}")
    cfg = {
        "version": 1,
        "instance": {"kind": "lasso", "n": n, "rows": rows,
                     "reg_lambda": LAMBDA, "m": 1, "seed": inst_seed},
        "algorithm": "inertial",
        "schedule": {"c": 0.9, "beta": 0.5},
        "run": {"max_iters": iters, "record_every": 1, "stop_tol": 0.0},
        "audits": ["descent", "lyapunov", "squared_lyapunov"],
    }
    first_run = len(tracer.runs)
    t0, t_end, rc = _cli_run(cfg, out)
    runs = tracer.runs[first_run:]

    def check():
        A, b = ck.lasso_data(inst_seed, n, rows)
        true_L, true_block_L = ck.lasso_constants(A, 1)
        (run,) = runs
        ck.check_lipschitz(run["L"], run["block_L"], true_L, true_block_L)
        summary = _read_json(os.path.join(out, "summary.json"))
        ref = summary["reference"]
        x_star = np.asarray(_read_json(os.path.join(
            out, "reference_cache", ref["key"] + ".json"))["x_star"])
        ck.check_kkt(A, b, LAMBDA, x_star, true_L)
        f_star = ck.lasso_F(A, b, LAMBDA, x_star)
        ck.check_agree(ref["f_star"], f_star, "desk-lasso: reference f_star")
        F0 = ck.lasso_F(A, b, LAMBDA, np.zeros(n))
        cols = ck.read_trace_csv(os.path.join(out, "trace.csv"))
        ck.check_trace(cols, np.arange(iters + 1), F0,
                       ck.lasso_F(A, b, LAMBDA, run["x_final"]), f_star,
                       monotone=True, what="desk-lasso trace.csv")
        tol = ck.inequality_tol(F0)
        audits = summary["audits"]
        ck.require(set(audits) == set(cfg["audits"]), f"audits reported: {sorted(audits)}")
        ck.require(audits["descent"]["max_violation"] >= -tol, "descent audit failed")
        ck.require(audits["lyapunov"]["max_increase"] <= tol, "lyapunov audit failed")
        xi0 = float(cols["lyapunov"][0])
        ck.require(audits["squared_lyapunov"]["max_violation"] >= -1e-9 * (1.0 + xi0 ** 2),
                   "squared-Lyapunov audit failed")

    return Outcome(t0, t_end, int(rc != 0), check if rc == 0 else None, 2)


# --------------------------------------------------------- seeds-stochastic

def seeds_stochastic(sizes, seed, round_, work, tracer) -> Outcome:
    n, m, cond, iters = sizes["n"], sizes["m"], sizes["conditioning"], sizes["iters"]
    inst_seed, *block_seeds = derive(seed, 1, round_, 1 + sizes["seeds"])
    out = os.path.join(work, f"seeds-stochastic-{round_}")
    cfg = {
        "version": 1,
        "instance": {"kind": "quadratic", "n": n, "conditioning": cond,
                     "m": m, "seed": inst_seed},
        "algorithm": "stochastic",
        "schedule": {"c": 0.5, "beta": 0.5},
        "run": {"max_iters": iters, "record_every": 1, "stop_tol": 0.0},
        "x0": {"mode": "gaussian", "scale": 1.0},
        "seeds": block_seeds,
        "audits": ["descent", "lyapunov"],
    }
    first_run = len(tracer.runs)
    t0, t_end, rc = _cli_run(cfg, out)
    runs = tracer.runs[first_run:]

    def check():
        Q, z = ck.quadratic_data(inst_seed, n, cond)
        true_L, true_block_L = ck.quadratic_constants(Q, m)
        x0 = ck.gaussian_start(inst_seed, n)
        F0 = ck.quadratic_F(Q, z, x0)
        summary = _read_json(os.path.join(out, "summary.json"))
        ck.require(summary["reference"] is None, "quadratic run solved a reference")
        ck.require(len(runs) == len(block_seeds), "one solver run per seed expected")
        seed_cols = []
        for s, run in zip(block_seeds, runs):
            ck.require(run["seed"] == s, "solver runs out of seed order")
            ck.check_lipschitz(run["L"], run["block_L"], true_L, true_block_L)
            cols = ck.read_trace_csv(os.path.join(out, f"trace_seed{s}.csv"))
            ck.check_trace(cols, np.arange(iters + 1), F0,
                           ck.quadratic_F(Q, z, run["x_final"]), 0.0,
                           monotone=True, what=f"seeds-stochastic seed {s}")
            seed_cols.append(cols)
        mean = ck.read_trace_csv(os.path.join(out, "trace_mean.csv"))
        ck.check_mean_trace(mean, seed_cols, "seeds-stochastic trace_mean.csv")
        ck.check_trace(mean, np.arange(iters + 1), F0, float(mean["F"][-1]), 0.0,
                       monotone=True, what="seeds-stochastic trace_mean.csv")
        audits = summary["audits"]
        ck.require(set(audits) == set(cfg["audits"]), f"audits reported: {sorted(audits)}")
        # the inequality holds in expectation only, so a mean over a few seeds
        # may dip below zero: check the program's figure by recomputing it
        beta, c, L = cfg["schedule"]["beta"], cfg["schedule"]["c"], runs[0]["L"]
        gamma = 2.0 * (1.0 - beta / np.sqrt(m)) * c / L
        ck.check_agree(audits["descent"]["min_seed_mean_slack"],
                       ck.expectation_slack(seed_cols, beta, gamma, L, m),
                       "seeds-stochastic: expectation descent audit")
        ck.require(audits["lyapunov"]["max_increase_of_mean"] <= ck.inequality_tol(F0),
                   "seed-mean lyapunov audit failed")

    return Outcome(t0, t_end, int(rc != 0), check if rc == 0 else None, 1)


# ----------------------------------------------------------- large-variants

def large_variants(sizes, seed, round_, work, tracer) -> Outcome:
    """One lasso, all three orders, through the public API."""
    n, rows, m = sizes["n"], sizes["rows"], sizes["m"]
    inst_seed, *block_seeds = derive(seed, 2, round_, 1 + sizes["seeds"])
    out = os.path.join(work, f"large-variants-{round_}")
    os.makedirs(out, exist_ok=True)
    spec = iprox.InstanceSpec(kind="lasso", n=n, rows=rows, reg_lambda=LAMBDA,
                              m=m, seed=inst_seed)
    first_run = len(tracer.runs)
    failed = 0

    def attempt(runner, variant, cfg):
        nonlocal failed
        schedule = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                       variant=variant, m=m if variant == "stochastic" else 1)
        try:
            return runner(problem, schedule, x0, cfg)
        except (iprox.DivergenceError, iprox.ContractViolation):
            failed += 1
            return None

    t0 = perf_counter()
    problem = iprox.make_instance(spec)
    ref = iprox.solve_reference(problem, tol=1e-12)
    problem = iprox.with_reference(problem, ref)
    x0 = iprox.start_point(spec, "zeros")

    full = attempt(iprox.run_inertial, "full", iprox.RunConfig(max_iters=sizes["full_iters"]))
    cyclic = attempt(iprox.run_cyclic, "cyclic",
                     iprox.RunConfig(max_iters=sizes["cyclic_epochs"]))
    stochastic = [attempt(iprox.run_stochastic, "stochastic",
                          iprox.RunConfig(max_iters=sizes["stochastic_steps"],
                                          record_every=m, seed=s))
                  for s in block_seeds]
    audits = {}
    for order, trace in (("full", full), ("cyclic", cyclic)):
        if trace is not None:
            audits[order] = iprox.descent_audit(trace)
            traceio.write_trace_csv(os.path.join(out, f"{order}.csv"), trace)
    if all(t is not None for t in stochastic):
        traceio.write_mean_trace_csv(os.path.join(out, "stochastic_mean.csv"), stochastic)
    t_end = perf_counter()
    runs = tracer.runs[first_run:]
    x_star, ref_f_star = ref.x_star, ref.f_star

    def check():
        A, b = ck.lasso_data(inst_seed, n, rows)
        true_L, true_block_L = ck.lasso_constants(A, m)
        for run in runs:
            ck.check_lipschitz(run["L"], run["block_L"], true_L, true_block_L)
        ck.check_kkt(A, b, LAMBDA, x_star, true_L)
        f_star = ck.lasso_F(A, b, LAMBDA, x_star)
        ck.check_agree(ref_f_star, f_star, "large-variants: reference f_star")
        F0 = ck.lasso_F(A, b, LAMBDA, np.zeros(n))
        by_order = {}
        for run in runs:
            by_order.setdefault(run["order"], []).append(run)
        for order, iters in (("full", sizes["full_iters"]),
                             ("cyclic", sizes["cyclic_epochs"])):
            (run,) = by_order[order]
            cols = ck.read_trace_csv(os.path.join(out, f"{order}.csv"))
            ck.check_trace(cols, np.arange(iters + 1), F0,
                           ck.lasso_F(A, b, LAMBDA, run["x_final"]), f_star,
                           monotone=True, what=f"large-variants {order}.csv")
            ck.require(audits[order] >= -ck.inequality_tol(F0),
                       f"large-variants {order} descent audit failed")
        steps = sizes["stochastic_steps"]
        ks = sorted(set(range(0, steps + 1, m)) | {steps})
        final = np.mean([ck.lasso_F(A, b, LAMBDA, r["x_final"])
                         for r in by_order["stochastic"]])
        cols = ck.read_trace_csv(os.path.join(out, "stochastic_mean.csv"))
        ck.check_trace(cols, ks, F0, float(final), f_star, monotone=False,
                       what="large-variants stochastic_mean.csv")

    return Outcome(t0, t_end, failed, check if failed == 0 else None, 2)


WORKLOADS = {w.name: w for w in (
    Workload("desk-lasso", desk_lasso,
             sizes={"n": 50, "rows": 200, "iters": 10_000},
             tiny={"n": 10, "rows": 30, "iters": 60}),
    Workload("seeds-stochastic", seeds_stochastic,
             sizes={"n": 64, "m": 8, "conditioning": 100.0, "iters": 5_000, "seeds": 4},
             tiny={"n": 8, "m": 4, "conditioning": 10.0, "iters": 60, "seeds": 2}),
    Workload("large-variants", large_variants,
             sizes={"n": 1000, "rows": 2000, "m": 50, "full_iters": 100,
                    "cyclic_epochs": 8, "stochastic_steps": 150, "seeds": 3},
             tiny={"n": 20, "rows": 40, "m": 5, "full_iters": 20,
                   "cyclic_epochs": 5, "stochastic_steps": 12, "seeds": 2}),
)}
