"""Batch experiment driver.

Subcommands (all take --config <path> and --out <dir>):

  run    one experiment: build the instance, solve the reference baseline
         if needed, run the configured algorithm, write trace CSV(s) and
         summary.json with audit results and rate fits.
  sweep  grid over schedule parameters (c x beta or c x theta) from the
         "sweep" section; one output subdirectory per combination;
         --workers fans combinations out across processes.
  ode    heavy-ball ODE simulation and audit on a quadratic instance.
  rates  re-fit a rate estimate from an existing trace CSV, no re-run.

--seed-offset shifts the stochastic run seeds (block selection only;
instance synthesis seeds are part of the config).

Config files are versioned JSON ({"version": 1, ...}); unknown keys are
rejected with the offending field path.  Exit codes: 0 success, 2 config
error, 3 divergence or runtime failure.

Example run config:

    {
      "version": 1,
      "instance": {"kind": "lasso", "n": 50, "rows": 200,
                   "reg_lambda": 0.1, "m": 1, "seed": 7},
      "algorithm": "inertial",
      "schedule": {"c": 0.9, "beta": 0.5},
      "run": {"max_iters": 10000, "record_every": 1, "stop_tol": 0.0},
      "audits": ["descent", "lyapunov", "rates"],
      "rate": {"model": "geometric", "k_lo": 5, "k_hi": 50}
    }

Trace CSVs use the fixed header "k,F,lyapunov,step_sq,residual_sq,descent_slack";
stochastic runs write trace_seed<S>.csv per seed plus trace_mean.csv.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import diagnostics, library, reference, solvers, traceio
from .errors import ConfigError, ContractViolation, DivergenceError, RunFailure
from .ode import ode_audit, simulate_heavy_ball
from .schedules import ConstantBeta, DiminishingBeta, ParamSchedule

ALGORITHMS = ("inertial", "cyclic", "stochastic", "prox_grad")
AUDITS = ("descent", "squared_lyapunov", "lyapunov", "rates")
RATE_COLUMNS = ("lyapunov", "F", "step_sq", "residual_sq")
# audits whose result depends on min F (or the minimizer) from the reference
_F_STAR_AUDITS = ("squared_lyapunov", "rates")


# ---------------------------------------------------------------- validation

def _check_keys(d: dict, allowed, path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected a JSON object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key")


def _get(d: dict, key: str, path: str, types, default=KeyError, pred=None,
         predmsg: str = "invalid value"):
    if key not in d:
        if default is KeyError:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    val = d[key]
    if types is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, types) or isinstance(val, bool) and types is not bool:
        raise ConfigError(f"{path}.{key}", f"expected {getattr(types, '__name__', types)}")
    if pred is not None and not pred(val):
        raise ConfigError(f"{path}.{key}", predmsg)
    return val


def _non_finite(name: str):
    # Python's json parses NaN and +-Infinity, which JSON does not allow
    raise ConfigError("config", f"{name} is not a JSON number")


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh, parse_constant=_non_finite)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    if cfg.get("version") != 1:
        raise ConfigError("version", "config version must be 1")
    return cfg


def _validate_instance(cfg: dict) -> library.InstanceSpec:
    section = _get(cfg, "instance", "config", dict)
    try:
        return library.spec_from_dict(section)
    except (ContractViolation, TypeError) as exc:
        raise ConfigError("instance", str(exc))


def _validate_schedule(cfg: dict, algorithm: str, m: int) -> ParamSchedule:
    sched = _get(cfg, "schedule", "config", dict)
    _check_keys(sched, ("c", "beta", "theta", "fixed_gamma"), "schedule")
    c = _get(sched, "c", "schedule", float, default=0.9,
             pred=lambda v: 0 < v < 1, predmsg="c must lie in (0, 1)")
    has_beta = "beta" in sched
    has_theta = "theta" in sched
    fixed_gamma = _get(sched, "fixed_gamma", "schedule", float, default=None,
                       pred=lambda v: v > 0, predmsg="fixed_gamma must be > 0")
    variant = {"inertial": "full", "prox_grad": "full",
               "cyclic": "cyclic", "stochastic": "stochastic"}[algorithm]
    if fixed_gamma is not None:
        if algorithm != "stochastic":
            raise ConfigError("schedule.fixed_gamma", "only valid for algorithm=stochastic")
        if has_beta or has_theta:
            raise ConfigError("schedule.fixed_gamma",
                              "fixed_gamma regime sets beta itself; drop beta/theta")
        rule = ConstantBeta(0.0)  # placeholder; the solver derives beta from nu
    elif algorithm == "prox_grad":
        if has_beta or has_theta:
            raise ConfigError("schedule", "prox_grad baseline takes only c")
        rule = ConstantBeta(0.0)
    elif has_beta == has_theta:
        raise ConfigError("schedule", "give exactly one of beta (constant) or theta (diminishing)")
    elif has_beta:
        beta = _get(sched, "beta", "schedule", float,
                    pred=lambda v: 0 <= v < 1, predmsg="beta must lie in [0, 1)")
        rule = ConstantBeta(beta)
    else:
        theta = _get(sched, "theta", "schedule", float,
                     pred=lambda v: v > 1, predmsg="theta must be > 1")
        rule = DiminishingBeta(theta)
    try:
        return ParamSchedule(beta_rule=rule, c=c, variant=variant,
                             m=m if variant == "stochastic" else 1,
                             fixed_gamma=fixed_gamma)
    except ContractViolation as exc:
        raise ConfigError("schedule", str(exc))


def _validate_run(cfg: dict, audits) -> solvers.RunConfig:
    section = _get(cfg, "run", "config", dict)
    _check_keys(section, ("max_iters", "record_every", "stop_tol", "keep_iterates"), "run")
    max_iters = _get(section, "max_iters", "run", int,
                     pred=lambda v: v >= 1, predmsg="max_iters must be >= 1")
    record_every = _get(section, "record_every", "run", int, default=1,
                        pred=lambda v: v >= 1, predmsg="record_every must be >= 1")
    stop_tol = _get(section, "stop_tol", "run", float, default=0.0,
                    pred=lambda v: v >= 0, predmsg="stop_tol must be >= 0")
    keep = _get(section, "keep_iterates", "run", bool, default=False)
    if "squared_lyapunov" in audits:
        keep = True
    if audits and set(audits) != {"rates"} and record_every != 1:
        raise ConfigError("run.record_every", "inequality audits need record_every = 1")
    return solvers.RunConfig(max_iters=max_iters, record_every=record_every,
                             stop_tol=stop_tol, keep_iterates=keep)


def _validate_audits(cfg: dict, algorithm: str, spec) -> list:
    audits = _get(cfg, "audits", "config", list, default=[])
    for i, a in enumerate(audits):
        if a not in AUDITS:
            raise ConfigError(f"audits[{i}]", f"must be one of {AUDITS}")
    if "squared_lyapunov" in audits:
        if algorithm == "stochastic":
            raise ConfigError("audits", "squared_lyapunov applies to inertial/cyclic runs")
        if spec.kind == "logistic_l1":
            raise ConfigError("audits", "squared_lyapunov needs a solution projection; "
                                        "logistic_l1 has none")
    return list(audits)


def _validate_rate(cfg: dict) -> dict:
    section = _get(cfg, "rate", "config", dict, default={})
    _check_keys(section, ("model", "column", "k_lo", "k_hi", "burn_in", "floor_scale"),
                "rate")
    model = _get(section, "model", "rate", str, default="sublinear_power",
                 pred=lambda v: v in ("sublinear_power", "geometric"),
                 predmsg="model must be sublinear_power or geometric")
    column = _get(section, "column", "rate", str, default="lyapunov",
                  pred=lambda v: v in RATE_COLUMNS,
                  predmsg=f"column must be one of {RATE_COLUMNS}")
    k_lo = _get(section, "k_lo", "rate", int, default=None, pred=lambda v: v >= 0,
                predmsg="k_lo must be >= 0")
    k_hi = _get(section, "k_hi", "rate", int, default=None, pred=lambda v: v >= 0,
                predmsg="k_hi must be >= 0")
    burn_in = _get(section, "burn_in", "rate", float,
                   default=0.0 if k_lo is not None else 0.1,
                   pred=lambda v: 0 <= v < 1, predmsg="burn_in must lie in [0, 1)")
    floor_scale = _get(section, "floor_scale", "rate", float, default=1e-14,
                       pred=lambda v: v >= 0, predmsg="floor_scale must be >= 0")
    return {"model": model, "column": column, "k_lo": k_lo, "k_hi": k_hi,
            "burn_in": burn_in, "floor_scale": floor_scale}


def _validate_reference(cfg: dict, out_dir: str) -> dict:
    section = _get(cfg, "reference", "config", dict, default={})
    _check_keys(section, ("tol", "max_iters", "cache_dir"), "reference")
    return {
        "tol": _get(section, "tol", "reference", float, default=1e-12,
                    pred=lambda v: v > 0, predmsg="tol must be > 0"),
        "max_iters": _get(section, "max_iters", "reference", int, default=10 ** 6,
                          pred=lambda v: v >= 1, predmsg="max_iters must be >= 1"),
        "cache_dir": _get(section, "cache_dir", "reference", str,
                          default=os.path.join(out_dir, "reference_cache")),
    }


def _validate_x0(cfg: dict) -> dict:
    section = _get(cfg, "x0", "config", dict, default={})
    _check_keys(section, ("mode", "scale"), "x0")
    mode = _get(section, "mode", "x0", str, default="zeros",
                pred=lambda v: v in ("zeros", "gaussian"),
                predmsg="mode must be zeros or gaussian")
    scale = _get(section, "scale", "x0", float, default=1.0)
    return {"mode": mode, "scale": scale}


_RUN_KEYS = ("version", "instance", "algorithm", "schedule", "run", "seeds",
             "audits", "rate", "reference", "x0", "output_dir", "sweep")


def _validate_top(cfg: dict, subcommand: str):
    _check_keys(cfg, _RUN_KEYS, "config")
    if subcommand == "run" and "sweep" in cfg:
        raise ConfigError("sweep", "grid section requires the sweep subcommand")
    if subcommand == "sweep" and "sweep" not in cfg:
        raise ConfigError("sweep", "sweep subcommand needs a sweep section")


# ---------------------------------------------------------------- experiment

def _prepare(cfg: dict, out_dir: str):
    spec = _validate_instance(cfg)
    algorithm = _get(cfg, "algorithm", "config", str,
                     pred=lambda v: v in ALGORITHMS,
                     predmsg=f"must be one of {ALGORITHMS}")
    audits = _validate_audits(cfg, algorithm, spec)
    schedule = _validate_schedule(cfg, algorithm, spec.m)
    run_cfg = _validate_run(cfg, audits)
    rate_cfg = _validate_rate(cfg)
    ref_cfg = _validate_reference(cfg, out_dir)
    x0_cfg = _validate_x0(cfg)
    seeds = _get(cfg, "seeds", "config", list, default=None)
    if algorithm == "stochastic":
        if not seeds:
            raise ConfigError("seeds", "stochastic runs need a nonempty seeds list")
        for i, s in enumerate(seeds):
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ConfigError(f"seeds[{i}]", "seeds must be nonnegative integers")
    elif seeds is not None:
        raise ConfigError("seeds", "only stochastic runs take seeds")
    if schedule.fixed_gamma is not None and spec.kind not in (
            "quadratic", "quadratic_l1", "noncoercive_quadratic"):
        raise ConfigError("schedule.fixed_gamma",
                          "the linear regime needs an instance with nu (quadratic family)")
    return spec, algorithm, audits, schedule, run_cfg, rate_cfg, ref_cfg, x0_cfg, seeds


def _reference_solution(problem, spec, ref_cfg):
    """Load or solve the reference; only converged solutions are cached."""
    key = reference.spec_cache_key(library.spec_to_dict(spec), ref_cfg["tol"])
    cache_dir = ref_cfg["cache_dir"]
    ref = reference.load_cached(cache_dir, key, dim=spec.n)
    if ref is None or not ref.converged:
        ref = reference.solve_reference(problem, tol=ref_cfg["tol"],
                                        max_iters=ref_cfg["max_iters"])
        if ref.converged:
            reference.store_cached(cache_dir, key, ref)
    return key, ref


def _fit_from_trace(ks, values, rate_cfg, f_star) -> dict:
    floor = diagnostics.value_floor(f_star if f_star is not None else 0.0,
                                    rate_cfg["floor_scale"])
    ks_w, vals_w = diagnostics.select_window(ks, values, rate_cfg["k_lo"],
                                             rate_cfg["k_hi"], floor)
    try:
        est = diagnostics.fit_rate(ks_w, vals_w, rate_cfg["model"],
                                   burn_in_frac=rate_cfg["burn_in"])
    except ContractViolation as exc:
        # the config was valid; the trace it produced cannot be fitted
        raise RunFailure(f"rate fit on column {rate_cfg['column']!r}: {exc}")
    return {"model": est.model, "value": est.exponent_or_ratio,
            "fit_residual": est.fit_residual,
            "window": [est.window[0], est.window[1]],
            "column": rate_cfg["column"], "points": int(len(ks_w))}


def run_experiment(cfg: dict, out_dir: str, seed_offset: int = 0,
                   subcommand: str = "run") -> dict:
    """Execute one validated run config; returns the summary dict."""
    _validate_top(cfg, subcommand)
    (spec, algorithm, audits, schedule, run_cfg, rate_cfg, ref_cfg,
     x0_cfg, seeds) = _prepare(cfg, out_dir)
    os.makedirs(out_dir, exist_ok=True)

    problem = library.make_instance(spec)
    ref_key = None
    ref = None
    if problem.f_star is None or (
            "squared_lyapunov" in audits and problem.solution_projection is None):
        ref_key, ref = _reference_solution(problem, spec, ref_cfg)
        needs = [a for a in audits if a in _F_STAR_AUDITS]
        if not ref.converged and needs:
            raise RunFailure(
                f"reference solve did not converge (residual {ref.residual:.3g} "
                f"after {ref.iterations_used} iterations); audits {needs} need "
                "min F: raise reference.max_iters or tol")
        problem = reference.with_reference(
            problem, ref, unique_minimizer=spec.kind != "logistic_l1")

    x0 = library.start_point(spec, x0_cfg["mode"], x0_cfg["scale"])
    summary = {
        "config": cfg,
        "algorithm": algorithm,
        "out_dir": os.path.abspath(out_dir),
        "reference": None if ref is None else {
            "key": ref_key, "f_star": ref.f_star, "residual": ref.residual,
            "iterations_used": ref.iterations_used, "converged": ref.converged,
        },
        "audits": {},
        "rates": [],
        "trace_files": [],
    }

    if algorithm == "stochastic":
        traces = []
        for s in seeds:
            cfg_s = dataclasses.replace(run_cfg, seed=s + seed_offset)
            trace = solvers.run_stochastic(problem, schedule, x0, cfg_s)
            traces.append(trace)
            fname = f"trace_seed{s + seed_offset}.csv"
            traceio.write_trace_csv(os.path.join(out_dir, fname), trace)
            summary["trace_files"].append(fname)
        mean_cols = traceio.write_mean_trace_csv(
            os.path.join(out_dir, "trace_mean.csv"), traces)
        summary["trace_files"].append("trace_mean.csv")
        if "descent" in audits:
            summary["audits"]["descent"] = {
                "min_seed_mean_slack": diagnostics.expectation_descent_audit(traces)}
        if "lyapunov" in audits:
            xi = mean_cols["lyapunov"]
            inc = float(max(0.0, np.max(np.diff(xi)))) if len(xi) > 1 else 0.0
            summary["audits"]["lyapunov"] = {"max_increase_of_mean": inc}
        if "rates" in audits:
            summary["rates"].append(_fit_from_trace(
                mean_cols["k"], mean_cols[rate_cfg["column"]], rate_cfg,
                problem.f_star))
    else:
        runner = {"inertial": solvers.run_inertial,
                  "prox_grad": solvers.run_inertial,
                  "cyclic": solvers.run_cyclic}[algorithm]
        trace = runner(problem, schedule, x0, run_cfg)
        traceio.write_trace_csv(os.path.join(out_dir, "trace.csv"), trace)
        summary["trace_files"].append("trace.csv")
        if "descent" in audits:
            summary["audits"]["descent"] = {
                "max_violation": diagnostics.descent_audit(trace)}
        if "lyapunov" in audits:
            summary["audits"]["lyapunov"] = {
                "max_increase": diagnostics.max_lyapunov_increase(trace)}
        if "squared_lyapunov" in audits:
            summary["audits"]["squared_lyapunov"] = {
                "max_violation": diagnostics.squared_lyapunov_audit(trace, problem)}
        if "rates" in audits:
            summary["rates"].append(_fit_from_trace(
                trace.ks, getattr(trace, rate_cfg["column"]), rate_cfg,
                problem.f_star))

    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


# -------------------------------------------------------------------- sweep

def _sweep_worker(cfg_text: str, out_dir: str, seed_offset: int):
    cfg = json.loads(cfg_text)
    try:
        run_experiment(cfg, out_dir, seed_offset=seed_offset, subcommand="run")
        return out_dir, "ok"
    except (ConfigError, ContractViolation, DivergenceError, RunFailure) as exc:
        return out_dir, f"error: {type(exc).__name__}: {exc}"
    except Exception as exc:  # unforeseen: log it, but finish the other points
        traceback.print_exc()
        return out_dir, f"error: {type(exc).__name__}: {exc}"


def _grid_label(v) -> str:
    # the short %g form when it reads back as v, else the round-trip repr,
    # so distinct grid values never share an output directory
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def _pool_size(workers: int, jobs: int) -> int:
    """Worker processes for a sweep: never more than jobs or CPUs."""
    return min(workers, jobs, os.cpu_count() or 1)


def cmd_sweep(cfg: dict, out_dir: str, workers: int, seed_offset: int) -> int:
    _validate_top(cfg, "sweep")
    section = cfg["sweep"]
    _check_keys(section, ("c", "beta", "theta"), "sweep")
    if "beta" in section and "theta" in section:
        raise ConfigError("sweep", "sweep beta and theta are mutually exclusive")
    base_sched = _get(cfg, "schedule", "config", dict, default={})
    cs = section.get("c", [base_sched.get("c", 0.9)])
    if not isinstance(cs, list) or not cs:
        raise ConfigError("sweep.c", "expected a nonempty list")
    if "beta" in section:
        inertia_key, inertia_vals = "beta", section["beta"]
    elif "theta" in section:
        inertia_key, inertia_vals = "theta", section["theta"]
    else:
        inertia_key, inertia_vals = None, [None]
    if not isinstance(inertia_vals, list) or not inertia_vals:
        raise ConfigError(f"sweep.{inertia_key}", "expected a nonempty list")
    for key, vals in (("c", cs), (inertia_key, inertia_vals)):
        if key is None:
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            raise ConfigError(f"sweep.{key}", "expected a list of numbers")
        if len(set(vals)) != len(vals):
            raise ConfigError(f"sweep.{key}", "duplicate grid value")

    jobs = []
    for c_val, b_val in itertools.product(cs, inertia_vals):
        sub = json.loads(json.dumps(cfg))
        sub.pop("sweep")
        sched = dict(sub.get("schedule", {}))
        sched["c"] = c_val
        name = f"c{_grid_label(c_val)}"
        if inertia_key is not None:
            sched.pop("beta", None)
            sched.pop("theta", None)
            sched[inertia_key] = b_val
            name += f"_{inertia_key}{_grid_label(b_val)}"
        sub["schedule"] = sched
        jobs.append((name, json.dumps(sub), os.path.join(out_dir, name)))

    results = {}
    workers = _pool_size(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [(name, pool.submit(_sweep_worker, text, d, seed_offset))
                    for name, text, d in jobs]
            for name, fut in futs:
                d, status = fut.result()
                results[name] = {"dir": d, "status": status}
    else:
        for name, text, d in jobs:
            _, status = _sweep_worker(text, d, seed_offset)
            results[name] = {"dir": d, "status": status}

    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "sweep_summary.json"), {"runs": results})
    return 0 if all(v["status"] == "ok" for v in results.values()) else 3


# ---------------------------------------------------------------------- ode

def cmd_ode(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, ("version", "ode"), "config")
    section = _get(cfg, "ode", "config", dict)
    _check_keys(section, ("n", "conditioning", "seed", "alpha", "theta", "h",
                          "t_end", "x0_scale", "v0_scale"), "ode")
    n = _get(section, "n", "ode", int, pred=lambda v: v >= 2, predmsg="n must be >= 2")
    conditioning = _get(section, "conditioning", "ode", float, default=4.0,
                        pred=lambda v: v >= 2, predmsg="conditioning must be >= 2")
    seed = _get(section, "seed", "ode", int, default=0,
                pred=lambda v: v >= 0, predmsg="seed must be >= 0")
    alpha = _get(section, "alpha", "ode", float,
                 pred=lambda v: v > 0, predmsg="alpha must be > 0")
    theta = _get(section, "theta", "ode", float,
                 pred=lambda v: v > 0, predmsg="theta must be > 0")
    h = _get(section, "h", "ode", float, pred=lambda v: v > 0, predmsg="h must be > 0")
    t_end = _get(section, "t_end", "ode", float,
                 pred=lambda v: v > 0, predmsg="t_end must be > 0")
    x0_scale = _get(section, "x0_scale", "ode", float, default=1.0)
    v0_scale = _get(section, "v0_scale", "ode", float, default=0.0)

    spec = library.InstanceSpec(kind="quadratic", n=n, conditioning=conditioning,
                                seed=seed)
    problem = library.make_instance(spec)
    x_star = problem.solution_projection(np.zeros(n))
    rng = np.random.Generator(np.random.PCG64([seed, 0x0DE]))
    x0 = x_star + x0_scale * rng.standard_normal(n)
    v0 = v0_scale * rng.standard_normal(n)

    trace = simulate_heavy_ball(problem, x0, v0, alpha, h, t_end)
    report = ode_audit(trace, theta, x_star)
    os.makedirs(out_dir, exist_ok=True)
    traceio.write_ode_csv(os.path.join(out_dir, "ode_trace.csv"), trace)
    _write_json(os.path.join(out_dir, "ode_summary.json"), {
        "config": cfg, "audit": report,
    })
    return 0


# -------------------------------------------------------------------- rates

def cmd_rates(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, ("version", "fit"), "config")
    section = _get(cfg, "fit", "config", dict)
    _check_keys(section, ("csv", "column", "model", "k_lo", "k_hi", "floor",
                          "burn_in"), "fit")
    csv_path = _get(section, "csv", "fit", str)
    column = _get(section, "column", "fit", str, default="lyapunov")
    model = _get(section, "model", "fit", str, default="sublinear_power",
                 pred=lambda v: v in ("sublinear_power", "geometric"),
                 predmsg="model must be sublinear_power or geometric")
    k_lo = _get(section, "k_lo", "fit", int, default=None)
    k_hi = _get(section, "k_hi", "fit", int, default=None)
    floor = _get(section, "floor", "fit", float, default=0.0,
                 pred=lambda v: v >= 0, predmsg="floor must be >= 0")
    burn_in = _get(section, "burn_in", "fit", float,
                   default=0.0 if k_lo is not None else 0.1,
                   pred=lambda v: 0 <= v < 1, predmsg="burn_in must lie in [0, 1)")
    try:
        cols = traceio.read_csv(csv_path)
    except (OSError, ContractViolation) as exc:
        raise ConfigError("fit.csv", str(exc))
    if "k" not in cols or column not in cols:
        raise ConfigError("fit.column", f"column {column!r} not in {csv_path}")
    ks, vals = diagnostics.select_window(cols["k"], cols[column], k_lo, k_hi, floor)
    est = diagnostics.fit_rate(ks, vals, model, burn_in_frac=burn_in)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "rates.json"), {
        "config": cfg,
        "fit": {"model": est.model, "value": est.exponent_or_ratio,
                "fit_residual": est.fit_residual,
                "window": [est.window[0], est.window[1]],
                "points": int(len(ks))},
    })
    return 0


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="iprox", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "ode", "rates"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed-offset", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "run":
            run_experiment(cfg, args.out, seed_offset=args.seed_offset,
                           subcommand="run")
            return 0
        if args.command == "sweep":
            if args.workers < 1:
                raise ConfigError("workers", "must be >= 1")
            return cmd_sweep(cfg, args.out, args.workers, args.seed_offset)
        if args.command == "ode":
            return cmd_ode(cfg, args.out)
        return cmd_rates(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
