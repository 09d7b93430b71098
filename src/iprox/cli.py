"""Batch experiment driver.

Subcommands (all take --config <path> and --out <dir>; run and sweep also
take --seed-offset, and sweep takes --workers):

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
rejected with the offending field path.  Exit codes: 0 success; 2 config
error, and nothing was written (a sweep decodes every point first); 3
divergence or runtime failure (a failed allocation included), after which
traces may be on disk.

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
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import diagnostics, library, reference, solvers, traceio
from .errors import ConfigError, ContractViolation, DivergenceError, RunFailure
from .ode import ode_audit, simulate_heavy_ball
from .schedules import ConstantBeta, DiminishingBeta, ParamSchedule

# algorithm -> (schedule variant, runner in solvers)
ALGORITHMS = {"inertial": ("full", "run_inertial"), "prox_grad": ("full", "run_inertial"),
              "cyclic": ("cyclic", "run_cyclic"), "stochastic": ("stochastic", "run_stochastic")}
AUDITS = ("descent", "squared_lyapunov", "lyapunov", "rates")
RATE_COLUMNS = ("lyapunov", "F", "step_sq", "residual_sq")
# audits whose result depends on min F (or the minimizer) from the reference
_F_STAR_AUDITS = ("squared_lyapunov", "rates")
# the largest integer a config float may be given as
_MAX_FLOAT_INT = int(np.finfo(float).max)


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
        if abs(val) > _MAX_FLOAT_INT:
            raise ConfigError(f"{path}.{key}", "integer too large for a double")
        val = float(val)
    if not isinstance(val, types) or isinstance(val, bool) and types is not bool:
        raise ConfigError(f"{path}.{key}", f"expected {getattr(types, '__name__', types)}")
    if pred is not None and not pred(val):
        raise ConfigError(f"{path}.{key}", predmsg)
    return val


@contextlib.contextmanager
def _section(path: str):
    """Where section path is built, a ContractViolation is a config error at path."""
    try:
        yield
    except ContractViolation as exc:
        raise ConfigError(path, str(exc))


@contextlib.contextmanager
def _on_trace(what: str):
    """Where what is computed on a valid config's trace, a ContractViolation fails the run."""
    try:
        yield
    except ContractViolation as exc:
        raise RunFailure(f"{what}: {exc}")


def _non_finite(name: str):
    # Python's json parses NaN and +-Infinity, which JSON does not allow
    raise ConfigError("config", f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    # a number too large for a double, such as 1e999, parses to inf
    val = float(text)
    if not math.isfinite(val):
        raise ConfigError("config", f"{text} is not a JSON number a double can hold")
    return val


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float)
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
    with _section("instance"):
        return library.spec_from_dict(_get(cfg, "instance", "config", dict))


def _validate_schedule(cfg: dict, algorithm: str, m: int) -> ParamSchedule:
    sched = _get(cfg, "schedule", "config", dict)
    _check_keys(sched, ("c", "beta", "theta", "fixed_gamma"), "schedule")
    c = _get(sched, "c", "schedule", float, default=0.9)
    fixed_gamma = _get(sched, "fixed_gamma", "schedule", float, default=None)
    inertia = [key for key in ("beta", "theta") if key in sched]
    if fixed_gamma is not None or algorithm == "prox_grad":
        if inertia:
            raise ConfigError(f"schedule.{inertia[0]}",
                              "fixed_gamma and prox_grad set beta themselves")
    elif len(inertia) != 1:
        raise ConfigError("schedule", "give exactly one of beta (constant) or theta (diminishing)")
    variant = ALGORITHMS[algorithm][0]
    with _section("schedule"):
        if inertia == ["theta"]:
            rule = DiminishingBeta(_get(sched, "theta", "schedule", float))
        else:  # beta = 0 for prox_grad; under fixed_gamma the solver derives beta from nu
            rule = ConstantBeta(_get(sched, "beta", "schedule", float, default=0.0))
        return ParamSchedule(beta_rule=rule, c=c, variant=variant,
                             m=m if variant == "stochastic" else 1,
                             fixed_gamma=fixed_gamma)


def _validate_run(cfg: dict, audits) -> solvers.RunConfig:
    section = _get(cfg, "run", "config", dict)
    _check_keys(section, ("max_iters", "record_every", "stop_tol"), "run")
    with _section("run"):
        run_cfg = solvers.RunConfig(
            max_iters=_get(section, "max_iters", "run", int),
            record_every=_get(section, "record_every", "run", int, default=1),
            stop_tol=_get(section, "stop_tol", "run", float, default=0.0))
    if audits and set(audits) != {"rates"} and run_cfg.record_every != 1:
        raise ConfigError("run.record_every", "inequality audits need record_every = 1")
    return run_cfg


def _no_solution_set(spec):
    """Why a reference point x* is not all of argmin F, or None; a lasso with
    reg_lambda > 0 has one minimizer for Gaussian A (Tibshirani 2013)."""
    if spec.kind == "logistic_l1":
        return "logistic_l1 has none"
    if spec.kind == "lasso" and spec.reg_lambda == 0 and spec.rows < spec.n:
        return "a lasso with reg_lambda = 0 and rows < n has x* + null(A)"
    return None


def _validate_audits(cfg: dict, algorithm: str, spec) -> list:
    audits = _get(cfg, "audits", "config", list, default=[])
    for i, a in enumerate(audits):
        if a not in AUDITS:
            raise ConfigError(f"audits[{i}]", f"must be one of {AUDITS}")
    if "squared_lyapunov" in audits:
        if algorithm == "stochastic":
            raise ConfigError("audits", "squared_lyapunov applies to inertial/cyclic runs")
        why = _no_solution_set(spec)
        if why is not None:
            raise ConfigError("audits", f"squared_lyapunov needs a solution set; {why}")
    return list(audits)


def _validate_fit(section: dict, path: str, columns=None) -> dict:
    """The model, column and k window of a rate fit (run's rate, rates' fit)."""
    fit = {"model": _get(section, "model", path, str, default="sublinear_power",
                         pred=lambda v: v in ("sublinear_power", "geometric"),
                         predmsg="model must be sublinear_power or geometric")}
    fit["column"] = _get(section, "column", path, str, default="lyapunov",
                         pred=lambda v: columns is None or v in columns,
                         predmsg=f"column must be one of {columns}")
    for key in ("k_lo", "k_hi"):
        fit[key] = _get(section, key, path, int, default=None, pred=lambda v: v >= 0,
                        predmsg=f"{key} must be >= 0")
    if fit["k_lo"] is not None and fit["k_hi"] is not None and fit["k_lo"] > fit["k_hi"]:
        raise ConfigError(f"{path}.k_lo", "the window k_lo..k_hi is empty: k_lo > k_hi")
    fit["burn_in"] = _get(section, "burn_in", path, float,
                          default=0.0 if fit["k_lo"] is not None else 0.1,
                          pred=lambda v: 0 <= v < 1, predmsg="burn_in must lie in [0, 1)")
    return fit


def _validate_rate(cfg: dict) -> dict:
    section = _get(cfg, "rate", "config", dict, default={})
    _check_keys(section, ("model", "column", "k_lo", "k_hi", "burn_in", "floor_scale"),
                "rate")
    fit = _validate_fit(section, "rate", RATE_COLUMNS)
    fit["floor_scale"] = _get(section, "floor_scale", "rate", float, default=1e-14,
                              pred=lambda v: v >= 0, predmsg="floor_scale must be >= 0")
    return fit


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


def _validate_x0(cfg: dict, spec) -> np.ndarray:
    section = _get(cfg, "x0", "config", dict, default={})
    _check_keys(section, ("mode", "scale"), "x0")
    with _section("x0"):
        return library.start_point(spec, _get(section, "mode", "x0", str, default="zeros"),
                                   _get(section, "scale", "x0", float, default=1.0))


_RUN_KEYS = ("version", "instance", "algorithm", "schedule", "run", "seeds",
             "audits", "rate", "reference", "x0", "sweep")


# ---------------------------------------------------------------- experiment

@dataclasses.dataclass(frozen=True)
class _Plan:
    """A decoded run config: all a run needs but its instance.  runs holds a
    (trace file name, RunConfig) pair per trace, one per stochastic seed."""

    cfg: dict
    out_dir: str
    spec: library.InstanceSpec
    algorithm: str
    audits: list
    schedule: ParamSchedule
    runs: list
    rate: dict
    ref: dict
    x0: np.ndarray


def _decode_run(cfg: dict, out_dir: str, seed_offset: int) -> _Plan:
    """Validate one run config into a _Plan, building no instance and writing nothing."""
    _check_keys(cfg, _RUN_KEYS, "config")
    if "sweep" in cfg:
        raise ConfigError("sweep", "grid section requires the sweep subcommand")
    spec = _validate_instance(cfg)
    algorithm = _get(cfg, "algorithm", "config", str,
                     pred=lambda v: v in ALGORITHMS,
                     predmsg=f"must be one of {tuple(ALGORITHMS)}")
    audits = _validate_audits(cfg, algorithm, spec)
    schedule = _validate_schedule(cfg, algorithm, spec.m)
    run_cfg = _validate_run(cfg, audits)
    rate_cfg = _validate_rate(cfg)
    ref_cfg = _validate_reference(cfg, out_dir)
    x0 = _validate_x0(cfg, spec)
    seeds = _get(cfg, "seeds", "config", list, default=None)
    runs = [("trace.csv", run_cfg)]
    if algorithm == "stochastic":
        if not seeds:
            raise ConfigError("seeds", "stochastic runs need a nonempty seeds list")
        runs = []
        for i, s in enumerate(seeds):
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ConfigError(f"seeds[{i}]", "seeds must be nonnegative integers")
            with _section(f"seeds[{i}]"):  # the seed shifted by --seed-offset
                runs.append((f"trace_seed{s + seed_offset}.csv",
                             dataclasses.replace(run_cfg, seed=s + seed_offset)))
        if len(set(seeds)) < len(seeds):
            raise ConfigError("seeds", "seeds must be distinct")
        if "descent" in audits and run_cfg.stop_tol > 0:
            # the audit averages the seeds' slacks at each k, and seeds stop apart
            raise ConfigError("run.stop_tol", "the stochastic descent audit needs stop_tol = 0")
    elif seeds is not None:
        raise ConfigError("seeds", "only stochastic runs take seeds")
    return _Plan(cfg, out_dir, spec, algorithm, audits, schedule, runs, rate_cfg, ref_cfg, x0)


def _reference_solution(problem, spec, ref_cfg):
    """Load or solve the reference; returns (key, reference, whether to cache
    it): only a converged solution that was not loaded is cached."""
    key = reference.spec_cache_key(library.spec_to_dict(spec), ref_cfg["tol"])
    ref = reference.load_cached(ref_cfg["cache_dir"], key, dim=spec.n)
    if ref is not None and ref.converged:
        return key, ref, False
    ref = reference.solve_reference(problem, tol=ref_cfg["tol"],
                                    max_iters=ref_cfg["max_iters"])
    return key, ref, ref.converged


def _fit(ks, values, fit: dict, floor: float) -> dict:
    """Fit fit["model"] over the window of (k, value) pairs above floor."""
    with _on_trace(f"rate fit on column {fit['column']!r}"):
        ks_w, vals_w = diagnostics.select_window(ks, values, fit["k_lo"], fit["k_hi"], floor)
        est = diagnostics.fit_rate(ks_w, vals_w, fit["model"], burn_in_frac=fit["burn_in"])
    return {"model": est.model, "value": est.exponent_or_ratio,
            "fit_residual": est.fit_residual,
            "window": [est.window[0], est.window[1]], "points": int(len(ks_w))}


def _execute_run(plan: _Plan) -> dict:
    """Build a plan's instance, make its runs and write them; returns the
    summary dict.  Nothing is written until every run is made, so what only
    the instance shows wrong (a fixed_gamma without nu, a schedule a runner
    refuses) leaves no output."""
    spec, audits, schedule, out_dir = plan.spec, plan.audits, plan.schedule, plan.out_dir
    stochastic = plan.algorithm == "stochastic"
    problem = library.make_instance(spec)
    if schedule.fixed_gamma is not None and problem.nu is None:
        raise ConfigError("schedule.fixed_gamma", "the linear regime needs an instance with nu")

    ref = None
    if problem.solution_set is None:
        ref_key, ref, store = _reference_solution(problem, spec, plan.ref)
        needs = [a for a in audits if a in _F_STAR_AUDITS]
        if not ref.converged and needs:
            raise RunFailure(
                f"reference solve did not converge (residual {ref.residual:.3g} "
                f"after {ref.iterations_used} iterations); audits {needs} need "
                "min F: raise reference.max_iters or tol")
        problem = reference.with_reference(
            problem, ref, unique_minimizer=_no_solution_set(spec) is None)

    runner = getattr(solvers, ALGORITHMS[plan.algorithm][1])
    # what a runner rejects in a decoded config is the schedule on this
    # problem, such as a fixed_gamma whose beta reaches sqrt(m)
    with _section("schedule"):
        traces = [runner(problem, schedule, plan.x0, cfg_s) for _, cfg_s in plan.runs]
    # a run below a converged reference's F shows that F is not min F
    if ref is not None and ref.converged and any(
            t.F.min() < ref.f_star - 1e-9 * (1.0 + abs(t.F[0])) for t in traces):
        raise RunFailure(f"a run fell below reference min F {ref.f_star!r}: lower reference.tol")

    os.makedirs(out_dir, exist_ok=True)
    if ref is not None and store:
        reference.store_cached(plan.ref["cache_dir"], ref_key, ref)
    summary = {
        "config": plan.cfg,
        "algorithm": plan.algorithm,
        "out_dir": os.path.abspath(out_dir),
        "reference": None if ref is None else {
            "key": ref_key, "f_star": ref.f_star, "residual": ref.residual,
            "iterations_used": ref.iterations_used, "converged": ref.converged,
        },
        "audits": {},
        "rates": [],
        "trace_files": [fname for fname, _ in plan.runs],
    }
    # one trace.csv, or one trace_seed<S>.csv per seed and their mean
    for (fname, _), trace in zip(plan.runs, traces):
        cols = traceio.write_trace_csv(os.path.join(out_dir, fname), trace)
    if stochastic:
        cols = traceio.write_mean_trace_csv(os.path.join(out_dir, "trace_mean.csv"),
                                            traces)
        summary["trace_files"].append("trace_mean.csv")
        entries = [len(t.ks) for t in traces]
        if len(set(entries)) > 1:  # seeds stopped apart under stop_tol
            summary["seed_mean"] = {"entries": len(cols["k"]), "entries_per_seed": entries}

    # the audits and the rate fit read one set of columns: the trace's or
    # the seed means
    found = summary["audits"]
    for name in [a for a in AUDITS if a in audits and a != "rates"]:
        with _on_trace(f"audit {name}"):
            if name == "descent":
                found[name] = (
                    {"min_seed_mean_slack": diagnostics.expectation_descent_audit(traces)}
                    if stochastic else {"max_violation": diagnostics.descent_audit(traces[0])})
            elif name == "lyapunov":
                inc = diagnostics.max_lyapunov_increase(cols["lyapunov"])
                found[name] = {"max_increase_of_mean" if stochastic else "max_increase": inc}
            else:
                found[name] = {"max_violation": diagnostics.squared_lyapunov_audit(traces[0])}
    if "rates" in audits:
        floor = diagnostics.value_floor(problem.f_star if problem.f_star is not None
                                        else 0.0, plan.rate["floor_scale"])
        fit = _fit(cols["k"], cols[plan.rate["column"]], plan.rate, floor)
        summary["rates"].append({**fit, "column": plan.rate["column"]})

    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


# -------------------------------------------------------------------- sweep

def _sweep_point(plan: _Plan) -> str:
    try:
        _execute_run(plan)
        return "ok"
    except (ConfigError, ContractViolation, DivergenceError, RunFailure, MemoryError) as exc:
        return f"error: {type(exc).__name__}: {exc}"
    except Exception as exc:  # unforeseen: log it, but finish the other points
        traceback.print_exc()
        return f"error: {type(exc).__name__}: {exc}"


def _grid_label(v) -> str:
    # the short %g form when it reads back as v, else the round-trip repr,
    # so distinct grid values never share an output directory
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def _pool_size(workers: int, jobs: int) -> int:
    """Worker processes for a sweep: never more than jobs or CPUs."""
    return min(workers, jobs, os.cpu_count() or 1)


def cmd_sweep(cfg: dict, out_dir: str, workers: int, seed_offset: int) -> int:
    """Decode every grid point, then run them: a point's config error is the
    sweep's, before anything runs or is written."""
    if "sweep" not in cfg:
        raise ConfigError("sweep", "sweep subcommand needs a sweep section")
    section = cfg["sweep"]
    _check_keys(section, ("c", "beta", "theta"), "sweep")
    if "beta" in section and "theta" in section:
        raise ConfigError("sweep", "sweep beta and theta are mutually exclusive")
    base_sched = _get(cfg, "schedule", "config", dict, default={})
    grid = {"c": section.get("c", [base_sched.get("c", 0.9)])}
    grid.update((key, section[key]) for key in ("beta", "theta") if key in section)
    for key, vals in grid.items():
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep.{key}", "expected a nonempty list")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            raise ConfigError(f"sweep.{key}", "expected a list of numbers")
        if len(set(vals)) != len(vals):
            raise ConfigError(f"sweep.{key}", "duplicate grid value")

    # a grid of beta or theta replaces the base schedule's inertia
    base_sched = {key: val for key, val in base_sched.items()
                  if len(grid) == 1 or key not in ("beta", "theta")}
    plans = {}
    for values in itertools.product(*grid.values()):
        point = dict(zip(grid, values))
        name = "_".join(f"{key}{_grid_label(v)}" for key, v in point.items())
        point_cfg = {key: val for key, val in cfg.items() if key != "sweep"}
        point_cfg["schedule"] = {**base_sched, **point}
        try:
            plans[name] = _decode_run(point_cfg, os.path.join(out_dir, name), seed_offset)
        except ConfigError as exc:
            raise ConfigError(f"sweep point {name}", str(exc))

    workers = _pool_size(workers, len(plans))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            statuses = list(pool.map(_sweep_point, plans.values()))
    else:
        statuses = [_sweep_point(plan) for plan in plans.values()]
    results = {name: {"dir": plan.out_dir, "status": status}
               for (name, plan), status in zip(plans.items(), statuses)}
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "sweep_summary.json"), {"runs": results})
    return 0 if all(v["status"] == "ok" for v in results.values()) else 3


# ---------------------------------------------------------------------- ode

def cmd_ode(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, ("version", "ode"), "config")
    section = _get(cfg, "ode", "config", dict)
    _check_keys(section, ("n", "conditioning", "seed", "alpha", "theta", "h",
                          "t_end", "x0_scale", "v0_scale"), "ode")
    n = _get(section, "n", "ode", int)
    conditioning = _get(section, "conditioning", "ode", float, default=4.0)
    seed = _get(section, "seed", "ode", int, default=0)
    alpha, theta, h, t_end = (_get(section, key, "ode", float)
                              for key in ("alpha", "theta", "h", "t_end"))
    x0_scale = _get(section, "x0_scale", "ode", float, default=1.0)
    v0_scale = _get(section, "v0_scale", "ode", float, default=0.0)

    with _section("ode"):
        spec = library.InstanceSpec(kind="quadratic", n=n, conditioning=conditioning,
                                    seed=seed)
        problem = library.make_instance(spec)
        x_star = problem.solution_set.point
        rng = np.random.Generator(np.random.PCG64([seed, 0x0DE]))
        with np.errstate(over="ignore"):  # the integrator's guard rejects an inf start
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
    fit = _validate_fit(section, "fit")
    floor = _get(section, "floor", "fit", float, default=0.0,
                 pred=lambda v: v >= 0, predmsg="floor must be >= 0")
    try:
        cols = traceio.read_csv(csv_path)
    except (OSError, ContractViolation) as exc:
        raise ConfigError("fit.csv", str(exc))
    if "k" not in cols or fit["column"] not in cols:
        raise ConfigError("fit.column", f"column {fit['column']!r} not in {csv_path}")
    result = _fit(cols["k"], cols[fit["column"]], fit, floor)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "rates.json"), {"config": cfg, "fit": result})
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
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1)
        if name in ("run", "sweep"):
            p.add_argument("--seed-offset", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "run":
            _execute_run(_decode_run(cfg, args.out, args.seed_offset))
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
    except (RunFailure, MemoryError) as exc:  # an allocation no machine can hold
        print(f"run failed: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
