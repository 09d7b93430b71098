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
divergence or runtime failure (a failed allocation or write included),
after which traces may be on disk.

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
import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import traceback
import typing

import numpy as np

from . import diagnostics, library, reference, solvers, traceio
from .errors import ConfigError, ContractViolation, DivergenceError, RunFailure
from .ode import ode_audit, simulate_heavy_ball
from .schedules import (VARIANTS, ConstantBeta, DiminishingBeta, ParamSchedule,
                        linear_stochastic_beta)

# algorithm -> (schedule variant, runner in solvers)
ALGORITHMS = {"inertial": ("full", "run_inertial"), "prox_grad": ("full", "run_inertial"),
              "cyclic": ("cyclic", "run_cyclic"), "stochastic": ("stochastic", "run_stochastic")}
RATE_COLUMNS = ("lyapunov", "F", "step_sq", "residual_sq")
# the largest integer a config float may be given as
_MAX_FLOAT_INT = int(np.finfo(float).max)


# ---------------------------------------------------------------- validation

# A schema maps each key of a config section to its (type, default); a
# default of KeyError makes the key required, and the type object takes any
# value, which the section's own rules check where it is read.
_VERSION = {"version": (object, KeyError)}  # load_config checks it is 1
# the instance section is InstanceSpec's fields, each with its type and default
_INSTANCE = {f.name: (typing.get_type_hints(library.InstanceSpec)[f.name],
                      KeyError if f.default is dataclasses.MISSING else f.default)
             for f in dataclasses.fields(library.InstanceSpec)}
_RUN = {**_VERSION, "instance": (dict, KeyError), "algorithm": (str, KeyError),
        "schedule": (dict, KeyError), "run": (dict, KeyError), "seeds": (list, None),
        "audits": (list, []), "rate": (dict, {}), "reference": (dict, {}), "x0": (dict, {}),
        "sweep": (object, None)}
_SCHEDULE = {"c": (float, 0.9), "beta": (float, 0.0), "theta": (float, None),
             "fixed_gamma": (float, None)}
_RUN_SECTION = {"max_iters": (int, KeyError), "record_every": (int, 1),
                "stop_tol": (float, 0.0)}
_RATE = {"model": (str, "sublinear_power"), "column": (str, "lyapunov"),
         "k_lo": (int, None), "k_hi": (int, None)}
_REFERENCE = {"tol": (float, 1e-12), "max_iters": (int, 10 ** 6), "cache_dir": (str, None)}
_X0 = {"mode": (str, "zeros"), "scale": (float, 1.0)}
_SWEEP = dict.fromkeys(("c", "beta", "theta"), (object, None))
_ODE_CONFIG = {**_VERSION, "ode": (dict, KeyError)}
_ODE = {"n": (int, KeyError), "conditioning": (float, 4.0), "seed": (int, 0),
        **dict.fromkeys(("alpha", "theta", "h", "t_end"), (float, KeyError)),
        "x0_scale": (float, 1.0), "v0_scale": (float, 0.0)}
_RATES_CONFIG = {**_VERSION, "fit": (dict, KeyError)}
_FIT = {"csv": (str, KeyError), **_RATE, "floor": (float, 0.0)}


def _read(d, path: str, schema: dict) -> dict:
    """Section d at path as {key: value} by its schema; an unknown key is
    reported before any value."""
    if not isinstance(d, dict):
        raise ConfigError(path, "expected a JSON object")
    unknown = sorted(set(d) - set(schema))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key")
    return {key: _get(d, key, path, *entry) for key, entry in schema.items()}


def _get(d: dict, key: str, path: str, types, default=KeyError):
    if key not in d:
        if default is KeyError:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    val = d[key]
    if types is float and isinstance(val, int) and not isinstance(val, bool):
        if abs(val) > _MAX_FLOAT_INT:
            raise ConfigError(f"{path}.{key}", "integer too large for a double")
        val = float(val)
    if not isinstance(val, types) or isinstance(val, bool) and types is int:
        raise ConfigError(f"{path}.{key}", f"expected {types.__name__}")
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
    version = cfg.get("version")
    if not isinstance(version, int) or isinstance(version, bool) or version != 1:
        raise ConfigError("version", "config version must be 1")
    return cfg


def _validate_schedule(section: dict, algorithm: str, spec) -> ParamSchedule:
    sched = _read(section, "schedule", _SCHEDULE)
    fixed_gamma = sched["fixed_gamma"]
    inertia = [key for key in ("beta", "theta") if key in section]
    if fixed_gamma is not None or algorithm == "prox_grad":
        if inertia:
            raise ConfigError(f"schedule.{inertia[0]}",
                              "fixed_gamma and prox_grad set beta themselves")
    elif len(inertia) != 1:
        raise ConfigError("schedule", "give exactly one of beta (constant) or theta (diminishing)")
    variant = ALGORITHMS[algorithm][0]
    with _section("schedule"):
        if inertia == ["theta"]:
            rule = DiminishingBeta(sched["theta"])
        else:  # beta = 0 for prox_grad; under fixed_gamma the solver derives beta from nu
            rule = ConstantBeta(sched["beta"])
        schedule = ParamSchedule(beta_rule=rule, c=sched["c"], variant=variant,
                                 m=spec.m if variant == "stochastic" else 1,
                                 fixed_gamma=fixed_gamma)
    if fixed_gamma is not None:  # the regime's rules on the instance, by the spec's nu
        with _section("schedule.fixed_gamma"):
            linear_stochastic_beta(fixed_gamma, spec.nu, spec.m)
    return schedule


# ------------------------------------------------------------------- audits

# A row of AUDITS: whether the audit needs min F, argmin F as a solution set
# and record_every = 1, and per order (schedule variant) it applies to, its
# summary.json key and its call on a _Ran.  cols are the written columns:
# the trace's, or the seed means.
_Audit = collections.namedtuple("_Audit", "min_f solution_set every_step calls")
_Ran = collections.namedtuple("_Ran", "traces cols rate f_star")


def _rate_fit(ran: _Ran) -> dict:
    column = ran.rate["column"]
    return {**_fit(ran.cols["k"], ran.cols[column], ran.rate,
                   diagnostics.value_floor(ran.f_star)), "column": column}


# the audits in the order they run; each is summary["audits"][name][key],
# but the rate fit is appended to summary["rates"]
AUDITS = {
    "descent": _Audit(False, False, True, {
        **dict.fromkeys(("full", "cyclic"), (
            "max_violation", lambda ran: diagnostics.descent_audit(ran.traces[0]))),
        "stochastic": ("min_seed_mean_slack",
                       lambda ran: diagnostics.expectation_descent_audit(ran.traces))}),
    "squared_lyapunov": _Audit(True, True, True, dict.fromkeys(("full", "cyclic"), (
        "max_violation", lambda ran: diagnostics.squared_lyapunov_audit(ran.traces[0])))),
    "lyapunov": _Audit(False, False, True, {
        order: (key, lambda ran: diagnostics.max_lyapunov_increase(ran.cols["lyapunov"]))
        for order, key in (("full", "max_increase"), ("cyclic", "max_increase"),
                           ("stochastic", "max_increase_of_mean"))}),
    "rates": _Audit(True, False, False, dict.fromkeys(VARIANTS, ("rates", _rate_fit))),
}


def _no_solution_set(spec):
    """Why a reference point x* is not all of argmin F, or None; a lasso with
    reg_lambda > 0 has one minimizer for Gaussian A (Tibshirani 2013)."""
    if spec.kind == "logistic_l1":
        return "logistic_l1 has none"
    if spec.kind == "lasso" and spec.reg_lambda == 0 and spec.rows < spec.n:
        return "a lasso with reg_lambda = 0 and rows < n has x* + null(A)"
    return None


def _validate_audits(audits: list, algorithm: str, spec) -> list:
    for i, a in enumerate(audits):
        if not isinstance(a, str) or a not in AUDITS:
            raise ConfigError(f"audits[{i}]", f"must be one of {tuple(AUDITS)}")
        audit = AUDITS[a]
        if ALGORITHMS[algorithm][0] not in audit.calls:
            runs = [name for name, (order, _) in ALGORITHMS.items() if order in audit.calls]
            raise ConfigError("audits", f"{a} applies to {'/'.join(runs)} runs")
        why = _no_solution_set(spec) if audit.solution_set else None
        if why is not None:
            raise ConfigError("audits", f"{a} needs a solution set; {why}")
    return list(audits)


def _validate_fit(section: dict, path: str, schema: dict) -> dict:
    """A rate fit's keys, with its k window (run's rate, rates' fit)."""
    fit = _read(section, path, schema)
    for key in ("k_lo", "k_hi"):
        if fit[key] is not None and fit[key] < 0:
            raise ConfigError(f"{path}.{key}", f"{key} must be >= 0")
    if fit["k_lo"] is not None and fit["k_hi"] is not None and fit["k_lo"] > fit["k_hi"]:
        raise ConfigError(f"{path}.k_lo", "the window k_lo..k_hi is empty: k_lo > k_hi")
    with _section(f"{path}.model"):
        diagnostics.check_rate_model(fit["model"])
    return fit


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
    top = _read(cfg, "config", _RUN)
    if "sweep" in cfg:
        raise ConfigError("sweep", "grid section requires the sweep subcommand")
    with _section("instance"):
        spec = library.InstanceSpec(**_read(top["instance"], "instance", _INSTANCE))
    algorithm = top["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ConfigError("config.algorithm", f"must be one of {tuple(ALGORITHMS)}")
    audits = _validate_audits(top["audits"], algorithm, spec)
    schedule = _validate_schedule(top["schedule"], algorithm, spec)
    with _section("run"):
        run_cfg = solvers.RunConfig(**_read(top["run"], "run", _RUN_SECTION))
    if any(AUDITS[a].every_step for a in audits) and run_cfg.record_every != 1:
        raise ConfigError("run.record_every", "inequality audits need record_every = 1")
    rate_cfg = _validate_fit(top["rate"], "rate", _RATE)
    if rate_cfg["column"] not in RATE_COLUMNS:
        raise ConfigError("rate.column", f"column must be one of {RATE_COLUMNS}")
    ref_cfg = _read(top["reference"], "reference", _REFERENCE)
    for key, check in (("tol", reference.check_tol), ("max_iters", reference.check_max_iters)):
        with _section(f"reference.{key}"):
            check(ref_cfg[key])
    if ref_cfg["cache_dir"] is None:
        ref_cfg["cache_dir"] = os.path.join(out_dir, "reference_cache")
    with _section("x0"):
        x0 = library.start_point(spec, **_read(top["x0"], "x0", _X0))
    seeds = top["seeds"]
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
    """Load or solve the reference; returns (key, reference, whether it was
    loaded from the cache)."""
    key = reference.spec_cache_key(dataclasses.asdict(spec), ref_cfg["tol"])
    ref = reference.load_cached(ref_cfg["cache_dir"], key, problem, ref_cfg["tol"])
    if ref is not None:
        return key, ref, True
    return key, reference.solve_reference(problem, tol=ref_cfg["tol"],
                                          max_iters=ref_cfg["max_iters"]), False


def _fit(ks, values, fit: dict, floor: float) -> dict:
    """Fit fit["model"] over the window of (k, value) pairs above floor; a
    window without k_lo starts at a tenth of its last k (the rates are asymptotic)."""
    with _on_trace(f"rate fit on column {fit['column']!r}"):
        ks_w, vals_w = diagnostics.select_window(ks, values, fit["k_lo"], fit["k_hi"], floor)
        if fit["k_lo"] is None and len(ks_w):
            keep = ks_w >= 0.1 * ks_w[-1]
            ks_w, vals_w = ks_w[keep], vals_w[keep]
        est = diagnostics.fit_rate(ks_w, vals_w, fit["model"])
    return {"model": est.model, "value": est.exponent_or_ratio,
            "fit_residual": est.fit_residual,
            "window": [est.window[0], est.window[1]], "points": est.points}


def _execute_run(plan: _Plan) -> dict:
    """Build a plan's instance, make its runs and write them; returns the
    summary dict.  Nothing is written until every run is made."""
    spec, audits, schedule, out_dir = plan.spec, plan.audits, plan.schedule, plan.out_dir
    stochastic = plan.algorithm == "stochastic"
    problem = library.make_instance(spec)

    ref = None
    if problem.solution_set is None:
        ref_key, ref, cached = _reference_solution(problem, spec, plan.ref)
        needs = [a for a in audits if AUDITS[a].min_f]
        if not ref.converged and needs:
            raise RunFailure(
                f"reference solve did not converge (residual {ref.residual:.3g} "
                f"after {ref.iterations_used} iterations); audits {needs} need "
                "min F: raise reference.max_iters or tol")
        problem = reference.with_reference(
            problem, ref, unique_minimizer=_no_solution_set(spec) is None)

    runner = getattr(solvers, ALGORITHMS[plan.algorithm][1])
    traces = [runner(problem, schedule, plan.x0, cfg_s) for _, cfg_s in plan.runs]
    # a run below a converged reference's F shows that F is not min F
    if ref is not None and ref.converged and any(
            t.F.min() < ref.f_star - 1e-9 * (1.0 + abs(t.F[0])) for t in traces):
        if cached:  # so the next run solves the reference again
            reference.drop_cached(plan.ref["cache_dir"], ref_key)
        raise RunFailure(f"a run fell below reference min F {ref.f_star!r}: " + (
            "deleted the cached reference" if cached else "lower reference.tol"))

    os.makedirs(out_dir, exist_ok=True)
    if ref is not None and ref.converged and not cached:  # only a fresh converged solve
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
    # one trace.csv, or one trace_seed<S>.csv per seed and their mean; a column
    # the CSV refuses (a lyapunov of 0*inf when 1/gamma overflows) fails the run
    with _on_trace("trace CSV"):
        for (fname, _), trace in zip(plan.runs, traces):
            cols = traceio.write_trace_csv(os.path.join(out_dir, fname), trace)
        if stochastic:
            cols = traceio.write_mean_trace_csv(os.path.join(out_dir, "trace_mean.csv"),
                                                traces)
            summary["trace_files"].append("trace_mean.csv")
            entries = [len(t.ks) for t in traces]
            if len(set(entries)) > 1:  # seeds stopped apart under stop_tol
                summary["seed_mean"] = {"entries": len(cols["k"]),
                                        "entries_per_seed": entries}

    # every problem here has f_star: a library quadratic's own, or the reference's
    ran = _Ran(traces, cols, plan.rate, problem.f_star)
    for name, audit in AUDITS.items():
        if name in audits:
            key, call = audit.calls[schedule.variant]
            with _on_trace(f"audit {name}"):
                value = call(ran)
            if name == "rates":
                summary["rates"].append(value)
            else:
                summary["audits"][name] = {key: value}

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
    except (ContractViolation, DivergenceError, RunFailure, MemoryError, OSError) as exc:
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
    """Decode every grid point, make the output root, then run the points: a
    point's config error is the sweep's, before anything is written, and an
    unwritable root fails the sweep before any point runs."""
    if "sweep" not in cfg:
        raise ConfigError("sweep", "sweep subcommand needs a sweep section")
    section = cfg["sweep"]
    _read(section, "sweep", _SWEEP)  # the grid lists are checked below
    if "beta" in section and "theta" in section:
        raise ConfigError("sweep", "sweep beta and theta are mutually exclusive")
    base_sched = _get(cfg, "schedule", "config", dict, default={})
    # read whole, so a key the grid replaces is checked too; a grid without
    # c sweeps the base c, kept as written
    base_c = _read(base_sched, "schedule", _SCHEDULE)["c"]
    grid = {"c": section["c"] if "c" in section else [base_sched.get("c", base_c)]}
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

    os.makedirs(out_dir, exist_ok=True)
    workers = _pool_size(workers, len(plans))
    if workers > 1:  # only a parallel sweep loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            statuses = list(pool.map(_sweep_point, plans.values()))
    else:
        statuses = [_sweep_point(plan) for plan in plans.values()]
    results = {name: {"dir": plan.out_dir, "status": status}
               for (name, plan), status in zip(plans.items(), statuses)}
    _write_json(os.path.join(out_dir, "sweep_summary.json"), {"runs": results})
    return 0 if all(v["status"] == "ok" for v in results.values()) else 3


# ---------------------------------------------------------------------- ode

def cmd_ode(cfg: dict, out_dir: str) -> int:
    ode = _read(_read(cfg, "config", _ODE_CONFIG)["ode"], "ode", _ODE)
    with _section("ode"):
        spec = library.InstanceSpec(kind="quadratic", n=ode["n"],
                                    conditioning=ode["conditioning"], seed=ode["seed"])
        problem = library.make_instance(spec)
        x_star = problem.solution_set.point
        rng = np.random.Generator(np.random.PCG64([ode["seed"], 0x0DE]))
        with np.errstate(over="ignore"):  # the integrator's guard rejects an inf start
            x0 = x_star + ode["x0_scale"] * rng.standard_normal(ode["n"])
            v0 = ode["v0_scale"] * rng.standard_normal(ode["n"])
        trace = simulate_heavy_ball(problem, x0, v0, ode["alpha"], ode["h"], ode["t_end"])
        report = ode_audit(trace, ode["theta"], x_star)
    os.makedirs(out_dir, exist_ok=True)
    traceio.write_ode_csv(os.path.join(out_dir, "ode_trace.csv"), trace)
    _write_json(os.path.join(out_dir, "ode_summary.json"), {
        "config": cfg, "audit": report,
    })
    return 0


# -------------------------------------------------------------------- rates

def cmd_rates(cfg: dict, out_dir: str) -> int:
    fit = _validate_fit(_read(cfg, "config", _RATES_CONFIG)["fit"], "fit", _FIT)
    csv_path, floor = fit["csv"], fit["floor"]
    if floor < 0:
        raise ConfigError("fit.floor", "floor must be >= 0")
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

@functools.lru_cache(maxsize=None)  # built once per process: parsing leaves it as it was
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
    except DivergenceError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3
    # MemoryError: an allocation no machine can hold; OSError: an output it cannot write
    except (RunFailure, MemoryError, OSError) as exc:
        print(f"run failed: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
