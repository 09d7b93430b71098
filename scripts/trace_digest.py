#!/usr/bin/env python3
"""One SHA-256 per solver run over a small fixed grid of runs, and one per
output file of a fixed set of CLI invocations.

The grid covers the five library kinds x the three orders x m in {1, 4} x
record_every in {1, 3} at n = 24, plus runs with early stopping, retained
iterates, diminishing inertia, the stochastic fixed-gamma regime, two
non-separable proxes applied block by block (group l2, and a box with
bounds of one block's shape), also under early stopping, a lasso
whose blocks are not contiguous, and a 2100 x 64 lasso whose gradients
and constants take SmoothModel.image_grad's pass over several row blocks.
Every run of the quadratic and noncoercive_quadratic kinds, whose argmin F
is known, records dist^2.  Runs record their entries in blocks of 256 rows
at n = 24, so 600-iteration runs of each order at record_every 1 (on the
lasso, the group-l2 lasso and the quadratic), and one record_every 3 run
that early stopping ends in its second block, cross block boundaries.
Each hash covers every Trace array, the final state, the retained
iterates and repr(meta), so two checkouts produce the same output exactly
when their traces are identical bit for bit.

The CLI part runs `inertial`, `prox_grad` and `cyclic` experiments with
every audit that applies to them, a three-seed stochastic experiment, a
two-point sweep, a `rates` refit and an `ode` simulation, each into its own
directory under a temporary root.  Each output file gets one hash of its
bytes with that root masked, so the paths in summary.json, rates.json and
sweep_summary.json do not depend on where it ran.  Diff the output of two
checkouts to compare them:

    PYTHONPATH=src python3 scripts/trace_digest.py > after.txt
    PYTHONPATH=../other/src python3 scripts/trace_digest.py > before.txt
    diff before.txt after.txt

It takes a few seconds.  To see how far two checkouts differ, dump each
one's values and compare the dumps:

    PYTHONPATH=../other/src python3 scripts/trace_digest.py --dump before
    PYTHONPATH=src python3 scripts/trace_digest.py --dump after
    python3 scripts/trace_digest.py --compare before after --tol 1e-12

--dump DIR prints the hashes as usual and also writes DIR/runs.json: for
each run its Trace arrays, final state, retained iterates and meta, and
for each CLI output file its parsed CSV columns or JSON.  --compare A B
prints one line per run (or CLI file) and column: the largest difference
of that column between the dumps, scaled by its largest magnitude and
then as is, inf where a run, a column or a shape is on one side only or a
string differs.  A summary.json audit scalar is scaled by the trace
quantity it is the rounding residue of where that is larger: F for
descent, the lyapunov column for lyapunov and xi_0^2 for squared_lyapunov.
A column is a Trace array, a meta key such as meta.L, a CSV column or a
JSON leaf path such as audits.descent.max_violation.  For a run it also
prints the work difference, B's meta["matvec_equiv"] minus A's.  It exits
1 if any scaled difference exceeds --tol (default 0).
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import tempfile

import numpy as np

from iprox import (
    CompositeProblem,
    ConstantBeta,
    DiminishingBeta,
    InstanceSpec,
    ParamSchedule,
    ProxKind,
    RunConfig,
    SmoothModel,
    make_instance,
    run_cyclic,
    run_inertial,
    run_stochastic,
    start_point,
)
from iprox.cli import main as cli_main

N = 24
ITERS = 40
LONG = 600
RUNNERS = {"full": run_inertial, "cyclic": run_cyclic, "stochastic": run_stochastic}
SPECS = {
    "quadratic": dict(conditioning=10.0),
    "quadratic_l1": dict(conditioning=10.0, reg_lambda=0.1),
    "lasso": dict(rows=36, reg_lambda=0.2),
    "logistic_l1": dict(rows=48, reg_lambda=0.05),
    "noncoercive_quadratic": dict(rows=8, conditioning=10.0),
}


def digest(trace) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(trace):
        val = getattr(trace, f.name)
        h.update(f.name.encode())
        if isinstance(val, np.ndarray):
            h.update(f"{val.dtype}{val.shape}".encode())
            h.update(np.ascontiguousarray(val).tobytes())
        elif f.name == "final_state":
            h.update(val.x_curr.tobytes() + val.x_prev.tobytes() + str(val.k).encode())
        elif f.name == "iterates":
            for x in val or ():
                h.update(x.tobytes())
        else:  # meta, and the optional fields a run left as None
            h.update(repr(val).encode())
    return h.hexdigest()


def trace_tree(trace) -> dict:
    """A run's Trace as a JSON-ready dict, for --dump."""
    tree = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
    state = tree.pop("final_state")
    tree["final_state"] = {"x_curr": state.x_curr, "x_prev": state.x_prev, "k": state.k}
    return json.loads(json.dumps(tree, default=lambda a: a.tolist()))


def output_tree(name, data: bytes):
    """A CLI output file's parsed content: CSV columns, or the JSON."""
    text = data.decode()
    if not name.endswith(".csv"):
        return json.loads(text)
    header, *rows = text.split()
    return dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))


def columns(tree, key="") -> dict:
    """Flatten a dumped tree into {dotted key: float array, or str}."""
    if isinstance(tree, dict):
        return {col: v for name, sub in tree.items()
                for col, v in columns(sub, f"{key}.{name}" if key else name).items()}
    if tree is None or isinstance(tree, str):
        return {key: str(tree)}
    try:
        return {key: np.asarray(tree, dtype=float)}
    except (TypeError, ValueError):  # a list of dicts, strings or ragged lists
        return columns(dict(enumerate(tree)), key)


def difference(a, b, scale=0.0) -> tuple:
    """Largest |a - b|, over the largest finite magnitude of a, b and scale,
    and as is."""
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        return (0.0, 0.0) if isinstance(a, str) and a == b else (math.inf, math.inf)
    if a.shape != b.shape:
        return math.inf, math.inf
    differ = (a != b) & ~(np.isnan(a) & np.isnan(b))
    if not differ.any():
        return 0.0, 0.0
    if not (np.isfinite(a[differ]).all() and np.isfinite(b[differ]).all()):
        return math.inf, math.inf
    both = np.abs(np.concatenate([a.ravel(), b.ravel()]))
    absolute = float(np.max(np.abs(a - b)[differ]))
    return absolute / max(np.max(both[np.isfinite(both)]), scale), absolute


# A summary audit scalar is the rounding residue of a trace quantity, and a
# move of an ulp of that quantity moves it by O(1) of its own size: F for the
# descent audit, the lyapunov column for the lyapunov audit, and xi_0^2 for
# the squared-Lyapunov audit, read from the run's trace.csv (the seed mean
# of a stochastic run).
RESIDUE_OF = {"descent": lambda t: t["F"], "lyapunov": lambda t: t["lyapunov"],
              "squared_lyapunov": lambda t: t["lyapunov"][:1] ** 2}


def residue_scale(dumps, name, col) -> float:
    """The largest finite magnitude of the trace quantity that column col of
    CLI file name is the residue of, over both dumps; 0 for other columns."""
    audit = col.split(".")[1] if col.startswith("audits.") else None
    if not name.endswith("/summary.json") or audit not in RESIDUE_OF:
        return 0.0
    run = name[:-len("summary.json")]
    scale = 0.0
    for dump in dumps:
        trace = columns(dump.get(run + "trace_mean.csv", dump.get(run + "trace.csv", {})))
        if trace:
            values = np.abs(RESIDUE_OF[audit](trace))
            scale = np.max(values[np.isfinite(values)], initial=scale)
    return float(scale)


def compare(dir_a, dir_b, tol: float) -> int:
    """Print each run's and column's scaled difference; 1 if any exceeds tol."""
    dumps = []
    for d in (dir_a, dir_b):
        with open(os.path.join(d, "runs.json")) as fh:
            dumps.append(json.load(fh))
    worst = 0.0
    for name in dict.fromkeys(list(dumps[0]) + list(dumps[1])):
        ca, cb = (columns(dump.get(name, {})) for dump in dumps)
        for col in dict.fromkeys(list(ca) + list(cb)):
            scaled, absolute = difference(ca.get(col), cb.get(col),
                                          residue_scale(dumps, name, col))
            worst = max(worst, scaled)
            print(name, col, f"{scaled:.3g}", f"{absolute:.3g}")
        work = [c.get("meta.matvec_equiv") for c in (ca, cb)]
        if all(isinstance(w, np.ndarray) for w in work):
            print(name, "work", f"{float(work[1] - work[0]):g}")
    return 1 if worst > tol else 0


def scattered_model():
    # a two-block lasso whose blocks are interleaved
    rng = np.random.default_rng(5)
    A, b, lam = rng.standard_normal((18, 6)), rng.standard_normal(18), 0.2
    blocks = ((0, 2, 4), (5, 3, 1))
    model = SmoothModel("squares", A, offset=b)
    return CompositeProblem(
        blocks=blocks, smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=float(np.linalg.norm(A, 2) ** 2),
        block_lipschitz=tuple(float(np.linalg.norm(A[:, list(blk)], 2) ** 2)
                              for blk in blocks),
        prox=ProxKind.l1(lam),
    ), rng.standard_normal(6)


def runs():
    """Yield (name, problem, schedule, x0, RunConfig, order) for each run."""
    for kind, extra in SPECS.items():
        for m in (1, 4):
            spec = InstanceSpec(kind=kind, n=N, m=m, seed=3, **extra)
            p, x0 = make_instance(spec), start_point(spec, "gaussian", 1.0)
            for order in RUNNERS:
                sched = ParamSchedule(beta_rule=ConstantBeta(0.4), c=0.8, variant=order,
                                      m=m if order == "stochastic" else 1)
                for every in (1, 3):
                    yield (f"{kind}-m{m}-{order}-every{every}", p, sched, x0,
                           RunConfig(max_iters=ITERS, record_every=every, seed=7), order)
                if m == 4:
                    dim = ParamSchedule(beta_rule=DiminishingBeta(1.5), c=0.8,
                                        variant=order, m=m if order == "stochastic" else 1)
                    yield (f"{kind}-m{m}-{order}-diminishing", p, dim, x0,
                           RunConfig(max_iters=ITERS, record_every=3, seed=7), order)
                    yield (f"{kind}-m{m}-{order}-stop", p, sched, x0,
                           RunConfig(max_iters=4 * ITERS, record_every=5, seed=7,
                                     stop_tol=1e-3), order)
                    yield (f"{kind}-m{m}-{order}-iterates", p, sched, x0,
                           RunConfig(max_iters=ITERS, record_every=3, seed=7,
                                     keep_iterates=True), order)
            if m == 4 and p.nu is not None:
                fixed = ParamSchedule(beta_rule=ConstantBeta(0.0), c=0.8, variant="stochastic",
                                      m=m, fixed_gamma=0.5 / p.lipschitz_L)
                yield (f"{kind}-m{m}-stochastic-fixed", p, fixed, x0,
                       RunConfig(max_iters=ITERS, record_every=3, seed=7), "stochastic")
    spec = InstanceSpec(kind="lasso", n=N, m=4, seed=3, **SPECS["lasso"])
    lasso, xl = make_instance(spec), start_point(spec, "gaussian", 1.0)
    group = dataclasses.replace(lasso, prox=ProxKind.group_l2(0.2))
    scattered, xs = scattered_model()
    for name, p, x0 in (("lasso-group-l2-m4", group, xl), ("scattered-m2", scattered, xs)):
        for order in RUNNERS:
            sched = ParamSchedule(beta_rule=ConstantBeta(0.4), c=0.8, variant=order,
                                  m=p.n_blocks if order == "stochastic" else 1)
            for every in (1, 3):
                yield (f"{name}-{order}-every{every}", p, sched, x0,
                       RunConfig(max_iters=ITERS, record_every=every, seed=7), order)
    # g a box with bounds of one block's shape, from a start inside the box
    lo, hi = -np.linspace(0.2, 0.7, N // 4), np.linspace(0.3, 0.8, N // 4)
    box = dataclasses.replace(lasso, prox=ProxKind.box(lo, hi))
    xb = np.clip(xl, np.tile(lo, 4), np.tile(hi, 4))
    for order in RUNNERS:
        sched = ParamSchedule(beta_rule=ConstantBeta(0.4), c=0.8, variant=order,
                              m=4 if order == "stochastic" else 1)
        yield (f"lasso-box-m4-{order}", box, sched, xb,
               RunConfig(max_iters=ITERS, seed=7), order)
        # the stop rule's residual through a prox applied block by block
        for name, p, x0 in (("lasso-group-l2-m4", group, xl), ("lasso-box-m4", box, xb)):
            yield (f"{name}-{order}-stop", p, sched, x0,
                   RunConfig(max_iters=4 * ITERS, record_every=5, seed=7,
                             stop_tol=1e-3), order)
    quad = InstanceSpec(kind="quadratic", n=N, m=4, seed=3, **SPECS["quadratic"])
    for name, p, x0 in (("lasso-m4", lasso, xl), ("lasso-group-l2-m4", group, xl),
                        ("quadratic-m4", make_instance(quad), start_point(quad, "gaussian", 1.0))):
        for order in RUNNERS:
            sched = ParamSchedule(beta_rule=ConstantBeta(0.4), c=0.8, variant=order,
                                  m=4 if order == "stochastic" else 1)
            yield (f"{name}-{order}-long", p, sched, x0,
                   RunConfig(max_iters=LONG, seed=7), order)
    # stops at k = 825: entry 276, in the second block
    spec = InstanceSpec(kind="logistic_l1", n=N, m=4, seed=3, **SPECS["logistic_l1"])
    sched = ParamSchedule(beta_rule=ConstantBeta(0.4), c=0.8, variant="stochastic", m=4)
    yield ("logistic_l1-m4-stochastic-stop-long", make_instance(spec), sched,
           start_point(spec, "gaussian", 1.0),
           RunConfig(max_iters=5 * LONG, record_every=3, seed=7, stop_tol=1e-10),
           "stochastic")
    # 2100 x 64 doubles are above one row block of SmoothModel.image_grad
    spec = InstanceSpec(kind="lasso", n=64, rows=2100, reg_lambda=0.2, m=4, seed=3)
    sched = ParamSchedule(beta_rule=ConstantBeta(0.4), c=0.8, variant="full")
    yield ("lasso-n64-rows2100-m4-full", make_instance(spec), sched,
           start_point(spec, "gaussian", 1.0), RunConfig(max_iters=ITERS, seed=7), "full")


def experiment(algorithm, instance, schedule, audits, rate, **extra):
    return {"version": 1, "instance": instance, "algorithm": algorithm,
            "schedule": schedule, "run": {"max_iters": 200}, "audits": audits,
            "rate": rate, "x0": {"mode": "gaussian", "scale": 1.0}, **extra}


def cli_invocations(root):
    """Yield (name, subcommand, config, extra args); each writes root/name."""
    lasso = {"kind": "lasso", "n": 16, "rows": 40, "reg_lambda": 0.2, "m": 1, "seed": 3}
    every = ["descent", "lyapunov", "squared_lyapunov", "rates"]
    yield "cli-inertial", "run", experiment(
        "inertial", lasso, {"c": 0.9, "beta": 0.5}, every,
        {"model": "sublinear_power", "k_lo": 5, "k_hi": 60}), []
    yield "cli-prox_grad", "run", experiment(
        "prox_grad", {"kind": "quadratic_l1", "n": 12, "conditioning": 8.0,
                      "reg_lambda": 0.1, "m": 1, "seed": 4},
        {"c": 0.8}, every, {"model": "geometric", "column": "F", "k_lo": 2, "k_hi": 40}), []
    yield "cli-cyclic", "run", experiment(
        "cyclic", dict(lasso, m=4), {"c": 0.7, "theta": 1.5}, every,
        {"model": "sublinear_power", "column": "step_sq", "k_lo": 3}), []
    yield "cli-stochastic", "run", experiment(
        "stochastic", {"kind": "quadratic", "n": 12, "conditioning": 6.0, "m": 4, "seed": 2},
        {"c": 0.8, "beta": 0.4}, ["descent", "lyapunov", "rates"],
        {"model": "geometric", "k_lo": 10, "k_hi": 150}, seeds=[0, 1, 2]), ["--seed-offset", "2"]
    yield "cli-sweep", "sweep", experiment(
        "inertial", lasso, {"c": 0.9}, ["descent", "lyapunov"], {},
        sweep={"beta": [0.3, 0.6]}), []
    yield "cli-rates", "rates", {"version": 1, "fit": {
        "csv": os.path.join(root, "cli-inertial", "trace.csv"), "column": "residual_sq",
        "model": "sublinear_power", "k_lo": 1, "k_hi": 150, "floor": 1e-20}}, []
    yield "cli-ode", "ode", {"version": 1, "ode": {
        "n": 4, "conditioning": 4.0, "seed": 0, "alpha": 1.0, "theta": 2.0, "h": 0.01,
        "t_end": 3.0, "x0_scale": 1.0, "v0_scale": 1.0}}, []


def cli_outputs():
    """Yield (name/file, bytes with the root masked) for every file the CLI
    invocations write."""
    with tempfile.TemporaryDirectory() as root:
        for name, command, cfg, extra in cli_invocations(root):
            cfg_path = os.path.join(root, name + ".json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            out = os.path.join(root, name)
            rc = cli_main([command, "--config", cfg_path, "--out", out] + extra)
            if rc != 0:
                raise SystemExit(f"{name}: iprox {command} exited {rc}")
            files = sorted(os.path.relpath(os.path.join(d, f), out)
                           for d, _, fs in os.walk(out) for f in fs)
            for rel in files:
                with open(os.path.join(out, rel), "rb") as fh:
                    data = fh.read()
                for path in {root, os.path.realpath(root)}:
                    data = data.replace(path.encode(), b"<root>")
                yield f"{name}/{rel}", data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Hash, dump or compare the digest's runs.")
    parser.add_argument("--dump", metavar="DIR", help="also write DIR/runs.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two dump directories instead of running")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest scaled difference --compare accepts")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.tol)
    dump = {}
    for name, p, sched, x0, cfg, order in runs():
        trace = RUNNERS[order](p, sched, x0, cfg)
        print(name, digest(trace))
        if args.dump:
            dump[name] = trace_tree(trace)
    for name, data in cli_outputs():
        print(name, hashlib.sha256(data).hexdigest())
        if args.dump:
            dump[name] = output_tree(name, data)
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        with open(os.path.join(args.dump, "runs.json"), "w") as fh:
            json.dump(dump, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
