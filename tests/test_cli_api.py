"""The CLI is a decoding of the API: a differential floor.

Each generated `run` config is run twice: by the CLI, and by hand through
the API it names (InstanceSpec, make_instance, the reference solve where
the kind has no solution set, ParamSchedule, start_point and the
runner), with each default the README documents written out here.  Every
trace CSV must be byte-identical, and every value in summary.json equal to
its diagnostics call on the API traces.  A sweep's point files must equal
`run`s of the point configs.
"""

import dataclasses
import json
import os
import random

from iprox import diagnostics, library, reference, solvers, traceio
from iprox.cli import main
from iprox.schedules import ConstantBeta, DiminishingBeta, ParamSchedule

KINDS = ("quadratic", "quadratic_l1", "lasso", "logistic_l1", "noncoercive_quadratic")
ALGORITHMS = ("inertial", "prox_grad", "cyclic", "stochastic")
RUNNERS = {"inertial": ("full", solvers.run_inertial), "prox_grad": ("full", solvers.run_inertial),
           "cyclic": ("cyclic", solvers.run_cyclic),
           "stochastic": ("stochastic", solvers.run_stochastic)}
CASES = 60


def _maybe(rng, doc, key, value):
    # half the optional keys are left to their defaults
    if rng.random() < 0.5:
        doc[key] = value


def _instance(rng, kind):
    inst = {"kind": kind, "n": 8, "m": rng.choice((1, 2, 4)), "seed": rng.randrange(5)}
    if kind in ("lasso", "logistic_l1"):
        # a logistic reg_lambda of 0.2 already makes the origin the minimizer
        inst.update(rows=12, reg_lambda=rng.choice((0.05, 0.2) if kind == "lasso"
                                                   else (0.01, 0.02)))
    else:
        inst["conditioning"] = rng.choice((4.0, 10.0))
        if kind == "noncoercive_quadratic":
            inst["rows"] = rng.choice((3, 5))
        if kind == "quadratic_l1":
            inst["reg_lambda"] = 0.1
    return inst


def _config(i):
    """Valid run config i and its --seed-offset, drawn from a fixed seed; the
    kinds and algorithms cycle so that every pair is drawn."""
    rng = random.Random(1000 + i)
    kind, algorithm = KINDS[i % len(KINDS)], ALGORITHMS[i % len(ALGORITHMS)]
    doc = {"version": 1, "instance": _instance(rng, kind), "algorithm": algorithm,
           "schedule": {}, "run": {"max_iters": rng.choice((30, 40))}}
    _maybe(rng, doc["schedule"], "c", rng.choice((0.5, 0.8)))
    if algorithm == "stochastic" and kind in ("quadratic", "quadratic_l1") and i % 3 == 0:
        doc["schedule"]["fixed_gamma"] = 0.5
    elif algorithm != "prox_grad":
        if rng.random() < 0.5:
            doc["schedule"]["beta"] = rng.choice((0.0, 0.3, 0.6))
        else:
            doc["schedule"]["theta"] = rng.choice((2.0, 3.0))
    every = rng.choice((1, 7))
    stop_tol = rng.choice((0.0, 1e-6))
    if every != 1 or rng.random() < 0.5:
        doc["run"]["record_every"] = every
    if stop_tol or rng.random() < 0.5:
        doc["run"]["stop_tol"] = stop_tol
    x0 = {}
    if kind in ("logistic_l1", "noncoercive_quadratic"):
        x0["mode"] = "gaussian"  # the origin is, or is near, a minimizer
    else:
        _maybe(rng, x0, "mode", rng.choice(("zeros", "gaussian")))
    _maybe(rng, x0, "scale", rng.choice((0.5, 2.0)))
    if x0 or rng.random() < 0.5:
        doc["x0"] = x0
    doc["reference"] = {"tol": 1e-10, "max_iters": 20000}
    seed_offset = 0
    if algorithm == "stochastic":
        doc["seeds"] = rng.sample(range(6), rng.choice((1, 2, 3)))
        seed_offset = rng.choice((0, 5))
    if every == 1:
        # the audits that apply, each at random; descent's stochastic form
        # averages the seeds at each k, so it needs every seed to run to the end
        audits = ["lyapunov"]
        if algorithm != "stochastic" or not stop_tol:
            audits.append("descent")
        if algorithm != "stochastic" and kind != "logistic_l1":
            audits.append("squared_lyapunov")
        if not stop_tol:  # a stopped run may keep fewer than the fit's 10 points
            audits.append("rates")
        doc["audits"] = [a for a in audits if rng.random() < 0.6]
        if "rates" in doc["audits"]:
            doc["rate"] = {}
            _maybe(rng, doc["rate"], "model", rng.choice(("sublinear_power", "geometric")))
            _maybe(rng, doc["rate"], "column", rng.choice(("lyapunov", "F", "residual_sq")))
            _maybe(rng, doc["rate"], "k_lo", 2)
            _maybe(rng, doc["rate"], "k_hi", 25)
    return doc, seed_offset


def _api_run(doc, seed_offset):
    """The run a config names, built through the API with the documented
    defaults: (problem, reference or None, traces keyed by file name)."""
    spec = library.InstanceSpec(**doc["instance"])
    problem = library.make_instance(spec)
    ref = None
    if problem.solution_set is None:
        ref = reference.solve_reference(problem, tol=doc["reference"]["tol"],
                                        max_iters=doc["reference"]["max_iters"])
        problem = reference.with_reference(problem, ref,
                                           unique_minimizer=spec.kind != "logistic_l1")
    sched = doc["schedule"]
    variant, runner = RUNNERS[doc["algorithm"]]
    rule = (DiminishingBeta(sched["theta"]) if "theta" in sched
            else ConstantBeta(sched.get("beta", 0.0)))
    schedule = ParamSchedule(beta_rule=rule, c=sched.get("c", 0.9), variant=variant,
                             m=spec.m if variant == "stochastic" else 1,
                             fixed_gamma=sched.get("fixed_gamma"))
    x0 = library.start_point(spec, doc.get("x0", {}).get("mode", "zeros"),
                             doc.get("x0", {}).get("scale", 1.0))
    run = doc["run"]
    cfg = solvers.RunConfig(max_iters=run["max_iters"], record_every=run.get("record_every", 1),
                            stop_tol=run.get("stop_tol", 0.0))
    if variant != "stochastic":
        return problem, ref, {"trace.csv": runner(problem, schedule, x0, cfg)}
    return problem, ref, {
        f"trace_seed{s + seed_offset}.csv":
            runner(problem, schedule, x0, dataclasses.replace(cfg, seed=s + seed_offset))
        for s in doc["seeds"]}


def _expected_summary(doc, problem, ref, traces, cols):
    """summary.json's reference, audits and rates, each from its API call."""
    tr = traces[0]
    stochastic = doc["algorithm"] == "stochastic"
    audits = {}
    if "descent" in doc.get("audits", []):
        audits["descent"] = ({"min_seed_mean_slack": diagnostics.expectation_descent_audit(traces)}
                             if stochastic else
                             {"max_violation": diagnostics.descent_audit(tr)})
    if "squared_lyapunov" in doc.get("audits", []):
        audits["squared_lyapunov"] = {"max_violation": diagnostics.squared_lyapunov_audit(tr)}
    if "lyapunov" in doc.get("audits", []):
        key = "max_increase_of_mean" if stochastic else "max_increase"
        audits["lyapunov"] = {key: diagnostics.max_lyapunov_increase(cols["lyapunov"])}
    rates = []
    if "rates" in doc.get("audits", []):
        rate = doc.get("rate", {})
        column, k_lo = rate.get("column", "lyapunov"), rate.get("k_lo")
        ks, vals = diagnostics.select_window(cols["k"], cols[column], k_lo, rate.get("k_hi"),
                                             diagnostics.value_floor(problem.f_star))
        if k_lo is None:  # a window without k_lo starts at a tenth of its last k
            keep = ks >= 0.1 * ks[-1]
            ks, vals = ks[keep], vals[keep]
        est = diagnostics.fit_rate(ks, vals, rate.get("model", "sublinear_power"))
        rates.append({"model": est.model, "value": est.exponent_or_ratio,
                      "fit_residual": est.fit_residual, "window": list(est.window),
                      "points": est.points, "column": column})
    ref_doc = None if ref is None else {
        "key": reference.spec_cache_key(dataclasses.asdict(library.InstanceSpec(
            **doc["instance"])), doc["reference"]["tol"]),
        "f_star": ref.f_star, "residual": ref.residual,
        "iterations_used": ref.iterations_used, "converged": ref.converged}
    return {"reference": ref_doc, "audits": audits, "rates": rates}


def test_generated_configs_cover_every_option():
    docs = [_config(i) for i in range(CASES)]
    seen = {(doc["instance"]["kind"], doc["algorithm"]) for doc, _ in docs}
    assert seen == {(k, a) for k in KINDS for a in ALGORITHMS}
    assert {doc["instance"]["m"] for doc, _ in docs} == {1, 2, 4}
    assert {doc["run"].get("record_every", 1) for doc, _ in docs} == {1, 7}
    assert {doc["run"].get("stop_tol", 0.0) for doc, _ in docs} == {0.0, 1e-6}
    assert {rule for doc, _ in docs for rule in ("beta", "theta", "fixed_gamma")
            if rule in doc["schedule"]} == {"beta", "theta", "fixed_gamma"}
    assert {doc.get("x0", {}).get("mode", "zeros") for doc, _ in docs} == {"zeros", "gaussian"}
    assert {offset for doc, offset in docs if "seeds" in doc} == {0, 5}
    assert {a for doc, _ in docs for a in doc.get("audits", [])} == {
        "descent", "squared_lyapunov", "lyapunov", "rates"}


def test_a_run_config_is_its_api_run(tmp_path):
    for i in range(CASES):
        doc, seed_offset = _config(i)
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        out, api = tmp_path / f"cli{i}", tmp_path / f"api{i}"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--seed-offset",
                str(seed_offset)]
        assert main(argv) == 0, (i, doc)
        problem, ref, runs = _api_run(doc, seed_offset)
        api.mkdir()
        for fname, trace in runs.items():
            cols = traceio.write_trace_csv(str(api / fname), trace)
        if doc["algorithm"] == "stochastic":
            cols = traceio.write_mean_trace_csv(str(api / "trace_mean.csv"), list(runs.values()))
        csvs = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
        assert csvs == sorted(os.listdir(api)), (i, doc)
        for fname in csvs:
            assert (out / fname).read_bytes() == (api / fname).read_bytes(), (i, fname, doc)
        summary = json.loads((out / "summary.json").read_text())
        want = _expected_summary(doc, problem, ref, list(runs.values()), cols)
        assert {key: summary[key] for key in want} == want, (i, doc)


def _masked_files(root, masks):
    files = {}
    for top, _, names in os.walk(root):
        for name in names:
            path = os.path.join(top, name)
            with open(path) as fh:
                text = fh.read()
            for mask in masks:
                text = text.replace(mask, "<root>")
            files[os.path.relpath(path, root)] = text
    return files


def test_a_sweep_point_is_a_run_of_its_point_config(tmp_path):
    doc = {"version": 1, "instance": {"kind": "lasso", "n": 8, "rows": 12, "reg_lambda": 0.1,
                                      "m": 2, "seed": 1},
           "algorithm": "stochastic", "schedule": {"c": 0.8}, "seeds": [0, 2],
           "run": {"max_iters": 40}, "audits": ["descent", "lyapunov", "rates"],
           "x0": {"mode": "gaussian"}, "sweep": {"beta": [0.2, 0.5]}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(sweep), "--seed-offset", "3"]) == 0
    for beta in (0.2, 0.5):
        point = {key: val for key, val in doc.items() if key != "sweep"}
        point["schedule"] = {"c": 0.8, "beta": beta}
        (tmp_path / "point.json").write_text(json.dumps(point))
        run = tmp_path / f"run{beta}"
        assert main(["run", "--config", str(tmp_path / "point.json"), "--out", str(run),
                     "--seed-offset", "3"]) == 0
        swept = sweep / f"c0.8_beta{beta}"
        files = _masked_files(swept, [str(swept)])
        assert any(name.startswith("reference_cache") for name in files)
        assert files == _masked_files(run, [str(run)])
