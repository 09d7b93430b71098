"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench

A tiny-size pass through each workload's code path, and each output check
against deliberately corrupted outputs of a real (tiny) round.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, harness  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny_run(name, tmp_path, trace, seed=3):
    return harness.run_workload(name, seed, 0.0, trace, work_dir=str(tmp_path / "work"),
                                results_dir=str(tmp_path / "results"),
                                sizes=WORKLOADS[name].tiny)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_reports_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, tmp_path, trace=False)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == harness.MIN_ROUNDS * WORKLOADS[name].ops(WORKLOADS[name].tiny)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert not os.path.exists(tmp_path / "work")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = tiny_run(name, tmp_path / "a", trace=True)
    second = tiny_run(name, tmp_path / "b", trace=True)
    assert [m["name"] for m in SPEC["per_layer"]] == list(first["metrics"])
    counts = {k for k, m in first["metrics"].items() if m["unit"] not in harness.TIME_UNITS}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["problems.grad_calls"]["value"] > 0
    assert first["metrics"]["traceio.rows_written"]["value"] > 0
    spans = np.load(tmp_path / "a" / "results" / f"{name}-seed3-trace1-spans.npz")
    assert np.all(spans["end"] >= spans["start"])


def test_matvec_counts_of_large_variants(tmp_path):
    sizes = WORKLOADS["large-variants"].tiny
    m = tiny_run("large-variants", tmp_path, trace=True)["metrics"]
    full, epochs, steps = sizes["full_iters"], sizes["cyclic_epochs"], sizes["stochastic_steps"]
    # full: a gradient (2 matvecs) and a value per iterate, final iterate included
    assert m["problems.matvec_equiv_per_update.full"]["value"] == 3 * (full + 1) / full
    # cyclic: a gradient per block per epoch, plus the recorded residual and value
    cyc = 2 * (sizes["m"] * epochs + epochs + 1) + (epochs + 1)
    assert m["problems.matvec_equiv_per_update.cyclic"]["value"] == cyc / epochs
    assert m["problems.matvec_equiv_per_update.stochastic"]["value"] == 3 * (steps + 1) / steps


def test_tracer_restores_the_package(tmp_path):
    import iprox
    from iprox import cli, problems, solvers
    before = (iprox.run_inertial, solvers.grad_f, problems.prox_full, cli.main)
    tracer = Tracer()
    tracer.install(full=True)
    assert solvers.grad_f is not before[1]
    tracer.uninstall()
    assert (iprox.run_inertial, solvers.grad_f, problems.prox_full, cli.main) == before


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "scratch", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-lasso",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------ corrupted outputs

def one_round(name, tmp_path, seed=5):
    tracer = Tracer()
    tracer.install(full=False)
    try:
        outcome = WORKLOADS[name].run(WORKLOADS[name].tiny, seed, 0, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert outcome.failed == 0
    outcome.check()  # the untouched outputs pass
    return outcome, tracer, tmp_path / f"{name}-0"


def rewrite_csv(path, edit):
    cols = checks.read_trace_csv(path)
    edit(cols)
    data = np.column_stack([cols[c] for c in checks.TRACE_HEADER.split(",")])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=checks.TRACE_HEADER,
               comments="")


def edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def shift_f_star(out, tracer):
    def edit(doc):
        doc["reference"]["f_star"] += 1e-3 * (1.0 + abs(doc["reference"]["f_star"]))
    edit_json(out / "summary.json", edit)


def raise_lyapunov_row(out, tracer):
    def edit(cols):
        cols["lyapunov"][5] = cols["lyapunov"][4] + 1.0
    rewrite_csv(out / "trace.csv", edit)


def change_first_F(out, tracer):
    def edit(cols):
        cols["F"][0] *= 1.0 + 1e-6
    rewrite_csv(out / "trace.csv", edit)


def lower_stored_L(out, tracer):
    tracer.runs[0]["L"] *= 0.5


def move_final_iterate(out, tracer):
    tracer.runs[0]["x_final"] += 1.0


def perturb_x_star(out, tracer):
    (path,) = (out / "reference_cache").glob("*.json")

    def edit(doc):
        doc["x_star"][0] += 1e-3
    edit_json(path, edit)


def drop_an_audit(out, tracer):
    edit_json(out / "summary.json", lambda doc: doc["audits"].pop("squared_lyapunov"))


@pytest.mark.parametrize("corrupt", [shift_f_star, raise_lyapunov_row, change_first_F,
                                     lower_stored_L, move_final_iterate, perturb_x_star,
                                     drop_an_audit])
def test_desk_lasso_checks_reject(corrupt, tmp_path):
    outcome, tracer, out = one_round("desk-lasso", tmp_path)
    corrupt(out, tracer)
    with pytest.raises(checks.CheckFailed):
        outcome.check()


def scale_mean_F(out, tracer):
    def edit(cols):
        cols["F"] *= 1.01
    rewrite_csv(out / "trace_mean.csv", edit)


def F_below_zero(out, tracer):
    def edit(cols):
        cols["F"][3] = -1e-3
    (path,) = sorted(out.glob("trace_seed*.csv"))[:1]
    rewrite_csv(path, edit)


def lower_block_L(out, tracer):
    run = tracer.runs[1]
    run["block_L"] = (0.5 * run["block_L"][0],) + run["block_L"][1:]


def shift_expectation_audit(out, tracer):
    def edit(doc):
        doc["audits"]["descent"]["min_seed_mean_slack"] += 1e-6
    edit_json(out / "summary.json", edit)


@pytest.mark.parametrize("corrupt", [scale_mean_F, F_below_zero, lower_block_L,
                                     shift_expectation_audit])
def test_seeds_stochastic_checks_reject(corrupt, tmp_path):
    outcome, tracer, out = one_round("seeds-stochastic", tmp_path)
    corrupt(out, tracer)
    with pytest.raises(checks.CheckFailed):
        outcome.check()


def raise_cyclic_lyapunov(out, tracer):
    def edit(cols):
        cols["lyapunov"][-1] = cols["lyapunov"][-2] + 1.0
    rewrite_csv(out / "cyclic.csv", edit)


def move_stochastic_final(out, tracer):
    next(r for r in tracer.runs if r["order"] == "stochastic")["x_final"] += 1.0


@pytest.mark.parametrize("corrupt", [raise_cyclic_lyapunov, move_stochastic_final])
def test_large_variants_checks_reject(corrupt, tmp_path):
    outcome, tracer, out = one_round("large-variants", tmp_path)
    corrupt(out, tracer)
    with pytest.raises(checks.CheckFailed):
        outcome.check()
