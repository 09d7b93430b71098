import json
import os
import subprocess
import sys

import numpy as np
import pytest

import iprox
from iprox import cli, reference
from iprox.cli import main

HEADER = "k,F,lyapunov,step_sq,residual_sq,descent_slack"


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def lasso_cfg(**overrides):
    doc = {
        "version": 1,
        "instance": {"kind": "lasso", "n": 16, "rows": 40,
                     "reg_lambda": 0.2, "m": 1, "seed": 3},
        "algorithm": "inertial",
        "schedule": {"c": 0.9, "beta": 0.5},
        "run": {"max_iters": 300},
        "audits": ["descent", "lyapunov"],
    }
    doc.update(overrides)
    return doc


def quad_stochastic_cfg(**overrides):
    doc = {
        "version": 1,
        "instance": {"kind": "quadratic", "n": 12, "conditioning": 6.0,
                     "m": 4, "seed": 2},
        "algorithm": "stochastic",
        "schedule": {"c": 0.8, "beta": 0.4},
        "run": {"max_iters": 200},
        "seeds": [0, 1, 2],
        "audits": ["descent", "lyapunov"],
    }
    doc.update(overrides)
    return doc


def test_run_writes_trace_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, lasso_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "trace.csv").read_text()
    assert text.splitlines()[0] == HEADER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trace_files"] == ["trace.csv"]
    assert summary["audits"]["descent"]["max_violation"] >= -1e-9
    assert summary["audits"]["lyapunov"]["max_increase"] <= 1e-12
    # lasso has no closed-form optimum, so a reference solve was cached
    assert summary["reference"]["converged"]
    cache = out / "reference_cache"
    assert len(list(cache.glob("*.json"))) == 1


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, lasso_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_stochastic_run_files_and_reruns(tmp_path):
    cfg = write_cfg(tmp_path, quad_stochastic_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    names = [f"trace_seed{s}.csv" for s in (0, 1, 2)] + ["trace_mean.csv"]
    summary = json.loads((a / "summary.json").read_text())
    assert summary["trace_files"] == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert summary["audits"]["descent"]["min_seed_mean_slack"] >= -1e-9


def test_seed_offset_shifts_block_streams(tmp_path):
    cfg = write_cfg(tmp_path, quad_stochastic_cfg(seeds=[0, 1]))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--seed-offset", "5"]) == 0
    assert (out / "trace_seed5.csv").exists()
    assert (out / "trace_seed6.csv").exists()
    base = tmp_path / "base"
    assert main(["run", "--config", cfg, "--out", str(base)]) == 0
    # offset changes the block-selection stream, so traces differ
    assert (out / "trace_seed5.csv").read_bytes() != (base / "trace_seed0.csv").read_bytes()


def test_unknown_key_is_exit_2_with_field_path(tmp_path, capsys):
    doc = lasso_cfg()
    doc["schedule"]["bogus"] = 1
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "schedule.bogus" in err and "unknown key" in err


def test_config_validation_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "o")
    bad_version = write_cfg(tmp_path, {**lasso_cfg(), "version": 2}, "v.json")
    assert main(["run", "--config", bad_version, "--out", out]) == 2
    both = lasso_cfg()
    both["schedule"] = {"c": 0.9, "beta": 0.5, "theta": 2.0}
    assert main(["run", "--config", write_cfg(tmp_path, both, "b.json"),
                 "--out", out]) == 2
    assert "exactly one of beta" in capsys.readouterr().err
    no_seeds = quad_stochastic_cfg()
    del no_seeds["seeds"]
    assert main(["run", "--config", write_cfg(tmp_path, no_seeds, "s.json"),
                 "--out", out]) == 2
    stray_seeds = lasso_cfg(seeds=[0, 1])
    assert main(["run", "--config", write_cfg(tmp_path, stray_seeds, "t.json"),
                 "--out", out]) == 2
    coarse = lasso_cfg()
    coarse["run"]["record_every"] = 10
    assert main(["run", "--config", write_cfg(tmp_path, coarse, "r.json"),
                 "--out", out]) == 2
    assert "record_every" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", out]) == 2


@pytest.mark.parametrize("doc", [
    {**lasso_cfg(), "x0": {"mode": "gaussian", "scale": float("nan")}},
    {**lasso_cfg(), "run": {"max_iters": 300, "stop_tol": float("inf")}},
], ids=["nan-scale", "infinite-stop-tol"])
def test_non_finite_config_number_is_exit_2(tmp_path, capsys, doc):
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "is not a JSON number" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_grid(tmp_path):
    doc = lasso_cfg()
    doc["run"]["max_iters"] = 150
    doc["audits"] = []
    del doc["schedule"]["beta"]
    doc["sweep"] = {"c": [0.5, 0.9], "beta": [0.3, 0.6]}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    names = sorted(summary["runs"])
    assert names == ["c0.5_beta0.3", "c0.5_beta0.6", "c0.9_beta0.3", "c0.9_beta0.6"]
    for name in names:
        assert summary["runs"][name]["status"] == "ok"
        assert (out / name / "trace.csv").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    doc = lasso_cfg()
    doc["run"]["max_iters"] = 150
    doc["audits"] = []
    del doc["schedule"]["beta"]
    doc["sweep"] = {"beta": [0.2, 0.5]}
    cfg = write_cfg(tmp_path, doc)
    ser, par = tmp_path / "ser", tmp_path / "par"
    assert main(["sweep", "--config", cfg, "--out", str(ser)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(par),
                 "--workers", "2"]) == 0
    for name in ("c0.9_beta0.2", "c0.9_beta0.5"):
        assert (ser / name / "trace.csv").read_bytes() == \
               (par / name / "trace.csv").read_bytes()


def test_sweep_with_invalid_combination_is_exit_3(tmp_path):
    doc = lasso_cfg()
    doc["audits"] = []
    del doc["schedule"]["beta"]
    doc["sweep"] = {"beta": [0.5, 1.5]}  # 1.5 fails schedule validation
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["runs"]["c0.9_beta0.5"]["status"] == "ok"
    assert summary["runs"]["c0.9_beta1.5"]["status"].startswith("error")


def test_sweep_sections_are_subcommand_scoped(tmp_path):
    with_sweep = lasso_cfg(sweep={"beta": [0.5]})
    del with_sweep["schedule"]["beta"]
    cfg = write_cfg(tmp_path, with_sweep)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg2 = write_cfg(tmp_path, lasso_cfg(), "plain.json")
    assert main(["sweep", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 2


def test_ode_subcommand(tmp_path):
    doc = {"version": 1,
           "ode": {"n": 4, "conditioning": 4.0, "seed": 0, "alpha": 1.0,
                   "theta": 2.0, "h": 0.001, "t_end": 3.0,
                   "x0_scale": 1.0, "v0_scale": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "ode"
    assert main(["ode", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "ode_trace.csv").exists()
    report = json.loads((out / "ode_summary.json").read_text())["audit"]
    assert report["bound_ok"]
    assert report["max_xi_increase"] <= 1e-8


def test_rates_refit_from_csv(tmp_path):
    run_doc = {
        "version": 1,
        "instance": {"kind": "quadratic", "n": 10, "conditioning": 40.0, "seed": 5},
        "algorithm": "inertial",
        "schedule": {"c": 0.9, "beta": 0.5},
        "run": {"max_iters": 400},
        "x0": {"mode": "gaussian", "scale": 1.0},
    }
    out = tmp_path / "run"
    assert main(["run", "--config", write_cfg(tmp_path, run_doc), "--out",
                 str(out)]) == 0
    fit_doc = {"version": 1,
               "fit": {"csv": str(out / "trace.csv"), "model": "geometric",
                       "k_lo": 10, "k_hi": 200}}
    fit_out = tmp_path / "fit"
    assert main(["rates", "--config", write_cfg(tmp_path, fit_doc, "f.json"),
                 "--out", str(fit_out)]) == 0
    fit = json.loads((fit_out / "rates.json").read_text())["fit"]
    assert fit["model"] == "geometric"
    assert 0.0 < fit["value"] < 1.0
    assert fit["window"][0] >= 10 and fit["window"][1] <= 200
    bad = {"version": 1, "fit": {"csv": str(out / "trace.csv"),
                                 "column": "no_such"}}
    assert main(["rates", "--config", write_cfg(tmp_path, bad, "bad.json"),
                 "--out", str(fit_out)]) == 2


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, lasso_cfg())
    out = tmp_path / "out"
    # the child imports the same iprox this test did, however pytest found it
    src = os.path.dirname(os.path.dirname(iprox.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "iprox", "run", "--config", cfg,
         "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "trace.csv").exists()


def test_readme_example_fit_failure_is_exit_3(tmp_path, capsys):
    # the README's example run: the lyapunov column falls below the 1e-14
    # floor early, so the k_lo=100 window holds too few points to fit
    doc = {
        "version": 1,
        "instance": {"kind": "lasso", "n": 50, "rows": 200,
                     "reg_lambda": 0.1, "m": 1, "seed": 7},
        "algorithm": "inertial",
        "schedule": {"c": 0.9, "beta": 0.5},
        "run": {"max_iters": 10000, "record_every": 1, "stop_tol": 0.0},
        "audits": ["descent", "lyapunov", "rates"],
        "rate": {"model": "sublinear_power", "k_lo": 100, "k_hi": 10000},
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "rate fit" in capsys.readouterr().err


def test_stochastic_run_keeps_mean_in_memory(tmp_path, monkeypatch):
    from iprox import traceio

    def no_reads(path):
        raise AssertionError(f"run read back {path}")

    cfg = write_cfg(tmp_path, quad_stochastic_cfg(
        audits=["descent", "lyapunov", "rates"], rate={"k_lo": 10}))
    monkeypatch.setattr(traceio, "read_csv", no_reads)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rates"][0]["points"] > 0
    monkeypatch.undo()
    mean = traceio.read_csv(str(tmp_path / "out" / "trace_mean.csv"))
    xi = mean["lyapunov"]
    assert summary["audits"]["lyapunov"]["max_increase_of_mean"] == \
        float(max(0.0, max(xi[1:] - xi[:-1])))


def test_sweep_near_equal_values_get_distinct_dirs(tmp_path):
    doc = lasso_cfg()
    doc["run"]["max_iters"] = 50
    doc["audits"] = []
    del doc["schedule"]["beta"]
    doc["sweep"] = {"c": [0.9, 0.9000001], "beta": [0.5]}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert sorted(summary["runs"]) == ["c0.9000001_beta0.5", "c0.9_beta0.5"]
    for name in summary["runs"]:
        run = json.loads((out / name / "summary.json").read_text())
        assert run["config"]["schedule"]["c"] == float(name[1:].split("_")[0])


@pytest.mark.parametrize("grid", [{"c": [0.9, 0.9]}, {"beta": [0.5, 0.2, 0.5]},
                                  {"c": [0.5, "0.9"]}])
def test_sweep_rejects_duplicate_or_non_numeric_values(tmp_path, grid):
    doc = lasso_cfg(sweep=grid)
    if "beta" in grid:
        del doc["schedule"]["beta"]
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_pool_never_exceeds_jobs_or_cpus(monkeypatch):
    from iprox import cli
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_size(1, 4) == 1
    assert cli._pool_size(64, 4) == 2
    assert cli._pool_size(100_000, 1) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._pool_size(8, 8) == 1


def _example_config(text):
    # the JSON object that follows "Example run config:" in a document
    start = text.index("{", text.index("Example run config:"))
    return json.JSONDecoder().raw_decode(text[start:])[0]


def test_readme_example_runs_and_fits(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        doc = _example_config(fh.read())
    assert doc == _example_config(cli.__doc__)
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rates"][0]["points"] >= 10


def test_unconverged_reference_fails_audits_and_is_never_cached(tmp_path, capsys):
    cache = tmp_path / "cache"
    starved = lasso_cfg(audits=["descent", "lyapunov", "rates"],
                        rate={"model": "geometric", "k_lo": 5, "k_hi": 40},
                        reference={"max_iters": 3, "cache_dir": str(cache)})
    cfg = write_cfg(tmp_path, starved)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not cache.exists() or not list(cache.glob("*.json"))
    # audits that do not read min F still run, and say the reference failed
    plain = dict(starved, audits=["descent", "lyapunov"])
    assert main(["run", "--config", write_cfg(tmp_path, plain, "p.json"),
                 "--out", str(tmp_path / "b")]) == 0
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert not summary["reference"]["converged"]
    assert not cache.exists() or not list(cache.glob("*.json"))
    # a full budget afterwards solves afresh and caches the converged answer
    full = dict(starved, reference={"cache_dir": str(cache)})
    assert main(["run", "--config", write_cfg(tmp_path, full, "f.json"),
                 "--out", str(tmp_path / "c")]) == 0
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["reference"]["converged"]
    assert summary["reference"]["residual"] <= 1e-12
    assert len(list(cache.glob("*.json"))) == 1


def test_cached_reference_of_wrong_length_is_resolved(tmp_path):
    doc = lasso_cfg(audits=["squared_lyapunov"],
                    reference={"cache_dir": str(tmp_path / "cache")})
    spec = iprox.InstanceSpec(**doc["instance"])
    key = reference.spec_cache_key(iprox.library.spec_to_dict(spec), 1e-12)
    bogus = reference.ReferenceSolution(x_star=np.zeros(spec.n + 1), f_star=-1.0,
                                        residual=0.0, iterations_used=1,
                                        converged=True)
    reference.store_cached(str(tmp_path / "cache"), key, bogus)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reference"]["f_star"] > 0.0
    assert summary["reference"]["iterations_used"] > 1


def test_sweep_records_unexpected_errors_and_finishes(tmp_path, monkeypatch):
    real = cli.run_experiment

    def flaky(cfg, out_dir, **kwargs):
        if cfg["schedule"]["beta"] == 0.6:
            raise OSError("disk full")
        return real(cfg, out_dir, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", flaky)
    doc = lasso_cfg(audits=[], sweep={"beta": [0.3, 0.6]})
    del doc["schedule"]["beta"]
    doc["run"]["max_iters"] = 50
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    runs = json.loads((out / "sweep_summary.json").read_text())["runs"]
    assert runs["c0.9_beta0.3"]["status"] == "ok"
    assert runs["c0.9_beta0.6"]["status"] == "error: OSError: disk full"
