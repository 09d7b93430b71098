import contextlib
import glob
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import iprox
from iprox import cli, reference, traceio
from iprox.cli import main
from iprox.problems import objective

HEADER = "k,F,lyapunov,step_sq,residual_sq,descent_slack"
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


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
    assert "seed_mean" not in summary  # every seed recorded every entry


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


@pytest.mark.parametrize("seeds, offset, field", [
    ([0, 2 ** 64], 0, "seeds[1]"), ([0, 1], 2 ** 64 - 1, "seeds[1]"),
    ([3, 1], -2, "seeds[1]"), ([3, 3], 0, "seeds")],
    ids=["too-large", "offset-too-large", "offset-negative", "repeated"])
def test_bad_block_seeds_are_exit_2_before_any_output(tmp_path, capsys, seeds, offset, field):
    cfg = write_cfg(tmp_path, quad_stochastic_cfg(seeds=seeds))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--seed-offset", str(offset)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", [{"n": 12.0}, {"n": True, "m": 1}, {"rows": 4.0}, {"m": 4.0},
                                  {"n": 1e30}, {"n": 10 ** 30}],
                         ids=["float-n", "bool-n", "float-rows", "float-m", "huge-float-n",
                              "huge-int-n"])
def test_instance_sizes_numpy_cannot_index_are_exit_2_before_any_output(tmp_path, capsys,
                                                                         size):
    instance = {"kind": "lasso", "n": 12, "rows": 30, "reg_lambda": 0.2, "m": 4, "seed": 3}
    cfg = write_cfg(tmp_path, lasso_cfg(instance={**instance, **size}))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: instance" in capsys.readouterr().err
    assert not out.exists()


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


# a number too large for a double parses to inf unless the loader rejects it;
# RAW marks where the raw text of such a number goes into the written config
RAW = 0.123456789


@pytest.mark.parametrize("doc, raw", [
    ({**lasso_cfg(), "x0": {"mode": "gaussian", "scale": float("nan")}}, None),
    ({**lasso_cfg(), "run": {"max_iters": 300, "stop_tol": float("inf")}}, None),
    ({**lasso_cfg(), "reference": {"tol": RAW}}, "1e999"),
    ({**lasso_cfg(), "run": {"max_iters": 300, "stop_tol": RAW}}, "1e999"),
    ({**lasso_cfg(), "x0": {"mode": "gaussian", "scale": RAW}}, "-1e999"),
    ({**lasso_cfg(), "run": {"max_iters": 300, "stop_tol": RAW}}, "1" + "0" * 400),
], ids=["nan-scale", "infinite-stop-tol", "overflowing-reference-tol",
        "overflowing-stop-tol", "overflowing-scale", "overflowing-integer-stop-tol"])
def test_non_finite_config_number_is_exit_2(tmp_path, capsys, doc, raw):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, doc)
    if raw is not None:
        text = (tmp_path / "cfg.json").read_text()
        assert text.count(repr(RAW)) == 1
        (tmp_path / "cfg.json").write_text(text.replace(repr(RAW), raw))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("is not a JSON number" in err if raw is None or "e" in raw
            else "too large for a double" in err)
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


def test_sweep_with_an_invalid_grid_point_is_exit_2_before_any_output(tmp_path, capsys):
    # every point is decoded before any runs, so the valid beta 0.5 writes
    # nothing either
    doc = lasso_cfg()
    doc["audits"] = []
    del doc["schedule"]["beta"]
    doc["sweep"] = {"beta": [0.5, 1.5]}  # 1.5 fails schedule validation
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: sweep point c0.9_beta1.5: schedule: " in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_an_invalid_base_config_is_exit_2_before_any_output(tmp_path, capsys):
    doc = lasso_cfg(audits=[], sweep={"c": [0.5, 0.9]})
    doc["instance"]["kind"] = "bogus"
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "instance: kind must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_point_the_instance_rejects_is_a_per_point_status(tmp_path):
    # a lasso has no nu, which only the built instance shows: the fixed_gamma
    # regime fails at each point, after decoding, as a recorded status
    doc = quad_stochastic_cfg(instance={"kind": "lasso", "n": 12, "rows": 30,
                                        "reg_lambda": 0.2, "m": 4, "seed": 3},
                              schedule={"fixed_gamma": 0.5}, sweep={"c": [0.8]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    runs = json.loads((out / "sweep_summary.json").read_text())["runs"]
    assert runs["c0.8"]["status"].startswith("error: ConfigError: schedule.fixed_gamma: ")
    assert not (out / "c0.8").exists()


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


@pytest.mark.parametrize("scales", [{"x0_scale": 1.7e308}, {"x0_scale": 1e200},
                                    {"v0_scale": 1e200}])
def test_ode_overflow_is_exit_3_before_any_output(tmp_path, capsys, scales):
    doc = {"version": 1,
           "ode": {"n": 4, "conditioning": 4.0, "seed": 0, "alpha": 1.0,
                   "theta": 2.0, "h": 0.001, "t_end": 0.01, **scales}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "ode"
    assert main(["ode", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "run diverged" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("row", ["1,abc,1,1,1,1", "1.5,1,1,1,1,1"])
def test_rates_on_a_malformed_csv_is_exit_2(tmp_path, capsys, row):
    # a non-numeric cell, or a k that is not an integer, is a config error
    csv = tmp_path / "trace.csv"
    csv.write_text(HEADER + "\n0,1,1,1,1,1\n" + row + "\n")
    fit = {"version": 1, "fit": {"csv": str(csv)}}
    assert main(["rates", "--config", write_cfg(tmp_path, fit, "f.json"),
                 "--out", str(tmp_path / "fit")]) == 2
    assert "config error: fit.csv: " in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


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
    assert doc == cli.load_config(os.path.join(CONFIGS, "lasso_inertial.json"))
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rates"][0]["points"] >= 10


@pytest.mark.parametrize("name", [os.path.basename(path) for path in
                                  sorted(glob.glob(os.path.join(CONFIGS, "*.json")))])
def test_example_config_runs(tmp_path, name):
    path = os.path.join(CONFIGS, name)
    out = tmp_path / "out"
    if "ode" in cli.load_config(path):
        assert main(["ode", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "ode_summary.json").read_text())["audit"]
        xi0 = traceio.read_csv(str(out / "ode_trace.csv"))["xi_f"][0]
        assert report["bound_ok"]
        assert report["max_xi_increase"] <= 1e-9 * (1.0 + abs(xi0))
        return
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # trace.csv, or trace_mean.csv for a stochastic run
    F0 = traceio.read_csv(str(out / summary["trace_files"][-1]))["F"][0]
    tol = 1e-9 * (1.0 + abs(F0))
    audits = summary["audits"]
    assert set(audits) == set(summary["config"]["audits"]) - {"rates"}
    if "descent" in audits:
        assert min(audits["descent"].values()) >= -tol
    if "lyapunov" in audits:
        assert max(audits["lyapunov"].values()) <= tol
    if "squared_lyapunov" in audits:
        assert audits["squared_lyapunov"]["max_violation"] >= -tol
    if "rates" in summary["config"]["audits"]:
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


def test_a_run_below_the_reference_min_f_is_exit_3_before_any_output(tmp_path, capsys):
    # a tol of 1e300 calls the first reference iterate converged, at F far
    # above min F; the run goes below it, where the lyapunov column and the
    # squared-Lyapunov audit would read negative
    doc = lasso_cfg(audits=["descent", "lyapunov", "squared_lyapunov"],
                    reference={"tol": 1e300, "cache_dir": str(tmp_path / "cache")})
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "below reference min F" in err
    assert not out.exists() and not (tmp_path / "cache").exists()


def test_a_cached_reference_above_min_f_is_exit_3_before_any_output(tmp_path, capsys):
    doc = lasso_cfg(reference={"cache_dir": str(tmp_path / "cache")})
    spec = iprox.InstanceSpec(**doc["instance"])
    key = reference.spec_cache_key(iprox.library.spec_to_dict(spec), 1e-12)
    x0 = np.zeros(spec.n)  # the run's start point, so the run goes below its F
    bogus = reference.ReferenceSolution(
        x_star=x0, f_star=objective(iprox.make_instance(spec), x0), residual=0.0,
        iterations_used=1, converged=True)
    reference.store_cached(str(tmp_path / "cache"), key, bogus)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    assert "below reference min F" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, target", [("run", (iprox.library, "make_instance")),
                                             ("ode", (cli, "simulate_heavy_ball"))],
                         ids=["run", "ode"])
def test_memory_error_is_exit_3_with_one_line(tmp_path, capsys, monkeypatch, command, target):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(*target, refuse)
    doc = lasso_cfg() if command == "run" else {
        "version": 1, "ode": {"n": 4, "alpha": 1.0, "theta": 2.0, "h": 0.001, "t_end": 1.0}}
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "run failed: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


def test_a_sweep_point_out_of_memory_is_recorded_without_a_traceback(tmp_path, capsys,
                                                                      monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(iprox.library, "make_instance", refuse)
    out = tmp_path / "sweep"
    doc = lasso_cfg(sweep={"c": [0.8]})
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    runs = json.loads((out / "sweep_summary.json").read_text())["runs"]
    assert runs["c0.8"]["status"] == "error: MemoryError: Unable to allocate 7.28 TiB for an array"


def test_sweep_records_unexpected_errors_and_finishes(tmp_path, monkeypatch):
    real = cli._execute_run

    def flaky(plan):
        if plan.cfg["schedule"]["beta"] == 0.6:
            raise OSError("disk full")
        return real(plan)

    monkeypatch.setattr(cli, "_execute_run", flaky)
    doc = lasso_cfg(audits=[], sweep={"beta": [0.3, 0.6]})
    del doc["schedule"]["beta"]
    doc["run"]["max_iters"] = 50
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    runs = json.loads((out / "sweep_summary.json").read_text())["runs"]
    assert runs["c0.9_beta0.3"]["status"] == "ok"
    assert runs["c0.9_beta0.6"]["status"] == "error: OSError: disk full"


def test_squared_lyapunov_run_keeps_no_iterates(tmp_path, monkeypatch):
    # the audit reads a recorded dist^2 column, so a CLI run with it peaks
    # near a run without it; retained iterates would add 2,001 x 200 floats
    import tracemalloc

    seen = []
    real = iprox.solvers.run_inertial

    def runner(problem, schedule, x0, cfg):
        trace = real(problem, schedule, x0, cfg)
        seen.append(trace)
        return trace

    monkeypatch.setattr(iprox.solvers, "run_inertial", runner)
    peaks = {}
    for audits in (["descent", "lyapunov"], ["descent", "lyapunov", "squared_lyapunov"]):
        doc = lasso_cfg(instance={"kind": "lasso", "n": 200, "rows": 400,
                                  "reg_lambda": 0.2, "m": 1, "seed": 3},
                        run={"max_iters": 2000}, audits=audits)
        out = tmp_path / str(len(audits))
        cfg_path = write_cfg(tmp_path, doc, f"{len(audits)}.json")
        tracemalloc.start()
        try:
            assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
            peaks[len(audits)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[3] <= 1.10 * peaks[2], peaks
    # both runs record dist^2, as the reference gives the lasso its solution set
    assert all(t.iterates is None and t.dist_sq is not None for t in seen)
    summary = json.loads((tmp_path / "3" / "summary.json").read_text())
    assert summary["audits"]["squared_lyapunov"]["max_violation"] <= 0.0


def test_squared_lyapunov_on_a_lasso_without_a_unique_minimizer_is_exit_2(tmp_path, capsys):
    # with lambda = 0 and rows < n, argmin F is x* + null(A), not {x*}
    doc = lasso_cfg(audits=["squared_lyapunov"],
                    instance={"kind": "lasso", "n": 8, "rows": 4,
                              "reg_lambda": 0.0, "seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "squared_lyapunov" in capsys.readouterr().err
    assert not out.exists()
    # with lambda > 0 the lasso solution of a Gaussian A is unique
    doc["instance"]["reg_lambda"] = 0.2
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0


def test_stochastic_descent_audit_with_early_stopping_is_exit_2(tmp_path, capsys):
    # seeds stop at different k, and the expectation audit needs one k grid:
    # the config is refused before any file is written
    doc = quad_stochastic_cfg(
        instance={"kind": "quadratic", "n": 16, "conditioning": 10.0, "m": 4, "seed": 3},
        schedule={"c": 0.5, "beta": 0.5},
        run={"max_iters": 4000, "stop_tol": 1e-6},
        x0={"mode": "gaussian", "scale": 1.0}, seeds=[1, 2, 3])
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: run.stop_tol" in capsys.readouterr().err
    assert not out.exists()
    # without the descent audit the seed means are truncated to a common k
    doc["audits"] = ["lyapunov"]
    assert main(["run", "--config", write_cfg(tmp_path, doc, "l.json"),
                 "--out", str(out)]) == 0
    lengths = [len(traceio.read_csv(str(out / f"trace_seed{s}.csv"))["k"]) for s in (1, 2, 3)]
    assert len(set(lengths)) > 1
    assert len(traceio.read_csv(str(out / "trace_mean.csv"))["k"]) == min(lengths)
    # and summary.json says so
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed_mean"] == {"entries": min(lengths), "entries_per_seed": lengths}


def test_output_dir_is_an_unknown_key(tmp_path, capsys):
    # the output directory is --out; the key once passed decoding and did nothing
    out = tmp_path / "out"
    doc = lasso_cfg(output_dir=str(tmp_path / "elsewhere"))
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: config.output_dir: unknown key" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "elsewhere").exists()


def test_keep_iterates_is_an_unknown_run_key(tmp_path, capsys):
    doc = lasso_cfg(run={"max_iters": 50, "keep_iterates": False})
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "run.keep_iterates: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("run", "--workers"), ("ode", "--workers"),
                                           ("rates", "--workers"),
                                           ("ode", "--seed-offset"),
                                           ("rates", "--seed-offset")])
def test_flags_a_subcommand_does_not_read_are_exit_2(tmp_path, capsys, command, flag):
    cfg = write_cfg(tmp_path, {"version": 1})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_negative_fit_window_is_exit_2_under_run_and_rates(tmp_path, capsys):
    out = tmp_path / "run"
    doc = lasso_cfg(audits=["rates"], rate={"k_lo": -1})
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: rate.k_lo: k_lo must be >= 0" in capsys.readouterr().err
    assert main(["run", "--config", write_cfg(tmp_path, lasso_cfg(audits=[]), "r.json"),
                 "--out", str(out)]) == 0
    for key in ("k_lo", "k_hi"):
        fit = {"version": 1, "fit": {"csv": str(out / "trace.csv"), key: -1}}
        assert main(["rates", "--config", write_cfg(tmp_path, fit, "f.json"),
                     "--out", str(tmp_path / "fit")]) == 2
        assert f"config error: fit.{key}: {key} must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_empty_fit_window_is_exit_2_under_run_and_rates(tmp_path, capsys):
    # k_lo > k_hi names no k at all: a config error before any output
    out = tmp_path / "run"
    doc = lasso_cfg(audits=["rates"], rate={"k_lo": 9, "k_hi": 8})
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: rate.k_lo: " in capsys.readouterr().err
    assert not out.exists()
    fit = {"version": 1, "fit": {"csv": str(tmp_path / "missing.csv"), "k_lo": 9, "k_hi": 8}}
    assert main(["rates", "--config", write_cfg(tmp_path, fit, "f.json"),
                 "--out", str(tmp_path / "fit")]) == 2
    assert "config error: fit.k_lo: " in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_unfittable_window_is_exit_3_under_run_and_rates(tmp_path, capsys):
    # a valid window holding fewer than 10 points is a runtime failure of
    # the fit, under run and under rates alike, and rates writes nothing
    doc = lasso_cfg(audits=["rates"], rate={"k_lo": 5, "k_hi": 8})
    out = tmp_path / "run"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    want = "run failed: rate fit on column 'lyapunov': "
    assert want in capsys.readouterr().err
    fit = {"version": 1, "fit": {"csv": str(out / "trace.csv"), "k_lo": 5, "k_hi": 8}}
    assert main(["rates", "--config", write_cfg(tmp_path, fit, "f.json"),
                 "--out", str(tmp_path / "fit")]) == 3
    assert want in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()



@pytest.mark.parametrize("field", [{"reg_lambda": True}, {"reg_lambda": False},
                                   {"conditioning": False}, {"seed": True}],
                         ids=["true-reg-lambda", "false-reg-lambda", "bool-conditioning",
                              "bool-seed"])
def test_instance_bools_for_numbers_are_exit_2_before_any_output(tmp_path, capsys, field):
    # a bool is an int to Python: "reg_lambda": true used to run with lambda = 1
    instance = {"kind": "lasso", "n": 12, "rows": 30, "reg_lambda": 0.2, "m": 4, "seed": 3}
    cfg = write_cfg(tmp_path, lasso_cfg(instance={**instance, **field}))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: instance: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_l1"])
def test_fixed_gamma_past_the_beta_ceiling_is_exit_2_before_any_output(tmp_path, capsys,
                                                                        kind):
    # beta = gamma*nu/(4m) reaches sqrt(m), which run_stochastic refuses; the
    # quadratic_l1 run would first have cached its reference solve
    instance = {"kind": kind, "n": 12, "conditioning": 6.0, "m": 4, "seed": 2,
                **({"reg_lambda": 0.1} if kind == "quadratic_l1" else {})}
    doc = quad_stochastic_cfg(instance=instance, schedule={"c": 0.8, "fixed_gamma": 1e300})
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: schedule: fixed_gamma regime needs beta" in capsys.readouterr().err
    assert not out.exists()


def test_fixed_gamma_without_nu_is_exit_2_before_any_output(tmp_path, capsys):
    doc = quad_stochastic_cfg(instance={"kind": "lasso", "n": 12, "rows": 30,
                                        "reg_lambda": 0.2, "m": 4, "seed": 3},
                              schedule={"c": 0.8, "fixed_gamma": 0.5})
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: schedule.fixed_gamma: " in capsys.readouterr().err
    assert not out.exists()


def test_an_audit_of_a_run_stopped_at_k0_is_exit_3_with_the_trace_on_disk(tmp_path, capsys):
    # with lambda = 1e6 the start x = 0 is the minimizer, so stop_tol holds at
    # k = 0 and the descent audit has one entry: the run happened, its audit
    # cannot be computed, and the trace stays for `iprox rates`
    doc = lasso_cfg(instance={"kind": "lasso", "n": 16, "rows": 40, "reg_lambda": 1e6,
                              "m": 1, "seed": 3},
                    run={"max_iters": 300, "stop_tol": 1e-3}, audits=["descent"])
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    assert "run failed: audit descent: " in capsys.readouterr().err
    assert list(traceio.read_csv(str(out / "trace.csv"))["k"]) == [0]
    assert not (out / "summary.json").exists()


def test_a_stop_tol_whose_square_overflows_stops_at_k0(tmp_path, capsys):
    doc = lasso_cfg(run={"max_iters": 300, "stop_tol": 1e300}, audits=["lyapunov"])
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert list(traceio.read_csv(str(out / "trace.csv"))["k"]) == [0]


@pytest.mark.parametrize("field", [{"t_end": 1e300}, {"h": 0.5}, {"theta": 0.0}, {"n": 1},
                                   {"seed": -1}],
                         ids=["t_end-past-indexing", "h-past-guard", "theta", "n", "seed"])
def test_ode_values_its_builders_refuse_are_exit_2_before_any_output(tmp_path, capsys,
                                                                    field):
    doc = {"version": 1,
           "ode": {"n": 4, "conditioning": 4.0, "seed": 0, "alpha": 1.0,
                   "theta": 2.0, "h": 0.001, "t_end": 0.01, **field}}
    out = tmp_path / "ode"
    assert main(["ode", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: ode: " in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------- generated configs
#
# Small valid configs, one per run algorithm and instance kind plus sweep,
# ode and rates, each with one or two leaves replaced from a fixed pool or
# deleted.  Whatever the mutation, the CLI must keep its exit-code contract.

_DELETE = object()
_POOL = (_DELETE, None, True, False, 0, 1, 2, -1, 0.0, 0.5, 2.5, 8.0, -0.5, 1e300, -1e300,
         "x", "lasso", "stochastic", "gaussian", [], [0.5], {})


def _fuzz_run_base(algorithm, kind):
    instance = {"kind": kind, "n": 8, "m": 2 if algorithm in ("cyclic", "stochastic") else 1,
                "seed": 1}
    if kind in ("lasso", "logistic_l1"):
        instance.update(rows=12, reg_lambda=0.1)
    else:
        instance["conditioning"] = 4.0
        if kind == "noncoercive_quadratic":
            instance["rows"] = 4
        if kind == "quadratic_l1":
            instance["reg_lambda"] = 0.1
    audits = ["descent", "lyapunov", "rates"]
    if algorithm in ("inertial", "cyclic") and kind != "logistic_l1":
        audits.append("squared_lyapunov")
    doc = {"version": 1, "instance": instance, "algorithm": algorithm,
           "schedule": {"c": 0.9} if algorithm == "prox_grad" else
           {"c": 0.9, "theta": 2.0} if algorithm == "cyclic" else {"c": 0.9, "beta": 0.5},
           "run": {"max_iters": 30, "record_every": 1, "stop_tol": 0.0},
           "audits": audits, "rate": {"model": "geometric", "k_lo": 2},
           "reference": {"tol": 1e-10, "max_iters": 2000},
           "x0": {"mode": "gaussian", "scale": 1.0}}
    if algorithm == "stochastic":
        doc["seeds"] = [0, 1]
    return doc


_FUZZ_BASES = {
    f"run-{algorithm}-{kind}": ("run", _fuzz_run_base(algorithm, kind))
    for algorithm in ("inertial", "cyclic", "stochastic", "prox_grad")
    for kind in ("quadratic", "quadratic_l1", "lasso", "logistic_l1", "noncoercive_quadratic")}
_FUZZ_BASES["run-fixed-gamma"] = ("run", {
    **_fuzz_run_base("stochastic", "quadratic"), "schedule": {"c": 0.9, "fixed_gamma": 0.5}})
_FUZZ_BASES["sweep"] = ("sweep", {
    **_fuzz_run_base("inertial", "lasso"), "schedule": {"c": 0.9}, "audits": ["descent"],
    "sweep": {"c": [0.5, 0.9], "beta": [0.3]}})
_FUZZ_BASES["ode"] = ("ode", {
    "version": 1, "ode": {"n": 4, "conditioning": 4.0, "seed": 0, "alpha": 1.0, "theta": 2.0,
                          "h": 0.001, "t_end": 0.01, "x0_scale": 1.0, "v0_scale": 1.0}})
_FUZZ_BASES["rates"] = ("rates", {
    "version": 1, "fit": {"csv": "trace.csv", "column": "lyapunov", "model": "geometric",
                          "k_lo": 0, "k_hi": 20, "floor": 0.0, "burn_in": 0.0}})


def _leaves(doc, path=()):
    # every path to a value that is not a JSON object, list elements included
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, val in items:
        if isinstance(val, dict):
            yield from _leaves(val, path + (key,))
        else:
            yield path + (key,)
            if isinstance(val, list):
                yield from _leaves(val, path + (key,))


@st.composite
def _mutated_config(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    command, doc = _FUZZ_BASES[name]
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_leaves(doc))))
        value = draw(st.sampled_from(_POOL))
        if path == ("reference", "max_iters") and value is _DELETE:
            continue  # the default budget of 10^6 iterations is not small
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(value))  # a fresh [] or {}
    return command, doc


def _fuzz_csv():
    # the trace.csv the rates base refits
    rows = [f"{k},{0.5 ** k!r},{0.5 ** k!r},1,1,0" for k in range(30)]
    return HEADER + "\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("name", sorted(_FUZZ_BASES))
def test_generated_config_bases_exit_0(tmp_path, monkeypatch, name):
    command, doc = _FUZZ_BASES[name]
    (tmp_path / "trace.csv").write_text(_fuzz_csv())
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", write_cfg(tmp_path, doc), "--out", "out"]) == 0


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "trace.csv").write_text(_fuzz_csv())
    return root


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_mutated_config())
def test_generated_configs_keep_the_exit_code_contract(fuzz_root, case):
    command, doc = case
    work = tempfile.mkdtemp(dir=fuzz_root)
    cfg = os.path.join(work, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    out = os.path.join(work, "out")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_root)  # the rates base reads trace.csv here
    try:
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            # numpy's overflow warnings, which the test settings make errors,
            # are printed and not raised when iprox runs as a program
            warnings.simplefilter("ignore")
            code = main([command, "--config", cfg, "--out", out])
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not os.path.exists(out), err.getvalue()
