"""scripts/trace_digest.py prints one hash per run of its grid and per CLI
output file, and dumps and compares their values; scripts/unreached.py
lists the statements no test runs."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import iprox

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


def run_script(script, tmp_path, *args, code=0):
    # the child imports the same iprox this test did; outputs land in tmp_path
    src = os.path.dirname(os.path.dirname(iprox.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    return proc.stdout


def test_trace_digest_prints_one_hash_per_run(tmp_path):
    lines = [line.split() for line in run_script("trace_digest.py", tmp_path).splitlines()]
    names = [name for name, _ in lines]
    assert len(names) == len(set(names)) == 164
    cli_files = [name for name in names if name.startswith("cli-")]
    assert len(cli_files) == 24
    assert {"cli-stochastic/trace_seed2.csv", "cli-stochastic/trace_mean.csv",
            "cli-sweep/sweep_summary.json", "cli-rates/rates.json",
            "cli-ode/ode_trace.csv"} <= set(cli_files)
    assert not os.listdir(tmp_path)
    assert all(len(h) == 64 and int(h, 16) >= 0 for _, h in lines)
    assert {f"{kind}-m{m}-{order}-every{every}"
            for kind in iprox.library.KINDS for m in (1, 4)
            for order in ("full", "cyclic", "stochastic") for every in (1, 3)} <= set(names)


def test_trace_digest_compares_dumps_per_run_and_column(tmp_path):
    assert len(run_script("trace_digest.py", tmp_path, "--dump", "a").splitlines()) == 164
    lines = [line.split() for line in
             run_script("trace_digest.py", tmp_path, "--compare", "a", "a").splitlines()]
    assert len({name for name, *_ in lines}) == 164
    assert {col for _, col, *_ in lines} >= {"F", "gammas", "meta.L", "work",
                                             "final_state.x_curr", "audits.descent.max_violation"}
    assert all(float(v) == 0.0 for _, _, *values in lines for v in values)
    # one F entry of one run moved by one ulp: exactly that line is nonzero
    with open(tmp_path / "a" / "runs.json") as fh:
        dump = json.load(fh)
    F = dump["lasso-m4-cyclic-every1"]["F"]
    F[5] = float(np.nextafter(F[5], np.inf))
    (tmp_path / "b").mkdir()
    with open(tmp_path / "b" / "runs.json", "w") as fh:
        json.dump(dump, fh)
    lines = [line.split() for line in run_script(
        "trace_digest.py", tmp_path, "--compare", "a", "b", "--tol", "0", code=1).splitlines()]
    moved = [(name, col) for name, col, *values in lines if any(float(v) for v in values)]
    assert moved == [("lasso-m4-cyclic-every1", "F")]
    run_script("trace_digest.py", tmp_path, "--compare", "a", "b", "--tol", "1e-15")


def test_unreached_lists_the_statements_no_test_runs(tmp_path):
    # a copy of the script in a fixture tree reads the fixture src/iprox:
    # one module with a reached and an unreached statement, and one test
    (tmp_path / "scripts").mkdir()
    shutil.copy(os.path.join(SCRIPTS, "unreached.py"), tmp_path / "scripts")
    (tmp_path / "src" / "iprox").mkdir(parents=True)
    (tmp_path / "src" / "iprox" / "__init__.py").write_text('"""A fixture package."""\n')
    (tmp_path / "src" / "iprox" / "mod.py").write_text(
        '"""A fixture module."""\n'
        "\n"
        "\n"
        "def reached(x):\n"
        '    """Docstrings and def lines are not statements."""\n'
        "    return x + 1\n"
        "\n"
        "\n"
        "def unreached(x):\n"
        "    return x - 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from iprox import mod\n"
        "\n"
        "\n"
        "def test_reached():\n"
        "    assert mod.reached(1) == 2\n")
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "unreached.py"),
                           "-q", "-p", "no:cacheprovider", "tests"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    listed = [line for line in proc.stdout.splitlines() if line.startswith("src/")]
    assert listed == [os.path.join("src", "iprox", "mod.py") + ":10"]
    assert "1 unreached statements" in proc.stderr
