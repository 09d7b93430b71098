"""Smoke test of the demo scripts under scripts/: each runs to exit 0."""

import os
import subprocess
import sys

import pytest

import iprox

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


@pytest.mark.parametrize("script", ["run_lasso_demo.py", "compare_variants.py",
                                    "ode_demo.py"])
def test_demo_script_runs(script, tmp_path):
    # the child imports the same iprox this test did; outputs land in tmp_path
    src = os.path.dirname(os.path.dirname(iprox.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
