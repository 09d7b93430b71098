import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iprox
from iprox import library, traceio
from iprox.errors import ContractViolation


def small_trace(max_iters=40, seed=0):
    spec = iprox.InstanceSpec(kind="quadratic", n=6, conditioning=4.0, seed=seed)
    p = library.make_instance(spec)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8, variant="full")
    x0 = library.start_point(spec, "gaussian", 1.0)
    return iprox.run_inertial(p, sched, x0, iprox.RunConfig(max_iters=max_iters))


def test_header_is_fixed():
    assert traceio.TRACE_HEADER == "k,F,lyapunov,step_sq,residual_sq,descent_slack"
    assert traceio.ODE_HEADER == "t,xi_f,speed_sq,accel_ratio"


def test_write_read_round_trip(tmp_path):
    tr = small_trace()
    path = tmp_path / "trace.csv"
    traceio.write_trace_csv(path, tr)
    first = path.read_bytes()
    assert first.startswith(b"k,F,lyapunov,step_sq,residual_sq,descent_slack\n")
    cols = traceio.read_csv(path)
    assert np.array_equal(cols["k"], tr.ks)
    for name, want in [("F", tr.F), ("lyapunov", tr.lyapunov),
                       ("step_sq", tr.step_sq), ("residual_sq", tr.residual_sq),
                       ("descent_slack", tr.descent_slack)]:
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(cols[name], want), name


def test_rewrite_is_byte_identical(tmp_path):
    tr = small_trace()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    traceio.write_trace_csv(a, tr)
    traceio.write_trace_csv(b, tr)
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=60)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_written_floats_round_trip(x, tmp_path_factory):
    tr = small_trace(max_iters=1)
    tr.F[1] = x
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    traceio.write_trace_csv(path, tr)
    assert traceio.read_csv(path)["F"][1] == x or (x == 0.0)


def test_mean_trace(tmp_path):
    trs = [small_trace(seed=s) for s in (1, 2, 3)]
    path = tmp_path / "mean.csv"
    traceio.write_mean_trace_csv(path, trs)
    cols = traceio.read_csv(path)
    want = np.mean([t.F for t in trs], axis=0)
    assert np.allclose(cols["F"], want, rtol=0, atol=0)
    assert np.array_equal(cols["k"], trs[0].ks)


def test_mean_trace_truncates_to_common_length(tmp_path):
    trs = [small_trace(max_iters=40), small_trace(max_iters=25)]
    path = tmp_path / "mean.csv"
    traceio.write_mean_trace_csv(path, trs)
    cols = traceio.read_csv(path)
    assert len(cols["k"]) == 26


def test_nonfinite_rejected(tmp_path):
    tr = small_trace()
    tr.F[3] = np.nan
    with pytest.raises(ContractViolation):
        traceio.write_trace_csv(tmp_path / "bad.csv", tr)


def test_ode_csv_allows_inf_ratio_only(tmp_path):
    from iprox.ode import simulate_heavy_ball
    from iprox.problems import CompositeProblem

    prob = CompositeProblem(
        dim=1, blocks=((0,),),
        smooth_value=lambda x: 0.5 * float(x[0]) ** 2,
        smooth_grad=lambda x: x.copy(),
        lipschitz_L=1.0, block_lipschitz=(1.0,),
        nonsmooth_value=lambda x: 0.0,
        prox=lambda i, v, g: v,
        f_star=0.0,
    )
    # start at the equilibrium: speed stays 0, accel_ratio column is inf
    tr = simulate_heavy_ball(prob, np.zeros(1), np.zeros(1), alpha=1.0,
                             h=0.01, t_end=0.05)
    path = tmp_path / "ode.csv"
    traceio.write_ode_csv(path, tr)
    cols = traceio.read_csv(path)
    assert np.all(np.isinf(cols["accel_ratio"]))
    assert np.all(cols["speed_sq"] == 0.0)


def test_read_csv_missing_file():
    with pytest.raises(OSError):
        traceio.read_csv("/nonexistent/path/trace.csv")
