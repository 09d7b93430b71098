import types

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


def test_written_columns_are_the_traces_arrays(tmp_path):
    # the returned columns are what read_csv parses back, and they are the
    # trace's own arrays, not copies
    tr = small_trace()
    cols = traceio.write_trace_csv(tmp_path / "trace.csv", tr)
    back = traceio.read_csv(tmp_path / "trace.csv")
    assert list(cols) == list(back) == traceio.TRACE_HEADER.split(",")
    for name in cols:
        assert np.array_equal(cols[name], back[name]), name
    assert cols["k"] is tr.ks and cols["lyapunov"] is tr.lyapunov


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


def test_mean_trace_needs_traces_on_one_grid(tmp_path):
    with pytest.raises(ContractViolation, match="at least one trace"):
        traceio.write_mean_trace_csv(tmp_path / "mean.csv", [])
    spec = iprox.InstanceSpec(kind="quadratic", n=6, conditioning=4.0, seed=0)
    p = library.make_instance(spec)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8, variant="full")
    every3 = iprox.run_inertial(p, sched, library.start_point(spec, "gaussian", 1.0),
                                iprox.RunConfig(max_iters=40, record_every=3))
    with pytest.raises(ContractViolation, match="iteration grid"):
        traceio.write_mean_trace_csv(tmp_path / "mean.csv", [small_trace(), every3])
    assert not (tmp_path / "mean.csv").exists()


def test_ragged_columns_are_rejected_both_ways(tmp_path):
    tr = small_trace()
    tr.F = tr.F[:-1]
    with pytest.raises(ContractViolation, match="ragged columns"):
        traceio.write_trace_csv(tmp_path / "bad.csv", tr)
    path = tmp_path / "trace.csv"
    for text, match in (("", "empty CSV"), ("k,F\n0,1.0\n1\n", "ragged CSV")):
        path.write_text(text)
        with pytest.raises(ContractViolation, match=match):
            traceio.read_csv(path)


def test_nonfinite_rejected(tmp_path):
    tr = small_trace()
    tr.F[3] = np.nan
    with pytest.raises(ContractViolation):
        traceio.write_trace_csv(tmp_path / "bad.csv", tr)


def test_ode_csv_allows_inf_ratio_only(tmp_path):
    from iprox.ode import simulate_heavy_ball
    from iprox.problems import CompositeProblem

    model = iprox.SmoothModel("quadratic", np.eye(1))
    prob = CompositeProblem(
        blocks=((0,),), smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=1.0, block_lipschitz=(1.0,),
        prox=iprox.ProxKind.zero(),
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


def test_read_csv_rejects_a_non_numeric_cell_and_a_fractional_k(tmp_path):
    path = tmp_path / "trace.csv"
    for rows, match in ((["0,1.0", "1,abc"], "non-numeric F"), (["0,1.0", "1,"], "non-numeric F"),
                        (["x,1.0"], "non-numeric k"), (["0,1.0", "1.5,0.5"], "non-integer k"),
                        (["0,1.0", "nan,0.5"], "non-integer k"),
                        (["0,1.0", "inf,0.5"], "non-integer k")):
        path.write_text("\n".join(["k,F"] + rows) + "\n")
        with pytest.raises(ContractViolation, match=match):
            traceio.read_csv(path)
    path.write_text("k,F\n0,1.5\n2.0,nan\n")
    cols = traceio.read_csv(path)
    assert cols["k"].dtype == np.int64 and cols["k"].tolist() == [0, 2]
    assert cols["F"][0] == 1.5 and np.isnan(cols["F"][1])


def test_chunked_write_equals_one_shot_formatting(tmp_path):
    # a trace of more than two chunks, with signed zeros, tiny, large and
    # subnormal values, must give the bytes of formatting every row at once
    n = 2 * traceio._CHUNK_ROWS + 123
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 1e-20, -1e-20, 1e4, -1e4, 5e-324, 1.0 / 3.0])
    cols = [np.where(rng.random(n) < 0.3, rng.choice(special, n),
                     rng.standard_normal(n) * 10.0 ** rng.integers(-20, 5, n))
            for _ in range(5)]
    tr = types.SimpleNamespace(ks=np.arange(n, dtype=np.int64), F=cols[0],
                               lyapunov=cols[1], step_sq=cols[2],
                               residual_sq=cols[3], descent_slack=cols[4])
    path = tmp_path / "long.csv"
    traceio.write_trace_csv(path, tr)
    want = traceio.TRACE_HEADER + "\n" + "".join(
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (k, *vals)
        for k, *vals in zip(tr.ks.tolist(), *[c.tolist() for c in cols]))
    assert path.read_bytes() == want.encode()
    assert b"-0," in path.read_bytes() and b"1e-20" in path.read_bytes()
