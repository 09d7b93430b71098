"""End-to-end checks of the package's headline guarantees, one test per
criterion.  Each test ends with a printed ``criterion N: PASS`` line (visible
under ``pytest -s``); a failed assert means the criterion did not hold.

Rate criteria carry a resolution guard: when a run converges so fast that
every windowed Lyapunov value sits below the float measurement floor
``1e-14*(1+|min F|)``, there is nothing left to fit and the test instead
asserts total collapse and bounds k*xi by the floor-anchored budget.  A
window that is only partially resolvable fails outright.
"""

import json
import math
import time

import numpy as np
import pytest

import iprox
from iprox import diagnostics as dx
from iprox import library, ode, reference
from iprox.cli import main as cli_main
from iprox.library import InstanceSpec, make_instance, start_point
from iprox.problems import CompositeProblem, grad_f
from iprox.prox import ProxKind, _apply_kind
from iprox.schedules import gamma0_root, linear_stochastic_beta

from gradient_check import check_gradient_fd


def fit_above_floor(ks, xi, k_lo, k_hi, floor, model):
    """Fit the windowed decay, or certify it collapsed below resolution."""
    kw, vw = dx.select_window(ks, xi, k_lo, k_hi, floor)
    if len(kw) >= 10:
        return "resolvable", dx.fit_rate(kw, vw, model)
    if len(kw) == 0:
        return "collapsed", None
    pytest.fail(f"only {len(kw)} window points above floor {floor:.2e}: "
                "too few to fit, too many to call converged")


@pytest.fixture(scope="module")
def lasso_run():
    """Shared by criteria 1 and 2: the pinned 10^4-iteration lasso run."""
    spec = InstanceSpec(kind="lasso", n=50, rows=200, reg_lambda=0.1, m=1, seed=0)
    problem = make_instance(spec)
    t0 = time.perf_counter()
    ref = reference.solve_reference(problem, tol=1e-12)
    problem = reference.with_reference(problem, ref)
    schedule = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                   variant="full")
    trace = iprox.run_inertial(problem, schedule, start_point(spec, "zeros"),
                               iprox.RunConfig(max_iters=10_000))
    seconds = time.perf_counter() - t0
    return {"problem": problem, "trace": trace, "seconds": seconds}


def test_criterion_01_lyapunov_monotone(lasso_run):
    trace = lasso_run["trace"]
    F0 = float(trace.F[0])
    tol = 1e-9 * (1.0 + abs(F0))
    worst_slack = dx.descent_audit(trace)
    worst_rise = dx.max_lyapunov_increase(trace.lyapunov)
    assert worst_slack >= -tol
    assert worst_rise <= tol
    assert lasso_run["seconds"] <= 5.0
    print(f"criterion 1: PASS (slack {worst_slack:.2e}, rise {worst_rise:.2e}, "
          f"{lasso_run['seconds']:.2f}s)")


def test_criterion_02_sublinear_rate(lasso_run):
    trace = lasso_run["trace"]
    problem = lasso_run["problem"]
    floor = dx.value_floor(problem.f_star)
    branch, est = fit_above_floor(trace.ks, trace.lyapunov, 100, 10_000,
                                  floor, "sublinear_power")
    if branch == "resolvable":
        assert est.exponent_or_ratio >= 0.9
        note = f"p={est.exponent_or_ratio:.2f}"
    else:
        w = (trace.ks >= 100) & (trace.ks <= 10_000)
        assert np.all(trace.lyapunov[w] <= floor)
        note = "collapsed below measurement floor by k=100"
    # k*xi budget: the anchor value at k = 100 is floored at resolution,
    # since an anchor made of rounding dust understates the true budget
    w = (trace.ks >= 100) & (trace.ks <= 10_000)
    kxi = trace.ks[w] * trace.lyapunov[w]
    xi_at_100 = float(trace.lyapunov[trace.ks == 100][0])
    anchor = 100.0 * max(xi_at_100, floor)
    assert float(np.max(kxi)) <= 10.0 * anchor
    print(f"criterion 2: PASS ({note}; max k*xi {np.max(kxi):.2e} "
          f"<= budget {10.0 * anchor:.2e})")


def test_criterion_03_noncoercive_bounded_iterates():
    spec = InstanceSpec(kind="noncoercive_quadratic", n=20, rows=15,
                        conditioning=100.0, seed=0)
    problem = make_instance(spec)
    schedule = iprox.ParamSchedule(beta_rule=iprox.DiminishingBeta(1.5),
                                   c=0.9, variant="full")
    t0 = time.perf_counter()
    trace = iprox.run_inertial(problem, schedule, start_point(spec, "gaussian", 2.0),
                               iprox.RunConfig(max_iters=100_000, keep_iterates=True))
    seconds = time.perf_counter() - t0
    norms = np.linalg.norm(np.stack(trace.iterates), axis=1)
    at_1k = float(norms[trace.ks == 1000][0])
    assert float(norms.max()) <= 10.0 * at_1k
    branch, est = fit_above_floor(trace.ks, trace.lyapunov, 10, 300,
                                  dx.value_floor(problem.f_star),
                                  "sublinear_power")
    if branch == "resolvable":
        assert est.exponent_or_ratio >= 0.9
        note = f"p={est.exponent_or_ratio:.2f}"
    else:
        note = "collapsed below measurement floor by k=10"
    assert seconds <= 10.0
    print(f"criterion 3: PASS (sup/anchor {norms.max()/at_1k:.2f}, {note}, "
          f"{seconds:.2f}s)")


def test_criterion_04_linear_rate_under_restricted_strong_convexity():
    spec = InstanceSpec(kind="noncoercive_quadratic", n=96, rows=80,
                        conditioning=4.0, seed=0)
    problem = make_instance(spec)
    schedule = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                   variant="full")
    trace = iprox.run_inertial(problem, schedule, start_point(spec, "gaussian", 1.0),
                               iprox.RunConfig(max_iters=600))
    # fit on [10, 500], dropping entries once xi < 1e-12
    ks, xi = dx.select_window(trace.ks, trace.lyapunov, 10, 500, 1e-12)
    est = dx.fit_rate(ks, xi, "geometric")
    assert 0.0 < est.exponent_or_ratio < 1.0
    assert est.fit_residual < 0.05
    report = dx.linear_ratio_audit(trace, problem)
    assert report["ok"]
    assert report["max_ratio"] <= report["omega_bound"] < 1.0
    print(f"criterion 4: PASS (omega {est.exponent_or_ratio:.4f}, residual "
          f"{est.fit_residual:.4f}, per-step ratio {report['max_ratio']:.3f} "
          f"<= bound {report['omega_bound']:.4f})")


def test_criterion_05_cyclic_descent_and_rate():
    spec_a = InstanceSpec(kind="lasso", n=48, rows=150, reg_lambda=0.1,
                          m=4, seed=0)
    prob_a = make_instance(spec_a)
    ref = reference.solve_reference(prob_a, tol=1e-12)
    prob_a = reference.with_reference(prob_a, ref)
    schedule = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                   variant="cyclic", m=4)
    trace_a = iprox.run_cyclic(prob_a, schedule, start_point(spec_a, "zeros"),
                               iprox.RunConfig(max_iters=2000))
    F0 = float(trace_a.F[0])
    slack = dx.descent_audit(trace_a)
    assert slack >= -1e-9 * (1.0 + abs(F0))
    xi0 = float(trace_a.lyapunov[0])
    squared = dx.squared_lyapunov_audit(trace_a)
    assert squared >= -1e-9 * (1.0 + xi0 ** 2)

    spec_b = InstanceSpec(kind="quadratic", n=48, conditioning=20.0, m=4, seed=0)
    prob_b = make_instance(spec_b)
    trace_b = iprox.run_cyclic(prob_b, schedule, start_point(spec_b, "gaussian", 1.0),
                               iprox.RunConfig(max_iters=4000))
    ks, xi = dx.select_window(trace_b.ks, trace_b.lyapunov, 10, 40,
                              dx.value_floor(0.0))
    est = dx.fit_rate(ks, xi, "geometric")
    assert 0.0 < est.exponent_or_ratio < 1.0
    print(f"criterion 5: PASS (slack {slack:.2e}, squared audit {squared:.2e}, "
          f"omega {est.exponent_or_ratio:.3f})")


def test_criterion_06_stochastic_descent_in_expectation():
    spec = InstanceSpec(kind="quadratic", n=64, conditioning=100.0, m=8, seed=0)
    problem = make_instance(spec)
    schedule = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.5,
                                   variant="stochastic", m=8)
    x0 = start_point(spec, "gaussian", 1.0)
    t0 = time.perf_counter()
    traces = [iprox.run_stochastic(problem, schedule, x0,
                                   iprox.RunConfig(max_iters=10_000, seed=s))
              for s in range(20)]
    seconds = time.perf_counter() - t0
    F0 = float(np.mean([t.F[0] for t in traces]))
    slack = dx.expectation_descent_audit(traces)
    assert slack >= -1e-3 * (1.0 + abs(F0))
    # k * seed-mean running-min of the residual ||S||^2, sampled every 25
    # iterations: the running min is flat between improvements, so per-k
    # monotonicity of k*u is structurally impossible; on the coarser grid
    # the decay dominates the k/(k-25) uptick
    u = np.mean(np.stack([np.minimum.accumulate(t.residual_sq)
                          for t in traces]), axis=0)
    ks = traces[0].ks
    grid = (ks >= 1000) & (ks <= 10_000) & (ks % 25 == 0)
    k_times_u = ks[grid] * u[grid]
    diffs = np.diff(k_times_u)
    assert np.all(diffs <= 0.0)
    assert seconds <= 60.0
    print(f"criterion 6: PASS (slack {slack:.2e}, k*u monotone on "
          f"{int(grid.sum())} checkpoints, {seconds:.1f}s)")


def test_criterion_07_stochastic_linear_regime():
    base = gamma0_root(1, 1.0, 1.0)
    assert abs(base - 0.74456265) <= 1e-8
    spec = InstanceSpec(kind="quadratic", n=16, conditioning=10.0, m=4, seed=0)
    problem = make_instance(spec)
    assert problem.nu == pytest.approx(0.1)
    gamma = 0.9 * gamma0_root(4, problem.nu, problem.lipschitz_L)
    beta = linear_stochastic_beta(gamma, problem.nu, 4)
    assert beta == pytest.approx(gamma * problem.nu / 16.0)
    schedule = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.9,
                                   variant="stochastic", m=4, fixed_gamma=gamma)
    x0 = start_point(spec, "gaussian", 2.0)
    traces = [iprox.run_stochastic(problem, schedule, x0,
                                   iprox.RunConfig(max_iters=2000, seed=s))
              for s in range(20)]
    mean_F = np.mean(np.stack([t.F for t in traces]), axis=0)  # f_star = 0
    ks = traces[0].ks
    rho = 1.0 - gamma * problem.nu / 8.0
    C = float(mean_F[ks == 10][0]) / rho ** 10
    w = (ks >= 10) & (ks <= 2000)
    envelope = C * rho ** ks[w].astype(float)
    assert np.all(mean_F[w] <= envelope * (1.0 + 1e-9))
    print(f"criterion 7: PASS (gamma0 {base:.8f}, rho {rho:.6f}, "
          f"mean gap at k=2000 {mean_F[-1]:.2e} under {envelope[-1]:.2e})")


def test_criterion_08_oracle_equivalences():
    # prox operators against brute-force grid minimization of the prox
    # objective 0.5*(z-v)^2/gamma-scaled form, tolerance 1e-4
    zgrid = np.linspace(-8.0, 8.0, 400_001)
    for v, tau in ((1.7, 0.6), (-3.2, 1.1), (0.3, 0.5), (2.0, 2.5)):
        best = zgrid[np.argmin(0.5 * (zgrid - v) ** 2 + tau * np.abs(zgrid))]
        got = _apply_kind(ProxKind.l1(tau), np.array([v]), 1.0)[0]
        assert abs(got - best) <= 1e-4
    lo, hi = np.array([-1.0]), np.array([2.0])
    for v in (-3.0, 0.4, 5.0):
        feas = zgrid[(zgrid >= lo[0]) & (zgrid <= hi[0])]
        best = feas[np.argmin(0.5 * (feas - v) ** 2)]
        got = _apply_kind(ProxKind.box(lo, hi), np.array([v]), 1.0)[0]
        assert abs(got - best) <= 1e-4
    v2 = np.array([3.0, -4.0])  # norm 5; optimal point is radial
    rgrid = np.linspace(0.0, 5.0, 400_001)
    for tau in (1.0, 2.5):
        r_best = rgrid[np.argmin(0.5 * (rgrid - 5.0) ** 2 + tau * rgrid)]
        got = _apply_kind(ProxKind.group_l2(tau), v2, 1.0)
        assert np.max(np.abs(got - (v2 / 5.0) * r_best)) <= 1e-4
    assert np.array_equal(_apply_kind(ProxKind.zero(), v2, 1.0), v2)

    # gradients of every library family against central differences
    specs = [
        InstanceSpec(kind="quadratic", n=10, conditioning=5.0, seed=1),
        InstanceSpec(kind="quadratic_l1", n=10, conditioning=5.0,
                     reg_lambda=0.3, seed=1),
        InstanceSpec(kind="noncoercive_quadratic", n=10, rows=6,
                     conditioning=5.0, seed=1),
        InstanceSpec(kind="lasso", n=10, rows=25, reg_lambda=0.2, seed=1),
        InstanceSpec(kind="logistic_l1", n=10, rows=30, reg_lambda=0.1, seed=1),
    ]
    rng = np.random.default_rng(17)
    for spec in specs:
        problem = make_instance(spec)
        for _ in range(2):
            x = rng.standard_normal(10)
            assert check_gradient_fd(problem, x, 1e-6) < 1e-5

    # no-inertia stepping must equal an independently coded
    # forward-backward step, bit for bit, from 10^3 random starts: x^1 and
    # x^2 of each run, so the second step has x^{k-1} != x^k
    spec = InstanceSpec(kind="lasso", n=30, rows=60, reg_lambda=0.25,
                        m=1, seed=13)
    problem = make_instance(spec)
    gamma = 2.0 * 0.9 / problem.lipschitz_L
    lam = 0.25
    schedule = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.9,
                                   variant="full")
    state_rng = np.random.default_rng(99)
    for _ in range(1000):
        x = state_rng.standard_normal(30) * state_rng.uniform(0.1, 3.0)
        trace = iprox.run_inertial(problem, schedule, x,
                                   iprox.RunConfig(max_iters=2, keep_iterates=True))
        assert trace.gammas[0] == gamma
        for ours in trace.iterates[1:]:
            w = x - gamma * grad_f(problem, x)
            x = np.sign(w) * np.maximum(np.abs(w) - gamma * lam, 0.0)
            assert np.array_equal(ours, x)
    print("criterion 8: PASS (grid prox 1e-4, FD gradients 1e-5, "
          "2000 bit-exact no-inertia steps)")


def test_criterion_09_ode_lab():
    model = iprox.SmoothModel("quadratic", np.eye(1))
    problem = CompositeProblem(
        blocks=((0,),), smooth_value=model.value, smooth_grad=model.grad,
        prox=ProxKind.zero(),
        lipschitz_L=1.0, block_lipschitz=(1.0,), f_star=0.0,
    )
    t0 = time.perf_counter()
    trace = ode.simulate_heavy_ball(problem, [1.0], [-1.0], alpha=1.0,
                                    h=1e-3, t_end=5.0)
    report = ode.ode_audit(trace, theta=2.0, x_star=[0.0])
    seconds = time.perf_counter() - t0
    # x'' + x' + x = 0 from (1, -1): underdamped closed form
    w = math.sqrt(3.0) / 2.0
    c2 = (-1.0 + 0.5) / w
    exact = math.exp(-2.5) * (math.cos(5.0 * w) + c2 * math.sin(5.0 * w))
    err = abs(float(trace.xs[-1, 0]) - exact)
    assert err <= 1e-6
    assert report["max_xi_increase"] <= 1e-8
    assert report["bound_ok"]
    assert seconds <= 2.0
    print(f"criterion 9: PASS (|x(5)-exact| {err:.1e}, energy rise "
          f"{report['max_xi_increase']:.1e}, bound holds, {seconds:.2f}s)")


def test_criterion_10_byte_identical_reruns(tmp_path):
    configs = {
        "inertial": {
            "version": 1,
            "instance": {"kind": "lasso", "n": 16, "rows": 40,
                         "reg_lambda": 0.2, "m": 1, "seed": 3},
            "algorithm": "inertial",
            "schedule": {"c": 0.9, "beta": 0.5},
            "run": {"max_iters": 300},
        },
        "stochastic": {
            "version": 1,
            "instance": {"kind": "quadratic", "n": 12, "conditioning": 6.0,
                         "m": 4, "seed": 2},
            "algorithm": "stochastic",
            "schedule": {"c": 0.8, "beta": 0.4},
            "run": {"max_iters": 300},
            "seeds": [0, 1],
        },
    }
    compared = 0
    for label, doc in configs.items():
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(doc))
        dirs = []
        for invocation in ("first", "second"):
            out = tmp_path / label / invocation
            assert cli_main(["run", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            compared += 1
    print(f"criterion 10: PASS ({compared} CSV files byte-identical "
          "across invocations)")
