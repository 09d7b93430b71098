import dataclasses

import numpy as np
import pytest

import iprox
from iprox import diagnostics, library, reference
from iprox.errors import ContractViolation
from iprox.problems import IterateState, grad_f, prox_full
from iprox.schedules import delta_coeff, epsilon_coeff
from iprox.solvers import Trace


def fake_full_trace(ks, F, step_sq, beta=0.5, gamma=0.9, L=1.0, lyap=None):
    n = len(ks)
    z = np.zeros(n)
    return Trace(
        ks=np.asarray(ks), F=np.asarray(F, dtype=float),
        lyapunov=np.asarray(lyap if lyap is not None else F, dtype=float),
        step_sq=np.asarray(step_sq, dtype=float),
        residual_sq=z.copy(), descent_slack=z.copy(),
        betas=np.full(n, beta), gammas=np.full(n, gamma),
        final_state=IterateState(np.zeros(1), np.zeros(1), int(ks[-1])),
        meta={"variant": "full", "L": L, "c": 0.9},
    )


def test_descent_audit_flags_hand_built_violation():
    # F rises from 1 to 2: psi0 - psi1 - coeff*s1 = -1.0333...
    tr = fake_full_trace([0, 1], [1.0, 2.0], [0.0, 0.1])
    got = diagnostics.descent_audit(tr)
    psi1 = 2.0 + 0.5 / 1.8 * 0.1
    want = 1.0 - psi1 - (0.5 / 0.9 - 0.5) * 0.1
    assert got == pytest.approx(want, rel=1e-12)
    assert got < -1.0


def test_descent_audit_clips_positive_slack_to_zero():
    tr = fake_full_trace([0, 1, 2], [3.0, 2.0, 1.5], [0.0, 0.01, 0.01])
    assert diagnostics.descent_audit(tr) == 0.0


def test_audit_requires_contiguous_ks():
    tr = fake_full_trace([0, 2, 4], [3.0, 2.0, 1.0], [0.0, 0.1, 0.1])
    with pytest.raises(ContractViolation):
        diagnostics.descent_audit(tr)


def test_max_lyapunov_increase():
    tr = fake_full_trace([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0], [0.0] * 4,
                         lyap=[5.0, 4.0, 4.5, 3.0])
    assert diagnostics.max_lyapunov_increase(tr.lyapunov) == pytest.approx(0.5)
    tr2 = fake_full_trace([0, 1], [1.0, 1.0], [0.0, 0.0], lyap=[2.0, 1.0])
    assert diagnostics.max_lyapunov_increase(tr2.lyapunov) == 0.0
    # any column, as the CLI passes a trace CSV's
    assert diagnostics.max_lyapunov_increase(np.array([5.0, 4.0, 4.5, 3.0])) == 0.5
    assert diagnostics.max_lyapunov_increase([2.0]) == 0.0


def real_runs():
    spec = iprox.InstanceSpec(kind="lasso", n=16, rows=50, reg_lambda=0.2,
                              m=4, seed=21)
    p = library.make_instance(spec)
    x0 = library.start_point(spec, "gaussian", 1.0)
    cfg = iprox.RunConfig(max_iters=150)
    full_spec = iprox.InstanceSpec(kind="lasso", n=16, rows=50, reg_lambda=0.2,
                                   m=1, seed=21)
    pf = library.make_instance(full_spec)
    full = iprox.run_inertial(
        pf, iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                variant="full"), x0, cfg)
    cyc = iprox.run_cyclic(
        p, iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                               variant="cyclic", m=4), x0, cfg)
    sto = iprox.run_stochastic(
        p, iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                               variant="stochastic", m=4), x0, cfg)
    return full, cyc, sto


def test_recomputed_slacks_match_recorded_column():
    # the audit rebuilds slacks from raw columns; the solver recorded its
    # own value per transition, so the two routes must agree
    for tr in real_runs():
        rec = diagnostics._per_step_slacks(tr)
        scale = 1.0 + float(np.max(np.abs(tr.descent_slack)))
        assert np.max(np.abs(rec - tr.descent_slack[1:])) < 1e-9 * scale


def test_descent_audit_refuses_a_trace_no_run_records():
    full, cyc, _ = real_runs()
    with pytest.raises(ContractViolation, match="block_step_sq"):
        diagnostics.descent_audit(dataclasses.replace(cyc, block_step_sq=None))
    with pytest.raises(ContractViolation, match="unknown variant"):
        diagnostics.descent_audit(
            dataclasses.replace(full, meta={**full.meta, "variant": "bogus"}))


def test_lyapunov_weights_check_a_traces_hand_set_gammas_and_meta():
    # the audits hand a Trace's gammas, c and L to delta_coeff and
    # epsilon_coeff, and no constructor checked a Trace
    spec = iprox.InstanceSpec(kind="quadratic", n=8, conditioning=4.0, seed=2)
    p = library.make_instance(spec)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8, variant="full")
    tr = iprox.run_inertial(p, sched, library.start_point(spec, "gaussian", 1.0),
                            iprox.RunConfig(max_iters=20))
    first, last = tr.gammas.copy(), tr.gammas.copy()
    first[0] = last[-1] = 0.0
    for fields, message in (({"gammas": last}, "delta_coeff needs gamma > 0"),
                            ({"gammas": first}, "epsilon_coeff needs gamma > 0"),
                            ({"meta": {**tr.meta, "c": 1.0}}, "epsilon_coeff needs c"),
                            ({"meta": {**tr.meta, "L": 0.0}}, "epsilon_coeff needs L")):
        with pytest.raises(ContractViolation, match=message):
            diagnostics.squared_lyapunov_audit(dataclasses.replace(tr, **fields))
    # gamma = 2/L makes delta_{k+1} = 0, which the ratio bound divides by
    with pytest.raises(ContractViolation, match="delta_"):
        diagnostics.linear_ratio_audit(
            dataclasses.replace(tr, gammas=np.full(len(tr.ks), 2.0 / p.lipschitz_L)), p)


def test_expectation_audit_needs_matching_grids():
    spec = iprox.InstanceSpec(kind="quadratic", n=8, conditioning=4.0, seed=1, m=2)
    p = library.make_instance(spec)
    x0 = library.start_point(spec, "gaussian", 1.0)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                variant="stochastic", m=2)
    a = iprox.run_stochastic(p, sched, x0, iprox.RunConfig(max_iters=30, seed=0))
    b = iprox.run_stochastic(p, sched, x0, iprox.RunConfig(max_iters=40, seed=1))
    with pytest.raises(ContractViolation):
        diagnostics.expectation_descent_audit([a, b])
    with pytest.raises(ContractViolation):
        diagnostics.expectation_descent_audit([])
    full = iprox.run_inertial(
        library.make_instance(iprox.InstanceSpec(kind="quadratic", n=8,
                                                 conditioning=4.0, seed=1)),
        iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8, variant="full"),
        x0, iprox.RunConfig(max_iters=30))
    with pytest.raises(ContractViolation):
        diagnostics.expectation_descent_audit([full])


def test_squared_lyapunov_gates():
    # a run records dist^2 exactly when its problem has a solution set, and
    # the audit refuses a trace without that column
    spec = iprox.InstanceSpec(kind="quadratic", n=8, conditioning=4.0, seed=2)
    p = library.make_instance(spec)
    x0 = library.start_point(spec, "gaussian", 1.0)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8, variant="full")
    bare = library.make_instance(
        iprox.InstanceSpec(kind="lasso", n=8, rows=20, reg_lambda=0.2, seed=2))
    no_dist = iprox.run_inertial(bare, sched, x0, iprox.RunConfig(max_iters=20))
    assert no_dist.dist_sq is None
    with pytest.raises(ContractViolation):
        diagnostics.squared_lyapunov_audit(no_dist)
    with_dist = iprox.run_inertial(p, sched, x0, iprox.RunConfig(max_iters=20))
    # on the well-posed run the inequality holds up to float dust
    v = diagnostics.squared_lyapunov_audit(with_dist)
    assert v >= -1e-9 * (1.0 + with_dist.lyapunov[0] ** 2)


def test_squared_lyapunov_rejects_stochastic():
    spec = iprox.InstanceSpec(kind="quadratic", n=8, conditioning=4.0, seed=3, m=2)
    p = library.make_instance(spec)
    x0 = library.start_point(spec, "gaussian", 1.0)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                variant="stochastic", m=2)
    tr = iprox.run_stochastic(p, sched, x0, iprox.RunConfig(max_iters=20, seed=0))
    assert tr.dist_sq is not None
    with pytest.raises(ContractViolation):
        diagnostics.squared_lyapunov_audit(tr)


def squared_lyapunov_by_loop(trace, solutions):
    # the audit as a loop over retained iterates, each one's distance to
    # the solution set computed in turn; the column audit must give the
    # same bits
    xi, s, g = trace.lyapunov, trace.step_sq, trace.gammas
    c, L = trace.meta["c"], trace.meta["L"]
    dist2 = np.empty(len(trace.ks))
    for j, x in enumerate(trace.iterates):
        d = x - solutions.point  # both sets here are single points
        dist2[j] = float(d @ d)
    worst = 0.0
    for j in range(len(trace.ks) - 1):
        if trace.meta["variant"] == "full":
            eps = epsilon_coeff(g[j], delta_coeff(g[j + 1], L), c, L)
            factor = 2.0 * dist2[j + 1] + s[j + 1]
        else:
            L_blocks = np.asarray(trace.meta["block_lipschitz"], dtype=float)
            deltas_next = 0.5 * (1.0 / g[j + 1] - L_blocks / 2.0)
            eps = 4.0 * c / ((1.0 - c) * float(L_blocks.min())) * max(
                float(np.sum(deltas_next ** 2 + L_blocks ** 2)),
                float(np.sum(1.0 / g[j] ** 2)))
            factor = 3.0 * dist2[j + 1] + s[j]
        slack = eps * (xi[j] - xi[j + 1]) * factor - xi[j + 1] ** 2
        worst = min(worst, slack)
    return float(worst)


def desk_lasso_run(**cfg):
    # the benchmark's desk-lasso configuration, at 2,000 iterations
    spec = iprox.InstanceSpec(kind="lasso", n=50, rows=200, reg_lambda=0.1, m=1, seed=1)
    p = library.make_instance(spec)
    p = reference.with_reference(p, reference.solve_reference(p, tol=1e-12))
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant="full")
    x0 = library.start_point(spec, "zeros")
    return p, iprox.run_inertial(p, sched, x0, iprox.RunConfig(max_iters=2000, **cfg))


def criterion_5_run(**cfg):
    spec = iprox.InstanceSpec(kind="lasso", n=48, rows=150, reg_lambda=0.1, m=4, seed=0)
    p = library.make_instance(spec)
    p = reference.with_reference(p, reference.solve_reference(p, tol=1e-12))
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                variant="cyclic", m=4)
    x0 = library.start_point(spec, "zeros")
    return p, iprox.run_cyclic(p, sched, x0, iprox.RunConfig(max_iters=2000, **cfg))


def bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("run", [desk_lasso_run, criterion_5_run])
def test_squared_lyapunov_column_audit_equals_iterate_loop(run):
    p, kept = run(keep_iterates=True)
    p, lean = run()
    assert lean.iterates is None
    assert np.array_equal(lean.dist_sq, kept.dist_sq)
    want = squared_lyapunov_by_loop(kept, p.solution_set)
    assert bits(diagnostics.squared_lyapunov_audit(kept)) == bits(want)
    assert bits(diagnostics.squared_lyapunov_audit(lean)) == bits(want)
    # step by step: with the lyapunov column reversed most steps violate,
    # and a two-entry window's audit is then that step's slack
    rising = dataclasses.replace(kept, lyapunov=kept.lyapunov[::-1].copy())
    violated = 0
    for j in range(len(kept.ks) - 1):
        window = dataclasses.replace(
            rising, **{name: getattr(rising, name)[j:j + 2]
                       for name in ("ks", "lyapunov", "step_sq", "gammas",
                                    "dist_sq", "iterates")})
        want = squared_lyapunov_by_loop(window, p.solution_set)
        violated += want < 0.0
        assert bits(diagnostics.squared_lyapunov_audit(window)) == bits(want), j
    assert violated > 0.5 * len(kept.ks)


def test_squared_lyapunov_audit_takes_python_min_semantics():
    # NaN slacks are passed over and no violation reads as +0.0
    tr = fake_full_trace([0, 1, 2, 3], [1.0] * 4, [0.0] * 4,
                         lyap=[0.0, 0.0, np.nan, 0.0])
    p = library.make_instance(iprox.InstanceSpec(kind="quadratic", n=2,
                                                 conditioning=2.0, seed=0))
    tr.dist_sq = np.zeros(4)  # every iterate at the minimizer
    tr.iterates = [p.solution_set.point] * 4
    assert bits(diagnostics.squared_lyapunov_audit(tr)) == bits(0.0)
    tr.lyapunov = np.array([1.0, 2.0, np.nan, 3.0])
    got = diagnostics.squared_lyapunov_audit(tr)
    assert bits(got) == bits(squared_lyapunov_by_loop(tr, p.solution_set))
    assert got == -4.0  # the step 0 -> 1; the steps through NaN are passed over
    tr.gammas[2] = 0.0
    with pytest.raises(ContractViolation):
        diagnostics.squared_lyapunov_audit(tr)
    # a single slack of -0.0 is no violation: +0.0, as min(0.0, -0.0) gives
    one = fake_full_trace([0, 1], [1.0, 1.0], [0.0, -1.0], lyap=[0.0, 0.0])
    one.dist_sq, one.iterates = np.zeros(2), tr.iterates[:2]
    assert bits(squared_lyapunov_by_loop(one, p.solution_set)) == bits(0.0)
    assert bits(diagnostics.squared_lyapunov_audit(one)) == bits(0.0)


def test_squared_lyapunov_audit_cyclic_takes_python_max():
    # eps takes max(a, b) as Python does: a NaN b leaves a, so the step
    # still counts, where np.maximum would make its slack NaN
    p = library.make_instance(iprox.InstanceSpec(kind="quadratic", n=4, conditioning=2.0,
                                                 m=2, seed=0))
    tr = fake_full_trace([0, 1], [1.0, 1.0], [0.0, 0.5], lyap=[1.0, 2.0])
    tr.meta.update(variant="cyclic", block_lipschitz=(1.0, 1.0))
    tr.gammas = np.array([[np.nan, 1.0], [1.0, 1.0]])
    tr.dist_sq = np.zeros(2)
    tr.iterates = [p.solution_set.point] * 2
    want = squared_lyapunov_by_loop(tr, p.solution_set)
    assert want < 0.0
    assert bits(diagnostics.squared_lyapunov_audit(tr)) == bits(want)


def test_squared_lyapunov_audit_squares_xi_as_the_loop_did():
    # with xi_k = xi_{k+1} the slack is -xi_{k+1}**2 itself; the loop took
    # it with pow() on a numpy scalar, which an array xi*xi does not match
    # in the last bit for about one value in a thousand
    p = library.make_instance(iprox.InstanceSpec(kind="quadratic", n=2, conditioning=2.0,
                                                 seed=0))
    xbar = p.solution_set.point
    rng = np.random.default_rng(11)
    for v in rng.standard_normal(8000) * 10.0 ** rng.integers(-100, 100, 8000):
        tr = fake_full_trace([0, 1], [1.0, 1.0], [0.0, 0.0], lyap=[v, v])
        tr.dist_sq, tr.iterates = np.zeros(2), [xbar, xbar]
        assert bits(diagnostics.squared_lyapunov_audit(tr)) == bits(
            squared_lyapunov_by_loop(tr, p.solution_set)), v


def test_linear_ratio_audit_on_quadratic():
    spec = iprox.InstanceSpec(kind="quadratic", n=12, conditioning=8.0, seed=4)
    p = library.make_instance(spec)
    x0 = library.start_point(spec, "gaussian", 1.0)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant="full")
    tr = iprox.run_inertial(p, sched, x0, iprox.RunConfig(max_iters=200))
    rep = diagnostics.linear_ratio_audit(tr, p)
    assert rep["ok"]
    assert 0.0 < rep["omega_bound"] < 1.0
    assert rep["max_ratio"] <= rep["omega_bound"] + 1e-12
    assert rep["n_steps"] > 0


def test_linear_ratio_audit_needs_nu():
    spec = iprox.InstanceSpec(kind="lasso", n=8, rows=24, reg_lambda=0.2, seed=5)
    p = library.make_instance(spec)
    ref = reference.solve_reference(p, tol=1e-10)
    pr = reference.with_reference(p, ref)  # attaches f_star but no nu
    x0 = library.start_point(spec, "zeros")
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant="full")
    tr = iprox.run_inertial(pr, sched, x0, iprox.RunConfig(max_iters=30))
    with pytest.raises(ContractViolation, match="needs problem.nu"):
        diagnostics.linear_ratio_audit(tr, pr)


def test_linear_ratio_audit_needs_a_full_run_with_f_star_above_the_floor():
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant="full")
    _, cyc, _ = real_runs()
    spec = iprox.InstanceSpec(kind="quadratic", n=8, conditioning=4.0, seed=6)
    p = library.make_instance(spec)
    with pytest.raises(ContractViolation, match="full-variant"):
        diagnostics.linear_ratio_audit(cyc, p)
    # quadratic_l1 has nu but no closed-form min F
    spec_l1 = iprox.InstanceSpec(kind="quadratic_l1", n=8, conditioning=4.0,
                                 reg_lambda=0.1, seed=6)
    p_l1 = library.make_instance(spec_l1)
    tr = iprox.run_inertial(p_l1, sched, library.start_point(spec_l1, "gaussian", 1.0),
                            iprox.RunConfig(max_iters=20))
    with pytest.raises(ContractViolation, match="known f_star"):
        diagnostics.linear_ratio_audit(tr, p_l1)
    # a run started at the minimizer has every xi_k at 0, below the floor
    at_min = iprox.run_inertial(p, sched, p.solution_set.point, iprox.RunConfig(max_iters=20))
    with pytest.raises(ContractViolation, match="no steps above the rounding floor"):
        diagnostics.linear_ratio_audit(at_min, p)


def test_value_floor():
    assert diagnostics.value_floor(0.0) == pytest.approx(1e-14)
    assert diagnostics.value_floor(-9.0) == pytest.approx(1e-13)
    assert diagnostics.value_floor(9.0) == pytest.approx(1e-13)


def test_select_window():
    ks = np.arange(0, 50)
    vals = np.linspace(1.0, 0.02, 50)
    kw, vw = diagnostics.select_window(ks, vals, 10, 30, 0.0)
    assert kw[0] == 10 and kw[-1] == 30
    kw2, vw2 = diagnostics.select_window(ks, vals, None, None, 0.5)
    assert np.all(vw2 > 0.5)


def test_fit_rate_exact_power_law():
    ks = np.arange(1, 200)
    vals = 7.3 / ks ** 1.7
    est = diagnostics.fit_rate(ks, vals, "sublinear_power")
    assert est.model == "sublinear_power"
    assert est.exponent_or_ratio == pytest.approx(1.7, abs=1e-6)
    assert est.fit_residual < 1e-10
    assert est.window == (1, 199)


def test_fit_rate_exact_geometric():
    ks = np.arange(3, 90)
    vals = 2.5 * 0.93 ** ks
    est = diagnostics.fit_rate(ks, vals, "geometric")
    assert est.exponent_or_ratio == pytest.approx(0.93, abs=1e-6)
    assert est.fit_residual < 1e-10


def test_fit_rate_validation():
    ks = np.arange(1, 8)
    with pytest.raises(ContractViolation):
        diagnostics.fit_rate(ks, 1.0 / ks, "sublinear_power")  # too few
    ks = np.arange(1, 30)
    with pytest.raises(ContractViolation):
        diagnostics.fit_rate(ks, np.zeros(29), "geometric")  # nonpositive
    with pytest.raises(ContractViolation):
        diagnostics.fit_rate(ks, 1.0 / ks, "bogus_model")
    with pytest.raises(ContractViolation):
        diagnostics.fit_rate(np.zeros(29, dtype=int), np.ones(29), "sublinear_power")
    with pytest.raises(ContractViolation, match="equal length"):
        diagnostics.fit_rate(ks, np.ones(28), "geometric")
    for bad in (float("inf"), float("nan")):  # either made a NaN rate
        with pytest.raises(ContractViolation, match="finite values"):
            diagnostics.fit_rate(ks, np.where(ks == 20, bad, 1.0 / ks), "geometric")
    with pytest.raises(ContractViolation, match="k >= 1"):
        diagnostics.fit_rate(np.arange(0, 29), np.ones(29), "sublinear_power")


def test_lyapunov_xi_and_residual_helpers():
    # xi_k = F(x^k) + delta_k*||x^k - x^{k-1}||^2 - min F, and the
    # prox-gradient mapping S_gamma(x) = x - prox(x - gamma*grad f(x)),
    # which vanishes at the minimizer
    spec = iprox.InstanceSpec(kind="quadratic", n=6, conditioning=4.0, seed=6)
    p = library.make_instance(spec)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8, variant="full")
    tr = iprox.run_inertial(p, sched, library.start_point(spec, "gaussian", 1.0),
                            iprox.RunConfig(max_iters=30))
    delta = 0.5 * (1.0 / tr.gammas - p.lipschitz_L / 2.0)
    assert np.allclose(tr.lyapunov, tr.F + delta * tr.step_sq - p.f_star, rtol=1e-14, atol=0)
    z = p.solution_set.point
    g = 1.0 / p.lipschitz_L
    assert np.linalg.norm(z - prox_full(p, z - g * grad_f(p, z), g)) < 1e-12
