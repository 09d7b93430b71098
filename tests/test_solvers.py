import numpy as np
import pytest

import iprox
from iprox import library
from iprox.errors import ContractViolation, DivergenceError
from iprox.problems import CompositeProblem, IterateState, objective, prox_full
from iprox.rng import SplitMix64
from iprox.schedules import beta_at, gamma_full, gamma_stochastic
from iprox.solvers import (
    RunConfig,
    cyclic_epoch,
    inertial_step,
    run_cyclic,
    run_inertial,
    run_stochastic,
    stochastic_step,
)


def two_dim_quadratic():
    # f = x'Qx/2 with Q = [[2,1],[1,3]], g = 0; small enough to step by hand
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    L = float(np.linalg.eigvalsh(Q)[-1])
    return CompositeProblem(
        dim=2, blocks=((0,), (1,)),
        smooth_value=lambda x: 0.5 * float(x @ Q @ x),
        smooth_grad=lambda x: Q @ x,
        lipschitz_L=L, block_lipschitz=(2.0, 3.0),
        nonsmooth_value=lambda x: 0.0,
        prox=lambda i, v, gamma: v,
        f_star=0.0, nu=float(np.linalg.eigvalsh(Q)[0]) / 2.0,
        solution_projection=lambda x: np.zeros(2),
    )


STATE = IterateState(x_curr=np.array([1.0, 1.0]),
                     x_prev=np.array([0.5, 0.25]), k=1)


def test_full_step_hand_values():
    # grad = (3,4); v = x - 0.5*grad + 0.25*(x - x_prev)
    out = inertial_step(two_dim_quadratic(), STATE, gamma=0.5, beta=0.25)
    assert np.allclose(out, [-0.375, -0.8125], atol=1e-15)


def test_cyclic_epoch_hand_values():
    # gamma = (0.6, 0.4): block 0 sees grad (3,4), block 1 sees the fresh
    # gradient (-0.35, 2.325) after block 0 moved
    out = cyclic_epoch(two_dim_quadratic(), STATE,
                       np.array([0.6, 0.4]), np.array([0.25, 0.25]))
    assert np.allclose(out, [-0.675, 0.2575], atol=1e-14)


def test_stochastic_step_hand_values():
    # SplitMix64(0) first draw below 2 picks block 1; block 0 must carry over
    out, i = stochastic_step(two_dim_quadratic(), STATE, 0.5, 0.25, SplitMix64(0))
    assert i == 1
    assert out[0] == 1.0
    assert out[1] == pytest.approx(-0.8125, abs=1e-15)


def test_step_validation():
    p = two_dim_quadratic()
    with pytest.raises(ContractViolation):
        inertial_step(p, STATE, 0.5, 1.0)
    with pytest.raises(ContractViolation):
        stochastic_step(p, STATE, 0.5, np.sqrt(2.0), SplitMix64(0))
    with pytest.raises(ContractViolation):
        cyclic_epoch(p, STATE, np.array([0.5]), np.array([0.2]))


def lasso_problem(seed=9, n=12, m=1):
    spec = iprox.InstanceSpec(kind="lasso", n=n, rows=3 * n, reg_lambda=0.2,
                              m=m, seed=seed)
    return library.make_instance(spec), library.start_point(spec, "gaussian", 1.0)


def closure_lasso(seed=9, n=6):
    # a two-block lasso given by closures only (no smooth_model, no
    # prox_kind), whose gradients are exact at every refresh cadence
    rng = np.random.default_rng(seed)
    A, b, lam = rng.standard_normal((3 * n, n)), rng.standard_normal(3 * n), 0.2
    blocks = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    return CompositeProblem(
        dim=n, blocks=blocks,
        smooth_value=lambda x: 0.5 * float((A @ x - b) @ (A @ x - b)),
        smooth_grad=lambda x: A.T @ (A @ x - b),
        lipschitz_L=float(np.linalg.norm(A, 2) ** 2),
        block_lipschitz=tuple(float(np.linalg.norm(A[:, list(blk)], 2) ** 2)
                              for blk in blocks),
        nonsmooth_value=lambda x: lam * float(np.abs(x).sum()),
        prox=lambda i, v, gamma: np.sign(v) * np.maximum(np.abs(v) - gamma * lam, 0.0),
    ), rng.standard_normal(n)


@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
def test_run_matches_manual_fold(variant):
    p, x0 = closure_lasso()
    c, seed = 0.85, 4
    sched = iprox.ParamSchedule(beta_rule=iprox.DiminishingBeta(1.5), c=c,
                                variant=variant, m=2)
    runner = {"full": run_inertial, "cyclic": run_cyclic,
              "stochastic": run_stochastic}[variant]
    tr = runner(p, sched, x0, RunConfig(max_iters=60, seed=seed))
    rng = SplitMix64(seed)
    x_prev, x = x0.copy(), x0.copy()
    F = [objective(p, x)]
    for k in range(60):
        beta = beta_at(sched, k)
        state = IterateState(x, x_prev, k)
        if variant == "full":
            x_next = inertial_step(p, state, gamma_full(beta, c, p.lipschitz_L), beta)
        elif variant == "cyclic":
            gammas = 2.0 * (1.0 - beta) * c / np.asarray(p.block_lipschitz)
            x_next = cyclic_epoch(p, state, gammas, np.full(2, beta))
        else:
            gamma = gamma_stochastic(beta, c, p.lipschitz_L, 2)
            x_next, _ = stochastic_step(p, state, gamma, beta, rng)
        x, x_prev = x_next, x
        F.append(objective(p, x))
    assert np.array_equal(tr.final_state.x_curr, x)
    assert np.array_equal(tr.final_state.x_prev, x_prev)
    assert np.array_equal(tr.F, F)


def test_wrong_shaped_closure_prox_is_rejected():
    # one value back for a two-coordinate block must not be broadcast
    p = CompositeProblem(
        dim=4, blocks=((0, 1), (2, 3)),
        smooth_value=lambda x: 0.5 * float(x @ x),
        smooth_grad=lambda x: x.copy(),
        lipschitz_L=1.0, block_lipschitz=(1.0, 1.0),
        nonsmooth_value=lambda x: 0.0,
        prox=lambda i, v, g: np.array([v.sum()]),
    )
    x0 = np.arange(4.0)
    with pytest.raises(ContractViolation):
        prox_full(p, x0, 1.0)
    for runner, variant in ((run_cyclic, "cyclic"), (run_stochastic, "stochastic")):
        sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.5,
                                    variant=variant, m=2)
        with pytest.raises(ContractViolation):
            runner(p, sched, x0, RunConfig(max_iters=5))
    state = IterateState(x0, x0, 0)
    with pytest.raises(ContractViolation):
        cyclic_epoch(p, state, np.ones(2), np.zeros(2))
    with pytest.raises(ContractViolation):
        stochastic_step(p, state, 1.0, 0.0, SplitMix64(0))


def test_first_step_has_no_momentum():
    # x^{-1} = x^0, so the first update is a plain prox-gradient step at
    # gamma_0 regardless of beta
    p, x0 = lasso_problem()
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.9), c=0.5,
                                variant="full")
    tr = run_inertial(p, sched, x0, RunConfig(max_iters=1, keep_iterates=True))
    gamma0 = gamma_full(0.9, 0.5, p.lipschitz_L)
    from iprox.problems import grad_f, prox_full
    want = prox_full(p, x0 - gamma0 * grad_f(p, x0), gamma0)
    assert np.array_equal(tr.iterates[1], want)


def test_trace_shapes_and_bookkeeping():
    p, x0 = lasso_problem()
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                variant="full")
    tr = run_inertial(p, sched, x0, RunConfig(max_iters=25, keep_iterates=True))
    n = len(tr.ks)
    assert n == 26
    assert tr.ks[0] == 0 and tr.ks[-1] == 25
    for col in (tr.F, tr.lyapunov, tr.step_sq, tr.residual_sq,
                tr.descent_slack, tr.betas, tr.gammas):
        assert len(col) == n
    assert tr.descent_slack[0] == 0.0
    assert tr.step_sq[0] == 0.0
    assert len(tr.iterates) == n
    assert tr.meta["variant"] == "full"


def test_record_every_subsamples_but_keeps_final():
    p, x0 = lasso_problem()
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                variant="full")
    tr = run_inertial(p, sched, x0, RunConfig(max_iters=50, record_every=7))
    assert list(tr.ks) == [0, 7, 14, 21, 28, 35, 42, 49, 50]


def test_stop_tol_halts_early():
    p, x0 = lasso_problem()
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                variant="full")
    tr = run_inertial(p, sched, x0, RunConfig(max_iters=100_000, stop_tol=1e-8))
    assert tr.ks[-1] < 100_000
    assert tr.residual_sq[-1] <= 1e-16
    assert np.all(tr.residual_sq[:-1] > 1e-16)


def test_fixed_point_stays_put():
    spec = iprox.InstanceSpec(kind="quadratic", n=5, conditioning=3.0, seed=4)
    p = library.make_instance(spec)
    z = p.solution_projection(np.zeros(5))
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.6), c=0.9,
                                variant="full")
    tr = run_inertial(p, sched, z, RunConfig(max_iters=10))
    assert np.array_equal(tr.final_state.x_curr, z)
    assert np.all(tr.step_sq == 0.0)


def test_divergence_raises_with_iteration():
    # understate L so the stepsize is far beyond the stability range
    p = CompositeProblem(
        dim=2, blocks=((0, 1),),
        smooth_value=lambda x: 0.5 * float(x @ x),
        smooth_grad=lambda x: x.copy(),
        lipschitz_L=0.05, block_lipschitz=(0.05,),
        nonsmooth_value=lambda x: 0.0,
        prox=lambda i, v, g: v,
    )
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.9,
                                variant="full")
    with pytest.raises(DivergenceError) as exc:
        run_inertial(p, sched, np.array([1.0, 1.0]), RunConfig(max_iters=500))
    assert exc.value.k > 0


def test_variant_mismatch_rejected():
    p, x0 = lasso_problem()
    full = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                               variant="full")
    with pytest.raises(ContractViolation):
        run_cyclic(p, full, x0, RunConfig(max_iters=5))
    with pytest.raises(ContractViolation):
        run_stochastic(p, full, x0, RunConfig(max_iters=5))
    sto_wrong_m = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                      variant="stochastic", m=3)
    with pytest.raises(ContractViolation):
        run_stochastic(p, sto_wrong_m, x0, RunConfig(max_iters=5))


def test_single_block_variants_reproduce_full_run():
    p, x0 = lasso_problem(seed=11)
    cfg = RunConfig(max_iters=80)
    full = run_inertial(
        p, iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.3), c=0.7,
                               variant="full"), x0, cfg)
    cyc = run_cyclic(
        p, iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.3), c=0.7,
                               variant="cyclic", m=1), x0, cfg)
    sto = run_stochastic(
        p, iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.3), c=0.7,
                               variant="stochastic", m=1), x0, cfg)
    for other in (cyc, sto):
        assert np.array_equal(full.final_state.x_curr, other.final_state.x_curr)
        assert np.array_equal(full.F, other.F)
        assert np.array_equal(full.lyapunov, other.lyapunov)
        assert np.array_equal(full.step_sq, other.step_sq)
        assert np.array_equal(full.residual_sq, other.residual_sq)
    # slack columns use per-variant formulas; they agree only numerically
    assert np.allclose(full.descent_slack, cyc.descent_slack,
                       rtol=1e-9, atol=1e-12)


def test_cyclic_hand_epoch_through_runner():
    p = two_dim_quadratic()
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.25), c=0.8,
                                variant="cyclic", m=2)
    tr = run_cyclic(p, sched, np.array([1.0, 1.0]), RunConfig(max_iters=1))
    # first epoch from rest: momentum vanishes; gamma = 1.2/L_i
    g0, g1 = 1.2 / 2.0, 1.2 / 3.0
    x0_new = 1.0 - g0 * 3.0
    x1_new = 1.0 - g1 * (x0_new + 3.0)
    assert np.allclose(tr.final_state.x_curr, [x0_new, x1_new], atol=1e-14)
    assert tr.gammas.shape == (2, 2)
    assert tr.block_step_sq.shape == (2, 2)


def test_stochastic_same_seed_is_identical():
    p, x0 = lasso_problem(seed=13, n=12, m=3)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                variant="stochastic", m=3)
    a = run_stochastic(p, sched, x0, RunConfig(max_iters=100, seed=5))
    b = run_stochastic(p, sched, x0, RunConfig(max_iters=100, seed=5))
    c = run_stochastic(p, sched, x0, RunConfig(max_iters=100, seed=6))
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.chosen_blocks, b.chosen_blocks)
    assert not np.array_equal(a.F, c.F)


def test_stochastic_untouched_blocks_carry_over():
    p, x0 = lasso_problem(seed=14, n=12, m=4)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                variant="stochastic", m=4)
    tr = run_stochastic(p, sched, x0, RunConfig(max_iters=60, seed=2,
                                                keep_iterates=True))
    xs = tr.iterates
    for j in range(1, len(xs)):
        i = tr.chosen_blocks[j]
        assert i >= 0
        for b, ix in enumerate(p.block_index_arrays):
            if b != i:
                assert np.array_equal(xs[j][ix], xs[j - 1][ix])
    # with 60 draws of 4 blocks, every block should have been visited
    assert set(tr.chosen_blocks[1:].tolist()) == {0, 1, 2, 3}


def test_stochastic_running_min_tracks_step_sq():
    p, x0 = lasso_problem(seed=15, n=8, m=2)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                variant="stochastic", m=2)
    tr = run_stochastic(p, sched, x0, RunConfig(max_iters=50, seed=1))
    assert tr.step_sq_running_min[0] == np.inf
    inc = np.minimum.accumulate(tr.step_sq[1:])
    assert np.allclose(tr.step_sq_running_min[1:], inc, rtol=0, atol=0)


def test_fixed_gamma_regime_needs_nu():
    p, x0 = lasso_problem(seed=16, n=8, m=2)  # lasso carries no nu
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.5,
                                variant="stochastic", m=2, fixed_gamma=0.5)
    with pytest.raises(ContractViolation):
        run_stochastic(p, sched, x0, RunConfig(max_iters=5, seed=0))


def test_fixed_gamma_regime_constant_params():
    spec = iprox.InstanceSpec(kind="quadratic", n=8, conditioning=5.0, seed=3, m=2)
    p = library.make_instance(spec)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.5,
                                variant="stochastic", m=2, fixed_gamma=0.7)
    tr = run_stochastic(p, sched, library.start_point(spec, "gaussian", 1.0),
                        RunConfig(max_iters=30, seed=0))
    assert np.all(tr.gammas == 0.7)
    want_beta = 0.7 * p.nu / (4 * 2)
    assert np.all(tr.betas == want_beta)


def test_run_config_validation():
    with pytest.raises(ContractViolation):
        RunConfig(max_iters=0)
    with pytest.raises(ContractViolation):
        RunConfig(max_iters=10, record_every=0)
    with pytest.raises(ContractViolation):
        RunConfig(max_iters=10, stop_tol=-1.0)
