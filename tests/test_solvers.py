import dataclasses
import math

import numpy as np
import pytest

import iprox
from iprox import library
from iprox.errors import ContractViolation, DivergenceError
from iprox.problems import (
    CompositeProblem,
    ImageOracle,
    SolutionSet,
    grad_f,
    objective,
    prox_full,
)
from iprox.prox import prox_apply
from iprox.rng import SplitMix64
from iprox import solvers
from iprox.schedules import beta_at, delta_coeff, gamma_full, gamma_stochastic
from iprox.solvers import RunConfig, Trace, run_cyclic, run_inertial, run_stochastic


def two_dim_quadratic():
    # f = x'Qx/2 with Q = [[2,1],[1,3]], g = 0; small enough to step by hand
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    L = float(np.linalg.eigvalsh(Q)[-1])
    model = iprox.SmoothModel("quadratic", Q)
    return CompositeProblem(
        blocks=((0,), (1,)), smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=L, block_lipschitz=(2.0, 3.0),
        prox=iprox.ProxKind.zero(),
        f_star=0.0, nu=float(np.linalg.eigvalsh(Q)[0]) / 2.0,
        solution_set=SolutionSet(np.zeros(2)),
    )


def hand_quadratic(**changes):
    # the 2-D quadratic with the upper bounds L = 4 and L_i = (2, 4), which
    # make every stepsize below, and so every iterate, a short binary fraction
    return dataclasses.replace(two_dim_quadratic(), lipschitz_L=4.0,
                               block_lipschitz=(2.0, 4.0), **changes)


def first_two_iterates(runner, p, sched, seed=0):
    # x^0 = (1, 1), then x^1, a plain step from x^{-1} = x^0, and x^2, which
    # carries momentum
    tr = runner(p, sched, np.array([1.0, 1.0]),
                RunConfig(max_iters=2, seed=seed, keep_iterates=True))
    assert np.array_equal(tr.iterates[0], [1.0, 1.0])
    return tr, tr.iterates[1], tr.iterates[2]


def test_full_step_hand_values():
    # gamma = 2(1 - 0.5)*0.5/4 = 0.125.  x^1 = x^0 - gamma*(3, 4);
    # x^2 = x^1 - gamma*Q x^1 + 0.5*(x^1 - x^0) with Q x^1 = (1.75, 2.125)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.5)
    _, x1, x2 = first_two_iterates(run_inertial, hand_quadratic(), sched)
    assert np.array_equal(x1, [0.625, 0.5])
    assert np.array_equal(x2, [0.21875, -0.015625])


def test_cyclic_epoch_hand_values():
    # gamma_i = 2(1 - 0.5)*0.5/L_i = (0.25, 0.125).  Epoch 1: block 0 sees
    # grad 3, block 1 the fresh gradient 0.25 + 3 = 3.25 after block 0 moved.
    # Epoch 2: block 0 sees 2*0.25 + 0.59375 = 1.09375, block 1 sees
    # -0.3984375 + 3*0.59375 = 1.3828125, each with momentum 0.5*(x^1 - x^0)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.5, variant="cyclic")
    _, x1, x2 = first_two_iterates(run_cyclic, hand_quadratic(), sched)
    assert np.array_equal(x1, [0.25, 0.59375])
    assert np.array_equal(x2, [-0.3984375, 0.2177734375])


def test_stochastic_step_hand_values():
    # the fixed-gamma regime: gamma = 0.25 and beta = gamma*nu/(4m) = 1/64.
    # SplitMix64(1) draws block 1 twice, so block 0 carries over exactly.
    # x^1_1 = 1 - 0.25*4; x^2_1 = 0 - 0.25*1 + (0 - 1)/64
    draws = SplitMix64(1)
    assert [draws.randint_below(2) for _ in range(2)] == [1, 1]
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.5,
                                variant="stochastic", m=2, fixed_gamma=0.25)
    tr, x1, x2 = first_two_iterates(run_stochastic, hand_quadratic(nu=0.5), sched, seed=1)
    assert tr.betas[0] == 1.0 / 64.0
    assert tr.chosen_blocks.tolist() == [-1, 1, 1]
    assert np.array_equal(x1, [1.0, 0.0])
    assert np.array_equal(x2, [1.0, -0.265625])


def lasso_problem(seed=9, n=12, m=1):
    spec = iprox.InstanceSpec(kind="lasso", n=n, rows=3 * n, reg_lambda=0.2,
                              m=m, seed=seed)
    return library.make_instance(spec), library.start_point(spec, "gaussian", 1.0)


def two_block_lasso(seed=9, n=6, blocks=None):
    # a two-block lasso built by hand, with blocks given by the caller
    rng = np.random.default_rng(seed)
    A, b, lam = rng.standard_normal((3 * n, n)), rng.standard_normal(3 * n), 0.2
    if blocks is None:
        blocks = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    model = iprox.SmoothModel("squares", A, offset=b)
    return CompositeProblem(
        blocks=blocks, smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=float(np.linalg.norm(A, 2) ** 2),
        block_lipschitz=tuple(float(np.linalg.norm(A[:, list(blk)], 2) ** 2)
                              for blk in blocks),
        prox=iprox.ProxKind.l1(lam),
    ), rng.standard_normal(n)


def fold_problem(name):
    # A "closure" case runs, and folds, with fresh_reads patched in: every
    # value and gradient is computed from x, as a closure f of x computed
    # them.  A library case reads f through the kept image.
    if name == "closure":
        return two_block_lasso()
    if name == "closure-scattered":
        # blocks that are neither contiguous nor ascending keep index arrays
        return two_block_lasso(blocks=((4, 0, 2), (1, 5, 3)))
    return lasso_problem(n=12, m=4)  # the image oracle, with slice selectors


def test_block_selectors_are_slices_for_contiguous_blocks():
    p, _ = fold_problem("library")
    assert all(isinstance(sel, slice) for sel in p.block_selectors)
    p, _ = fold_problem("closure-scattered")
    assert [sel.tolist() for sel in p.block_selectors] == [[4, 0, 2], [1, 5, 3]]


FOLD_RULES = {"diminishing": iprox.DiminishingBeta(1.5), "constant": iprox.ConstantBeta(0.6)}
# Every case folds over one oracle state; a closure problem's case also
# folds without one, since its reads give the same gradient at any cadence.
FOLD_CASES = [(variant, problem, every, rule, with_oracle)
              for variant in ("full", "cyclic", "stochastic")
              for problem in ("closure", "closure-scattered", "library")
              for every in (1, 3) for rule in FOLD_RULES
              for with_oracle in ((True,) if problem == "library" else (False, True))]


def fold_id(case):
    # the plain closure case at record_every = 1, folded without an oracle
    # state, is named by its order alone
    variant, problem, every, rule, with_oracle = case
    if (problem, every, rule, with_oracle) == ("closure", 1, "diminishing", False):
        return variant
    return f"{variant}-{problem}-every{every}-{rule}" + ("-oracle" if with_oracle else "")


def reference_step(p, variant, x, x_prev, beta, gamma, oracle, block=None):
    """x^{k+1} by the order's update rule, coded apart from the solvers.

    Gradients come from the oracle state (read, block_grad, and each
    block move told to it by move), or from grad_f without one.  The full
    step is prox_full(x - gamma*grad f(x) + beta*(x - x_prev)).  The cyclic
    step moves every block in turn, block i with gamma[i] and its gradient
    read after blocks 0..i-1 moved; the stochastic step moves ``block``
    alone.  A block moves by the same rule with the prox of its own g_i.
    """
    if variant == "full":
        grad = grad_f(p, x) if oracle is None else oracle.read(x)[1]
        return prox_full(p, x - gamma * grad + beta * (x - x_prev), gamma)
    x = x.copy()
    for i in (range(p.n_blocks) if variant == "cyclic" else (block,)):
        ix = list(p.blocks[i])
        g_i = grad_f(p, x)[ix] if oracle is None else oracle.block_grad(i, x)
        gam = gamma[i] if variant == "cyclic" else gamma
        x_i = prox_apply(p.prox_kind, x[ix] - gam * g_i + beta * (x[ix] - x_prev[ix]), gam)
        if oracle is not None:
            oracle.move(i, x_i - x[ix])
        x[ix] = x_i
    return x


@pytest.mark.parametrize("variant, problem, record_every, rule, with_oracle", FOLD_CASES,
                         ids=[fold_id(case) for case in FOLD_CASES])
def test_run_matches_manual_fold(variant, problem, record_every, rule, with_oracle,
                                 fresh_reads):
    # a run equals, bit for bit, a fold of reference_step.  Without an
    # oracle state it reads grad_f; with one, the state takes a new image at
    # the documented cadence: a read of f and grad f at every recorded entry
    # and every full step, and a refresh at every other epoch start (every
    # cyclic step, every m stochastic steps)
    beta_rule = FOLD_RULES[rule]
    p, x0 = fold_problem(problem)
    if problem != "library":
        fresh_reads()
    m, c, seed, iters = p.n_blocks, 0.85, 4, 60
    sched = iprox.ParamSchedule(beta_rule=beta_rule, c=c, variant=variant, m=m)
    runner = {"full": run_inertial, "cyclic": run_cyclic,
              "stochastic": run_stochastic}[variant]
    tr = runner(p, sched, x0, RunConfig(max_iters=iters, seed=seed,
                                        record_every=record_every))
    epoch = m if variant == "stochastic" else 1
    oracle = solvers.ImageOracle(p) if with_oracle else None
    rng = SplitMix64(seed)
    x_prev, x = x0.copy(), x0.copy()
    F, blocks = {0: objective(p, x)}, []
    for k in range(iters):
        if with_oracle and k % record_every == 0:
            oracle.read(x)
        elif with_oracle and k % epoch == 0:
            oracle.refresh(x)
        beta = beta_at(sched, k)
        if variant == "full":
            gamma = gamma_full(beta, c, p.lipschitz_L)
        elif variant == "cyclic":
            gamma = 2.0 * (1.0 - beta) * c / np.asarray(p.block_lipschitz)
        else:
            gamma = gamma_stochastic(beta, c, p.lipschitz_L, m)
            blocks.append(rng.randint_below(m))
        x_next = reference_step(p, variant, x, x_prev, beta, gamma, oracle,
                                blocks[-1] if blocks else None)
        x, x_prev = x_next, x
        F[k + 1] = objective(p, x)
    assert np.array_equal(tr.final_state.x_curr, x)
    assert np.array_equal(tr.final_state.x_prev, x_prev)
    assert np.array_equal(tr.F, [F[k] for k in tr.ks])
    if variant == "stochastic":
        assert np.array_equal(tr.chosen_blocks[1:], [blocks[k - 1] for k in tr.ks[1:]])


class PoisonedModel(iprox.SmoothModel):
    """A smooth model whose gradient reads ``poison`` at the point ``at``."""

    def __init__(self, model, at, poison):
        super().__init__(model.loss, model.A, model.offset, model.labels, model.center)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "poison", poison)

    def grad_at(self, x, u, cols=None):
        g = super().grad_at(x, u, cols)
        return g + self.poison if np.array_equal(x, self.at) else g


@pytest.mark.parametrize("poison", [np.nan, np.inf])
@pytest.mark.parametrize("oracle_kind", ["image", "closure"])
@pytest.mark.parametrize("stop_tol", [0.0, 1e-6])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
def test_divergence_guard_catches_a_non_finite_gradient(variant, record_every, stop_tol,
                                                        oracle_kind, poison, fresh_reads):
    # The gradient turns non-finite at the iterate x^5 only, and F stays
    # finite there.  Every order reads a gradient at x^5 in iteration 5 (the
    # entry's, the full step's, or its first block's), whether or not 5 is
    # a recorded entry, so the run stops there with k = 5.  The "image"
    # case reads it off the kept image, the "closure" case (fresh_reads)
    # from x itself.
    p, x0 = lasso_problem(seed=21, n=12, m=3)
    model = p.smooth_model
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.8, variant=variant,
                                m=3 if variant == "stochastic" else 1)
    runner = {"full": run_inertial, "cyclic": run_cyclic,
              "stochastic": run_stochastic}[variant]
    if oracle_kind == "closure":
        fresh_reads()
    # x^j is the final iterate of the same run cut at j
    xs = [x0] + [runner(p, sched, x0, RunConfig(
        max_iters=j, seed=2, record_every=record_every, stop_tol=stop_tol)).final_state.x_curr
        for j in range(1, 6)]
    assert not any(np.array_equal(x, xs[5]) for x in xs[:5])
    poisoned = PoisonedModel(model, xs[5], poison)
    bad = dataclasses.replace(p, smooth_value=poisoned.value, smooth_grad=poisoned.grad)
    assert bad.smooth_model is poisoned
    with pytest.raises(DivergenceError) as exc:
        runner(bad, sched, x0, RunConfig(max_iters=12, seed=2, record_every=record_every,
                                         stop_tol=stop_tol))
    assert exc.value.k == 5
    assert "gradient" in str(exc.value)


def test_first_step_has_no_momentum():
    # x^{-1} = x^0, so the first update is a plain prox-gradient step at
    # gamma_0 regardless of beta
    p, x0 = lasso_problem()
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.9), c=0.5,
                                variant="full")
    tr = run_inertial(p, sched, x0, RunConfig(max_iters=1, keep_iterates=True))
    gamma0 = gamma_full(0.9, 0.5, p.lipschitz_L)
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


def test_a_stop_tol_whose_square_overflows_stops_at_k0():
    # stop_tol ** 2 raises OverflowError above about 1.3e154; the squared
    # tolerance is inf instead, which the first residual meets
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.5)
    tr = run_inertial(two_dim_quadratic(), sched, np.array([1.0, 1.0]),
                      RunConfig(max_iters=50, stop_tol=1e300))
    assert list(tr.ks) == [0]


def test_fixed_point_stays_put():
    spec = iprox.InstanceSpec(kind="quadratic", n=5, conditioning=3.0, seed=4)
    p = library.make_instance(spec)
    z = p.solution_set.point
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.6), c=0.9,
                                variant="full")
    tr = run_inertial(p, sched, z, RunConfig(max_iters=10))
    assert np.array_equal(tr.final_state.x_curr, z)
    assert np.all(tr.step_sq == 0.0)


def test_divergence_raises_with_iteration():
    # understate L so the stepsize is far beyond the stability range
    p = dataclasses.replace(understated_quadratic(), lipschitz_L=0.05,
                            block_lipschitz=(0.05,))
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
        for b, ix in enumerate(p.block_selectors):
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


def test_fixed_gamma_regime_needs_beta_below_sqrt_m():
    # beta = gamma*nu/(4m) is checked once, when the run is set up
    spec = iprox.InstanceSpec(kind="quadratic", n=8, conditioning=5.0, seed=3, m=2)
    p = library.make_instance(spec)
    gamma = 4 * 2 * 2.0 / p.nu  # beta = 2 > sqrt(2)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.5,
                                variant="stochastic", m=2, fixed_gamma=gamma)
    with pytest.raises(ContractViolation):
        run_stochastic(p, sched, library.start_point(spec, "gaussian", 1.0),
                       RunConfig(max_iters=5, seed=0))


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


def test_a_max_iters_numpy_cannot_index_is_rejected():
    # "max_iters": 10**30 in a config used to run until it was killed
    RunConfig(max_iters=np.iinfo(np.intp).max)
    with pytest.raises(ContractViolation, match="max_iters"):
        RunConfig(max_iters=np.iinfo(np.intp).max + 1)
    with pytest.raises(ContractViolation, match="max_iters"):
        RunConfig(max_iters=10 ** 30)


@pytest.mark.parametrize("field, value", [
    ("max_iters", 10.5), ("max_iters", True), ("record_every", 2.5), ("record_every", True),
    ("seed", 1.5), ("seed", False), ("seed", -1), ("seed", 2 ** 64),
    ("stop_tol", float("nan")), ("stop_tol", "0.1"), ("keep_iterates", 1)],
    ids=["float-max-iters", "bool-max-iters", "float-record-every", "bool-record-every",
         "float-seed", "bool-seed", "negative-seed", "seed-2^64", "nan-stop-tol",
         "str-stop-tol", "int-keep-iterates"])
def test_a_run_config_checks_its_types(field, value):
    # only the config is built, never a run: max_iters = 10.5 once made
    # run_inertial loop forever, record_every = 2.5 recorded k = 0, 5, 10,
    # and max_iters = True ran one step
    with pytest.raises(ContractViolation, match=field):
        RunConfig(**{"max_iters": 10, field: value})


def test_a_run_config_takes_numpy_numbers():
    cfg = RunConfig(max_iters=np.int64(10), record_every=np.int32(2), seed=np.uint64(2 ** 64 - 1),
                    stop_tol=np.float64(1e-6), keep_iterates=True)
    assert cfg.max_iters == 10 and cfg.seed == 2 ** 64 - 1


@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
def test_dist_sq_column_records_distance_to_solution_set(variant):
    spec = iprox.InstanceSpec(kind="quadratic", n=12, conditioning=8.0, m=3, seed=4)
    p = library.make_instance(spec)
    x0 = library.start_point(spec, "gaussian", 1.0)
    runner = {"full": run_inertial, "cyclic": run_cyclic,
              "stochastic": run_stochastic}[variant]
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8, variant=variant,
                                m=3 if variant == "stochastic" else 1)
    lean = runner(p, sched, x0, RunConfig(max_iters=30, record_every=4))
    kept = runner(p, sched, x0, RunConfig(max_iters=30, record_every=4,
                                          keep_iterates=True))
    assert lean.iterates is None
    want = [row_dist_sq(p.solution_set, x) for x in kept.iterates]
    assert np.array_equal(lean.dist_sq, want) and np.array_equal(kept.dist_sq, want)
    # a problem without a solution set records none, iterates kept or not,
    # and every other column is as it was
    plain = runner(dataclasses.replace(p, solution_set=None), sched, x0,
                   RunConfig(max_iters=30, record_every=4, keep_iterates=True))
    assert plain.dist_sq is None and len(plain.iterates) == len(want)
    for name in ("ks", "F", "lyapunov", "step_sq", "residual_sq", "descent_slack",
                 "betas", "gammas", "block_step_sq", "chosen_blocks",
                 "step_sq_running_min"):
        a, b = getattr(plain, name), getattr(lean, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


def test_packed_columns_have_the_trace_dtypes_and_shapes():
    p, x0 = lasso_problem(m=3)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant="cyclic")
    tr = run_cyclic(p, sched, x0, RunConfig(max_iters=7))
    assert tr.ks.dtype == np.int64 and tr.F.dtype == np.float64
    assert tr.gammas.shape == (8, 3) and tr.block_step_sq.shape == (8, 3)
    assert np.array_equal(tr.gammas[2], 2.0 * 0.5 * 0.9 / np.asarray(p.block_lipschitz))
    assert np.array_equal(tr.step_sq, tr.block_step_sq.sum(axis=1))
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9,
                                variant="stochastic", m=3)
    tr = run_stochastic(p, sched, x0, RunConfig(max_iters=7, seed=2))
    assert tr.chosen_blocks.dtype == np.int64 and tr.chosen_blocks[0] == -1
    assert tr.gammas.shape == (8,)
    tr.F[0] = 0.0  # the columns are writable arrays


@pytest.mark.parametrize("entries", [2, 255, 256, 257, 513])
def test_packing_boundaries_keep_every_entry(entries):
    # a run ending just before, at or after a block boundary records the
    # same entries as the head of a longer run; at n = 12 a block is 256 rows
    from iprox.solvers import _BLOCK_VALUES
    p, x0 = lasso_problem(m=3)
    assert min(256, _BLOCK_VALUES // p.dim) == 256
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant="cyclic")
    long = run_cyclic(p, sched, x0, RunConfig(max_iters=2 * 256 + 9))
    short = run_cyclic(p, sched, x0, RunConfig(max_iters=entries - 1))
    for name in ("ks", "F", "gammas", "block_step_sq", "descent_slack"):
        assert np.array_equal(getattr(short, name), getattr(long, name)[:entries]), name


RUNNERS = {"full": run_inertial, "cyclic": run_cyclic, "stochastic": run_stochastic}


def row_dist_sq(solutions, x):
    # dist(x, argmin F)^2 from the set's data, one row at a time: x minus
    # its projection x - N(N'(x - point)), or minus the point itself
    N = solutions.normal
    d = x - (solutions.point if N is None else x - N @ (N.T @ (x - solutions.point)))
    return float(d.dot(d))


def per_entry_run(p, sched, x0, cfg, variant):
    """The run loop with each entry computed when it is recorded, from
    reference_step over one oracle state refreshed at the loop's cadence: the reference that block recording must equal bit for bit.
    Returns {Trace field: column}."""
    m, L, c = p.n_blocks, p.lipschitz_L, sched.c
    L_blocks = np.asarray(p.block_lipschitz, dtype=float)
    f_star = p.f_star if p.f_star is not None else 0.0
    r = math.sqrt(m) if variant == "stochastic" else 1.0
    epoch = m if variant == "stochastic" else 1
    oracle, rng, g = ImageOracle(p), SplitMix64(cfg.seed), 1.0 / L
    x_prev, x = x0.copy(), x0.copy()
    s = np.zeros(m) if variant == "cyclic" else 0.0
    prev, chosen, run_min, F0 = None, -1, math.inf, None
    rows, k = [], 0
    while True:
        beta = beta_at(sched, k)
        if variant == "full":
            gamma = gamma_full(beta, c, L)
        elif variant == "cyclic":
            gamma = 2.0 * (1.0 - beta) * c / L_blocks
        else:
            gamma = gamma_stochastic(beta, c, L, m)
        want = k % cfg.record_every == 0 or k == cfg.max_iters
        if want or cfg.stop_tol > 0 or k % epoch == 0:
            oracle.refresh(x)
        F = oracle.value(x) + iprox.problems._g_value(p, x)
        if F0 is None:
            F0, cap = F, 1e10 * max(1.0, abs(F))
        if not math.isfinite(F) or F > cap:
            raise DivergenceError(
                f"objective blew up at iteration {k}: F={F!r} from F0={F0!r}", k=k, value=F)
        rsq = None
        if want or cfg.stop_tol > 0:
            v = x - prox_full(p, x - g * oracle.read(x)[1], g)
            rsq = float(v.dot(v))
        stop = cfg.stop_tol > 0 and rsq <= cfg.stop_tol ** 2
        if want or stop:
            row = {"ks": k, "F": F, "residual_sq": rsq, "betas": beta, "gammas": gamma}
            if variant == "cyclic":
                deltas = 0.5 * (1.0 / gamma - L_blocks / 2.0)
                total = float(s.sum())
                row.update(lyapunov=F + float((deltas * s).sum()) - f_star, step_sq=total,
                           block_step_sq=s, descent_slack=0.0)
                if prev is not None:
                    Fp, sp, bp, gp = prev
                    row["descent_slack"] = (
                        (Fp + float((bp / (2.0 * gp) * sp).sum()))
                        - (F + float((beta / (2.0 * gamma) * s).sum()))
                        - (1.0 - c) * float(L_blocks.min()) / (2.0 * c) * total)
            else:
                row.update(lyapunov=F + delta_coeff(gamma, L) * s - f_star, step_sq=s,
                           descent_slack=0.0)
                if prev is not None:
                    Fp, sp, bp, gp = prev
                    row["descent_slack"] = ((Fp + bp / (2.0 * r * gp) * sp)
                                            - (F + beta / (2.0 * r * gamma) * s)
                                            - ((1.0 - bp / r) / gp - L / 2.0) * s)
            if variant == "stochastic":
                row.update(chosen_blocks=chosen, step_sq_running_min=run_min)
            if p.solution_set is not None:
                row["dist_sq"] = row_dist_sq(p.solution_set, x)
            rows.append(row)
        if stop or k == cfg.max_iters:
            break
        prev = (F, s, beta, gamma)
        if variant == "stochastic":
            chosen = rng.randint_below(m)
        x_next = reference_step(p, variant, x, x_prev, beta, gamma, oracle, chosen)
        d = x_next - x
        if variant == "cyclic":
            s = np.array([float(d[sel].dot(d[sel])) for sel in p.block_selectors])
        else:
            s = float(d.dot(d))
            run_min = min(run_min, s)
        x_prev, x, k = x, x_next, k + 1
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def trace_arrays(tr):
    # every array field of a Trace, with the ones a run leaves as None
    return {f.name: getattr(tr, f.name) for f in dataclasses.fields(Trace)
            if f.name not in ("final_state", "meta", "iterates")}


def run_in_blocks(monkeypatch, rows, p, sched, x0, cfg, variant):
    # rows entries per block, or the default budget when rows is None
    with monkeypatch.context() as mp:
        if rows is not None:
            mp.setattr(solvers, "_BLOCK_VALUES", rows * p.dim)
        return RUNNERS[variant](p, sched, x0, cfg)


def block_problem(name):
    # the l1 lasso (a separable kind, applied to a whole block of rows), the
    # group-l2 lasso (applied row by row), and the quadratic and noncoercive
    # kinds, whose solution sets, a point and a subspace, give dist^2
    if name in ("quadratic", "noncoercive_quadratic"):
        spec = iprox.InstanceSpec(kind=name, n=12, conditioning=8.0, m=3, seed=4,
                                  rows=5 if name == "noncoercive_quadratic" else 0)
        return library.make_instance(spec), library.start_point(spec, "gaussian", 1.0)
    p, x0 = lasso_problem(n=12, m=3)
    if name == "group_l2":
        p = dataclasses.replace(p, prox=iprox.ProxKind.group_l2(0.2))
    return p, x0


@pytest.mark.parametrize("problem, rule", [("lasso", "constant"), ("group_l2", "diminishing"),
                                           ("quadratic", "constant"),
                                           ("noncoercive_quadratic", "diminishing")])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
def test_block_recording_equals_per_entry_recording(monkeypatch, variant, record_every,
                                                    problem, rule):
    # 40 iterations fill blocks of 1, 2 and 7 rows many times and end one in
    # mid-block; the default block (256 rows at n = 12) holds the whole run
    p, x0 = block_problem(problem)
    sched = iprox.ParamSchedule(beta_rule=FOLD_RULES[rule], c=0.85, variant=variant,
                                m=p.n_blocks if variant == "stochastic" else 1)
    cfg = RunConfig(max_iters=40, record_every=record_every, seed=3)
    want = per_entry_run(p, sched, x0, cfg, variant)
    default = trace_arrays(run_in_blocks(monkeypatch, None, p, sched, x0, cfg, variant))
    assert {name for name, col in default.items() if col is not None} == set(want)
    for rows in (1, 2, 7):
        got = trace_arrays(run_in_blocks(monkeypatch, rows, p, sched, x0, cfg, variant))
        for name, col in default.items():
            assert (col is None and got[name] is None) or (
                col.dtype == got[name].dtype and np.array_equal(col, got[name])), (rows, name)
    for name, col in want.items():
        assert col.shape == default[name].shape and np.array_equal(col, default[name]), name


def understated_quadratic():
    # L understated 1.25-fold: each step scales x by -1.25, and F passes the
    # divergence cap after some fifty iterations
    model = iprox.SmoothModel("quadratic", np.eye(2))
    return CompositeProblem(
        blocks=((0, 1),), smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=0.8, block_lipschitz=(0.8,),
        prox=iprox.ProxKind.zero(),
    )


@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
def test_divergence_inside_a_block_raises_as_per_entry(monkeypatch, variant):
    p = understated_quadratic()
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.0), c=0.9, variant=variant)
    x0, cfg = np.array([1.0, 1.0]), RunConfig(max_iters=500)
    with pytest.raises(DivergenceError) as ref:
        per_entry_run(p, sched, x0, cfg, variant)
    assert 7 < ref.value.k < 256 and ref.value.k % 7 != 0
    for rows in (None, 7):
        with pytest.raises(DivergenceError) as exc:
            run_in_blocks(monkeypatch, rows, p, sched, x0, cfg, variant)
        assert exc.value.k == ref.value.k and str(exc.value) == str(ref.value)


@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
def test_stop_tol_in_mid_block_ends_the_trace_at_the_same_k(monkeypatch, variant):
    p, x0 = lasso_problem(n=12, m=3)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant=variant,
                                m=3 if variant == "stochastic" else 1)
    cfg = RunConfig(max_iters=10_000, record_every=3, stop_tol=1e-6, seed=1)
    want = per_entry_run(p, sched, x0, cfg, variant)
    assert want["ks"][-1] % 3 != 0 and len(want["ks"]) % 7 != 0
    for rows in (None, 7):
        tr = run_in_blocks(monkeypatch, rows, p, sched, x0, cfg, variant)
        assert tr.ks[-1] == want["ks"][-1]
        for name, col in want.items():
            assert np.array_equal(getattr(tr, name), col), name


@pytest.mark.parametrize("problem", ["lasso", "group_l2", "noncoercive_quadratic"])
@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
def test_every_stop_tol_entry_records_the_residual_of_its_iterate(variant, problem):
    # under stop_tol the residual is computed from the recorded gradient as
    # on any run, and the loop stops on that same value
    p, x0 = block_problem(problem)
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.5), c=0.9, variant=variant,
                                m=3 if variant == "stochastic" else 1)
    stop_tol = 1e-6
    tr = RUNNERS[variant](p, sched, x0, RunConfig(max_iters=10_000, record_every=3,
                                                  stop_tol=stop_tol, seed=1,
                                                  keep_iterates=True))
    assert tr.ks[-1] < 10_000
    g = 1.0 / p.lipschitz_L
    want = []
    for x in tr.iterates:
        r = x - prox_full(p, x - g * grad_f(p, x), g)
        want.append(float(r.dot(r)))
    assert np.array_equal(tr.residual_sq, want)
    assert want[-1] <= stop_tol ** 2 < min(want[:-1])
