"""Oracle states: the image kept by block moves against exact gradients.

The exact-gradient reference is a run with the FreshOracle of conftest.py
patched into the solvers (the ``fresh_reads`` fixture): every value and
gradient computed from x, as closures of x compute them.
"""

import dataclasses
import functools

import numpy as np
import pytest

import iprox
from iprox.errors import ContractViolation
from iprox.library import InstanceSpec, make_instance, start_point
from iprox.problems import CompositeProblem, ImageOracle, SmoothModel, objective
from iprox.reference import solve_reference
from iprox.solvers import RunConfig, run_cyclic, run_inertial, run_stochastic

KIND_SPECS = {
    "quadratic": dict(kind="quadratic", n=12, conditioning=20.0),
    "quadratic_l1": dict(kind="quadratic_l1", n=12, conditioning=20.0, reg_lambda=0.1),
    "noncoercive_quadratic": dict(kind="noncoercive_quadratic", n=12, rows=7,
                                  conditioning=20.0),
    "lasso": dict(kind="lasso", n=12, rows=30, reg_lambda=0.1),
    "logistic_l1": dict(kind="logistic_l1", n=12, rows=30, reg_lambda=0.05),
}
RUNNERS = {"full": run_inertial, "cyclic": run_cyclic, "stochastic": run_stochastic}
COLUMNS = ("F", "lyapunov", "step_sq", "residual_sq", "descent_slack")


def instance(kind, m, seed=3):
    spec = InstanceSpec(m=m, seed=seed, **KIND_SPECS[kind])
    return make_instance(spec), start_point(spec, "gaussian", 1.0)


def run(problem, x0, variant, iters, record_every=1, seed=2):
    m = problem.n_blocks if variant == "stochastic" else 1
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                variant=variant, m=m)
    cfg = RunConfig(max_iters=iters, record_every=record_every, seed=seed)
    return RUNNERS[variant](problem, sched, x0, cfg)


def test_library_problems_carry_a_model():
    for kind in KIND_SPECS:
        p, _ = instance(kind, 3)
        assert isinstance(p.smooth_model, SmoothModel)
        assert p.smooth_value == p.smooth_model.value
        assert p.dim == p.smooth_model.dim == 12


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_full_run_is_bit_identical_to_closures(kind, fresh_reads):
    # every full step refreshes the image from x, so nothing drifts
    p, x0 = instance(kind, 1)
    a = run(p, x0, "full", 60)
    fresh_reads()
    b = run(p, x0, "full", 60)
    for col in COLUMNS:
        assert np.array_equal(getattr(a, col), getattr(b, col)), col
    assert np.array_equal(a.final_state.x_curr, b.final_state.x_curr)


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
@pytest.mark.parametrize("variant", ["cyclic", "stochastic"])
@pytest.mark.parametrize("record_every", [1, 7])
def test_block_runs_agree_with_closures(kind, variant, record_every, fresh_reads):
    p, x0 = instance(kind, 4)
    a = run(p, x0, variant, 120, record_every)
    fresh_reads()
    b = run(p, x0, variant, 120, record_every)
    assert np.array_equal(a.ks, b.ks)
    scale = max(1.0, float(np.max(np.abs(b.F))))
    for col in COLUMNS:
        assert np.max(np.abs(getattr(a, col) - getattr(b, col))) <= 1e-12 * scale, col
    x_scale = max(1.0, float(np.max(np.abs(b.final_state.x_curr))))
    assert np.max(np.abs(a.final_state.x_curr - b.final_state.x_curr)) <= 1e-12 * x_scale


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_single_block_runs_match_full_on_every_kind(kind):
    # m = 1 refreshes the image before every step, whatever the record rate
    p, x0 = instance(kind, 1)
    for record_every in (1, 4):
        full = run(p, x0, "full", 40, record_every)
        for variant in ("cyclic", "stochastic"):
            other = run(p, x0, variant, 40, record_every)
            assert np.array_equal(full.F, other.F)
            assert np.array_equal(full.final_state.x_curr, other.final_state.x_curr)


def columns_touched(variant, n, m, iters, record_every, grad_is_image):
    """Exact matvec-equivalent count of a structured run, in columns of A.

    A refresh or a full gradient reads all n columns, a block gradient or a
    move |block| = n/m of them; a full gradient at the current image serves
    the next block gradient, a move followed by a refresh is dropped, and
    the quadratic loss reads gradients off the image for free.
    """
    blk = n // m
    grad, bgrad = (0, 0) if grad_is_image else (n, blk)
    entries = [k for k in range(iters + 1) if k % record_every == 0 or k == iters]
    entry = n + grad  # refresh, value and full gradient
    if variant == "full":
        return (iters + 1) * entry
    stepped = [k for k in entries if k < iters]
    if variant == "cyclic":
        # every epoch and the final entry refresh; an epoch takes m block
        # gradients (the first free after an entry) and m - 1 moves (the
        # last is dropped by the next refresh)
        epochs = iters * (m * bgrad + (m - 1) * blk)
        return (iters + 1) * n + epochs + len(entries) * grad - len(stepped) * bgrad
    refreshes = {k for k in range(iters + 1) if k in entries or k % m == 0}
    moves = sum(1 for k in range(iters) if k + 1 not in refreshes)
    return (len(refreshes) * n + len(entries) * grad
            + (iters - len(stepped)) * bgrad + moves * blk)


@pytest.mark.parametrize("kind", ["lasso", "quadratic"])
@pytest.mark.parametrize("variant", ["full", "cyclic", "stochastic"])
@pytest.mark.parametrize("m,record_every", [(1, 1), (4, 1), (4, 3), (6, 4)])
def test_matvec_equiv_matches_its_formula(kind, variant, m, record_every):
    p, x0 = instance(kind, m)
    iters = 25
    tr = run(p, x0, variant, iters, record_every)
    want = columns_touched(variant, p.dim, m, iters, record_every,
                           grad_is_image=kind == "quadratic")
    assert tr.meta["matvec_equiv"] == want / p.dim


def test_full_run_costs_two_matvecs_per_iteration():
    p, x0 = instance("lasso", 1)
    assert run(p, x0, "full", 30).meta["matvec_equiv"] == 2 * 31


def test_large_variants_block_costs():
    # the benchmark's n=1000, 2000-row, m=50 lasso shape; counts depend on
    # the shape and the schedule of refreshes, not on the data
    n, rows, m = 1000, 2000, 50
    rng = np.random.default_rng(0)
    A = rng.standard_normal((rows, n))
    b = rng.standard_normal(rows)
    model = SmoothModel("squares", A, offset=b)
    L = float(np.sum(A * A))  # Frobenius bound: >= sigma_max^2
    p = CompositeProblem(
        blocks=tuple(tuple(range(i * 20, (i + 1) * 20)) for i in range(m)),
        smooth_value=model.value, smooth_grad=model.grad, lipschitz_L=L,
        block_lipschitz=(L,) * m, prox=iprox.ProxKind.zero())
    assert p.smooth_model is model
    x0 = np.zeros(n)
    assert run(p, x0, "cyclic", 8).meta["matvec_equiv"] / 8 <= 4.25
    sto = run(p, x0, "stochastic", 150, record_every=m)
    assert sto.meta["matvec_equiv"] / 150 <= 0.1


def test_non_contiguous_blocks_use_index_columns(fresh_reads):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((9, 6))
    b = rng.standard_normal(9)
    model = SmoothModel("squares", A, offset=b)
    L = float(np.linalg.norm(A, 2) ** 2) * (1 + 1e-9)
    p = CompositeProblem(
        blocks=((0, 2, 4), (5, 1, 3)), smooth_value=model.value,
        smooth_grad=model.grad, lipschitz_L=L, block_lipschitz=(L, L),
        prox=iprox.ProxKind.zero())
    assert p.smooth_model is model
    oracle = ImageOracle(p)
    x = rng.standard_normal(6)
    oracle.refresh(x)
    ix = p.block_selectors[1]
    assert np.allclose(oracle.grad(x, 1), model.grad(x)[ix], rtol=1e-13)
    d = rng.standard_normal(3)
    oracle.move(1, d)
    x[ix] += d
    assert oracle.value(x) == pytest.approx(model.value(x), rel=1e-13)
    assert np.allclose(oracle.grad(x, 0), model.grad(x)[p.block_selectors[0]],
                       rtol=1e-12)
    x0 = rng.standard_normal(6)
    a = run(p, x0, "cyclic", 30)
    fresh_reads()
    c = run(p, x0, "cyclic", 30)
    assert np.allclose(a.F, c.F, rtol=1e-12)


def test_model_validation():
    A = np.ones((3, 2))
    with pytest.raises(ContractViolation):
        SmoothModel("hinge", A)
    with pytest.raises(ContractViolation):
        SmoothModel("quadratic", A)
    with pytest.raises(ContractViolation):
        SmoothModel("logistic", A)
    with pytest.raises(ContractViolation):
        SmoothModel("squares", A, labels=np.ones(3))
    with pytest.raises(ContractViolation, match="A must be a matrix"):
        SmoothModel("squares", np.ones(3))
    with pytest.raises(ContractViolation, match="offset belongs to the squares loss"):
        SmoothModel("quadratic", np.eye(2), offset=np.zeros(2))
    with pytest.raises(ContractViolation, match="center belongs to the quadratic loss"):
        SmoothModel("squares", np.eye(2), center=np.zeros(2))
    p, _ = instance("lasso", 1)
    other = SmoothModel("squares", A)
    # another model's f acts on its own 2 coordinates, which the lasso's
    # blocks over 12 coordinates do not partition
    with pytest.raises(ContractViolation, match="partition"):
        dataclasses.replace(p, smooth_value=other.value, smooth_grad=other.grad)
    with pytest.raises(ContractViolation):
        solve_reference(p, x0=np.zeros(5))


def test_a_model_checks_the_shapes_of_its_data():
    # one offset or label per row of A, one center entry per column, and a
    # quadratic A equal to its transpose; each of these was once accepted
    A = np.arange(15.0).reshape(5, 3)
    for bad in (dict(loss="squares", offset=[1.0]),
                dict(loss="squares", offset=np.ones((5, 1))),
                dict(loss="logistic", labels=np.ones(1))):
        with pytest.raises(ContractViolation, match=r"must have shape \(5,\)"):
            SmoothModel(A=A, **bad)
    Q = np.array([[2.0, 1.0], [0.0, 3.0]])
    with pytest.raises(ContractViolation, match="symmetric"):
        SmoothModel("quadratic", Q)
    S = 0.5 * (Q + Q.T)
    with pytest.raises(ContractViolation, match=r"center must have shape \(2,\)"):
        SmoothModel("quadratic", S, center=np.ones(1))
    SmoothModel("squares", A, offset=np.ones(5))
    SmoothModel("logistic", A, labels=np.ones(5))
    SmoothModel("quadratic", S, center=np.ones(2))


def test_a_closure_f_is_rejected_and_another_models_f_is_read():
    p, x0 = instance("lasso", 3)
    model = p.smooth_model
    for value, grad in ((lambda x: 0.5 * model.value(x), lambda x: 0.5 * model.grad(x)),
                        (model.value, lambda x: model.grad(x)),
                        (model.value, model.value),
                        (model.value, SmoothModel("squares", model.A).grad)):
        with pytest.raises(ContractViolation, match="f must be a SmoothModel's value and grad"):
            dataclasses.replace(p, smooth_value=value, smooth_grad=grad)
    # f/2 keeps L an upper bound; the runs and the reference must read the
    # f the problem reports, not the library model it was built from
    half = SmoothModel("squares", model.A / np.sqrt(2.0), offset=model.offset / np.sqrt(2.0))
    q = dataclasses.replace(p, smooth_value=half.value, smooth_grad=half.grad)
    assert q.smooth_model is half and q.dim == half.dim
    for variant in RUNNERS:
        assert run(q, x0, variant, 5).F[0] == objective(q, x0)
    assert objective(q, x0) != objective(p, x0)
    ref = solve_reference(q, tol=1e-10)
    assert ref.converged
    assert ref.f_star == objective(q, ref.x_star)
    # the model's own oracles, or wrappers naming them, keep it
    wrapped = dataclasses.replace(
        p, smooth_value=functools.wraps(model.value)(lambda x: model.value(x)),
        smooth_grad=functools.wraps(model.grad)(lambda x: model.grad(x)))
    assert wrapped.smooth_model is model


@pytest.mark.parametrize("kind", sorted(KIND_SPECS) + ["quadratic-without-center"])
def test_each_primitive_reads_the_model_at_its_own_cost(kind):
    # refresh(x) costs n columns, value(x) none, grad(x, i) n or block i's
    # (none for the quadratic loss, whose image is the gradient), and
    # move(i, d) block i's, paid at the next read and dropped by a refresh
    if kind == "quadratic-without-center":
        q, _ = instance("quadratic", 3)
        model = SmoothModel("quadratic", q.smooth_model.A)
        p = dataclasses.replace(q, smooth_value=model.value, smooth_grad=model.grad)
        assert p.smooth_model.center is None
    else:
        p, _ = instance(kind, 3)
    model, n, sels = p.smooth_model, p.dim, p.block_selectors
    per_grad = 0 if model.loss == "quadratic" else 1  # columns per gradient entry
    rng = np.random.default_rng(4)
    x = rng.standard_normal(n)
    state = ImageOracle(p)

    def cost(call, *args):
        before = state.columns
        out = call(*args)
        return out, state.columns - before

    state.refresh(np.zeros(n))
    state.move(0, rng.standard_normal(len(p.blocks[0])))
    assert cost(state.refresh, x)[1] == n  # the pending move is dropped unpaid
    assert np.array_equal(state.u, model.image(x))
    assert cost(state.value, x) == (model.value(x), 0)
    grad, paid = cost(state.grad, x)
    assert np.array_equal(grad, model.grad(x)) and paid == per_grad * n
    assert not np.shares_memory(grad, state.u)
    for i, sel in enumerate(sels):
        grad_i, paid = cost(state.grad, x, i)
        assert np.allclose(grad_i, grad[sel], rtol=1e-13, atol=1e-13)
        assert paid == per_grad * len(p.blocks[i])
    d = np.full(len(p.blocks[1]), 0.25)
    assert cost(state.move, 1, d)[1] == 0
    x[sels[1]] += d
    value, paid = cost(state.value, x)
    assert value == pytest.approx(model.value(x), rel=1e-12) and paid == len(d)
    assert cost(state.value, x)[1] == 0  # a move is paid once
    assert np.allclose(cost(state.grad, x)[0], model.grad(x), rtol=1e-12, atol=1e-13)
    assert state.matvec_equiv == state.columns / n
    # the state keeps the image and no gradient
    assert [name for name, val in vars(state).items() if isinstance(val, np.ndarray)] == ["u"]
