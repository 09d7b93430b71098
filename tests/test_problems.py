import dataclasses
import functools
import math

import numpy as np
import pytest

import iprox
from iprox import problems, solvers
from iprox.errors import ContractViolation
from iprox.library import InstanceSpec, make_instance
from iprox.problems import (
    CompositeProblem,
    ImageOracle,
    SmoothModel,
    SolutionSet,
    check_gradient_fd,
    grad_f,
    objective,
    prox_full,
)
from iprox.prox import ProxKind, prox_apply


def model_problem(model, blocks, prox):
    # f from the model, with L = 1 and every L_i = 1
    return CompositeProblem(
        blocks=blocks, smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=1.0, block_lipschitz=(1.0,) * len(blocks), prox=prox)


def half_norm_sq(dim):
    # f = ||x||^2 / 2, its gradient x
    return SmoothModel("quadratic", np.eye(dim))


def l1_quadratic():
    # f = ||x - b||^2 / 2 with b = 0, g = ||x||_1, in two dimensions
    return model_problem(half_norm_sq(2), ((0, 1),), ProxKind.l1(1.0))


def hand_lasso():
    # explicit 5x3 data so every value can be recomputed by straight-line
    # arithmetic in the tests
    A = np.array([[1.0, 2.0, 0.0],
                  [0.0, 1.0, -1.0],
                  [3.0, 0.0, 1.0],
                  [1.0, 1.0, 1.0],
                  [-2.0, 0.0, 2.0]])
    b = np.array([1.0, -1.0, 2.0, 0.0, 1.0])
    lam = 0.3
    model = SmoothModel("squares", A, offset=b)
    prob = CompositeProblem(
        blocks=((0, 1, 2),), smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=float(np.linalg.norm(A, 2) ** 2),
        block_lipschitz=(float(np.linalg.norm(A, 2) ** 2),),
        prox=ProxKind.l1(lam),
    )
    return prob, A, b, lam


def test_objective_hand_value():
    p = l1_quadratic()
    assert objective(p, np.array([1.0, -2.0])) == pytest.approx(5.5)
    assert objective(p, np.zeros(2)) == 0.0


def test_objective_straight_line_reevaluation():
    prob, A, b, lam = hand_lasso()
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        x = rng.standard_normal(3)
        acc = 0.0
        for i in range(5):
            r = -b[i]
            for j in range(3):
                r += A[i, j] * x[j]
            acc += 0.5 * r * r
        for j in range(3):
            acc += lam * abs(x[j])
        assert objective(prob, x) == pytest.approx(acc, rel=1e-12)


def test_grad_identity_hessian():
    p = l1_quadratic()
    assert np.array_equal(grad_f(p, np.array([3.0, -1.0])), np.array([3.0, -1.0]))


def test_grad_matches_dense_products():
    prob, A, b, _ = hand_lasso()
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.standard_normal(3)
    want = A.T @ (A @ x) - A.T @ b
    assert np.allclose(grad_f(prob, x), want, rtol=1e-12)


def test_logistic_grad_matches_fd_at_zero():
    p = make_instance(InstanceSpec(kind="logistic_l1", n=8, rows=40,
                                   reg_lambda=0.05, seed=3))
    assert check_gradient_fd(p, np.zeros(8), 1e-5) < 1e-6


def test_block_grad_is_slice_of_full():
    p = make_instance(InstanceSpec(kind="quadratic", n=12, conditioning=10.0,
                                   seed=2, m=3))
    rng = np.random.Generator(np.random.PCG64(7))
    x = rng.standard_normal(12)
    full = grad_f(p, x)
    state = ImageOracle(p)
    state.refresh(x)
    for i, ix in enumerate(p.block_selectors):
        assert np.array_equal(state.grad(x, i), full[ix])


def test_block_grad_m1_degeneracy():
    p = l1_quadratic()
    x = np.array([0.5, -0.25])
    state = ImageOracle(p)
    state.refresh(x)
    assert np.array_equal(state.grad(x, 0), grad_f(p, x))


def test_prox_full_zero_identity():
    p = make_instance(InstanceSpec(kind="quadratic", n=6, conditioning=4.0, seed=0, m=2))
    v = np.array([1.0, -2.0, 0.5, 3.0, 0.0, -0.25])
    assert np.array_equal(prox_full(p, v, 0.7), v)


def test_prox_full_soft_threshold_case():
    p = l1_quadratic()
    # gamma*lambda = 1 -> prox(3) = 2
    out = prox_full(p, np.array([3.0, 0.0]), 1.0)
    assert np.array_equal(out, np.array([2.0, 0.0]))


def test_prox_full_grid_oracle():
    prob, _, _, lam = hand_lasso()
    v = np.array([0.9, -1.7, 0.2])
    gamma = 0.6
    got = prox_full(prob, v, gamma)
    z = np.linspace(-4, 4, 800_001)
    for j in range(3):
        best = z[np.argmin((z - v[j]) ** 2 / (2 * gamma) + lam * np.abs(z))]
        assert abs(got[j] - best) < 1e-4


def test_prox_full_blockwise():
    p = make_instance(InstanceSpec(kind="lasso", n=8, rows=20, reg_lambda=0.4,
                                   seed=1, m=4))
    v = np.linspace(-2, 2, 8)
    full = prox_full(p, v, 0.5)
    stitched = np.empty(8)
    for i, ix in enumerate(p.block_selectors):
        stitched[ix] = prox_apply(p.prox_kind, v[ix], 0.5)
    assert np.array_equal(full, stitched)


PROX_KIND_SPECS = {
    "quadratic": dict(kind="quadratic", n=24, conditioning=20.0),
    "quadratic_l1": dict(kind="quadratic_l1", n=24, conditioning=20.0, reg_lambda=0.3),
    "noncoercive_quadratic": dict(kind="noncoercive_quadratic", n=24, rows=10,
                                  conditioning=20.0),
    "lasso": dict(kind="lasso", n=24, rows=40, reg_lambda=0.3),
    "logistic_l1": dict(kind="logistic_l1", n=24, rows=40, reg_lambda=0.3),
}


@pytest.mark.parametrize("kind", sorted(PROX_KIND_SPECS))
@pytest.mark.parametrize("m", [1, 3, 8])
def test_whole_vector_prox_full_equals_the_block_loop(kind, m):
    p = make_instance(InstanceSpec(m=m, seed=2, **PROX_KIND_SPECS[kind]))
    kind = p.prox_kind
    assert kind.separable
    gamma = 0.5
    rng = np.random.Generator(np.random.PCG64(m))
    v = rng.standard_normal(24) * 2.0
    # coordinates at the threshold, at zero and at minus zero
    v[:4] = [gamma * 0.3, -gamma * 0.3, 0.0, -0.0]
    want = np.empty(24)
    for i, ix in enumerate(p.block_selectors):
        want[ix] = prox_apply(kind, v[ix], gamma)
    assert prox_full(p, v, gamma).tobytes() == want.tobytes()
    assert prox_full(p, v, gamma) is not v


def test_group_l2_prox_full_shrinks_each_block_by_its_own_norm():
    kind = ProxKind.group_l2(1.0)
    p = model_problem(half_norm_sq(4), ((0, 1), (2, 3)), kind)
    assert p.prox_kind is kind
    out = prox_full(p, np.array([3.0, 4.0, 0.6, 0.8]), 2.0)
    # block norms 5 and 1: the first keeps 1 - 2/5 of itself, the second is 0
    assert np.allclose(out, [1.8, 2.4, 0.0, 0.0], rtol=0, atol=1e-15)


RESIDUAL_KINDS = {
    "zero": ProxKind.zero(), "l1": ProxKind.l1(0.3), "box": ProxKind.box(-0.4, 0.5),
    "box-block-bounds": ProxKind.box(-np.linspace(0.1, 0.6, 4), np.linspace(0.2, 0.9, 4)),
    "group_l2": ProxKind.group_l2(0.3), "group_l2-weight0": ProxKind.group_l2(0.0)}


def group_shrink_of_one_block(v, tau):
    # the group-l2 prox of one block, coded apart: v*max(1 - tau/||v||, 0), 0 at v = 0
    nrm = float(np.linalg.norm(v))
    return np.zeros_like(v) if nrm == 0.0 else v * max(1.0 - tau / nrm, 0.0)


@pytest.mark.parametrize("blocks", ["contiguous", "scattered"])
@pytest.mark.parametrize("name", sorted(RESIDUAL_KINDS))
def test_the_residual_of_a_stack_is_each_rows_residual(name, blocks):
    # one prox call on a (rows, n) stack gives each row's prox and residual
    # bit for bit; for group l2, a block that is +0.0 or -0.0 maps to +0.0
    spec = InstanceSpec(kind="lasso", n=12, rows=30, reg_lambda=0.3, m=3, seed=5)
    p = dataclasses.replace(make_instance(spec), prox=RESIDUAL_KINDS[name])
    if blocks == "scattered":
        p = dataclasses.replace(p, blocks=((4, 0, 2, 11), (1, 5, 3, 10), (6, 9, 7, 8)))
    rng = np.random.Generator(np.random.PCG64(7))
    X, G = rng.standard_normal((6, 12)), rng.standard_normal((6, 12))
    X[1], G[1] = 0.0, 0.0
    X[2], G[2] = -0.0, 0.0
    X[3][p.block_selectors[1]] = G[3][p.block_selectors[1]] = 0.0
    g = 1.0 / p.lipschitz_L
    V = X - g * G
    P, got = problems._prox_full(p, V, g), problems._residual_sq(p, X, G)
    kind = p.prox_kind
    for j in range(len(X)):
        want = prox_full(p, V[j], g)
        assert P[j].tobytes() == want.tobytes()
        s = X[j] - want
        assert got[j] == float(s.dot(s)) == problems._residual_sq(p, X[j], G[j])
        if kind.tag == "group_l2":
            for sel in p.block_selectors:
                assert want[sel].tobytes() == group_shrink_of_one_block(
                    V[j][sel], g * kind.lam).tobytes()
    if kind.tag == "group_l2":
        assert not np.signbit(P[1:3]).any() and not np.signbit(P[3][p.block_selectors[1]]).any()


def test_prox_kind_is_dropped_with_the_oracles_built_from_it():
    p = make_instance(InstanceSpec(kind="lasso", n=6, rows=10, reg_lambda=1.0,
                                   m=3, seed=1))
    assert p.prox_kind.tag == "l1" and p.prox is p.prox_kind
    assert dataclasses.replace(p, f_star=0.0).prox_kind is p.prox_kind
    assert dataclasses.replace(p, prox=ProxKind.zero()).prox_kind.tag == "zero"
    # a wrapper that names its kind, as a tracer's does, keeps the kind
    q = dataclasses.replace(p, prox=functools.wraps(p.prox)(lambda *a: None))
    assert q.prox_kind is p.prox_kind


def test_prox_must_be_a_prox_kind():
    p = l1_quadratic()
    kind = ProxKind.l1(1.0)
    for prox in ("l1", lambda i, v, gamma: prox_apply(kind, v, gamma)):
        with pytest.raises(ContractViolation, match="prox must be a ProxKind"):
            dataclasses.replace(p, prox=prox)


def test_objective_adds_the_kinds_value():
    p = l1_quadratic()
    assert p.prox_kind is p.prox
    x = np.array([1.0, -2.0])
    # f = ||x||^2 / 2 = 2.5, g = ||x||_1 = 3
    assert objective(p, x) == 5.5


def kind_problem(kind, blocks=((0, 1), (2, 3))):
    # f = 0: a squares model of one zero row
    return model_problem(SmoothModel("squares", np.zeros((1, 4))), blocks, kind)


def test_a_kind_is_summed_over_the_blocks():
    # every g_i is the kind, so g(x) = sum_i kind(x_i), not kind(x)
    x = np.array([3.0, 4.0, 0.0, 5.0])
    assert objective(kind_problem(ProxKind.group_l2(1.0)), x) == 10.0
    assert objective(kind_problem(ProxKind.group_l2(1.0), blocks=((0, 1, 2, 3),)), x) \
        == math.sqrt(50.0)
    # box bounds of a block's shape hold on every block
    box = kind_problem(ProxKind.box([-1.0, 0.0], [1.0, 2.0]))
    assert objective(box, np.array([0.5, 1.0, -1.0, 2.0])) == 0.0
    assert objective(box, np.array([0.5, 1.0, -1.0, 2.5])) == math.inf
    assert objective(box, np.array([0.5, -0.1, 0.0, 0.0])) == math.inf
    assert np.array_equal(prox_full(box, np.array([2.0, -1.0, -3.0, 3.0]), 1.0),
                          [1.0, 0.0, -1.0, 2.0])
    # a separable kind gives the same value on the whole vector
    assert objective(kind_problem(ProxKind.l1(0.5)), x) == 6.0


def test_a_separable_kind_takes_one_g_call_per_iteration(monkeypatch):
    calls = []
    real = problems.prox_value

    def counted(kind, v):
        calls.append(len(v))
        return real(kind, v)

    monkeypatch.setattr(problems, "prox_value", counted)
    p = make_instance(InstanceSpec(kind="lasso", n=12, rows=30, reg_lambda=0.2, m=4, seed=1))
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                variant="stochastic", m=4)
    iprox.run_stochastic(p, sched, np.ones(12), iprox.RunConfig(max_iters=10, record_every=3))
    assert calls == [12] * 11


def test_the_zero_kind_takes_no_g_call(monkeypatch):
    # g = 0 adds 0.0 to F without a prox_value call, and F + 0.0 keeps F's
    # bits: the F column is the one a call per entry gives
    calls = []
    real = problems.prox_value

    def counted(kind, v):
        calls.append(len(v))
        return real(kind, v)

    monkeypatch.setattr(problems, "prox_value", counted)
    p = make_instance(InstanceSpec(kind="quadratic", n=12, conditioning=10.0, m=4, seed=1))
    assert p.prox_kind.tag == "zero"
    sched = iprox.ParamSchedule(beta_rule=iprox.ConstantBeta(0.4), c=0.8,
                                variant="stochastic", m=4)
    cfg = iprox.RunConfig(max_iters=10, record_every=3)
    trace = iprox.run_stochastic(p, sched, np.ones(12), cfg)
    assert calls == []
    monkeypatch.setattr(solvers, "_g_value",
                        lambda problem, x: problems.prox_value(problem.prox_kind, x))
    called = iprox.run_stochastic(p, sched, np.ones(12), cfg)
    assert calls == [12] * 11
    assert trace.F.tobytes() == called.F.tobytes()


def test_fd_check_quadratic_tight():
    p = make_instance(InstanceSpec(kind="quadratic", n=10, conditioning=6.0, seed=4))
    rng = np.random.Generator(np.random.PCG64(8))
    assert check_gradient_fd(p, rng.standard_normal(10), 1e-5) < 1e-8
    for h in (0.0, math.nan):  # a NaN step reported an error of 0.0
        with pytest.raises(ContractViolation, match="h must be > 0"):
            check_gradient_fd(p, np.zeros(10), h)


def test_fd_check_all_library_kinds():
    specs = [
        InstanceSpec(kind="quadratic", n=9, conditioning=5.0, seed=1, m=3),
        InstanceSpec(kind="quadratic_l1", n=9, reg_lambda=0.2, conditioning=5.0, seed=1, m=3),
        InstanceSpec(kind="noncoercive_quadratic", n=9, rows=6, conditioning=5.0, seed=1),
        InstanceSpec(kind="lasso", n=9, rows=30, reg_lambda=0.3, seed=1, m=3),
        InstanceSpec(kind="logistic_l1", n=9, rows=30, reg_lambda=0.1, seed=1),
    ]
    rng = np.random.Generator(np.random.PCG64(9))
    for spec in specs:
        p = make_instance(spec)
        x = rng.standard_normal(9)
        assert check_gradient_fd(p, x, 1e-5) < 1e-5, spec.kind


def test_descent_surrogate_invariant():
    # f(y) <= f(x) + <grad f(x), y-x> + (L/2)||y-x||^2 on random pairs
    rng = np.random.Generator(np.random.PCG64(10))
    for spec in [InstanceSpec(kind="lasso", n=7, rows=25, reg_lambda=0.2, seed=2),
                 InstanceSpec(kind="logistic_l1", n=7, rows=25, reg_lambda=0.1, seed=2),
                 InstanceSpec(kind="quadratic", n=7, conditioning=9.0, seed=2)]:
        p = make_instance(spec)
        for _ in range(50):
            x, y = rng.standard_normal(7), rng.standard_normal(7)
            lhs = p.smooth_value(y)
            rhs = (p.smooth_value(x) + float(grad_f(p, x) @ (y - x))
                   + 0.5 * p.lipschitz_L * float((y - x) @ (y - x)))
            assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs)), spec.kind


def test_gradient_lipschitz_sampling():
    rng = np.random.Generator(np.random.PCG64(11))
    for spec in [InstanceSpec(kind="lasso", n=7, rows=25, reg_lambda=0.2, seed=3),
                 InstanceSpec(kind="logistic_l1", n=7, rows=25, reg_lambda=0.1, seed=3)]:
        p = make_instance(spec)
        for _ in range(50):
            x, y = rng.standard_normal(7), rng.standard_normal(7)
            num = np.linalg.norm(grad_f(p, x) - grad_f(p, y))
            den = np.linalg.norm(x - y)
            assert num <= p.lipschitz_L * den * (1.0 + 1e-10), spec.kind


def test_prox_nonexpansive_on_library_blocks():
    p = make_instance(InstanceSpec(kind="lasso", n=8, rows=20, reg_lambda=0.5,
                                   seed=5, m=2))
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(50):
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        du = prox_apply(p.prox_kind, u, 0.8) - prox_apply(p.prox_kind, v, 0.8)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12


def test_dimension_mismatch_errors():
    p = l1_quadratic()
    with pytest.raises(ContractViolation):
        objective(p, np.zeros(3))
    with pytest.raises(ContractViolation):
        grad_f(p, np.zeros(1))


def test_box_bounds_of_another_length_than_a_block_are_rejected():
    # bounds must fit every block: bounds of the whole vector's length on
    # two blocks of 2 would make objective and prox_full fail to broadcast
    def problem(kind):
        return model_problem(half_norm_sq(4), ((0, 1), (2, 3)), kind)

    for lo, hi in ((-np.ones(4), np.ones(4)), (-np.ones(3), np.ones(3)),
                   (-np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ContractViolation, match="every block's length"):
            problem(ProxKind.box(lo, hi))
    with pytest.raises(ContractViolation, match="every block's length"):
        model_problem(half_norm_sq(5), ((0, 1), (2, 3, 4)),
                      ProxKind.box(-np.ones(2), np.ones(2)))
    v = np.array([2.0, -0.5, 0.3, -3.0])
    for lo, hi in ((-1.0, 1.0), (-np.ones(2), np.ones(2)), ([-1.0, 0.0], [1.0, 0.2])):
        p = problem(ProxKind.box(lo, hi))
        want = np.concatenate([np.clip(v[:2], lo, hi), np.clip(v[2:], lo, hi)])
        assert np.array_equal(prox_full(p, v, 1.0), want)
        assert objective(p, want) == 0.5 * float(want @ want)


def test_partition_validation():
    # the blocks partition the model's 3 coordinates, its dim
    for blocks in (((0, 1), (1, 2)), ((0,), (2,)), ((0, 1), (2, 3))):
        with pytest.raises(ContractViolation, match="partition"):
            model_problem(half_norm_sq(3), blocks, ProxKind.zero())
    assert model_problem(half_norm_sq(3), ((2,), (0, 1)), ProxKind.zero()).dim == 3
    for blocks in ((), ((0, 1, 2), ())):
        with pytest.raises(ContractViolation, match="every block nonempty"):
            model_problem(half_norm_sq(3), blocks, ProxKind.zero())
    with pytest.raises(ContractViolation, match="one block_lipschitz entry per block"):
        dataclasses.replace(model_problem(half_norm_sq(3), ((2,), (0, 1)), ProxKind.zero()),
                            block_lipschitz=(1.0,))


@pytest.mark.parametrize("field, value", [
    ("lipschitz_L", math.nan), ("lipschitz_L", math.inf), ("lipschitz_L", 0.0),
    ("block_lipschitz", (1.0, math.nan)), ("block_lipschitz", (math.inf, 1.0)),
    ("block_lipschitz", (1.0, -1.0)),
    ("nu", math.nan), ("nu", math.inf), ("nu", 0.0)])
def test_constants_must_be_finite_and_positive(field, value):
    # a NaN passed the old "<= 0" checks, and the run then failed naming
    # another cause: a blown-up objective, a non-finite gradient, or beta
    p = two_block_problem(ProxKind.zero())
    with pytest.raises(ContractViolation, match="finite and > 0"):
        dataclasses.replace(p, **{field: value})


def test_solution_set_gate():
    p = l1_quadratic()
    assert p.solution_set is None
    q = make_instance(InstanceSpec(kind="quadratic", n=4, conditioning=3.0, seed=6))
    z = q.solution_set.point
    assert objective(q, z) == pytest.approx(q.f_star, abs=1e-12)


def test_a_solution_set_checks_its_shapes_and_the_problem_its_dimension():
    with pytest.raises(ContractViolation, match="point"):
        SolutionSet(np.zeros((2, 2)))
    for normal in (np.zeros(2), np.zeros((3, 1)), np.zeros((2, 1, 1))):
        with pytest.raises(ContractViolation, match="normal"):
            SolutionSet(np.zeros(2), normal=normal)
    p = l1_quadratic()
    for wrong in (SolutionSet(np.zeros(3)), SolutionSet(np.zeros(1), normal=np.ones((1, 1))),
                  lambda x: np.zeros(2)):
        with pytest.raises(ContractViolation, match="solution_set"):
            dataclasses.replace(p, solution_set=wrong)
    flat = SolutionSet(np.zeros(2), normal=np.array([[1.0], [0.0]]))
    assert dataclasses.replace(p, solution_set=flat).solution_set is flat


def orthonormal_columns(n, r, seed):
    # the first r columns of a random orthogonal matrix, a view as the
    # noncoercive kind takes them
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return U[:, :r]


@pytest.mark.parametrize("n, r", [(6, 0), (20, 15), (24, 8), (64, 40), (200, 120)])
@pytest.mark.parametrize("at_origin", [True, False], ids=["origin", "shifted"])
def test_solution_set_dist_sq_equals_the_per_row_formula(n, r, at_origin):
    # r = 0 is the single point; else the set point + null(N') with N (n, r)
    rng = np.random.default_rng(n + r)
    point = np.zeros(n) if at_origin else rng.standard_normal(n)
    N = orthonormal_columns(n, r, seed=r) if r else None
    X = rng.standard_normal((300, n)) * rng.uniform(0.1, 10.0, (300, 1))
    want = []
    for x in X:
        d = x - (point if N is None else x - N @ (N.T @ (x - point)))
        want.append(float(d.dot(d)))
    got = SolutionSet(point, normal=N).dist_sq(X)
    assert got.shape == (300,) and np.array_equal(got, want)


def two_block_problem(prox):
    # g described by a kind (separable or not), or by a wrapper naming one
    return model_problem(half_norm_sq(4), ((0, 1), (2, 3)), prox)


@pytest.mark.parametrize("prox", [ProxKind.l1(0.5), ProxKind.zero(),
                                  ProxKind.group_l2(0.5), ProxKind.box(-1.0, 1.0),
                                  functools.wraps(ProxKind.l1(0.5))(lambda *a: None)],
                         ids=["l1", "zero", "group_l2", "box", "closure"])
def test_every_prox_entry_point_rejects_bad_input(prox):
    p = two_block_problem(prox)
    kind = p.prox_kind
    v = np.array([2.0, -0.5, 0.3, 0.0])
    # a NaN stepsize gave v back on the zero kind, and NaNs on l1
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(ContractViolation):
            prox_full(p, v, gamma)
        with pytest.raises(ContractViolation):
            prox_apply(kind, v, gamma)
    with pytest.raises(ContractViolation):
        prox_full(p, v[:3], 1.0)
    with pytest.raises(ContractViolation):
        prox_full(p, v.reshape(2, 2), 1.0)
    # checked once, applied unchecked: the same bits as the checked kind
    want = np.concatenate([prox_apply(kind, v[ix], 0.7) for ix in p.block_selectors])
    assert np.array_equal(prox_full(p, v, 0.7), want)

