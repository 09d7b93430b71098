import dataclasses
import functools

import numpy as np
import pytest

from iprox.errors import ContractViolation, UnsupportedOracle
from iprox.library import InstanceSpec, make_instance
from iprox.problems import (
    CompositeProblem,
    check_gradient_fd,
    grad_f,
    kind_oracles,
    make_state,
    objective,
    oracle_state,
    prox_block,
    prox_full,
    solution_project,
)
from iprox.prox import ProxKind, prox_apply, prox_value


def l1_quadratic(dim=2, blocks=None):
    # f = ||x - b||^2 / 2 with b = 0, g = ||x||_1
    kind = ProxKind.l1(1.0)
    return CompositeProblem(
        dim=dim,
        blocks=blocks or (tuple(range(dim)),),
        smooth_value=lambda x: 0.5 * float(x @ x),
        smooth_grad=lambda x: x.copy(),
        lipschitz_L=1.0,
        block_lipschitz=tuple(1.0 for _ in (blocks or [0])),
        nonsmooth_value=lambda x: prox_value(kind, x),
        prox=lambda i, v, gamma: prox_apply(kind, v, gamma),
    )


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
    kind = ProxKind.l1(lam)
    prob = CompositeProblem(
        dim=3, blocks=((0, 1, 2),),
        smooth_value=lambda x: 0.5 * float((A @ x - b) @ (A @ x - b)),
        smooth_grad=lambda x: A.T @ (A @ x - b),
        lipschitz_L=float(np.linalg.norm(A, 2) ** 2),
        block_lipschitz=(float(np.linalg.norm(A, 2) ** 2),),
        nonsmooth_value=lambda x: prox_value(kind, x),
        prox=lambda i, v, gamma: prox_apply(kind, v, gamma),
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
    state = oracle_state(p)
    state.refresh(x)
    for i, ix in enumerate(p.block_index_arrays):
        assert np.array_equal(state.block_grad(i, x), full[ix])


def test_block_grad_m1_degeneracy():
    p = l1_quadratic()
    x = np.array([0.5, -0.25])
    state = oracle_state(p)
    state.refresh(x)
    assert np.array_equal(state.block_grad(0, x), grad_f(p, x))


def test_prox_block_zero_identity():
    p = make_instance(InstanceSpec(kind="quadratic", n=6, conditioning=4.0, seed=0, m=2))
    v = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(prox_block(p, 0, v, 0.7), v)


def test_prox_block_soft_threshold_case():
    p = l1_quadratic()
    # gamma*lambda = 1 -> prox(3) = 2
    out = prox_block(p, 0, np.array([3.0, 0.0]), 1.0)
    assert np.array_equal(out, np.array([2.0, 0.0]))


def test_prox_block_grid_oracle():
    prob, _, _, lam = hand_lasso()
    v = np.array([0.9, -1.7, 0.2])
    gamma = 0.6
    got = prox_block(prob, 0, v, gamma)
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
    for i, ix in enumerate(p.block_index_arrays):
        stitched[ix] = prox_block(p, i, v[ix], 0.5)
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
    assert p.prox_kind is not None and p.prox_kind.separable
    per_block = dataclasses.replace(p, prox_kind=None)
    gamma = 0.5
    rng = np.random.Generator(np.random.PCG64(m))
    v = rng.standard_normal(24) * 2.0
    # coordinates at the threshold, at zero and at minus zero
    v[:4] = [gamma * 0.3, -gamma * 0.3, 0.0, -0.0]
    want = np.empty(24)
    for i, ix in enumerate(p.block_index_arrays):
        want[ix] = prox_block(p, i, v[ix], gamma)
    for got in (prox_full(p, v, gamma), prox_full(per_block, v, gamma)):
        assert got.tobytes() == want.tobytes()
    assert prox_full(p, v, gamma) is not v


def test_group_l2_prox_full_shrinks_each_block_by_its_own_norm():
    kind = ProxKind.group_l2(1.0)
    p = CompositeProblem(
        dim=4, blocks=((0, 1), (2, 3)),
        smooth_value=lambda x: 0.5 * float(x @ x), smooth_grad=lambda x: x.copy(),
        lipschitz_L=1.0, block_lipschitz=(1.0, 1.0), **kind_oracles(kind))
    assert p.prox_kind is kind
    out = prox_full(p, np.array([3.0, 4.0, 0.6, 0.8]), 2.0)
    # block norms 5 and 1: the first keeps 1 - 2/5 of itself, the second is 0
    assert np.allclose(out, [1.8, 2.4, 0.0, 0.0], rtol=0, atol=1e-15)


def test_closure_problem_prox_full_calls_each_block_prox_once():
    calls = []
    kind = ProxKind.l1(1.0)

    def prox(i, v, gamma):
        calls.append(i)
        return prox_apply(kind, v, gamma)

    p = CompositeProblem(
        dim=6, blocks=((0, 1), (2, 3), (4, 5)),
        smooth_value=lambda x: 0.5 * float(x @ x), smooth_grad=lambda x: x.copy(),
        lipschitz_L=1.0, block_lipschitz=(1.0,) * 3,
        nonsmooth_value=lambda x: prox_value(kind, x), prox=prox)
    out = prox_full(p, np.array([2.0, -0.5, 1.5, 0.0, -3.0, 1.0]), 1.0)
    assert calls == [0, 1, 2]
    assert np.array_equal(out, [1.0, 0.0, 0.5, 0.0, -2.0, 0.0])


def test_prox_kind_is_dropped_with_the_oracles_built_from_it():
    p = make_instance(InstanceSpec(kind="lasso", n=6, rows=10, reg_lambda=1.0,
                                   m=3, seed=1))
    assert p.prox_kind.tag == "l1"
    assert dataclasses.replace(p, f_star=0.0).prox_kind is p.prox_kind
    calls = []

    def prox(i, v, gamma):
        calls.append(i)
        return np.zeros_like(v) + i

    # a replaced prox, or a kind given with other oracles, describes g alone
    for q in (dataclasses.replace(p, prox=prox),
              dataclasses.replace(p, prox_kind=ProxKind.zero())):
        assert q.prox_kind is None
    out = prox_full(dataclasses.replace(p, prox=prox), np.ones(6), 1.0)
    assert calls == [0, 1, 2]
    assert np.array_equal(out, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    q = dataclasses.replace(p, nonsmooth_value=lambda x: 0.0)
    assert q.prox_kind is None and q.prox is p.prox
    # a wrapper that names its oracle, as a tracer's does, keeps the kind
    q = dataclasses.replace(p, prox=functools.wraps(p.prox)(lambda *a: p.prox(*a)))
    assert q.prox_kind is p.prox_kind


def test_prox_kind_must_be_a_prox_kind():
    p = l1_quadratic()
    with pytest.raises(ContractViolation):
        dataclasses.replace(p, prox_kind="l1")


def test_fd_check_quadratic_tight():
    p = make_instance(InstanceSpec(kind="quadratic", n=10, conditioning=6.0, seed=4))
    rng = np.random.Generator(np.random.PCG64(8))
    assert check_gradient_fd(p, rng.standard_normal(10), 1e-5) < 1e-8


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
        du = prox_block(p, 0, u, 0.8) - prox_block(p, 0, v, 0.8)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12


def test_dimension_mismatch_errors():
    p = l1_quadratic()
    with pytest.raises(ContractViolation):
        objective(p, np.zeros(3))
    with pytest.raises(ContractViolation):
        grad_f(p, np.zeros(1))
    with pytest.raises(ContractViolation):
        prox_block(p, 0, np.zeros(5), 1.0)
    with pytest.raises(ContractViolation):
        prox_block(p, 0, np.zeros(2), 0.0)


def test_partition_validation():
    with pytest.raises(ContractViolation):
        CompositeProblem(
            dim=3, blocks=((0, 1), (1, 2)),
            smooth_value=lambda x: 0.0, smooth_grad=lambda x: np.zeros(3),
            lipschitz_L=1.0, block_lipschitz=(1.0, 1.0),
            nonsmooth_value=lambda x: 0.0, prox=lambda i, v, g: v)
    with pytest.raises(ContractViolation):
        CompositeProblem(
            dim=3, blocks=((0,), (2,)),
            smooth_value=lambda x: 0.0, smooth_grad=lambda x: np.zeros(3),
            lipschitz_L=1.0, block_lipschitz=(1.0, 1.0),
            nonsmooth_value=lambda x: 0.0, prox=lambda i, v, g: v)


def test_solution_projection_gate():
    p = l1_quadratic()
    with pytest.raises(UnsupportedOracle):
        solution_project(p, np.zeros(2))
    q = make_instance(InstanceSpec(kind="quadratic", n=4, conditioning=3.0, seed=6))
    z = solution_project(q, np.zeros(4))
    assert objective(q, z) == pytest.approx(q.f_star, abs=1e-12)


def test_make_state_defaults_prev_to_start():
    p = l1_quadratic()
    st = make_state(p, np.array([1.0, 2.0]))
    assert np.array_equal(st.x_curr, st.x_prev)
    assert st.k == 0
