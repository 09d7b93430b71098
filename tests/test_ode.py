import math

import numpy as np
import pytest

from iprox import ode
from iprox.errors import ContractViolation, DivergenceError
from iprox.problems import CompositeProblem, SmoothModel
from iprox.prox import ProxKind


def smooth_problem(H, L, f_star=0.0):
    # f(x) = x'Hx/2, the quadratic model of the symmetric H
    model = SmoothModel("quadratic", np.asarray(H, dtype=float))
    return CompositeProblem(
        blocks=(tuple(range(model.dim)),),
        smooth_value=model.value, smooth_grad=model.grad,
        prox=ProxKind.zero(),
        lipschitz_L=L, block_lipschitz=(L,), f_star=f_star,
    )


def flat_problem(dim=2):
    return smooth_problem(np.zeros((dim, dim)), L=1.0)


def spring_problem():
    # f(x) = 0.5*x^2 in one dimension; min at 0
    return smooth_problem([[1.0]], L=1.0)


def test_flat_potential_velocity_decays_exponentially():
    # x'' = -alpha*x' has the closed form v(t) = v0*exp(-alpha*t)
    p = flat_problem()
    tr = ode.simulate_heavy_ball(p, x0=[0.0, 0.0], v0=[1.0, -2.0],
                                 alpha=1.0, h=1e-3, t_end=1.0)
    want_v = np.array([1.0, -2.0]) * math.exp(-1.0)
    assert np.max(np.abs(tr.vs[-1] - want_v)) < 1e-6
    want_x = np.array([1.0, -2.0]) * (1.0 - math.exp(-1.0))
    assert np.max(np.abs(tr.xs[-1] - want_x)) < 1e-6


def oscillator_exact(t, x0, v0):
    # x'' + x' + x = 0: damped oscillation at frequency sqrt(3)/2
    w = math.sqrt(3.0) / 2.0
    c1 = x0
    c2 = (v0 + 0.5 * x0) / w
    e = math.exp(-0.5 * t)
    x = e * (c1 * math.cos(w * t) + c2 * math.sin(w * t))
    dxdt = -0.5 * x + e * w * (-c1 * math.sin(w * t) + c2 * math.cos(w * t))
    return x, dxdt


def test_matches_damped_oscillator_closed_form():
    p = spring_problem()
    tr = ode.simulate_heavy_ball(p, x0=[1.0], v0=[-1.0], alpha=1.0,
                                 h=1e-3, t_end=5.0)
    x_want, v_want = oscillator_exact(5.0, 1.0, -1.0)
    assert abs(tr.xs[-1, 0] - x_want) < 1e-9
    assert abs(tr.vs[-1, 0] - v_want) < 1e-9
    assert tr.ts[-1] == pytest.approx(5.0)
    assert len(tr.ts) == 5001


def test_energy_decay_rate_matches_identity():
    # d(xi_f)/dt = -alpha*||v||^2 along exact trajectories
    p = spring_problem()
    h = 1e-3
    tr = ode.simulate_heavy_ball(p, x0=[1.0], v0=[0.5], alpha=0.7,
                                 h=h, t_end=2.0)
    dxi = (tr.xi_f[2:] - tr.xi_f[:-2]) / (2 * h)
    want = -0.7 * np.linalg.norm(tr.vs[1:-1], axis=1) ** 2
    scale = np.max(np.abs(want))
    assert np.max(np.abs(dxi - want)) < 1e-3 * scale


def test_energy_monotone_and_bound_hold():
    p = spring_problem()
    tr = ode.simulate_heavy_ball(p, x0=[1.0], v0=[-1.0], alpha=1.0,
                                 h=1e-3, t_end=5.0)
    rep = ode.ode_audit(tr, theta=2.0, x_star=[0.0])
    assert rep["max_xi_increase"] <= 1e-8
    assert rep["bound_ok"]
    assert rep["R"] > 0
    # turning points make ||a|| > theta*||v|| unavoidable for finite theta
    assert 0.0 < rep["accel_violation_fraction"] < 0.5
    looser = ode.ode_audit(tr, theta=50.0, x_star=[0.0])
    assert looser["accel_violation_fraction"] <= rep["accel_violation_fraction"]


def test_uncorrected_bound_fails_at_start_when_energy_large():
    # with xi0 = 25 the uncorrected form demands xi0 <= 1/xi0 at t = 0.
    # v0 must be nonzero: a rest start sits at a turning point, where the
    # speed-to-acceleration premise behind the decay bound does not hold.
    p = spring_problem()
    tr = ode.simulate_heavy_ball(p, x0=[5.0], v0=[-5.0], alpha=1.0,
                                 h=1e-3, t_end=2.0)
    rep = ode.ode_audit(tr, theta=2.0, x_star=[0.0])
    assert tr.xi_f[0] == pytest.approx(25.0)
    assert rep["bound_ok"]
    assert not rep["bound_ok_uncorrected"]
    assert rep["bound_margin_min_uncorrected"] < -24.0
    assert rep["bound_margin_min"] > -1e-10


def test_equilibrium_start_is_trivial():
    p = spring_problem()
    tr = ode.simulate_heavy_ball(p, x0=[0.0], v0=[0.0], alpha=1.0,
                                 h=1e-2, t_end=1.0)
    assert np.all(tr.xs == 0.0)
    assert np.all(tr.xi_f == 0.0)
    assert np.all(np.isinf(tr.accel_ratio))
    rep = ode.ode_audit(tr, theta=2.0, x_star=[0.0])
    assert rep["R"] == 0.0
    assert rep["bound_ok"]
    assert rep["accel_violation_fraction"] == 0.0


def test_negative_curvature_blows_up():
    # f(x) = -50*x^2
    p = smooth_problem([[-100.0]], L=100.0)
    with pytest.raises(DivergenceError) as exc:
        ode.simulate_heavy_ball(p, x0=[1.0], v0=[0.0], alpha=1.0,
                                h=0.009, t_end=100.0)
    assert exc.value.k is not None and exc.value.k > 0


def test_simulation_validation():
    p = spring_problem()
    with pytest.raises(ContractViolation):
        ode.simulate_heavy_ball(p, [1.0], [0.0], alpha=0.0, h=1e-3, t_end=1.0)
    with pytest.raises(ContractViolation):
        ode.simulate_heavy_ball(p, [1.0], [0.0], alpha=1.0, h=0.0, t_end=1.0)
    with pytest.raises(ContractViolation):
        ode.simulate_heavy_ball(p, [1.0], [0.0], alpha=1.0, h=1e-3, t_end=0.0)
    with pytest.raises(ContractViolation):
        ode.simulate_heavy_ball(p, [1.0], [0.0], alpha=1.0, h=0.2, t_end=1.0)
    with pytest.raises(ContractViolation):
        ode.simulate_heavy_ball(p, [1.0, 2.0], [0.0], alpha=1.0, h=1e-3, t_end=1.0)
    import dataclasses
    no_star = dataclasses.replace(p, f_star=None)
    with pytest.raises(ContractViolation):
        ode.simulate_heavy_ball(no_star, [1.0], [0.0], alpha=1.0, h=1e-3, t_end=1.0)


def test_more_samples_than_numpy_can_index_is_rejected():
    # t_end/h = 1e302 samples: no array could hold them
    with pytest.raises(ContractViolation, match="numpy can index"):
        ode.simulate_heavy_ball(spring_problem(), [1.0], [0.0], alpha=1.0, h=1e-2,
                                t_end=1e300)


def test_audit_validation():
    p = spring_problem()
    tr = ode.simulate_heavy_ball(p, [1.0], [0.0], alpha=1.0, h=1e-2, t_end=0.5)
    with pytest.raises(ContractViolation):
        ode.ode_audit(tr, theta=0.0, x_star=[0.0])


@pytest.mark.parametrize("kind, zero", [
    (ProxKind.zero(), True), (ProxKind.l1(0.0), True), (ProxKind.group_l2(0.0), True),
    (ProxKind.l1(0.5), False), (ProxKind.group_l2(0.5), False),
    (ProxKind.box(-1.0, 1.0), False)],
    ids=["zero", "l1-weight0", "group_l2-weight0", "l1", "group_l2", "box"])
def test_a_kind_g_is_read_not_spot_checked(kind, zero):
    # g = the box indicator of [-1, 1]^2 is 0 at x0 = (0.5, 0.5) and at the
    # ones, where a two-point spot check would look, yet g is not zero
    import dataclasses
    p = dataclasses.replace(smooth_problem(np.eye(2), L=1.0), prox=kind)
    x0 = 0.5 * np.ones(2)
    if zero:
        trace = ode.simulate_heavy_ball(p, x0, np.zeros(2), alpha=1.0, h=1e-2, t_end=0.1)
        assert np.all(np.isfinite(trace.xs))
    else:
        with pytest.raises(ContractViolation, match="identically zero"):
            ode.simulate_heavy_ball(p, x0, np.zeros(2), alpha=1.0, h=1e-2, t_end=0.1)
