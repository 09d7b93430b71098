import math

import pytest
from hypothesis import given, strategies as st

from iprox.errors import ContractViolation
from iprox.schedules import (
    ConstantBeta,
    DiminishingBeta,
    ParamSchedule,
    beta_at,
    delta_coeff,
    epsilon_coeff,
    gamma0_root,
    linear_stochastic_beta,
    stepsize,
)


def test_constant_rule():
    s = ParamSchedule(beta_rule=ConstantBeta(0.3), c=0.9, variant="full")
    assert beta_at(s, 0) == beta_at(s, 10 ** 6) == 0.3


def test_diminishing_rule_beyond_the_largest_double_is_zero():
    # (k+2)^theta overflows a double for theta >= 1024 already at k = 0
    for theta in (2000.0, 1e300):
        s = ParamSchedule(beta_rule=DiminishingBeta(theta), c=0.9, variant="full")
        assert beta_at(s, 0) == beta_at(s, 7) == 0.0


def test_diminishing_rule_values():
    s = ParamSchedule(beta_rule=DiminishingBeta(2.0), c=0.9, variant="full")
    # 1/(k+2)^theta: starts below 1 even at k = 0
    assert beta_at(s, 0) == pytest.approx(0.25)
    assert beta_at(s, 2) == pytest.approx(1.0 / 16.0)
    assert beta_at(s, 8) == pytest.approx(0.01)


def test_diminishing_is_summable():
    s = ParamSchedule(beta_rule=DiminishingBeta(1.5), c=0.9, variant="full")
    total = sum(beta_at(s, k) for k in range(100_000))
    # integral comparison: sum_{k>=0} (k+2)^-1.5 <= 2^-1.5 + integral_1^inf (t+1)^-1.5
    assert total < 2.0 ** -1.5 + 2.0 / math.sqrt(2.0)


def test_rule_validation():
    with pytest.raises(ContractViolation):
        ConstantBeta(1.0)
    with pytest.raises(ContractViolation):
        ConstantBeta(-0.1)
    with pytest.raises(ContractViolation):
        DiminishingBeta(1.0)
    with pytest.raises(ContractViolation):
        ParamSchedule(beta_rule=ConstantBeta(0.5), c=0.0, variant="full")
    with pytest.raises(ContractViolation):
        ParamSchedule(beta_rule=ConstantBeta(0.5), c=1.0, variant="full")
    with pytest.raises(ContractViolation):
        ParamSchedule(beta_rule=ConstantBeta(0.5), c=0.9, variant="bogus")
    with pytest.raises(ContractViolation):
        ParamSchedule(beta_rule=ConstantBeta(0.5), c=0.9, variant="full",
                      fixed_gamma=0.5)  # fixed gamma is stochastic-only
    with pytest.raises(ContractViolation):
        ParamSchedule(beta_rule=ConstantBeta(0.5), c=0.9, variant="stochastic",
                      m=4, fixed_gamma=-1.0)
    with pytest.raises(ContractViolation, match="beta_rule"):
        ParamSchedule(beta_rule=0.5, c=0.9, variant="full")
    with pytest.raises(ContractViolation, match="m must be"):
        ParamSchedule(beta_rule=ConstantBeta(0.5), c=0.9, variant="stochastic", m=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fixed_gamma_must_be_finite(value):
    # NaN passed "fixed_gamma <= 0", and the stochastic runner then blamed beta
    with pytest.raises(ContractViolation, match="fixed_gamma must be finite"):
        ParamSchedule(beta_rule=ConstantBeta(0.0), c=0.9, variant="stochastic", m=4,
                      fixed_gamma=value)


@pytest.mark.parametrize("args, field", [
    ((0, 1.0, 1.0), "m >= 1"), ((1, 0.0, 1.0), "nu"), ((1, math.nan, 1.0), "nu"),
    ((1, 1.0, -1.0), "L"), ((1, 1.0, math.inf), "L")])
def test_gamma0_root_checks_its_own_arguments(args, field):
    # no constructor stands between a caller and this function
    with pytest.raises(ContractViolation, match=field):
        gamma0_root(*args)


@given(beta=st.floats(0.0, 0.999), c=st.floats(0.01, 0.99),
       L=st.floats(1e-3, 1e6))
def test_full_stepsize_decrease_identity(beta, c, L):
    # the sufficient-decrease coefficient (1-beta)/gamma - L/2 collapses to
    # L(1-c)/(2c), independent of beta
    gamma = stepsize(beta, c, L, 1.0)
    lhs = (1.0 - beta) / gamma - L / 2.0
    want = L * (1.0 - c) / (2.0 * c)
    assert lhs == pytest.approx(want, rel=1e-12)
    assert gamma > 0.0
    assert gamma < 2.0 / L  # stays inside the classical stability range


@given(beta=st.floats(0.0, 0.999), c=st.floats(0.01, 0.99),
       L=st.floats(1e-3, 1e6))
def test_delta_minus_momentum_weight_margin(beta, c, L):
    # delta - beta/(2 gamma) = L(1-c)/(4c) > 0: the Lyapunov weight exceeds
    # the momentum weight by a c-controlled margin
    gamma = stepsize(beta, c, L, 1.0)
    delta = delta_coeff(gamma, L)
    assert delta - beta / (2.0 * gamma) == pytest.approx(L * (1.0 - c) / (4.0 * c), rel=1e-9)


@given(beta=st.floats(0.0, 1.9), c=st.floats(0.01, 0.99), L=st.floats(1e-3, 1e3),
       m=st.integers(1, 64))
def test_stochastic_stepsize_identity(beta, c, L, m):
    if beta >= math.sqrt(m):
        # the formula takes checked values: such a beta is refused where it
        # enters, by the inertia rule (beta_k < 1 <= sqrt(m) for both rules)
        with pytest.raises(ContractViolation):
            ConstantBeta(beta)
        return
    gamma = stepsize(beta, c, L, math.sqrt(m))
    lhs = (1.0 - beta / math.sqrt(m)) / gamma - L / 2.0
    assert lhs == pytest.approx(L * (1.0 - c) / (2.0 * c), rel=1e-12)


def test_stochastic_m1_equals_full():
    # the rule at m = 1 is the full order's 2(1-beta)c/L: beta/1.0 is beta
    assert stepsize(0.4, 0.8, 2.0, math.sqrt(1)) == 2.0 * (1.0 - 0.4) * 0.8 / 2.0


@given(theta=st.floats(1.01, 4.0), c=st.floats(0.1, 0.9), L=st.floats(0.1, 10.0))
def test_diminishing_momentum_weight_monotone(theta, c, L):
    # beta_k/(2 gamma_k) must be non-increasing for the descent telescope
    s = ParamSchedule(beta_rule=DiminishingBeta(theta), c=c, variant="full")
    prev = math.inf
    for k in range(200):
        b = beta_at(s, k)
        w = b / (2.0 * stepsize(b, c, L, 1.0))
        assert w <= prev + 1e-15
        prev = w


def test_gamma0_root_reference_value():
    # hand-solved quadratic 0.125 g^2 + 1.25 g - 1 = 0 at (m, nu, L) = (1, 1, 1)
    assert gamma0_root(1, 1.0, 1.0) == pytest.approx(0.7445626465380286, abs=1e-13)


@given(m=st.integers(1, 32), nu=st.floats(1e-4, 1.0), L=st.floats(0.1, 100.0))
def test_gamma0_solves_its_quadratic(m, nu, L):
    g = gamma0_root(m, nu, L)
    a = min(nu, 1.0) * nu / (8.0 * m ** 3)
    b = L + nu / (2.0 * m) - nu / (4.0 * m * m)
    assert a * g * g + b * g - 1.0 == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < g < 1.0 / L + 1.0


@given(m=st.integers(1, 32), nu=st.floats(1e-4, 1.0), L=st.floats(0.5, 100.0))
def test_linear_beta_stays_admissible(m, nu, L):
    gamma = 0.95 * gamma0_root(m, nu, L)
    beta = linear_stochastic_beta(gamma, nu, m)
    assert 0.0 <= beta < math.sqrt(m)
    assert beta == pytest.approx(gamma * nu / (4.0 * m))


@given(gamma=st.floats(1e-3, 10.0), c=st.floats(0.05, 0.95), L=st.floats(0.01, 100.0))
def test_epsilon_coeff_positive(gamma, c, L):
    delta = delta_coeff(gamma, L)
    eps = epsilon_coeff(gamma, delta, c, L)
    want = 4.0 * c / ((1.0 - c) * L) * (delta * delta + 1.0 / gamma ** 2)
    assert eps == pytest.approx(want, rel=1e-12)
    assert eps > 0.0
