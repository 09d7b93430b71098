"""Inertia sequences, stepsize rules, and Lyapunov coefficients.

Everything here is a pure function, so schedules can be shared across
threads and runs; gamma_full, delta_coeff and epsilon_coeff also act
elementwise on arrays (per-block constants, or a trace's columns).  The stepsize rules keep the per-step decrease
coefficient at L(1-c)/(2c) > 0 for every admissible (beta, c):

    full/cyclic  gamma = 2(1-beta)c/L      so (1-beta)/gamma - L/2 = L(1-c)/(2c)
    stochastic   gamma = 2(1-beta/sqrt(m))c/L, beta in [0, sqrt(m))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ContractViolation

VARIANTS = ("full", "cyclic", "stochastic")


@dataclass(frozen=True)
class ConstantBeta:
    """beta_k = beta0 for all k; beta0 in [0, 1)."""

    beta0: float

    def __post_init__(self):
        if not (0.0 <= self.beta0 < 1.0):
            raise ContractViolation("constant inertia needs beta0 in [0, 1)")


@dataclass(frozen=True)
class DiminishingBeta:
    """beta_k = 1/(k+2)^theta with theta > 1.

    The +2 shift keeps beta_0 < 1 while preserving monotone decrease and
    summability, which is all the convergence analysis uses.
    """

    theta: float

    def __post_init__(self):
        if not self.theta > 1.0:
            raise ContractViolation("diminishing inertia needs theta > 1")


BetaRule = Union[ConstantBeta, DiminishingBeta]


@dataclass(frozen=True)
class ParamSchedule:
    """Inertia rule plus the contraction factor c and algorithm variant.

    ``m`` is the block count consumed by the stochastic stepsize rule.
    ``fixed_gamma`` (stochastic only) selects the linear-rate regime: the
    solver then uses the constant stepsize gamma = fixed_gamma together
    with the constant inertia beta = gamma*nu/(4m) derived from the
    problem's nu, ignoring beta_rule.
    """

    beta_rule: BetaRule
    c: float
    variant: str = "full"
    m: int = 1
    fixed_gamma: float | None = None

    def __post_init__(self):
        if not isinstance(self.beta_rule, (ConstantBeta, DiminishingBeta)):
            raise ContractViolation("beta_rule must be ConstantBeta or DiminishingBeta")
        if not (0.0 < self.c < 1.0):
            raise ContractViolation("c must lie in (0, 1)")
        if self.variant not in VARIANTS:
            raise ContractViolation(f"variant must be one of {VARIANTS}")
        if self.m < 1:
            raise ContractViolation("m must be >= 1")
        if self.fixed_gamma is not None:
            if self.variant != "stochastic":
                raise ContractViolation("fixed_gamma applies to the stochastic variant only")
            if self.fixed_gamma <= 0:
                raise ContractViolation("fixed_gamma must be > 0")


def beta_at(schedule: ParamSchedule, k: int) -> float:
    """Inertia beta_k; non-increasing in k by construction."""
    if k < 0:
        raise ContractViolation("iteration index must be >= 0")
    rule = schedule.beta_rule
    if isinstance(rule, ConstantBeta):
        return rule.beta0
    try:
        return 1.0 / float(k + 2) ** rule.theta
    except OverflowError:  # (k+2)^theta is beyond the largest double
        return 0.0


def gamma_full(beta: float, c: float, L_val: float) -> float:
    """Stepsize 2(1-beta)c/L for the full and cyclic (per-block L_i) schemes."""
    if not (0.0 <= beta < 1.0):
        raise ContractViolation("gamma_full needs beta in [0, 1)")
    if not (0.0 < c < 1.0):
        raise ContractViolation("gamma_full needs c in (0, 1)")
    if np.any(L_val <= 0):
        raise ContractViolation("gamma_full needs L > 0")
    return 2.0 * (1.0 - beta) * c / L_val


def gamma_stochastic(beta: float, c: float, L_val: float, m: int) -> float:
    """Stepsize 2(1-beta/sqrt(m))c/L for the stochastic scheme."""
    if m < 1:
        raise ContractViolation("gamma_stochastic needs m >= 1")
    root_m = math.sqrt(m)
    if not (0.0 <= beta < root_m):
        raise ContractViolation("gamma_stochastic needs beta in [0, sqrt(m))")
    if not (0.0 < c < 1.0):
        raise ContractViolation("gamma_stochastic needs c in (0, 1)")
    if L_val <= 0:
        raise ContractViolation("gamma_stochastic needs L > 0")
    return 2.0 * (1.0 - beta / root_m) * c / L_val


def delta_coeff(gamma: float, L_val: float) -> float:
    """Lyapunov weight delta = (1/gamma - L/2)/2; > 0 whenever gamma < 2/L."""
    if np.any(gamma <= 0):
        raise ContractViolation("delta_coeff needs gamma > 0")
    return 0.5 * (1.0 / gamma - L_val / 2.0)


def epsilon_coeff(gamma: float, delta_next: float, c: float, L_val: float) -> float:
    """Coefficient of the squared-Lyapunov inequality.

    eps = 4c*delta_next^2/((1-c)L) + 4c/((1-c)L*gamma^2).
    """
    if np.any(gamma <= 0):
        raise ContractViolation("epsilon_coeff needs gamma > 0")
    if not (0.0 < c < 1.0):
        raise ContractViolation("epsilon_coeff needs c in (0, 1)")
    if L_val <= 0:
        raise ContractViolation("epsilon_coeff needs L > 0")
    scale = 4.0 * c / ((1.0 - c) * L_val)
    return scale * delta_next * delta_next + scale / (gamma * gamma)


def gamma0_root(m: int, nu: float, L_val: float) -> float:
    """Positive root of (min(nu,1)*nu/(8m^3))*g^2 + (L + nu/(2m) - nu/(4m^2))*g - 1 = 0.

    This is the stepsize ceiling for the stochastic linear-rate regime;
    the root always lies in (0, 1/L).  Computed in the cancellation-free
    form 2/(b + sqrt(b^2 + 4a)) for determinism across platforms.
    """
    if m < 1:
        raise ContractViolation("gamma0_root needs m >= 1")
    if nu <= 0:
        raise ContractViolation("gamma0_root needs nu > 0")
    if L_val <= 0:
        raise ContractViolation("gamma0_root needs L > 0")
    a = min(nu, 1.0) * nu / (8.0 * m**3)
    b = L_val + nu / (2.0 * m) - nu / (4.0 * m * m)
    return 2.0 / (b + math.sqrt(b * b + 4.0 * a))


def linear_stochastic_beta(gamma: float, nu: float, m: int) -> float:
    """Constant inertia beta = gamma*nu/(4m) paired with a fixed stepsize."""
    if gamma <= 0:
        raise ContractViolation("linear_stochastic_beta needs gamma > 0")
    if nu <= 0:
        raise ContractViolation("linear_stochastic_beta needs nu > 0")
    if m < 1:
        raise ContractViolation("linear_stochastic_beta needs m >= 1")
    return gamma * nu / (4.0 * m)
