"""Inertial proximal gradient solvers with convergence diagnostics.

The package solves composite problems min F(x) = f(x) + g(x), with f
smooth (gradient Lipschitz) and g prox-friendly, by forward-backward
steps carrying a heavy-ball inertia term.  Full, cyclic-block and
stochastic-block update orders share one trace format, so the audit and
rate-fitting tools in :mod:`iprox.diagnostics` apply uniformly.
"""

from .errors import (
    ConfigError,
    ContractViolation,
    DivergenceError,
)
from .problems import CompositeProblem, IterateState, SmoothModel, SolutionSet
from .prox import ProxKind, prox_value
from .schedules import ConstantBeta, DiminishingBeta, ParamSchedule
from .solvers import RunConfig, Trace, run_cyclic, run_inertial, run_stochastic
from .diagnostics import (
    RateEstimate,
    descent_audit,
    expectation_descent_audit,
    fit_rate,
    linear_ratio_audit,
    max_lyapunov_increase,
    select_window,
    squared_lyapunov_audit,
    value_floor,
)
from .reference import ReferenceSolution, solve_reference, with_reference
from .library import InstanceSpec, make_instance, start_point
from .ode import OdeTrace, ode_audit, simulate_heavy_ball
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "CompositeProblem",
    "ConfigError",
    "ConstantBeta",
    "ContractViolation",
    "DiminishingBeta",
    "DivergenceError",
    "InstanceSpec",
    "IterateState",
    "OdeTrace",
    "ParamSchedule",
    "ProxKind",
    "RateEstimate",
    "ReferenceSolution",
    "RunConfig",
    "SmoothModel",
    "SolutionSet",
    "SplitMix64",
    "Trace",
    "descent_audit",
    "expectation_descent_audit",
    "fit_rate",
    "linear_ratio_audit",
    "make_instance",
    "max_lyapunov_increase",
    "ode_audit",
    "prox_value",
    "run_cyclic",
    "run_inertial",
    "run_stochastic",
    "select_window",
    "simulate_heavy_ball",
    "solve_reference",
    "squared_lyapunov_audit",
    "start_point",
    "value_floor",
    "with_reference",
]
