#!/usr/bin/env python3
"""Heavy-ball ODE on a smooth quadratic: energy decay and its audit."""

import numpy as np

from iprox import InstanceSpec, make_instance, ode_audit, simulate_heavy_ball

spec = InstanceSpec(kind="quadratic", n=8, conditioning=12.0, m=1, seed=3)
problem = make_instance(spec)

rng = np.random.default_rng(3)
x0 = rng.standard_normal(problem.dim)
v0 = rng.standard_normal(problem.dim)

trace = simulate_heavy_ball(problem, x0, v0, alpha=1.0, h=1e-3, t_end=20.0)
report = ode_audit(trace, theta=4.0, x_star=problem.solution_set.point)

print(f"xi_f(0) = {trace.xi_f[0]:.6f}   xi_f(T) = {trace.xi_f[-1]:.3e}")
print(f"max xi increase          = {report['max_xi_increase']:.3e}")
print(f"R                        = {report['R']:.4f}")
print(f"accel violation fraction = {report['accel_violation_fraction']:.4f}")
print(f"decay bound holds        = {report['bound_ok']} "
      f"(min margin {report['bound_margin_min']:.3e})")
print(f"uncorrected form holds   = {report['bound_ok_uncorrected']}")
