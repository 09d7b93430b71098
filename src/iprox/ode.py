"""Heavy-ball ODE lab: x'' + alpha*x' + grad f(x) = 0 for smooth f; the
problem's prox_kind must make g zero (zero, or l1 or group l2 at weight 0).

The second-order system is integrated as a first-order system in (x, v)
with classical fourth-order Runge-Kutta at a fixed step.  The energy
xi_f(t) = f(x) + ||v||^2/2 - min f decays monotonically along exact
trajectories (d(xi_f)/dt = -alpha*||v||^2); the audit checks the sampled
counterpart plus the integrated decay bound

    xi_f(t) <= 1 / (alpha*t/R^2 + 1/xi_f(0)),

with R measured from the trajectory as sup_t max((alpha+theta)*||x - x*||,
||v||/2).  The acceleration-to-speed constraint ||x''|| <= theta*||x'|| is
monitored, never enforced; it genuinely fails at velocity turning points,
so the audit reports a violation fraction rather than asserting zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import max_lyapunov_increase
from .errors import ContractViolation, DivergenceError
from .problems import CompositeProblem


@dataclass
class OdeTrace:
    """Samples at t = 0, h, 2h, ...; accel_ratio is ||a||/||v|| with a +inf
    sentinel where the speed is exactly zero."""

    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    accs: np.ndarray
    xi_f: np.ndarray
    accel_ratio: np.ndarray
    alpha: float


def simulate_heavy_ball(problem: CompositeProblem, x0, v0, alpha: float,
                        h: float, t_end: float) -> OdeTrace:
    """Integrate the damped system from (x0, v0) up to t_end.

    The problem must be smooth-only (g identically zero) with f_star set;
    the stability guard h <= 0.1/sqrt(L) keeps RK4 far inside its region.
    A non-finite state, or a sample whose energy, speed or acceleration
    ratio is not finite, raises DivergenceError with the sample index k.
    """
    # written as "not > 0", which NaN fails too
    if not alpha > 0:
        raise ContractViolation("alpha must be > 0")
    if not (h > 0 and t_end > 0):
        raise ContractViolation("h and t_end must be > 0")
    if h > 0.1 / math.sqrt(problem.lipschitz_L):
        raise ContractViolation("h exceeds the stability guard 0.1/sqrt(L)")
    if problem.f_star is None:
        raise ContractViolation("heavy-ball energy needs problem.f_star (= min f)")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (problem.dim,) or v0.shape != (problem.dim,):
        raise ContractViolation("x0 and v0 must have the problem dimension")
    kind = problem.prox_kind  # g is ignored by the integrator
    if not (kind.tag == "zero" or (kind.tag in ("l1", "group_l2") and kind.lam == 0.0)):
        raise ContractViolation("heavy-ball integration needs g identically zero")

    if not t_end / h * problem.dim < np.iinfo(np.intp).max:
        raise ContractViolation("t_end/h gives more samples than numpy can index")
    n_steps = int(round(t_end / h))
    if n_steps < 1:
        raise ContractViolation("t_end shorter than one step")
    f_star = problem.f_star
    grad = problem.smooth_grad  # every x here is the integrator's own

    ts = np.arange(n_steps + 1) * h
    xs = np.empty((n_steps + 1, problem.dim))
    vs = np.empty_like(xs)
    accs = np.empty_like(xs)  # sample i's acceleration is step i+1's k1v
    x = x0.copy()
    v = v0.copy()
    xs[0] = x
    vs[0] = v
    # overflow is detected via the isfinite guards, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(1, n_steps + 1):
            k1x = v
            k1v = accs[i - 1] = -alpha * v - grad(x)
            k2x = v + 0.5 * h * k1v
            k2v = -alpha * k2x - grad(x + 0.5 * h * k1x)
            k3x = v + 0.5 * h * k2v
            k3v = -alpha * k3x - grad(x + 0.5 * h * k2x)
            k4x = v + h * k3v
            k4v = -alpha * k4x - grad(x + h * k3x)
            x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                raise DivergenceError(f"non-finite state at t={ts[i]:.6g}", k=i)
            xs[i] = x
            vs[i] = v

        accs[n_steps] = -alpha * v - grad(x)
        speeds = np.linalg.norm(vs, axis=1)
        xi = np.array([problem.smooth_value(xs[i]) for i in range(n_steps + 1)])
        xi += 0.5 * speeds ** 2 - f_star
        ratio = np.where(speeds > 0.0, np.linalg.norm(accs, axis=1) / speeds, np.inf)
    # a finite state can still overflow its energy; the ratio's +inf sentinel stays
    bad = ~(np.isfinite(xi) & np.isfinite(speeds) & (np.isfinite(ratio) | (speeds == 0.0)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DivergenceError(f"non-finite energy at t={ts[i]:.6g}", k=i)
    return OdeTrace(ts=ts, xs=xs, vs=vs, accs=accs, xi_f=xi,
                    accel_ratio=ratio, alpha=alpha)


def ode_audit(trace: OdeTrace, theta: float, x_star) -> dict:
    """Check the sampled trajectory against the continuous-time analysis.

    Returns a report with:
      max_xi_increase          largest positive forward difference of xi_f
      R                        sup_t max((alpha+theta)*||x-x*||, ||v||/2)
      accel_violation_fraction fraction of samples with ||a|| > theta*||v||
                               (division-free, so exact equilibria pass)
      bound_ok / bound_margin_min   integrated decay bound with 1/xi_f(0)
      bound_ok_uncorrected     same bound with xi_f(0) in the denominator
                               (reported for comparison; dimensionally
                               inconsistent form)
    """
    if not theta > 0:  # NaN included
        raise ContractViolation("theta must be > 0")
    x_star = np.asarray(x_star, dtype=float)
    xi = trace.xi_f
    alpha = trace.alpha
    dist = np.linalg.norm(trace.xs - x_star[None, :], axis=1)
    speeds = np.linalg.norm(trace.vs, axis=1)
    acc_norms = np.linalg.norm(trace.accs, axis=1)

    R = float(np.max(np.maximum((alpha + theta) * dist, 0.5 * speeds)))
    violations = acc_norms > theta * speeds
    frac = float(np.mean(violations))

    xi0 = float(xi[0])
    bound = np.empty_like(xi)
    if xi0 <= 0.0 or R == 0.0:
        # started at (or below float resolution of) the minimum: the decay
        # bound degenerates to xi_f(t) <= 0 for t > 0 and xi0 at t = 0
        bound[:] = 0.0
        bound[0] = max(xi0, 0.0)
        bound_unc = bound.copy()
    else:
        bound = 1.0 / (alpha * trace.ts / (R * R) + 1.0 / xi0)
        bound_unc = 1.0 / (alpha * trace.ts / (R * R) + xi0)
    # 1/(1/xi0) does not round-trip exactly, so allow float dust at t = 0
    tol = 1e-12 * (1.0 + abs(xi0))
    margins = bound - xi
    margins_unc = bound_unc - xi
    return {
        "max_xi_increase": max_lyapunov_increase(xi),
        "R": R,
        "accel_violation_fraction": frac,
        "bound_ok": bool(np.all(xi <= bound + tol)),
        "bound_margin_min": float(np.min(margins)),
        "bound_ok_uncorrected": bool(np.all(xi <= bound_unc + tol)),
        "bound_margin_min_uncorrected": float(np.min(margins_unc)),
    }
