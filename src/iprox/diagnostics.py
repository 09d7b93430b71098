"""Lyapunov and inequality audits, rate fits.

Every audit here recomputes its inequality from the recorded trace columns
rather than trusting the solver's own bookkeeping, so a run and its audit
form two independent routes to the same quantity.  Audits require traces
recorded at every iteration (record_every = 1): the per-step inequalities
cannot be reconstructed from subsampled endpoints.  Of the iterates, the
squared-Lyapunov audit reads only the dist_sq column, which a run records
when its problem's solution_set is known.

Tolerance convention: the inequalities are exact in real arithmetic, so
tests compare audit outputs against small negative thresholds scaled by
(1 + |F(x^0)|) to absorb floating-point accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .problems import CompositeProblem
from .schedules import delta_coeff, epsilon_coeff


@dataclass(frozen=True)
class RateEstimate:
    """Fitted decay model: value ~ C*k^-p (sublinear_power, p stored) or
    value ~ C*omega^k (geometric, omega stored); fit_residual is the RMS
    misfit in log space over the fitted window."""

    model: str
    exponent_or_ratio: float
    fit_residual: float
    window: tuple


def _require_contiguous(trace):
    ks = np.asarray(trace.ks)
    if len(ks) < 2:
        raise ContractViolation("audit needs at least two recorded entries")
    if not np.all(np.diff(ks) == 1):
        raise ContractViolation(
            "audit needs consecutive iterations (record_every=1 traces)")


def _per_step_slacks(trace) -> np.ndarray:
    """Recompute the descent-inequality slack for each recorded step.

    Entry j is the slack of the transition ks[j] -> ks[j]+1.  The
    inequality shape depends on the variant:

      full        Psi_k - Psi_{k+1} >= ((1-beta_k)/gamma_k - L/2)*s_{k+1}
                  with Psi_k = F(x^k) + (beta_k/(2*gamma_k))*s_k
      cyclic      block-weighted Psi with per-block gamma_{k,i} and the
                  decrease coefficient (1-c)*Lmin/(2c) on the full step
      stochastic  the full formula with beta_k/sqrt(m) for beta_k; holds in
                  expectation only, so single-trace values are averaged
                  over seeds by expectation_descent_audit.
    """
    _require_contiguous(trace)
    variant = trace.meta["variant"]
    L = trace.meta["L"]
    F = np.asarray(trace.F)
    s = np.asarray(trace.step_sq)
    betas = np.asarray(trace.betas)
    if variant == "cyclic":
        if trace.block_step_sq is None:
            raise ContractViolation("cyclic audit needs block_step_sq")
        c = trace.meta["c"]
        L_min = min(trace.meta["block_lipschitz"])
        g = np.asarray(trace.gammas)          # (N, m)
        sb = np.asarray(trace.block_step_sq)  # (N, m)
        psi = F + np.sum(betas[:, None] / (2.0 * g) * sb, axis=1)
        return psi[:-1] - psi[1:] - (1.0 - c) * L_min / (2.0 * c) * s[1:]
    if variant in ("full", "stochastic"):
        # the full order is the stochastic formula at m = 1, bit for bit
        rm = math.sqrt(trace.meta["m"]) if variant == "stochastic" else 1.0
        g = np.asarray(trace.gammas)
        psi = F + betas / (2.0 * rm * g) * s
        coeff = (1.0 - betas / rm) / g - L / 2.0
        return psi[:-1] - psi[1:] - coeff[:-1] * s[1:]
    raise ContractViolation(f"unknown variant {variant!r}")


def descent_audit(trace) -> float:
    """Most negative per-step descent slack; 0.0 when no step violates."""
    slacks = _per_step_slacks(trace)
    return float(min(0.0, slacks.min()))


def expectation_descent_audit(traces) -> float:
    """Min over k of the seed-averaged descent slack for stochastic runs.

    The stochastic descent inequality holds in expectation, realized here
    as the mean over seeds at each recorded transition; single seeds may
    violate it freely.  Returns the worst seed-mean slack (not clipped).
    """
    if len(traces) == 0:
        raise ContractViolation("need at least one trace")
    ks0 = np.asarray(traces[0].ks)
    for t in traces:
        if t.meta["variant"] != "stochastic":
            raise ContractViolation("expectation audit is for stochastic runs")
        if not np.array_equal(np.asarray(t.ks), ks0):
            raise ContractViolation("traces disagree on recorded iteration grid")
    stack = np.stack([_per_step_slacks(t) for t in traces])
    return float(stack.mean(axis=0).min())


def max_lyapunov_increase(lyapunov) -> float:
    """Largest positive forward difference of a lyapunov column (0 if none):
    the column, such as a CSV's seed mean, or a trace's own."""
    xi = np.asarray(lyapunov)
    if len(xi) < 2:
        return 0.0
    return float(max(0.0, np.max(np.diff(xi))))


def squared_lyapunov_audit(trace) -> float:
    """Most negative slack of the squared-Lyapunov inequality.

    Full variant, per step k -> k+1 with eps_k from epsilon_coeff:

        xi_{k+1}^2 <= eps_k*(xi_k - xi_{k+1})
                      *(2*||x^{k+1} - xbar^{k+1}||^2 + ||x^{k+1} - x^k||^2)

    Cyclic variant (per-block constants, lagged step factor):

        eps_k = (4c/((1-c)*Lmin)) * max(sum_i(delta_{k+1,i}^2 + L_i^2),
                                        sum_i 1/gamma_{k,i}^2)
        xi_{k+1}^2 <= eps_k*(xi_k - xi_{k+1})
                      *(3*||x^{k+1} - xbar^{k+1}||^2 + ||x^k - x^{k-1}||^2)

    ||x^k - xbar^k||^2 is the trace's dist_sq column.
    """
    _require_contiguous(trace)
    if trace.dist_sq is None or len(trace.dist_sq) != len(trace.ks):
        raise ContractViolation(
            "audit needs a dist_sq column: a run on a problem with a solution_set")
    variant = trace.meta["variant"]
    c = trace.meta["c"]
    L = trace.meta["L"]
    xi = np.asarray(trace.lyapunov)
    s = np.asarray(trace.step_sq)
    g = np.asarray(trace.gammas)
    dist2 = np.asarray(trace.dist_sq)
    # np.float_power(xi, 2.0) calls pow() per value as xi**2 does on a
    # numpy scalar; xi**2 on an array rounds xi*xi, which differs in the
    # last bit for about one value in a thousand
    xi_next_sq = np.float_power(xi[1:], 2.0)
    drop = xi[:-1] - xi[1:]

    if variant == "full":
        eps = epsilon_coeff(g[:-1], delta_coeff(g[1:], L), c, L)
        factor = 2.0 * dist2[1:] + s[1:]
    elif variant == "cyclic":
        L_blocks = np.asarray(trace.meta["block_lipschitz"], dtype=float)
        L_min = float(L_blocks.min())
        scale = 4.0 * c / ((1.0 - c) * L_min)
        deltas_next = delta_coeff(g[1:], L_blocks)
        a = np.sum(deltas_next ** 2 + L_blocks ** 2, axis=1)
        b = np.sum(1.0 / g[:-1] ** 2, axis=1)
        eps = scale * np.where(b > a, b, a)  # max(a, b) as Python takes it
        factor = 3.0 * dist2[1:] + s[:-1]
    else:
        raise ContractViolation("squared-Lyapunov audit applies to full or cyclic runs")
    slack = eps * drop * factor - xi_next_sq
    # min(0.0, slack_0, slack_1, ...) as Python's min takes it: NaN slacks
    # are passed over, and 0.0 is returned when no slack is below it
    worst = float(np.fmin.reduce(slack, initial=0.0))
    return worst if worst < 0.0 else 0.0


def linear_ratio_audit(trace, problem: CompositeProblem, floor_scale: float = 1e-14) -> dict:
    """Per-step geometric contraction check under optimal strong convexity.

    Computes ell = sup_k eps_k*(1/delta_{k+1} + 2/nu) over the trace and the
    implied ratio bound omega = 2*ell/(sqrt(ell^2 + 4*ell) + ell) < 1, then
    verifies xi_{k+1}/xi_k <= omega on every step whose xi_k sits above the
    rounding floor floor_scale*(1 + |min F|).
    """
    _require_contiguous(trace)
    if trace.meta["variant"] != "full":
        raise ContractViolation("ratio audit expects a full-variant trace")
    if problem.nu is None:
        raise ContractViolation("ratio audit needs problem.nu")
    f_star = trace.meta["f_star"]
    if f_star is None:
        raise ContractViolation("ratio audit needs a trace with known f_star")
    c = trace.meta["c"]
    L = trace.meta["L"]
    xi = np.asarray(trace.lyapunov)
    g = np.asarray(trace.gammas)
    floor = floor_scale * (1.0 + abs(f_star))

    delta_next = delta_coeff(g[1:], L)
    if np.any(delta_next <= 0):
        raise ContractViolation("ratio audit needs delta_{k+1} > 0")
    eps = epsilon_coeff(g[:-1], delta_next, c, L)
    ell = float(np.max(eps * (1.0 / delta_next + 2.0 / problem.nu)))
    omega = 2.0 * ell / (math.sqrt(ell * ell + 4.0 * ell) + ell)

    max_ratio = -math.inf
    n_checked = 0
    for j in range(len(xi) - 1):
        if xi[j] > floor:
            max_ratio = max(max_ratio, xi[j + 1] / xi[j])
            n_checked += 1
    if n_checked == 0:
        raise ContractViolation("no steps above the rounding floor to check")
    return {
        "ell": float(ell),
        "omega_bound": float(omega),
        "max_ratio": float(max_ratio),
        "n_steps": n_checked,
        "ok": bool(max_ratio <= omega),
    }


def value_floor(f_star: float, scale: float = 1e-14) -> float:
    """Truncation level below which log-fits would model rounding noise."""
    return scale * (1.0 + abs(f_star))


def select_window(ks, values, k_lo=None, k_hi=None, floor: float = 0.0):
    """Restrict a (k, value) series to a window and drop floored values."""
    ks = np.asarray(ks)
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(ks), dtype=bool)
    if k_lo is not None:
        mask &= ks >= k_lo
    if k_hi is not None:
        mask &= ks <= k_hi
    mask &= values > floor
    return ks[mask], values[mask]


def fit_rate(ks, values, model: str, burn_in_frac: float = 0.0) -> RateEstimate:
    """Least-squares decay fit in log space.

    sublinear_power: slope of log(value) vs log(k), reported as p with
    value ~ C*k^-p.  geometric: slope of log(value) vs k, reported as
    omega = exp(slope).  A burn-in fraction drops iterations below
    burn_in_frac*max(k) before fitting (the guarantees are asymptotic).
    """
    if model not in ("sublinear_power", "geometric"):
        raise ContractViolation(f"unknown rate model {model!r}")
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ks) != len(values):
        raise ContractViolation("ks and values must have equal length")
    if burn_in_frac < 0 or burn_in_frac >= 1:
        raise ContractViolation("burn_in_frac must lie in [0, 1)")
    if burn_in_frac > 0 and len(ks):
        keep = ks >= burn_in_frac * ks[-1]
        ks, values = ks[keep], values[keep]
    if len(ks) < 10:
        raise ContractViolation("rate fit needs at least 10 points")
    if np.any(values <= 0):
        raise ContractViolation(
            "rate fit needs positive values; truncate at the rounding floor first")
    if np.any(np.diff(ks) <= 0):
        raise ContractViolation("ks must be strictly increasing")
    logv = np.log(values)
    if model == "sublinear_power":
        if ks[0] < 1:
            raise ContractViolation("sublinear fit needs k >= 1")
        t = np.log(ks)
    else:
        t = ks
    slope, intercept = np.polyfit(t, logv, 1)
    resid = logv - (slope * t + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    value = -slope if model == "sublinear_power" else math.exp(slope)
    return RateEstimate(model=model, exponent_or_ratio=float(value),
                        fit_residual=rms, window=(int(ks[0]), int(ks[-1])))
