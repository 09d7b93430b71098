"""The three iterative schemes: full, cyclic, and stochastic inertial prox-gradient.

Each run produces a Trace whose per-entry columns are enough to replay the
convergence audits in :mod:`iprox.diagnostics` without re-running:

    k, F(x^k), lyapunov xi_k, ||x^k - x^{k-1}||^2, ||S_{1/L}(x^k)||^2,
    descent slack of the step into x^k,

plus the schedule values (beta_k, gamma_k or per-block gamma_{k,i}) actually
used at each recorded iteration.  The optimality residual S uses the fixed
audit stepsize 1/L throughout: S_gamma(x) vanishes exactly at minimizers of
F for any gamma > 0, so the choice only rescales the stopping rule.

The smooth part is read through a per-run oracle state
(:func:`iprox.problems.oracle_state`).  It is refreshed from x at every
recorded entry and at the start of every epoch (each cyclic epoch, every m
stochastic steps), which bounds the rounding drift of an image kept up to
date by block moves; with m = 1 every step refreshes.  meta["matvec_equiv"]
holds the work the run's oracle state counted.

A single run is strictly sequential; concurrent runs are safe because all
inputs are immutable and per-run state is private.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation, DivergenceError
from .problems import (
    CompositeProblem,
    IterateState,
    grad_f,
    oracle_state,
    prox_full,
)
from .rng import SplitMix64
from .schedules import (
    ParamSchedule,
    beta_at,
    delta_coeff,
    gamma_full,
    gamma_stochastic,
    linear_stochastic_beta,
)

DIVERGENCE_FACTOR = 1e10


@dataclass
class RunConfig:
    """Run-length and recording knobs shared by all variants.

    stop_tol is an absolute threshold on ||S_{1/L}(x^k)||; 0 disables early
    stopping.  seed drives block selection in the stochastic variant only.
    keep_iterates retains a copy of x^k per recorded entry (dense-record
    mode needed by the squared-Lyapunov audit).
    """

    max_iters: int
    record_every: int = 1
    stop_tol: float = 0.0
    seed: int = 0
    keep_iterates: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be >= 1")
        if self.record_every < 1:
            raise ContractViolation("record_every must be >= 1")
        if self.stop_tol < 0:
            raise ContractViolation("stop_tol must be >= 0")


@dataclass
class Trace:
    """Columnar record of one run; arrays share the same length.

    gammas has shape (entries,) for full/stochastic runs and (entries, m)
    for cyclic runs; block_step_sq is cyclic-only, chosen_blocks and
    step_sq_running_min are stochastic-only (block/-1 and running minimum
    over all steps taken so far; +inf in the k=0 slot where no step
    exists).  descent_slack[j] is the slack of the descent inequality for
    the transition into iterate ks[j] (0.0 at k=0).
    """

    ks: np.ndarray
    F: np.ndarray
    lyapunov: np.ndarray
    step_sq: np.ndarray
    residual_sq: np.ndarray
    descent_slack: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray
    final_state: IterateState
    meta: dict
    block_step_sq: Optional[np.ndarray] = None
    chosen_blocks: Optional[np.ndarray] = None
    step_sq_running_min: Optional[np.ndarray] = None
    iterates: Optional[list] = field(default=None, repr=False)


class _Builder:
    def __init__(self, keep_iterates: bool):
        self.rows = {
            "ks": [], "F": [], "lyapunov": [], "step_sq": [],
            "residual_sq": [], "descent_slack": [], "betas": [], "gammas": [],
        }
        self.block_step_sq = []
        self.chosen_blocks = []
        self.running_min = []
        self.iterates = [] if keep_iterates else None

    def add(self, k, F_val, xi, s, rsq, slack, beta, gamma, x=None,
            block_s=None, chosen=None, run_min=None):
        r = self.rows
        r["ks"].append(k)
        r["F"].append(F_val)
        r["lyapunov"].append(xi)
        r["step_sq"].append(s)
        r["residual_sq"].append(rsq)
        r["descent_slack"].append(slack)
        r["betas"].append(beta)
        r["gammas"].append(gamma)
        if block_s is not None:
            self.block_step_sq.append(block_s)
        if chosen is not None:
            self.chosen_blocks.append(chosen)
        if run_min is not None:
            self.running_min.append(run_min)
        if self.iterates is not None:
            self.iterates.append(x.copy())

    def build(self, final_state, meta) -> Trace:
        r = self.rows
        return Trace(
            ks=np.asarray(r["ks"], dtype=np.int64),
            F=np.asarray(r["F"], dtype=float),
            lyapunov=np.asarray(r["lyapunov"], dtype=float),
            step_sq=np.asarray(r["step_sq"], dtype=float),
            residual_sq=np.asarray(r["residual_sq"], dtype=float),
            descent_slack=np.asarray(r["descent_slack"], dtype=float),
            betas=np.asarray(r["betas"], dtype=float),
            gammas=np.asarray(r["gammas"], dtype=float),
            final_state=final_state,
            meta=meta,
            block_step_sq=(np.asarray(self.block_step_sq, dtype=float)
                           if self.block_step_sq else None),
            chosen_blocks=(np.asarray(self.chosen_blocks, dtype=np.int64)
                           if self.chosen_blocks else None),
            step_sq_running_min=(np.asarray(self.running_min, dtype=float)
                                 if self.running_min else None),
            iterates=self.iterates,
        )


def _forward(x, grad, x_prev, gamma, beta):
    # Shared forward candidate: x - gamma*grad + beta*(x - x_prev).  The
    # momentum add is skipped when beta == 0.0 so a no-inertia run is
    # bit-identical to a plain forward-backward step.
    v = x - gamma * grad
    if beta != 0.0:
        v = v + beta * (x - x_prev)
    return v


def _check_grad(grad, k: int):
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite gradient", k=k)


def inertial_step(problem: CompositeProblem, state: IterateState,
                  gamma: float, beta: float) -> np.ndarray:
    """One full-vector step: prox_{gamma*g}(x - gamma*grad f(x) + beta*(x - x_prev))."""
    if not (0.0 <= beta < 1.0):
        raise ContractViolation("inertial_step needs beta in [0, 1)")
    grad = grad_f(problem, state.x_curr)
    _check_grad(grad, state.k)
    return prox_full(problem, _forward(state.x_curr, grad, state.x_prev, gamma, beta), gamma)


def cyclic_epoch(problem: CompositeProblem, state: IterateState,
                 gammas, betas, oracle=None) -> np.ndarray:
    """One epoch of block updates in fixed order with fresh gradients.

    Block i's gradient is evaluated after blocks 0..i-1 have already been
    updated within the epoch (Gauss-Seidel order); a Jacobi variant is
    deliberately not provided because the descent analysis relies on the
    fresh evaluation.  ``oracle`` is an oracle state describing
    state.x_curr; each block move is applied to it.  Without one, a fresh
    state is refreshed at state.x_curr.
    """
    m = problem.n_blocks
    gammas = np.asarray(gammas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if gammas.shape != (m,) or betas.shape != (m,):
        raise ContractViolation("need one gamma and beta per block")
    if np.any(gammas <= 0) or np.any((betas < 0) | (betas >= 1)):
        raise ContractViolation("cyclic_epoch needs gammas > 0 and betas in [0, 1)")
    x = state.x_curr.copy()
    if oracle is None:
        oracle = oracle_state(problem)
        oracle.refresh(x)
    for i, ix in enumerate(problem.block_index_arrays):
        grad = oracle.block_grad(i, x)
        _check_grad(grad, state.k)
        v = _forward(x[ix], grad, state.x_prev[ix], gammas[i], betas[i])
        x_i = problem.prox(i, v, gammas[i])
        oracle.move(i, x_i - x[ix])
        x[ix] = x_i
    return x


def stochastic_step(problem: CompositeProblem, state: IterateState,
                    gamma: float, beta: float, rng: SplitMix64, oracle=None):
    """One uniformly chosen block update; returns (x_next, block index).

    The block gradient is evaluated at the pre-step point x^k, and
    non-selected coordinates are carried over exactly.  ``oracle`` is as
    in :func:`cyclic_epoch`; the block move is applied to it.
    """
    m = problem.n_blocks
    if not (0.0 <= beta < math.sqrt(m)):
        raise ContractViolation("stochastic_step needs beta in [0, sqrt(m))")
    i = rng.randint_below(m)
    ix = problem.block_index_arrays[i]
    x = state.x_curr.copy()
    if oracle is None:
        oracle = oracle_state(problem)
        oracle.refresh(x)
    grad = oracle.block_grad(i, x)
    _check_grad(grad, state.k)
    v = _forward(x[ix], grad, state.x_prev[ix], gamma, beta)
    x_i = problem.prox(i, v, gamma)
    oracle.move(i, x_i - x[ix])
    x[ix] = x_i
    return x, i


def _guard(F_val: float, F0: float, k: int):
    if not math.isfinite(F_val) or F_val > DIVERGENCE_FACTOR * max(1.0, abs(F0)):
        raise DivergenceError(
            f"objective blew up at iteration {k}: F={F_val!r} from F0={F0!r}",
            k=k, value=F_val,
        )


def _values(problem, oracle, x, need_grad):
    # F(x) from the oracle's current image, with grad f(x) when asked for
    if need_grad:
        f_val, grad = oracle.value_grad(x)
    else:
        f_val, grad = oracle.value(x), None
    return f_val + float(problem.nonsmooth_value(x)), grad


def _residual_sq(problem, x, grad, gamma_audit) -> float:
    s = x - prox_full(problem, x - gamma_audit * grad, gamma_audit)
    return float(s @ s)


def _f_star_shift(problem) -> float:
    # Lyapunov values are reported relative to min F when it is known;
    # otherwise the column is left unshifted and meta records that.
    return problem.f_star if problem.f_star is not None else 0.0


def run_inertial(problem: CompositeProblem, schedule: ParamSchedule,
                 x0, cfg: RunConfig) -> Trace:
    """Full-vector inertial prox-gradient run with gamma_k = 2(1-beta_k)c/L."""
    if schedule.variant != "full":
        raise ContractViolation("run_inertial needs schedule.variant == 'full'")
    x0 = np.asarray(x0, dtype=float)
    L = problem.lipschitz_L
    c = schedule.c
    g_audit = 1.0 / L
    f_star = _f_star_shift(problem)
    b = _Builder(cfg.keep_iterates)

    oracle = oracle_state(problem)
    x_prev = x0.copy()
    x = x0.copy()
    s = 0.0
    prev = None  # (F, s, beta, gamma) of the previous iterate
    F0 = None
    k = 0
    while True:
        oracle.refresh(x)
        F_val, grad = _values(problem, oracle, x, True)
        _check_grad(grad, k)
        beta = beta_at(schedule, k)
        gamma = gamma_full(beta, c, L)
        if F0 is None:
            F0 = F_val
        _guard(F_val, F0, k)

        want_entry = (k % cfg.record_every == 0) or (k == cfg.max_iters)
        rsq = None
        if want_entry or cfg.stop_tol > 0.0:
            rsq = _residual_sq(problem, x, grad, g_audit)
        stopping = cfg.stop_tol > 0.0 and rsq <= cfg.stop_tol ** 2
        if want_entry or stopping:
            slack = 0.0
            if prev is not None:
                Fp, sp, bp, gp = prev
                slack = ((Fp + bp / (2.0 * gp) * sp)
                         - (F_val + beta / (2.0 * gamma) * s)
                         - ((1.0 - bp) / gp - L / 2.0) * s)
            xi = F_val + delta_coeff(gamma, L) * s - f_star
            b.add(k, F_val, xi, s, rsq, slack, beta, gamma, x=x)
        if stopping or k == cfg.max_iters:
            break

        x_next = prox_full(problem, _forward(x, grad, x_prev, gamma, beta), gamma)
        d = x_next - x
        s_next = float(d @ d)
        prev = (F_val, s, beta, gamma)
        x_prev, x, s = x, x_next, s_next
        k += 1

    meta = {
        "variant": "full", "L": L, "c": c, "m": 1,
        "block_lipschitz": tuple(problem.block_lipschitz),
        "f_star": problem.f_star, "record_every": cfg.record_every,
        "stop_tol": cfg.stop_tol, "matvec_equiv": oracle.matvec_equiv,
    }
    return b.build(IterateState(x.copy(), x_prev.copy(), k), meta)


def run_cyclic(problem: CompositeProblem, schedule: ParamSchedule,
               x0, cfg: RunConfig) -> Trace:
    """Cyclic block run; epoch k uses gamma_{k,i} = 2(1-beta_k)c/L_i.

    The lyapunov column holds the block-weighted value
    F(x^k) + sum_i delta_{k,i}*||x_i^k - x_i^{k-1}||^2 - min F with
    delta_{k,i} = (1/gamma_{k,i} - L_i/2)/2.
    """
    if schedule.variant != "cyclic":
        raise ContractViolation("run_cyclic needs schedule.variant == 'cyclic'")
    x0 = np.asarray(x0, dtype=float)
    m = problem.n_blocks
    L = problem.lipschitz_L
    L_blocks = np.asarray(problem.block_lipschitz, dtype=float)
    L_min = float(L_blocks.min())
    c = schedule.c
    g_audit = 1.0 / L
    f_star = _f_star_shift(problem)
    ix_all = problem.block_index_arrays
    b = _Builder(cfg.keep_iterates)

    oracle = oracle_state(problem)
    x_prev = x0.copy()
    x = x0.copy()
    sb = np.zeros(m)  # per-block ||x_i^k - x_i^{k-1}||^2
    prev = None  # (F, sb, beta, gammas) of the previous iterate
    F0 = None
    k = 0
    while True:
        beta = beta_at(schedule, k)
        gammas = 2.0 * (1.0 - beta) * c / L_blocks
        want_entry = (k % cfg.record_every == 0) or (k == cfg.max_iters)
        need_grad = want_entry or cfg.stop_tol > 0.0
        oracle.refresh(x)  # every epoch starts from a fresh image
        F_val, grad = _values(problem, oracle, x, need_grad)
        if F0 is None:
            F0 = F_val
        _guard(F_val, F0, k)

        rsq = None
        if need_grad:
            _check_grad(grad, k)
            rsq = _residual_sq(problem, x, grad, g_audit)
        stopping = cfg.stop_tol > 0.0 and rsq <= cfg.stop_tol ** 2
        if want_entry or stopping:
            slack = 0.0
            if prev is not None:
                Fp, sbp, bp, gp = prev
                s_tot = float(sb.sum())
                slack = ((Fp + float(np.sum(bp / (2.0 * gp) * sbp)))
                         - (F_val + float(np.sum(beta / (2.0 * gammas) * sb)))
                         - (1.0 - c) * L_min / (2.0 * c) * s_tot)
            deltas = 0.5 * (1.0 / gammas - L_blocks / 2.0)
            xi = F_val + float(np.sum(deltas * sb)) - f_star
            b.add(k, F_val, xi, float(sb.sum()), rsq, slack, beta, gammas.copy(),
                  x=x, block_s=sb.copy())
        if stopping or k == cfg.max_iters:
            break

        state = IterateState(x, x_prev, k)
        x_next = cyclic_epoch(problem, state, gammas, np.full(m, beta), oracle)
        # d @ d, not sum(d**2): keeps the m = 1 trace bit-identical to the
        # full variant, which uses the dot-product form
        sb_next = np.array([float((x_next[ix] - x[ix]) @ (x_next[ix] - x[ix]))
                            for ix in ix_all])
        prev = (F_val, sb, beta, gammas)
        x_prev, x, sb = x, x_next, sb_next
        k += 1

    meta = {
        "variant": "cyclic", "L": L, "c": c, "m": m,
        "block_lipschitz": tuple(problem.block_lipschitz),
        "f_star": problem.f_star, "record_every": cfg.record_every,
        "stop_tol": cfg.stop_tol, "matvec_equiv": oracle.matvec_equiv,
    }
    return b.build(IterateState(x.copy(), x_prev.copy(), k), meta)


def run_stochastic(problem: CompositeProblem, schedule: ParamSchedule,
                   x0, cfg: RunConfig) -> Trace:
    """Uniform random single-block run.

    Default regime: gamma_k = 2(1-beta_k/sqrt(m))c/L.  When
    schedule.fixed_gamma is set the run switches to the linear-rate
    regime: constant gamma = fixed_gamma with constant inertia
    beta = gamma*nu/(4m) taken from the problem's nu.

    Per-entry descent_slack holds the single-realization slack of the
    expectation-level descent inequality; it is only meaningful after
    averaging traces over seeds.
    """
    if schedule.variant != "stochastic":
        raise ContractViolation("run_stochastic needs schedule.variant == 'stochastic'")
    x0 = np.asarray(x0, dtype=float)
    m = problem.n_blocks
    if schedule.m != m:
        raise ContractViolation(
            f"schedule.m={schedule.m} disagrees with problem blocks m={m}")
    L = problem.lipschitz_L
    c = schedule.c
    root_m = math.sqrt(m)
    g_audit = 1.0 / L
    f_star = _f_star_shift(problem)
    rng = SplitMix64(cfg.seed)
    b = _Builder(cfg.keep_iterates)

    fixed = schedule.fixed_gamma
    beta_fixed = None
    if fixed is not None:
        if problem.nu is None:
            raise ContractViolation("fixed_gamma regime needs problem.nu")
        beta_fixed = linear_stochastic_beta(fixed, problem.nu, m)

    oracle = oracle_state(problem)
    x_prev = x0.copy()
    x = x0.copy()
    s = 0.0
    run_min = math.inf
    prev = None
    chosen_in = -1
    F0 = None
    k = 0
    while True:
        if fixed is not None:
            beta, gamma = beta_fixed, fixed
        else:
            beta = beta_at(schedule, k)
            gamma = gamma_stochastic(beta, c, L, m)
        want_entry = (k % cfg.record_every == 0) or (k == cfg.max_iters)
        need_grad = want_entry or cfg.stop_tol > 0.0
        if need_grad or k % m == 0:  # m steps make one epoch
            oracle.refresh(x)
        F_val, grad = _values(problem, oracle, x, need_grad)
        if F0 is None:
            F0 = F_val
        _guard(F_val, F0, k)

        rsq = None
        if need_grad:
            _check_grad(grad, k)
            rsq = _residual_sq(problem, x, grad, g_audit)
        stopping = cfg.stop_tol > 0.0 and rsq <= cfg.stop_tol ** 2
        if want_entry or stopping:
            slack = 0.0
            if prev is not None:
                Fp, sp, bp, gp = prev
                slack = ((Fp + bp / (2.0 * root_m * gp) * sp)
                         - (F_val + beta / (2.0 * root_m * gamma) * s)
                         - ((1.0 - bp / root_m) / gp - L / 2.0) * s)
            xi = F_val + delta_coeff(gamma, L) * s - f_star
            b.add(k, F_val, xi, s, rsq, slack, beta, gamma, x=x,
                  chosen=chosen_in, run_min=run_min)
        if stopping or k == cfg.max_iters:
            break

        x_next, i = stochastic_step(problem, IterateState(x, x_prev, k),
                                    gamma, beta, rng, oracle)
        d = x_next - x
        s_next = float(d @ d)
        run_min = min(run_min, s_next)
        prev = (F_val, s, beta, gamma)
        chosen_in = i
        x_prev, x, s = x, x_next, s_next
        k += 1

    meta = {
        "variant": "stochastic", "L": L, "c": c, "m": m,
        "block_lipschitz": tuple(problem.block_lipschitz),
        "f_star": problem.f_star, "record_every": cfg.record_every,
        "stop_tol": cfg.stop_tol, "seed": cfg.seed,
        "fixed_gamma": fixed, "matvec_equiv": oracle.matvec_equiv,
    }
    return b.build(IterateState(x.copy(), x_prev.copy(), k), meta)
