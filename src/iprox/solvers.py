"""The three iterative schemes: full, cyclic, and stochastic inertial prox-gradient.

The three runners share one run loop.  Iteration k reads F(x^k), guards
against divergence, records an entry when asked to, and then moves to
x^{k+1} through the order's public step function: :func:`inertial_step`,
:func:`cyclic_epoch` or :func:`stochastic_step`.  A small per-order
policy supplies what differs: the step, the stepsize (scalar, one per
block, or fixed with beta from nu), the weights in the slack and
Lyapunov formulas (the full order is the stochastic formula at m = 1),
how often the oracle state is refreshed, and the extra Trace fields.

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
recorded entry and at the start of every epoch (every full step, each
cyclic epoch, every m stochastic steps), which bounds the rounding drift
of an image kept up to date by block moves; with m = 1 every step
refreshes.  meta["matvec_equiv"] holds the work the run's oracle state
counted.

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
    prox_block,
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


_COLUMNS = ("ks", "F", "residual_sq", "betas", "gammas", "lyapunov", "step_sq",
            "descent_slack")
_INT_COLUMNS = {"ks": np.int64, "chosen_blocks": np.int64}


class _Builder:
    def __init__(self, keep_iterates: bool, extra: tuple):
        # the common columns, then the order's extra Trace fields
        self.columns = {name: [] for name in _COLUMNS + extra}
        self.lists = tuple(self.columns.values())
        self.iterates = [] if keep_iterates else None

    def add(self, x, *values):
        for col, v in zip(self.lists, values):
            col.append(v)
        if self.iterates is not None:
            self.iterates.append(x.copy())

    def build(self, final_state, meta) -> Trace:
        arrays = {name: np.asarray(vals, dtype=_INT_COLUMNS.get(name, float))
                  for name, vals in self.columns.items()}
        return Trace(**arrays, final_state=final_state, meta=meta,
                     iterates=self.iterates)


def _forward(x, grad, x_prev, gamma, beta):
    # Shared forward candidate: x - gamma*grad + beta*(x - x_prev).  The
    # momentum add is skipped when beta == 0.0 so a no-inertia run is
    # bit-identical to a plain forward-backward step.
    v = x - gamma * grad
    if beta != 0.0:
        v += beta * (x - x_prev)
    return v


def _check_grad(grad, k: int):
    # count_nonzero takes half the time of ndarray.all() on short vectors
    if np.count_nonzero(np.isfinite(grad)) != grad.size:
        raise DivergenceError("non-finite gradient", k=k)


def inertial_step(problem: CompositeProblem, state: IterateState,
                  gamma: float, beta: float, oracle=None) -> np.ndarray:
    """One full-vector step: prox_{gamma*g}(x - gamma*grad f(x) + beta*(x - x_prev)).

    ``oracle`` is an oracle state describing state.x_curr, which gives
    grad f(x); without one, the problem's gradient oracle gives it.
    """
    if not (0.0 <= beta < 1.0):
        raise ContractViolation("inertial_step needs beta in [0, 1)")
    x = state.x_curr
    grad = grad_f(problem, x) if oracle is None else oracle.full_grad(x)
    _check_grad(grad, state.k)
    return prox_full(problem, _forward(x, grad, state.x_prev, gamma, beta), gamma)


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
        x_i = prox_block(problem, i, v, gammas[i])
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
    x_i = prox_block(problem, i, v, gamma)
    oracle.move(i, x_i - x[ix])
    x[ix] = x_i
    return x, i


class _FullOrder:
    """The policy of the full order, gamma_k = 2(1-beta_k)c/L.

    A policy gives the run loop what differs between orders.  params(k)
    gives (beta_k, gamma_k).  step takes the pair (x^k, x^{k-1}) to
    x^{k+1} through the order's public step function and returns it with
    its measure s_{k+1} = ||x^{k+1} - x^k||^2, per block in the cyclic
    order.  entry gives a recorded entry's lyapunov (xi_k - min F),
    step_sq and descent_slack values, then its values of the Trace fields
    named in ``extra``.  The oracle state is refreshed at least every
    ``epoch`` steps; the full step moves every block, so here that is
    every step.  The full formulas are the stochastic ones at m = 1.
    """

    variant = "full"
    extra = ()
    epoch = 1
    step_sq0 = 0.0

    def __init__(self, problem: CompositeProblem, schedule: ParamSchedule):
        self.problem = problem
        self.schedule = schedule
        self.c = schedule.c
        self.L = problem.lipschitz_L
        # lyapunov values are reported relative to min F when it is known;
        # otherwise the column is left unshifted and meta records that
        self.f_star = problem.f_star if problem.f_star is not None else 0.0
        self.m = 1
        self.root_m = 1.0
        self.meta = {}

    def params(self, k: int):
        beta = beta_at(self.schedule, k)
        return beta, gamma_full(beta, self.c, self.L)

    def step(self, state, beta, gamma, oracle):
        x_next = inertial_step(self.problem, state, gamma, beta, oracle)
        d = x_next - state.x_curr
        return x_next, float(d @ d)

    def entry(self, prev, F_val, s, beta, gamma):
        xi = F_val + delta_coeff(gamma, self.L) * s - self.f_star
        if prev is None:
            return xi, s, 0.0
        Fp, sp, bp, gp = prev
        r = self.root_m
        return xi, s, ((Fp + bp / (2.0 * r * gp) * sp)
                       - (F_val + beta / (2.0 * r * gamma) * s)
                       - ((1.0 - bp / r) / gp - self.L / 2.0) * s)


class _CyclicOrder(_FullOrder):
    """Epoch k moves every block in turn with gamma_{k,i} = 2(1-beta_k)c/L_i.

    A move is measured per block, and the lyapunov and slack formulas
    weight each block by its own stepsize.
    """

    variant = "cyclic"
    extra = ("block_step_sq",)

    def __init__(self, problem: CompositeProblem, schedule: ParamSchedule):
        super().__init__(problem, schedule)
        self.m = problem.n_blocks
        self.L_blocks = np.asarray(problem.block_lipschitz, dtype=float)
        self.L_min = float(self.L_blocks.min())
        self.step_sq0 = np.zeros(self.m)

    def params(self, k: int):
        beta = beta_at(self.schedule, k)
        return beta, 2.0 * (1.0 - beta) * self.c / self.L_blocks

    def step(self, state, beta, gammas, oracle):
        x = state.x_curr
        x_next = cyclic_epoch(self.problem, state, gammas, np.full(self.m, beta), oracle)
        # d @ d, not sum(d**2): keeps the m = 1 trace bit-identical to the
        # full order, which uses the dot-product form
        return x_next, np.array([float((x_next[ix] - x[ix]) @ (x_next[ix] - x[ix]))
                                 for ix in self.problem.block_index_arrays])

    def entry(self, prev, F_val, sb, beta, gammas):
        deltas = 0.5 * (1.0 / gammas - self.L_blocks / 2.0)
        xi = F_val + float((deltas * sb).sum()) - self.f_star
        s = float(sb.sum())
        if prev is None:
            return xi, s, 0.0, sb
        Fp, sbp, bp, gp = prev
        return xi, s, ((Fp + float((bp / (2.0 * gp) * sbp).sum()))
                       - (F_val + float((beta / (2.0 * gammas) * sb).sum()))
                       - (1.0 - self.c) * self.L_min / (2.0 * self.c) * s), sb


class _StochasticOrder(_FullOrder):
    """Step k moves one uniformly drawn block with
    gamma_k = 2(1-beta_k/sqrt(m))c/L, or in the fixed-gamma regime with
    (beta_fixed, fixed_gamma); m steps make one epoch."""

    variant = "stochastic"
    extra = ("chosen_blocks", "step_sq_running_min")

    def __init__(self, problem: CompositeProblem, schedule: ParamSchedule,
                 seed: int, beta_fixed):
        super().__init__(problem, schedule)
        self.m = self.epoch = problem.n_blocks
        self.root_m = math.sqrt(self.m)
        self.fixed = schedule.fixed_gamma
        self.beta_fixed = beta_fixed
        self.rng = SplitMix64(seed)
        self.chosen = -1  # the block whose move led to the current iterate
        self.run_min = math.inf
        self.meta = {"seed": seed, "fixed_gamma": self.fixed}

    def params(self, k: int):
        if self.fixed is not None:
            return self.beta_fixed, self.fixed
        beta = beta_at(self.schedule, k)
        return beta, gamma_stochastic(beta, self.c, self.L, self.m)

    def step(self, state, beta, gamma, oracle):
        x_next, self.chosen = stochastic_step(self.problem, state, gamma, beta,
                                              self.rng, oracle)
        d = x_next - state.x_curr
        s = float(d @ d)
        self.run_min = min(self.run_min, s)
        return x_next, s

    def entry(self, prev, F_val, s, beta, gamma):
        return (_FullOrder.entry(self, prev, F_val, s, beta, gamma)
                + (self.chosen, self.run_min))


def _residual_sq(problem, x, grad, gamma_audit) -> float:
    s = x - prox_full(problem, x - gamma_audit * grad, gamma_audit)
    return float(s @ s)


def _run(problem: CompositeProblem, x0, cfg: RunConfig, order) -> Trace:
    # The one run loop: F, the divergence guard, the residual and the entry
    # at x^k, then the order's step into x^{k+1}.
    x0 = np.asarray(x0, dtype=float)
    g_audit = 1.0 / problem.lipschitz_L
    b = _Builder(cfg.keep_iterates, order.extra)

    oracle = oracle_state(problem)
    stop_tol, record_every, max_iters = cfg.stop_tol, cfg.record_every, cfg.max_iters
    x_prev = x0.copy()
    x = x0.copy()
    s = order.step_sq0
    prev = None  # (F, s, beta, gamma) of the previous iterate
    F0 = None
    k = 0
    while True:
        beta, gamma = order.params(k)
        want_entry = (k % record_every == 0) or (k == max_iters)
        need_grad = want_entry or stop_tol > 0.0
        if need_grad or k % order.epoch == 0:
            oracle.refresh(x)
        if need_grad:
            F_val, grad = oracle.value_grad(x)
        else:
            F_val = oracle.value(x)
        F_val += float(problem.nonsmooth_value(x))
        if F0 is None:
            F0, F_cap = F_val, DIVERGENCE_FACTOR * max(1.0, abs(F_val))
        if not math.isfinite(F_val) or F_val > F_cap:
            raise DivergenceError(
                f"objective blew up at iteration {k}: F={F_val!r} from F0={F0!r}",
                k=k, value=F_val)

        rsq = None
        if need_grad:
            _check_grad(grad, k)
            rsq = _residual_sq(problem, x, grad, g_audit)
        stopping = stop_tol > 0.0 and rsq <= stop_tol ** 2
        if want_entry or stopping:
            b.add(x, k, F_val, rsq, beta, gamma,
                  *order.entry(prev, F_val, s, beta, gamma))
        if stopping or k == max_iters:
            break

        prev = (F_val, s, beta, gamma)
        x_next, s = order.step(IterateState(x, x_prev, k), beta, gamma, oracle)
        x_prev, x = x, x_next
        k += 1

    meta = {
        "variant": order.variant, "L": problem.lipschitz_L, "c": order.c,
        "m": order.m, "block_lipschitz": tuple(problem.block_lipschitz),
        "f_star": problem.f_star, "record_every": cfg.record_every,
        "stop_tol": cfg.stop_tol, **order.meta,
        "matvec_equiv": oracle.matvec_equiv,
    }
    return b.build(IterateState(x.copy(), x_prev.copy(), k), meta)


def run_inertial(problem: CompositeProblem, schedule: ParamSchedule,
                 x0, cfg: RunConfig) -> Trace:
    """Full-vector inertial prox-gradient run with gamma_k = 2(1-beta_k)c/L."""
    if schedule.variant != "full":
        raise ContractViolation("run_inertial needs schedule.variant == 'full'")
    return _run(problem, x0, cfg, _FullOrder(problem, schedule))


def run_cyclic(problem: CompositeProblem, schedule: ParamSchedule,
               x0, cfg: RunConfig) -> Trace:
    """Cyclic block run; epoch k uses gamma_{k,i} = 2(1-beta_k)c/L_i.

    The lyapunov column holds the block-weighted value
    F(x^k) + sum_i delta_{k,i}*||x_i^k - x_i^{k-1}||^2 - min F with
    delta_{k,i} = (1/gamma_{k,i} - L_i/2)/2.
    """
    if schedule.variant != "cyclic":
        raise ContractViolation("run_cyclic needs schedule.variant == 'cyclic'")
    return _run(problem, x0, cfg, _CyclicOrder(problem, schedule))


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
    m = problem.n_blocks
    if schedule.m != m:
        raise ContractViolation(
            f"schedule.m={schedule.m} disagrees with problem blocks m={m}")
    beta_fixed = None
    if schedule.fixed_gamma is not None:
        if problem.nu is None:
            raise ContractViolation("fixed_gamma regime needs problem.nu")
        beta_fixed = linear_stochastic_beta(schedule.fixed_gamma, problem.nu, m)
    return _run(problem, x0, cfg,
                _StochasticOrder(problem, schedule, cfg.seed, beta_fixed))
