"""The three iterative schemes: full, cyclic, and stochastic inertial prox-gradient.

The three runners share one run loop.  Iteration k reads F(x^k), guards
against divergence, records an entry when asked to, and then moves to
x^{k+1} by the step of a small per-order policy, the one copy of the
order's update rule: x^{k+1} = prox_{gamma*g}(x - gamma*grad f(x) +
beta*(x - x_prev)) in the full order, that move on each block in turn in
the cyclic order, and on one uniformly drawn block in the stochastic one.
The policy also supplies the stepsize (the one rule 2(1-beta/r)c/L with
r = sqrt(m) or 1, per block in the cyclic order, or fixed with beta from
nu), the weights in the slack and Lyapunov formulas (the full order is
the stochastic formula at m = 1), how often the oracle state is
refreshed, and the extra Trace fields.

A run checks each thing once: x0 before the loop, each gradient where
it is read (a whole one by the loop, a block's by the block step that
computed it), and the fixed-gamma beta = gamma*nu/(4m) < sqrt(m) when
the stochastic order is set up.  The schedule's other rules are its
constructors', so (beta_k, gamma_k) come from unchecked formulas, once
per run for a constant beta.  Steps reach a block
through the problem's block selectors (a slice for a contiguous block),
and the stochastic order draws its blocks _DRAWS at a time with
:meth:`iprox.rng.SplitMix64.randint_below_batch`.

Entries are recorded in blocks.  At an entry the loop copies x^k and
grad f(x^k) into two per-run (rows, n) buffers of at most 8,192 floats
(64 KiB) each, and appends the entry's scalars; when the buffers are full,
and at the run's end, the residuals (one prox call), the Lyapunov and
slack values and, on a problem with a solution_set, dist(x^k, argmin F)^2
of the whole block are computed as numpy columns, in the operation order
of a per-entry computation, so the trace is the same bit for bit.  Under
stop_tol the loop also computes the residual of every step's x, by the
same function, only to decide when to stop.

Each run produces a Trace whose per-entry columns are enough to replay the
convergence audits in :mod:`iprox.diagnostics` without re-running:

    k, F(x^k), lyapunov xi_k, ||x^k - x^{k-1}||^2, ||S_{1/L}(x^k)||^2,
    descent slack of the step into x^k,

plus the schedule values (beta_k, gamma_k or per-block gamma_{k,i}) actually
used at each recorded iteration.  The optimality residual S uses the fixed
audit stepsize 1/L throughout: S_gamma(x) vanishes exactly at minimizers of
F for any gamma > 0, so the choice only rescales the stopping rule.

The smooth part is read through a per-run oracle state, an
:class:`iprox.problems.ImageOracle` over the problem's SmoothModel, by its
four primitives refresh, value, grad and move.  The loop has one rule: it
refreshes the image at every epoch start (each full or cyclic step, every
m stochastic steps) and wherever it reads a whole gradient (every full
step, entry and step under stop_tol), then takes the whole gradient, with
the image in one pass over A, where it needs it, and f.  Between
refreshes block moves keep the image up to date; the refresh bounds its
rounding drift, and with m = 1 every step refreshes.  So a stochastic
run's iterates depend, at rounding level, on which steps are entries;
full and cyclic runs do not.  A gradient the loop read serves the step's
first block move, and each later block's is read from the image.
meta["matvec_equiv"] holds the work the run's oracle state counted.

A single run is strictly sequential; concurrent runs are safe because all
inputs are immutable and per-run state is private.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation, DivergenceError
from .problems import (
    CompositeProblem,
    ImageOracle,
    IterateState,
    _check_dim,
    _g_value,
    _prox_full,
    _residual_sq,
    grad_f,  # read as solvers.grad_f by perfbench's test_tracer_restores_the_package
)
from .prox import _apply_kind
from .rng import SplitMix64
from .schedules import (
    ConstantBeta,
    ParamSchedule,
    beta_at,
    delta_coeff,
    linear_stochastic_beta,
    stepsize,
)

DIVERGENCE_FACTOR = 1e10
_DRAWS = 256  # stochastic blocks drawn per batch


@dataclass
class RunConfig:
    """Run-length and recording knobs shared by all variants.

    stop_tol is an absolute threshold on ||S_{1/L}(x^k)||; 0 disables early
    stopping.  seed drives block selection in the stochastic variant only.
    keep_iterates retains a copy of x^k per recorded entry, which costs n
    floats per entry.
    """

    max_iters: int
    record_every: int = 1
    stop_tol: float = 0.0
    seed: int = 0
    keep_iterates: bool = False

    def __post_init__(self):
        for name in ("max_iters", "record_every", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ContractViolation(f"{name} must be an integer")
            setattr(self, name, int(value))  # the same run for a numpy int
        if not 1 <= self.max_iters <= np.iinfo(np.intp).max:
            raise ContractViolation("max_iters must be >= 1 and no larger than numpy's index type")
        if self.record_every < 1:
            raise ContractViolation("record_every must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ContractViolation("seed must lie in [0, 2^64)")
        # a NaN fails every comparison, so it fails this one
        if not isinstance(self.stop_tol, numbers.Real) or not self.stop_tol >= 0:
            raise ContractViolation("stop_tol must be a real number >= 0")
        if not isinstance(self.keep_iterates, bool):
            raise ContractViolation("keep_iterates must be a bool")


@dataclass
class Trace:
    """Columnar record of one run; arrays share the same length.

    gammas has shape (entries,) for full/stochastic runs and (entries, m)
    for cyclic runs; block_step_sq is cyclic-only.  descent_slack[j] is
    the slack of the descent inequality for the transition into iterate
    ks[j] (0.0 at k=0).  dist_sq holds dist(x^k, argmin F)^2 per entry
    when the problem has a solution_set, the one quantity of the iterates
    the squared-Lyapunov audit reads, else None; like block_step_sq it is
    not written to the trace CSVs.
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
    dist_sq: Optional[np.ndarray] = None
    iterates: Optional[list] = field(default=None, repr=False)


_COLUMNS = ("ks", "F", "residual_sq", "betas", "gammas", "lyapunov", "step_sq",
            "descent_slack")
# an entry's values: k, then (F, s, beta, gamma) of x^k and of x^{k-1}
_ROW = ("ks", "F", "s", "betas", "gammas", "F_prev", "s_prev", "beta_prev", "gamma_prev")
_BLOCK_VALUES = 8192  # floats per block buffer of x^k or grad f(x^k): 64 KiB


class _Recorder:
    """Collects a run's entries and computes them a block of rows at a time,
    as the module docstring describes.  An entry appends its values, one
    per name of _ROW, to one flat list in one call."""

    def __init__(self, problem, order, cfg: RunConfig):
        rows = max(1, min(256, _BLOCK_VALUES // problem.dim))
        self.problem, self.order = problem, order
        self.X = np.empty((rows, problem.dim))
        self.G = np.empty((rows, problem.dim))
        # row views: writing one copies a vector in half the time X[j] = x takes
        self.x_rows, self.g_rows = list(self.X), list(self.G)
        self.values = []
        self.columns = {name: [] for name in _COLUMNS + order.extra
                        + (("dist_sq",) if problem.solution_set is not None else ())}
        self.iterates = [] if cfg.keep_iterates else None

    def add(self, x, grad, *values):
        j = len(self.values) // len(_ROW)
        if j == len(self.X):
            self.flush()
            j = 0
        self.x_rows[j][...] = x
        self.g_rows[j][...] = grad
        self.values.extend(values)

    def flush(self):
        w = len(_ROW)
        a = {name: np.array(self.values[i::w]) for i, name in enumerate(_ROW)}
        self.values.clear()
        X = self.X[:len(a["ks"])]
        a["residual_sq"] = _residual_sq(self.problem, X, self.G[:len(X)])
        a.update(self.order.entries(a))
        if self.problem.solution_set is not None:
            a["dist_sq"] = self.problem.solution_set.dist_sq(X)
        if self.iterates is not None:
            self.iterates.extend(X.copy())
        for name, blocks in self.columns.items():
            blocks.append(a[name])

    def build(self, final_state, meta) -> Trace:
        self.flush()
        arrays = {name: np.concatenate(blocks) for name, blocks in self.columns.items()}
        return Trace(**arrays, final_state=final_state, meta=meta, iterates=self.iterates)


def _check_grad(grad, k: int):
    # count_nonzero takes half the time of ndarray.all() on short vectors
    if np.count_nonzero(np.isfinite(grad)) != grad.size:
        raise DivergenceError("non-finite gradient", k=k)


def _block_move(order, x, x_prev, i, gamma, beta, oracle, k, grad):
    # Moves block i of x in place by the order's rule, and tells the oracle
    # state.  x is the step's own copy; x_prev and grad are only read.  grad
    # is the loop's checked gradient at x when no block of x has moved yet,
    # else None, and the oracle state gives block i's gradient, checked here.
    sel = order.sels[i]
    x_i = x[sel]
    if grad is None:
        grad_i = oracle.grad(x, i)
        _check_grad(grad_i, k)
    else:
        grad_i = grad[sel]
    v = x_i - gamma * grad_i
    if beta != 0.0:
        v += beta * (x_i - x_prev[sel])
    if order.kind is not None:
        v = _apply_kind(order.kind, v, gamma)
    oracle.move(i, v - x_i)
    x[sel] = v


class _FullOrder:
    """The policy of the full order, gamma_k = 2(1-beta_k)c/L.

    A policy gives the run loop what differs between orders.  params(k)
    gives (beta_k, gamma_k), gamma_k by the one stepsize rule with the
    order's root_m and L_gamma; when ``constant`` holds they are the
    same for every k and the loop takes them once.  step is the order's
    update rule: it takes the pair (x^k, x^{k-1}) to x^{k+1}, using the
    loop's checked gradient at x^k (grad, else None and the oracle state
    gives each block's), and returns x^{k+1} with its measure
    s_{k+1} = ||x^{k+1} - x^k||^2, per block in the cyclic order.  entries
    takes a block of recorded rows as columns named as in _Recorder and
    gives their lyapunov (xi_k - min F), step_sq and descent_slack columns,
    and the other Trace fields named in ``extra``.  A row at k = 0 has no
    previous iterate and stands in for it itself; its s = 0 makes its slack
    exactly 0.
    The oracle state is refreshed at least every ``epoch`` steps, and when
    ``reads_grad`` holds every step gets grad: the full step needs all of
    it.  The full formulas are the stochastic ones at m = 1.
    """

    variant = "full"
    extra = ()
    epoch = 1
    reads_grad = True
    step_sq0 = 0.0

    def __init__(self, problem: CompositeProblem, schedule: ParamSchedule):
        if schedule.variant != self.variant:
            raise ContractViolation(
                f"the {self.variant} order needs schedule.variant == {self.variant!r}")
        self.problem = problem
        self.schedule = schedule
        # a block move's selectors and kind; the zero kind's prox is v itself
        self.sels = problem.block_selectors
        self.kind = None if problem.prox_kind.tag == "zero" else problem.prox_kind
        self.constant = isinstance(schedule.beta_rule, ConstantBeta)
        self.c = schedule.c
        self.L = self.L_gamma = problem.lipschitz_L
        # lyapunov values are reported relative to min F when it is known;
        # otherwise the column is left unshifted and meta records that
        self.f_star = problem.f_star if problem.f_star is not None else 0.0
        self.m = 1
        self.root_m = 1.0
        self.meta = {}

    def params(self, k: int):
        beta = beta_at(self.schedule, k)
        return beta, stepsize(beta, self.c, self.L_gamma, self.root_m)

    def step(self, x, x_prev, k, beta, gamma, oracle, grad):
        # the momentum add is skipped when beta == 0.0, so a no-inertia run is
        # bit-identical to a plain forward-backward step
        v = x - gamma * grad
        if beta != 0.0:
            v += beta * (x - x_prev)
        x_next = _prox_full(self.problem, v, gamma)
        d = x_next - x
        return x_next, float(d.dot(d))

    def entries(self, a):
        F, s, beta, gamma, Fp, sp, bp, gp = (a[name] for name in _ROW[1:])
        r = self.root_m
        slack = ((Fp + bp / (2.0 * r * gp) * sp)
                 - (F + beta / (2.0 * r * gamma) * s)
                 - ((1.0 - bp / r) / gp - self.L / 2.0) * s)
        return {"lyapunov": F + delta_coeff(gamma, self.L) * s - self.f_star,
                "step_sq": s, "descent_slack": slack}


class _CyclicOrder(_FullOrder):
    """Epoch k moves every block in turn with gamma_{k,i} = 2(1-beta_k)c/L_i.

    A move is measured per block, and the lyapunov and slack formulas
    weight each block by its own stepsize.
    """

    variant = "cyclic"
    extra = ("block_step_sq",)
    reads_grad = False

    def __init__(self, problem: CompositeProblem, schedule: ParamSchedule):
        super().__init__(problem, schedule)
        self.m = problem.n_blocks
        self.L_blocks = self.L_gamma = np.asarray(problem.block_lipschitz, dtype=float)
        self.L_min = float(self.L_blocks.min())
        self.step_sq0 = np.zeros(self.m)

    def step(self, x, x_prev, k, beta, gammas, oracle, grad):
        # block i's gradient is read after blocks 0..i-1 moved (Gauss-Seidel
        # order), which the descent analysis relies on
        x_next = x.copy()
        for i in range(self.m):
            _block_move(self, x_next, x_prev, i, gammas[i], beta, oracle, k, grad)
            grad = None  # x_next has moved
        d = x_next - x
        # d.dot(d), not sum(d**2): keeps the m = 1 trace bit-identical to
        # the full order, which uses the dot-product form
        return x_next, np.array([float(d[sel].dot(d[sel])) for sel in self.sels])

    def entries(self, a):
        # each row's sums over its m blocks, as (rows, m) arrays summed along
        # axis 1, which adds in the order a 1-D sum does
        F, sb, beta, gammas, Fp, sbp, bp, gp = (a[name] for name in _ROW[1:])
        deltas = delta_coeff(gammas, self.L_blocks)
        s = sb.sum(axis=1)
        slack = ((Fp + (bp[:, None] / (2.0 * gp) * sbp).sum(axis=1))
                 - (F + (beta[:, None] / (2.0 * gammas) * sb).sum(axis=1))
                 - (1.0 - self.c) * self.L_min / (2.0 * self.c) * s)
        return {"lyapunov": F + (deltas * sb).sum(axis=1) - self.f_star, "step_sq": s,
                "descent_slack": slack, "block_step_sq": sb}


class _StochasticOrder(_FullOrder):
    """Step k moves one uniformly drawn block with
    gamma_k = 2(1-beta_k/sqrt(m))c/L, or in the fixed-gamma regime with
    (beta_fixed, fixed_gamma), beta_fixed = gamma*nu/(4m) from the
    problem's nu; m steps make one epoch.  Blocks are drawn _DRAWS at a
    time."""

    variant = "stochastic"
    reads_grad = False

    def __init__(self, problem: CompositeProblem, schedule: ParamSchedule, seed: int):
        super().__init__(problem, schedule)
        self.m = self.epoch = problem.n_blocks
        if schedule.m != self.m:
            raise ContractViolation(
                f"schedule.m={schedule.m} disagrees with problem blocks m={self.m}")
        self.root_m = math.sqrt(self.m)
        self.fixed = schedule.fixed_gamma
        if self.fixed is not None:
            self.beta_fixed = linear_stochastic_beta(self.fixed, problem.nu, self.m)
            self.constant = True
        self.rng = SplitMix64(seed)
        self.draws = []  # drawn blocks not yet used, the next one last
        self.meta = {"seed": seed, "fixed_gamma": self.fixed}

    def params(self, k: int):
        if self.fixed is not None:
            return self.beta_fixed, self.fixed
        return super().params(k)

    def step(self, x, x_prev, k, beta, gamma, oracle, grad):
        if not self.draws:
            self.draws = self.rng.randint_below_batch(self.m, _DRAWS)[::-1]
        x_next = x.copy()
        _block_move(self, x_next, x_prev, self.draws.pop(), gamma, beta, oracle, k, grad)
        d = x_next - x
        return x_next, float(d.dot(d))


def _run(problem: CompositeProblem, x0, cfg: RunConfig, order) -> Trace:
    # The one run loop: F, the divergence guard, the stopping residual and
    # the entry at x^k, then the order's step into x^{k+1}.  x0 is checked
    # here, once; the loop then calls the order's step and refreshes the
    # oracle state without checking again.
    x0 = _check_dim(problem, x0)
    rec = _Recorder(problem, order, cfg)

    oracle = ImageOracle(problem)
    stop_tol, record_every, max_iters = cfg.stop_tol, cfg.record_every, cfg.max_iters
    # a float ** raises OverflowError above about 1.3e154, where * gives inf
    stop_sq = stop_tol * stop_tol
    always_read = order.reads_grad or stop_tol > 0.0
    # bound once: the lookups are a measurable share of a recorded block step
    refresh, value, gradient, add = oracle.refresh, oracle.value, oracle.grad, rec.add
    params, step, epoch = order.params, order.step, order.epoch
    x_prev, x = x0.copy(), x0.copy()
    s = order.step_sq0
    prev = None  # (F, s, beta, gamma) of the previous iterate
    F0 = None
    const = params(0) if order.constant else None
    k = 0
    while True:
        beta, gamma = const or params(k)
        want_entry = (k % record_every == 0) or (k == max_iters)
        need_grad = want_entry or always_read
        if need_grad or k % epoch == 0:
            refresh(x)
        grad = gradient(x) if need_grad else None
        F_val = value(x) + _g_value(problem, x)
        if F0 is None:
            F0, F_cap = F_val, DIVERGENCE_FACTOR * max(1.0, abs(F_val))
        if not math.isfinite(F_val) or F_val > F_cap:
            raise DivergenceError(
                f"objective blew up at iteration {k}: F={F_val!r} from F0={F0!r}", k=k)

        if need_grad:
            _check_grad(grad, k)
        # bit for bit the residual_sq recorded for x
        stopping = stop_tol > 0.0 and _residual_sq(problem, x, grad) <= stop_sq
        cur = (F_val, s, beta, gamma)
        if want_entry or stopping:
            add(x, grad, k, *cur, *(prev or cur))
        if stopping or k == max_iters:
            break

        prev = cur
        x_next, s = step(x, x_prev, k, beta, gamma, oracle, grad)
        x_prev, x = x, x_next
        k += 1

    meta = {
        "variant": order.variant, "L": problem.lipschitz_L, "c": order.c,
        "m": order.m, "block_lipschitz": tuple(problem.block_lipschitz),
        "f_star": problem.f_star, "record_every": cfg.record_every,
        "stop_tol": cfg.stop_tol, **order.meta,
        "matvec_equiv": oracle.matvec_equiv,
    }
    return rec.build(IterateState(x.copy(), x_prev.copy(), k), meta)


def run_inertial(problem: CompositeProblem, schedule: ParamSchedule,
                 x0, cfg: RunConfig) -> Trace:
    """Full-vector inertial prox-gradient run with gamma_k = 2(1-beta_k)c/L."""
    return _run(problem, x0, cfg, _FullOrder(problem, schedule))


def run_cyclic(problem: CompositeProblem, schedule: ParamSchedule,
               x0, cfg: RunConfig) -> Trace:
    """Cyclic block run; epoch k uses gamma_{k,i} = 2(1-beta_k)c/L_i.

    The lyapunov column holds the block-weighted value
    F(x^k) + sum_i delta_{k,i}*||x_i^k - x_i^{k-1}||^2 - min F with
    delta_{k,i} = (1/gamma_{k,i} - L_i/2)/2.
    """
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
    return _run(problem, x0, cfg, _StochasticOrder(problem, schedule, cfg.seed))
