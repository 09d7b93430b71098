"""High-accuracy baseline solutions (x*, min F) for library problems.

Rate fits and Lyapunov values need a trustworthy min F; this module
computes it with an accelerated proximal-gradient method (momentum with
adaptive restart) at stepsize 1/L, stopping on the prox-gradient residual
||S_{1/L}(x)|| <= tol.  Solutions are cached on disk keyed by a content
hash of the instance spec and tolerance, with atomic replacement so
concurrent sweep workers can share one cache directory.

Each iteration refreshes the oracle state, an
:class:`iprox.problems.ImageOracle`, at the new iterate and takes grad f,
with the image in one pass over A, then f; grad f serves the stopping
residual and the next step, and f gives min F at the returned iterate,
the best one kept when the budget runs out.  The step's gradient at the
extrapolated point y = x + c (x - x_prev) is that gradient when c = 0,
and g + c (g - g_prev) when the SmoothModel's gradient is affine (the
squares and quadratic losses): 2 products with A counted per lasso
iteration, 1 for the quadratic kinds, 2 for the noncoercive kind (image
and Gram product).  The logistic loss takes a second refresh and
gradient, and no f, at y when c > 0.  g is read as the runs read it,
through the problem's prox_kind, and the stopping residual is the runs'
own.
``ReferenceSolution.matvec_equiv`` is the oracle state's count.
:func:`with_reference` attaches f_star and, for a unique minimizer, the
solution set SolutionSet(x*) to the problem.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .problems import (CompositeProblem, ImageOracle, SolutionSet, _check_dim, _g_value,
                       _prox_full, _residual_sq)


@dataclass(frozen=True)
class ReferenceSolution:
    """x*, min F and how they were reached.

    matvec_equiv is the work of the solve that produced this value, 0 for
    one read from the cache; it is not written to the cache.
    """

    x_star: np.ndarray
    f_star: float
    residual: float
    iterations_used: int
    converged: bool
    matvec_equiv: float = 0.0


def solve_reference(problem: CompositeProblem, tol: float = 1e-12,
                    max_iters: int = 10 ** 6, x0=None) -> ReferenceSolution:
    """Accelerated prox-gradient with gradient-mapping restart.

    Returns the first iterate with ||S_{1/L}(x)|| <= tol, or the
    best-residual iterate flagged unconverged when the budget runs out.
    """
    check_tol(tol)
    check_max_iters(max_iters)
    gam = 1.0 / problem.lipschitz_L
    state = ImageOracle(problem)
    affine = problem.smooth_model.loss != "logistic"

    def residual(x, g):
        # sqrt(s.dot(s)) is np.linalg.norm(s) bit for bit
        return math.sqrt(_residual_sq(problem, x, g))

    def solution(x, f, r, it, converged):
        return ReferenceSolution(
            x_star=x.copy(), f_star=f + _g_value(problem, x), residual=r,
            iterations_used=it, converged=converged, matvec_equiv=state.matvec_equiv)

    x = np.zeros(problem.dim) if x0 is None else _check_dim(problem, x0).copy()
    state.refresh(x)
    g, f = state.grad(x), state.value(x)
    g_prev = None
    y = x.copy()
    c = 0.0  # y = x + c (x - x_prev)
    t = 1.0
    best_x, best_f = x.copy(), f
    best_r = residual(x, g)
    it = 0
    for it in range(1, max_iters + 1):
        if c == 0.0:
            g_y = g
        elif affine:
            g_y = g + c * (g - g_prev)
        else:
            state.refresh(y)
            g_y = state.grad(y)
        x_new = _prox_full(problem, y - gam * g_y, gam)
        state.refresh(x_new)
        g_new, f = state.grad(x_new), state.value(x_new)
        # restart when the momentum direction opposes the latest progress
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t, c = 1.0, 0.0
            y = x_new.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            c = (t - 1.0) / t_new
            y = x_new + c * (x_new - x)
            t = t_new
        x, g_prev, g = x_new, g, g_new
        r = residual(x, g)
        if r < best_r:
            best_r = r
            best_x, best_f = x.copy(), f
        if r <= tol:
            return solution(x, f, r, it, True)
    return solution(best_x, best_f, best_r, it, False)


def check_tol(tol: float) -> None:
    """A reference tolerance is > 0."""
    if not tol > 0:  # NaN included
        raise ContractViolation("tol must be > 0")


def check_max_iters(max_iters: int) -> None:
    """A reference budget is at least one iteration."""
    if not max_iters >= 1:
        raise ContractViolation("max_iters must be >= 1")


def with_reference(problem: CompositeProblem, ref: ReferenceSolution,
                   unique_minimizer: bool = True) -> CompositeProblem:
    """Attach f_star (and, for unique minimizers, the solution set {x*}).

    Fields already present on the problem are kept; only missing ones are
    filled.  The single point x* is argmin F only when the minimizer is
    unique, which the caller asserts via unique_minimizer.
    """
    updates = {}
    if problem.f_star is None:
        updates["f_star"] = float(ref.f_star)
    if problem.solution_set is None and unique_minimizer:
        updates["solution_set"] = SolutionSet(ref.x_star.copy())
    if not updates:
        return problem
    return dataclasses.replace(problem, **updates)


# Bump when the instance data or the cached solution format changes, so
# entries written by older code are never reused.
CACHE_FORMAT = 2


def spec_cache_key(spec_dict: dict, tol: float) -> str:
    """Content hash identifying one (instance spec, tolerance) pair."""
    payload = json.dumps({"format": CACHE_FORMAT, "spec": spec_dict, "tol": tol},
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_cached(cache_dir, key: str, dim=None):
    """Return the cached ReferenceSolution or None (missing/corrupt).

    With dim given, an entry whose x_star has another length is corrupt.
    """
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
        if doc.get("problem_key") != key:
            return None
        x_star = np.asarray(doc["x_star"], dtype=float)
        if x_star.ndim != 1 or (dim is not None and x_star.shape[0] != dim):
            return None
        return ReferenceSolution(
            x_star=x_star,
            f_star=float(doc["f_star"]),
            residual=float(doc["residual"]),
            iterations_used=int(doc["iterations_used"]),
            converged=bool(doc["converged"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def drop_cached(cache_dir, key: str) -> None:
    """Delete one cache entry, if it is there."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(cache_dir, key + ".json"))


def store_cached(cache_dir, key: str, ref: ReferenceSolution) -> None:
    """Atomically write one cache entry (last writer wins, never torn)."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    doc = {
        "problem_key": key,
        "x_star": [float(v) for v in ref.x_star],
        "f_star": float(ref.f_star),
        "residual": float(ref.residual),
        "iterations_used": int(ref.iterations_used),
        "converged": bool(ref.converged),
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
