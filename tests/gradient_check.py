"""grad f of a problem checked against central differences of f."""

import numpy as np

from iprox.errors import ContractViolation
from iprox.problems import CompositeProblem, _check_dim, grad_f


def check_gradient_fd(problem: CompositeProblem, x, h: float) -> float:
    """Max per-coordinate relative error of grad f against central differences.

    The denominator is max(1, |analytic_j|, |fd_j|), so coordinates where
    both routes are tiny contribute ~absolute error rather than 0/0 noise.
    """
    if not h > 0:  # NaN included
        raise ContractViolation("h must be > 0")
    x = _check_dim(problem, x)
    g = grad_f(problem, x)
    worst = 0.0
    e = np.zeros_like(x)
    for j in range(problem.dim):
        e[j] = h
        fd = (problem.smooth_value(x + e) - problem.smooth_value(x - e)) / (2.0 * h)
        e[j] = 0.0
        scale = max(1.0, abs(g[j]), abs(fd))
        worst = max(worst, abs(g[j] - fd) / scale)
    return worst
