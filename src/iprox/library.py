"""Seeded, reproducible test instances.

Five kinds cover the hypotheses the diagnostics exercise:

  quadratic              strongly convex f = (x-z)'Q(x-z)/2, g = 0; exact
                         min F = 0, nu = lam_min/2, and the solution set
                         SolutionSet(z): the unique minimizer z.
  quadratic_l1           same f with g = lambda*||x||_1; nu = lam_min/2
                         still certifies F - min F >= nu*||x - xbar||^2 by
                         the optimality subgradient of the l1 term.
  lasso                  f = ||Ax - b||^2/2, g = lambda*||x||_1 with A
                         i.i.d. standard normal, a planted 10%-sparse
                         x_true, b = A x_true + 0.1*noise.
  logistic_l1            row-averaged logistic loss with labels
                         y = sign(A x_true + 0.5*noise), g = lambda*||x||_1;
                         L = sigma_max(A)^2/(4*rows).
  noncoercive_quadratic  f = ||P x||^2/2 with P = diag(sqrt(eigs)) Ur' of
                         rank rows < n, so argmin F = null(P) is a whole
                         subspace, SolutionSet(0, normal=Ur), and F is not
                         coercive, yet F - min F >= nu*||x - xbar||^2
                         holds with nu = lam_min/2 along normal directions.

Constructed quadratics use exact eigenvalue placement: lam_max = L = 1 and
lam_min = 2/conditioning, so conditioning equals L/nu exactly; their L_i
is the norm of the block row ||H[ix, :]|| of the Hessian H (Q or P'P),
which bounds the diagonal block's ||H_ii||.  Data matrices get
L = sigma_max(A)^2 (over 4*rows for logistic) and each per-block
L_i = sigma_max(A_i)^2, the diagonal block's value, from Lanczos on the Gram operator
v -> A'(Av), or on the formed |b_i| x |b_i| Gram A_i'A_i of a block no
wider than A is tall: no stored basis, the top Ritz value of the
tridiagonal found by Sturm-count bisection at step 8 and every 4 steps
after it.  It stops when that value stalls to 1e-14 relative between two
evaluations, one of them at the step count equal to the column count, or
when the next off-diagonal vanishes.  It matches a dense SVD to a few
1e-15 relative, in O(sqrt(1/gap)) products where power iteration needs
O(1/gap).  Each constant is inflated by 1e-8
so the stored value is an upper bound, and per-block constants are
clamped to L.
Identical specs produce byte-identical data (numpy PCG64 stream).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .problems import CompositeProblem, SmoothModel, SolutionSet
from .prox import ProxKind

KINDS = ("quadratic", "quadratic_l1", "lasso", "logistic_l1", "noncoercive_quadratic")
_DATA_KINDS = ("lasso", "logistic_l1")
_L_INFLATE = 1.0 + 1e-8
_LANCZOS_TOL = 1e-14   # stop when the top Ritz value moves less than this, relative
_LANCZOS_CAP = 1000    # steps before falling back to a dense SVD


@dataclass(frozen=True)
class InstanceSpec:
    """Serializable recipe for one library problem.

    rows is the data-matrix row count for lasso/logistic and the rank of P
    for noncoercive_quadratic; conditioning is the target L/nu for the
    quadratic family (>= 2 since lam_min = 2/conditioning <= lam_max = 1).
    n, rows, m and seed take any integer but a bool, a numpy one included,
    and hold it as a Python int.
    """

    kind: str
    n: int
    rows: int = 0
    reg_lambda: float = 0.0
    m: int = 1
    seed: int = 0
    conditioning: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolation(f"kind must be one of {KINDS}")
        for name in ("n", "rows", "m", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ContractViolation("n, rows, m and seed must be integers")
            object.__setattr__(self, name, int(value))  # the same dict for a numpy int
        if any(v > np.iinfo(np.intp).max for v in (self.n, self.rows, self.m)):
            raise ContractViolation("n, rows and m must be integers numpy can index with")
        if any(not isinstance(v, numbers.Real) or isinstance(v, bool)
               for v in (self.reg_lambda, self.conditioning)):
            raise ContractViolation("reg_lambda and conditioning must be real numbers")
        if self.n < 1:
            raise ContractViolation("n must be >= 1")
        if self.m < 1 or self.n % self.m != 0:
            raise ContractViolation("m must divide n (equal-size blocks)")
        if not self.reg_lambda >= 0:  # NaN included
            raise ContractViolation("reg_lambda must be >= 0")
        if not 0 <= self.seed < 2 ** 64:
            raise ContractViolation("seed must be an integer in [0, 2^64)")
        if self.kind in ("quadratic", "quadratic_l1"):
            if self.n < 2 or not self.conditioning >= 2:
                raise ContractViolation(
                    f"{self.kind} needs n >= 2 and conditioning >= 2")
            if self.rows != 0:
                raise ContractViolation(f"{self.kind} does not take rows")
        if self.kind == "noncoercive_quadratic":
            if not (1 <= self.rows < self.n):
                raise ContractViolation(
                    "noncoercive_quadratic needs rank rows in [1, n)")
            if not self.conditioning >= 2:
                raise ContractViolation("noncoercive_quadratic needs conditioning >= 2")
        if self.kind in ("quadratic", "noncoercive_quadratic") and self.reg_lambda != 0:
            raise ContractViolation(f"{self.kind} is smooth-only; reg_lambda must be 0")
        if self.kind in _DATA_KINDS:
            if self.rows < 1:
                raise ContractViolation(f"{self.kind} needs rows >= 1")
            if self.conditioning != 0:
                raise ContractViolation(f"{self.kind} does not take conditioning")

    @property
    def nu(self):
        """nu = lam_min/2, lam_min = 2/conditioning, of a quadratic kind; None for data."""
        return None if self.kind in _DATA_KINDS else 2.0 / self.conditioning / 2.0


def _blocks(n: int, m: int):
    size = n // m
    return tuple(tuple(range(i * size, (i + 1) * size)) for i in range(m))


def _gram_top_eig(A: np.ndarray, rng, gram: bool = False) -> tuple:
    """Largest eigenvalue of A'A and the Lanczos steps it took.

    Three-term Lanczos on v -> A'(Av), or on v -> Gv with the formed Gram
    G = A'A when gram is set, from one random start, keeping only the
    current and previous basis vectors.  The top eigenvalue of the k x k
    tridiagonal T_k (the top Ritz value) is found by Sturm-count bisection
    at step 8, every 4 steps after it, and at k = n, the column count and
    order of A'A; it only rises with k, and the run stops once it moves by
    at most _LANCZOS_TOL relative from the previous evaluation, or when
    the next off-diagonal vanishes.  Without reorthogonalization the basis
    loses orthogonality once the top Ritz value has converged, so at k = n
    T_n need not hold the whole spectrum of A'A; the step-n value is
    therefore accepted only when it has stalled like any other.  Hitting
    _LANCZOS_CAP falls back to a dense SVD.
    """
    rows, n = A.shape
    G = A.T @ A if gram else None
    v = rng.standard_normal(n)
    v /= math.sqrt(float(v @ v))
    v_prev = np.zeros(n)
    w = np.empty(n)
    u = np.empty(rows)
    alphas, beta_sq = [], [0.0]
    theta, beta, scale = 0.0, 0.0, 0.0
    for k in range(1, _LANCZOS_CAP + 1):
        if G is None:
            np.matmul(A, v, out=u)
            np.matmul(A.T, u, out=w)
        else:
            np.matmul(G, v, out=w)
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        alphas.append(alpha)
        scale = max(scale, alpha)
        beta = math.sqrt(float(w @ w))
        collapsed = beta <= _LANCZOS_TOL * scale
        if collapsed or (k >= 8 and k % 4 == 0) or k == n:
            top = _tridiag_top(alphas, beta_sq, theta)
            if collapsed or top - theta <= _LANCZOS_TOL * top:
                return top, k
            theta = top
        beta_sq.append(beta * beta)
        # rotate buffers: v_{k+1} = w / beta, and v_k becomes v_prev
        v_prev, v, w = v, w, v_prev
        v /= beta
    return float(np.linalg.svd(A, compute_uv=False)[0] ** 2), _LANCZOS_CAP


def _tridiag_top(alphas, beta_sq, lo: float) -> float:
    """Top eigenvalue of the symmetric tridiagonal (alphas, sqrt(beta_sq[1:])).

    Bisection on the Sturm sequence, from a known lower bound lo up to the
    Gershgorin bound, until the bracket is two adjacent floats; returns its
    upper end.
    """
    # offd[i] couples rows i and i+1; the trailing 0.0 also serves as offd[-1]
    offd = [math.sqrt(b) for b in beta_sq[1:]] + [0.0]
    hi = max(a + offd[i - 1] + offd[i] for i, a in enumerate(alphas))

    def all_below(x):
        # every eigenvalue lies below x iff every LDL' pivot of T - xI is
        # negative (Sylvester); a zero pivot counts as negative
        d = 1.0
        for a, b2 in zip(alphas, beta_sq):
            d = a - x - b2 / d
            if d > 0.0:
                return False
            if d == 0.0:
                d = -sys.float_info.min
        return True

    if all_below(lo):
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if all_below(mid):
            hi = mid
        else:
            lo = mid


def _gram_constants(A: np.ndarray, blocks, rng, denom: float) -> tuple:
    """L = sigma_max(A)^2/denom and per-block L_i = sigma_max(A_i)^2/denom.

    Each is inflated by _L_INFLATE so it bounds the true value, and each
    L_i is clamped to L.  Blocks are contiguous column ranges, read as views;
    a block no wider than A is tall gets its |b_i| x |b_i| Gram formed, but
    L keeps the operator: an n x n Gram would add 8n^2 bytes to peak memory.
    """
    L = _gram_top_eig(A, rng)[0] / denom * _L_INFLATE
    if len(blocks) == 1:
        return L, (L,)
    return L, tuple(
        min(_gram_top_eig(A[:, blk[0]:blk[-1] + 1], rng, len(blk) <= A.shape[0])[0]
            / denom * _L_INFLATE, L)
        for blk in blocks)


def _spread_eigs(count: int, lam_min: float) -> np.ndarray:
    # log-spaced from 1 down to lam_min; exact endpoints
    return np.exp(np.linspace(0.0, math.log(lam_min), count))


def _block_operator_norms(H: np.ndarray, blocks, L: float) -> tuple:
    # L_i = spectral norm of the block row H[ix, :]; never above the global L
    out = []
    for blk in blocks:
        ix = np.asarray(blk, dtype=np.intp)
        s = float(np.linalg.svd(H[ix, :], compute_uv=False)[0])
        out.append(min(s, L))
    return tuple(out)


def make_instance(spec: InstanceSpec) -> CompositeProblem:
    """Build the fully populated problem for a spec (deterministic in seed)."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    blocks = _blocks(spec.n, spec.m)
    n = spec.n

    if spec.kind in ("quadratic", "quadratic_l1"):
        lam_min = 2.0 / spec.conditioning
        eigs = _spread_eigs(n, lam_min)
        G = rng.standard_normal((n, n))
        U, _ = np.linalg.qr(G)
        Q = (U * eigs) @ U.T
        Q = 0.5 * (Q + Q.T)
        z = rng.standard_normal(n)
        L = 1.0
        L_blocks = (L,) if spec.m == 1 else _block_operator_norms(Q, blocks, L)
        model = SmoothModel("quadratic", Q, center=z)

        if spec.kind == "quadratic":
            return _problem(model, blocks, L, L_blocks, spec.reg_lambda,
                            f_star=0.0, nu=spec.nu, solution_set=SolutionSet(z))
        return _problem(model, blocks, L, L_blocks, spec.reg_lambda, nu=spec.nu)

    if spec.kind == "noncoercive_quadratic":
        r = spec.rows
        lam_min = 2.0 / spec.conditioning
        eigs = _spread_eigs(r, lam_min)
        G = rng.standard_normal((n, n))
        U, _ = np.linalg.qr(G)
        Ur = U[:, :r]
        P = np.sqrt(eigs)[:, None] * Ur.T  # r x n, rank r
        H = P.T @ P
        H = 0.5 * (H + H.T)
        L = 1.0
        L_blocks = (L,) if spec.m == 1 else _block_operator_norms(H, blocks, L)
        # argmin F = null(P) = null(Ur')
        return _problem(SmoothModel("squares", P), blocks, L, L_blocks, 0.0,
                        f_star=0.0, nu=spec.nu,
                        solution_set=SolutionSet(np.zeros(n), normal=Ur))

    # lasso and logistic_l1: A, a planted 10%-sparse x_true, then the kind's noise
    p = spec.rows
    A = rng.standard_normal((p, n))
    x_true = np.zeros(n)
    nnz = max(1, int(round(0.1 * n)))
    support = rng.choice(n, size=nnz, replace=False)
    x_true[support] = rng.standard_normal(nnz)
    if spec.kind == "lasso":
        model = SmoothModel("squares", A, offset=A @ x_true + 0.1 * rng.standard_normal(p))
    else:
        y = np.where(A @ x_true + 0.5 * rng.standard_normal(p) >= 0, 1.0, -1.0)
        model = SmoothModel("logistic", A, labels=y)
    L, L_blocks = _gram_constants(A, blocks, rng, 1.0 if spec.kind == "lasso" else 4.0 * p)
    return _problem(model, blocks, L, L_blocks, spec.reg_lambda)


def _problem(model, blocks, L, L_blocks, reg_lambda, **extra):
    # g = reg_lambda*||x||_1, the zero kind for reg_lambda = 0
    return CompositeProblem(
        blocks=blocks, smooth_value=model.value, smooth_grad=model.grad,
        lipschitz_L=L, block_lipschitz=L_blocks,
        prox=ProxKind.l1(reg_lambda) if reg_lambda > 0 else ProxKind.zero(), **extra)


def start_point(spec: InstanceSpec, mode: str = "zeros", scale: float = 1.0) -> np.ndarray:
    """Deterministic run start: the origin or a seeded Gaussian point."""
    if mode == "zeros":
        return np.zeros(spec.n)
    if mode == "gaussian":
        rng = np.random.Generator(np.random.PCG64([spec.seed, 0x5EED]))
        return scale * rng.standard_normal(spec.n)
    raise ContractViolation(f"unknown start mode {mode!r}")
