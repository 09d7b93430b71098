"""Seeded, reproducible test instances.

Five kinds cover the hypotheses the diagnostics exercise:

  quadratic              strongly convex f = (x-z)'Q(x-z)/2, g = 0; exact
                         min F = 0, unique minimizer z, nu = lam_min/2.
  quadratic_l1           same f with g = lambda*||x||_1; nu = lam_min/2
                         still certifies F - min F >= nu*||x - xbar||^2 by
                         the optimality subgradient of the l1 term.
  lasso                  f = ||Ax - b||^2/2, g = lambda*||x||_1 with A
                         i.i.d. standard normal, a planted 10%-sparse
                         x_true, b = A x_true + 0.1*noise.
  logistic_l1            row-averaged logistic loss with labels
                         y = sign(A x_true + 0.5*noise), g = lambda*||x||_1;
                         L = sigma_max(A)^2/(4*rows).
  noncoercive_quadratic  f = ||P x||^2/2 with P of rank rows < n, so
                         argmin F = null(P) is a whole subspace and F is
                         not coercive, yet F - min F >= nu*||x - xbar||^2
                         holds with nu = lam_min/2 along normal directions.

Constructed quadratics use exact eigenvalue placement: lam_max = L = 1 and
lam_min = 2/conditioning, so conditioning equals L/nu exactly.  Data
matrices get L from power iteration (inflated by 1e-8 so the stored
constant is an upper bound); per-block constants are clamped to L.
Identical specs produce byte-identical data (numpy PCG64 stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ContractViolation
from .problems import CompositeProblem, SmoothModel
from .prox import ProxKind, prox_apply, prox_value

KINDS = ("quadratic", "quadratic_l1", "lasso", "logistic_l1", "noncoercive_quadratic")
_QUAD_KINDS = ("quadratic", "quadratic_l1", "noncoercive_quadratic")
_DATA_KINDS = ("lasso", "logistic_l1")
_L_INFLATE = 1.0 + 1e-8


@dataclass(frozen=True)
class InstanceSpec:
    """Serializable recipe for one library problem.

    rows is the data-matrix row count for lasso/logistic and the rank of P
    for noncoercive_quadratic; conditioning is the target L/nu for the
    quadratic family (>= 2 since lam_min = 2/conditioning <= lam_max = 1).
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
        if self.n < 1:
            raise ContractViolation("n must be >= 1")
        if self.m < 1 or self.n % self.m != 0:
            raise ContractViolation("m must divide n (equal-size blocks)")
        if self.reg_lambda < 0:
            raise ContractViolation("reg_lambda must be >= 0")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2 ** 64):
            raise ContractViolation("seed must be an integer in [0, 2^64)")
        if self.kind in ("quadratic", "quadratic_l1"):
            if self.n < 2 or self.conditioning < 2:
                raise ContractViolation(
                    f"{self.kind} needs n >= 2 and conditioning >= 2")
            if self.rows != 0:
                raise ContractViolation(f"{self.kind} does not take rows")
        if self.kind == "noncoercive_quadratic":
            if not (1 <= self.rows < self.n):
                raise ContractViolation(
                    "noncoercive_quadratic needs rank rows in [1, n)")
            if self.conditioning < 2:
                raise ContractViolation("noncoercive_quadratic needs conditioning >= 2")
        if self.kind in ("quadratic", "noncoercive_quadratic") and self.reg_lambda != 0:
            raise ContractViolation(f"{self.kind} is smooth-only; reg_lambda must be 0")
        if self.kind in _DATA_KINDS:
            if self.rows < 1:
                raise ContractViolation(f"{self.kind} needs rows >= 1")
            if self.conditioning != 0:
                raise ContractViolation(f"{self.kind} does not take conditioning")


def spec_to_dict(spec: InstanceSpec) -> dict:
    return asdict(spec)


def spec_from_dict(d: dict) -> InstanceSpec:
    allowed = {"kind", "n", "rows", "reg_lambda", "m", "seed", "conditioning"}
    unknown = set(d) - allowed
    if unknown:
        raise ContractViolation(f"unknown InstanceSpec fields {sorted(unknown)}")
    return InstanceSpec(**d)


def _blocks(n: int, m: int):
    size = n // m
    return tuple(tuple(range(i * size, (i + 1) * size)) for i in range(m))


def _power_sqnorm(A: np.ndarray, rng, rel_tol: float = 1e-12,
                  max_iter: int = 100_000) -> float:
    """Largest eigenvalue of A'A by power iteration on the Gram operator."""
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        lam_new = float(v @ w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= rel_tol * abs(lam_new):
            return lam_new
        lam = lam_new
    # stalled (near-degenerate top eigenvalues): fall back to a dense SVD
    return float(np.linalg.svd(A, compute_uv=False)[0] ** 2)


def _spread_eigs(count: int, lam_min: float) -> np.ndarray:
    # log-spaced from 1 down to lam_min; exact endpoints
    return np.exp(np.linspace(0.0, math.log(lam_min), count))


def _l1_oracles(lam: float, blocks):
    kind = ProxKind.l1(lam) if lam > 0 else ProxKind.zero()

    def nonsmooth_value(x):
        return prox_value(kind, x)

    def prox(i, v, gamma):
        return prox_apply(kind, v, gamma)

    return nonsmooth_value, prox


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
        nonsmooth_value, prox = _l1_oracles(spec.reg_lambda, blocks)
        model = SmoothModel("quadratic", Q, center=z)

        if spec.kind == "quadratic":
            return _problem(model, blocks, L, L_blocks, nonsmooth_value, prox,
                            f_star=0.0, nu=lam_min / 2.0,
                            solution_projection=lambda x, z=z: z.copy())
        return _problem(model, blocks, L, L_blocks, nonsmooth_value, prox,
                        nu=lam_min / 2.0)

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
        nonsmooth_value, prox = _l1_oracles(0.0, blocks)
        # the image is P x; the full gradient keeps the Gram product H x
        model = SmoothModel("squares", P, gram=H)

        def project(x, Ur=Ur):
            # argmin F = null(P); remove the component in range(Ur)
            return x - Ur @ (Ur.T @ x)

        return _problem(model, blocks, L, L_blocks, nonsmooth_value, prox,
                        f_star=0.0, nu=lam_min / 2.0, solution_projection=project)

    if spec.kind == "lasso":
        p = spec.rows
        A = rng.standard_normal((p, n))
        x_true = np.zeros(n)
        nnz = max(1, int(round(0.1 * n)))
        support = rng.choice(n, size=nnz, replace=False)
        x_true[support] = rng.standard_normal(nnz)
        b = A @ x_true + 0.1 * rng.standard_normal(p)
        L = _power_sqnorm(A, rng) * _L_INFLATE
        if spec.m == 1:
            L_blocks = (L,)
        else:
            L_blocks = tuple(
                min(_power_sqnorm(A[:, np.asarray(blk, dtype=np.intp)], rng)
                    * _L_INFLATE, L)
                for blk in blocks
            )
        nonsmooth_value, prox = _l1_oracles(spec.reg_lambda, blocks)
        return _problem(SmoothModel("squares", A, offset=b), blocks, L, L_blocks,
                        nonsmooth_value, prox)

    # logistic_l1
    p = spec.rows
    A = rng.standard_normal((p, n))
    x_true = np.zeros(n)
    nnz = max(1, int(round(0.1 * n)))
    support = rng.choice(n, size=nnz, replace=False)
    x_true[support] = rng.standard_normal(nnz)
    y = np.where(A @ x_true + 0.5 * rng.standard_normal(p) >= 0, 1.0, -1.0)
    L = _power_sqnorm(A, rng) / (4.0 * p) * _L_INFLATE
    if spec.m == 1:
        L_blocks = (L,)
    else:
        L_blocks = tuple(
            min(_power_sqnorm(A[:, np.asarray(blk, dtype=np.intp)], rng)
                / (4.0 * p) * _L_INFLATE, L)
            for blk in blocks
        )
    nonsmooth_value, prox = _l1_oracles(spec.reg_lambda, blocks)
    return _problem(SmoothModel("logistic", A, labels=y), blocks, L, L_blocks,
                    nonsmooth_value, prox)


def _problem(model, blocks, L, L_blocks, nonsmooth_value, prox, **extra):
    return CompositeProblem(
        dim=model.dim, blocks=blocks, smooth_value=model.value,
        smooth_grad=model.grad, lipschitz_L=L, block_lipschitz=L_blocks,
        nonsmooth_value=nonsmooth_value, prox=prox, smooth_model=model, **extra)


def is_coercive(spec: InstanceSpec) -> bool:
    """Whether F grows unboundedly along every ray for this instance."""
    if spec.kind in ("quadratic", "quadratic_l1"):
        return True
    if spec.kind == "lasso":
        return spec.reg_lambda > 0 or spec.rows >= spec.n
    if spec.kind == "logistic_l1":
        return spec.reg_lambda > 0
    return False


def start_point(spec: InstanceSpec, mode: str = "zeros", scale: float = 1.0) -> np.ndarray:
    """Deterministic run start: the origin or a seeded Gaussian point."""
    if mode == "zeros":
        return np.zeros(spec.n)
    if mode == "gaussian":
        rng = np.random.Generator(np.random.PCG64([spec.seed, 0x5EED]))
        return scale * rng.standard_normal(spec.n)
    raise ContractViolation(f"unknown start mode {mode!r}")
