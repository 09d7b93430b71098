"""Output checks that do not trust the program.

Everything here uses numpy alone: the instances are regenerated from the
recipe written down in the README (one PCG64 stream per instance seed), the
objective is recomputed from that data, trace CSVs are parsed with numpy
rather than with ``iprox.traceio``, and optimality of the reference point is
judged by this module's own soft-threshold residual.  Each check raises
:class:`CheckFailed` with the reason.

Tolerances: recomputed values agree to ``AGREE`` relative; inequalities
that hold exactly in real arithmetic get ``1e-9 * (1 + |F(x^0)|)``, the
convention of the package's acceptance tests.
"""

from __future__ import annotations

import math

import numpy as np

TRACE_HEADER = "k,F,lyapunov,step_sq,residual_sq,descent_slack"
AGREE = 1e-10
SVD_SLACK = 1e-12  # relative rounding allowance of a dense singular value
KKT_TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def inequality_tol(F0: float) -> float:
    return 1e-9 * (1.0 + abs(F0))


# ------------------------------------------------------------------ recipes

def lasso_data(seed: int, n: int, rows: int):
    """A (rows x n, standard normal), then a 10%-sparse x_true, then b."""
    rng = np.random.Generator(np.random.PCG64(seed))
    A = rng.standard_normal((rows, n))
    x_true = np.zeros(n)
    nnz = max(1, int(round(0.1 * n)))
    support = rng.choice(n, size=nnz, replace=False)
    x_true[support] = rng.standard_normal(nnz)
    b = A @ x_true + 0.1 * rng.standard_normal(rows)
    return A, b


def quadratic_data(seed: int, n: int, conditioning: float):
    """Q = U diag(eigs) U' with log-spaced eigs in [2/conditioning, 1], then z."""
    rng = np.random.Generator(np.random.PCG64(seed))
    eigs = np.exp(np.linspace(0.0, math.log(2.0 / conditioning), n))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = (U * eigs) @ U.T
    Q = 0.5 * (Q + Q.T)
    z = rng.standard_normal(n)
    return Q, z


def gaussian_start(seed: int, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * np.random.Generator(np.random.PCG64([seed, 0x5EED])).standard_normal(n)


def lasso_F(A, b, lam: float, x) -> float:
    r = A @ x - b
    return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())


def quadratic_F(Q, z, x) -> float:
    d = x - z
    return 0.5 * float(d @ (Q @ d))


def soft_threshold(v, tau: float):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def blocks(n: int, m: int):
    size = n // m
    return [slice(i * size, (i + 1) * size) for i in range(m)]


# ------------------------------------------------------------------- checks

def check_lipschitz(L: float, block_L, true_L: float, true_block_L) -> None:
    """Stored constants must be upper bounds of the dense spectral values."""
    require(L >= true_L * (1.0 - SVD_SLACK),
            f"stored L={L!r} below the dense value {true_L!r}")
    require(len(block_L) == len(true_block_L), "wrong number of block constants")
    for i, (got, want) in enumerate(zip(block_L, true_block_L)):
        require(got >= want * (1.0 - SVD_SLACK),
                f"stored L_{i}={got!r} below the dense value {want!r}")


def lasso_constants(A, m: int):
    """sigma_max(A)^2 and sigma_max(A_i)^2 per block, from dense SVDs."""
    def sq(M):
        return float(np.linalg.svd(M, compute_uv=False)[0]) ** 2
    return sq(A), [sq(A[:, s]) for s in blocks(A.shape[1], m)]


def quadratic_constants(Q, m: int):
    """lambda_max(Q) and lambda_max(Q_ii) per diagonal block."""
    def top(M):
        return float(np.linalg.eigvalsh(M)[-1])
    return top(Q), [top(Q[s, s]) for s in blocks(Q.shape[0], m)]


def check_kkt(A, b, lam: float, x_star, L: float) -> None:
    """x* is a lasso minimizer: x* = soft(x* - A'(Ax* - b)/L, lam/L)."""
    g = A.T @ (A @ x_star - b)
    r = x_star - soft_threshold(x_star - g / L, lam / L)
    res = float(np.linalg.norm(r))
    require(res <= KKT_TOL * (1.0 + float(np.linalg.norm(x_star))),
            f"reference x_star fails the lasso optimality conditions: residual {res:.3e}")


def check_agree(got: float, want: float, what: str) -> None:
    require(abs(got - want) <= AGREE * (1.0 + abs(want)),
            f"{what}: program has {got!r}, recomputed {want!r}")


def read_trace_csv(path) -> dict:
    with open(path, "r", newline="") as fh:
        header = fh.readline().rstrip("\n")
        require(header == TRACE_HEADER, f"{path}: header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(data.shape[1] == 6, f"{path}: expected 6 columns")
    return dict(zip(TRACE_HEADER.split(","), data.T))


def check_trace(cols: dict, ks, F0: float, F_final: float, f_star: float,
                monotone: bool, what: str) -> None:
    """Rows of one trace CSV against recomputed values and the method's bounds.

    F at k=0 and at the final iterate match the independent objective; no
    row lies below f* (beyond tolerance); the lyapunov column is never
    negative, since it is F - f* plus a nonnegative step term; and with
    ``monotone`` it never rises.
    """
    tol = inequality_tol(F0)
    require(np.array_equal(cols["k"], np.asarray(ks, dtype=float)),
            f"{what}: recorded k grid differs from the configured one")
    check_agree(float(cols["F"][0]), F0, f"{what}: F at k=0")
    check_agree(float(cols["F"][-1]), F_final, f"{what}: F at the final iterate")
    low = float(np.min(cols["F"] - f_star))
    require(low >= -tol, f"{what}: F below f* by {-low:.3e}")
    xi = cols["lyapunov"]
    require(float(np.min(xi)) >= -tol, f"{what}: negative lyapunov {np.min(xi):.3e}")
    if monotone and len(xi) > 1:
        rise = float(np.max(np.diff(xi)))
        require(rise <= tol, f"{what}: lyapunov rises by {rise:.3e}")


def check_mean_trace(mean_cols: dict, seed_cols: list, what: str) -> None:
    """The seed-mean CSV is the elementwise mean of the per-seed CSVs."""
    for name, col in mean_cols.items():
        want = np.mean(np.stack([c[name] for c in seed_cols]), axis=0)
        require(np.allclose(col, want, rtol=AGREE, atol=1e-300),
                f"{what}: column {name} is not the mean of the seed traces")


def expectation_slack(seed_cols: list, beta: float, gamma: float, L: float, m: int) -> float:
    """Worst seed-mean slack of the stochastic descent inequality.

    Per step j-1 -> j of each seed: psi_{j-1} - psi_j - coeff*s_j with
    psi = F + beta/(2*sqrt(m)*gamma)*s and coeff = (1 - beta/sqrt(m))/gamma - L/2,
    for a constant beta and gamma; averaged over seeds, minimised over j.
    """
    rm = math.sqrt(m)
    w = beta / (2.0 * rm * gamma)
    coeff = (1.0 - beta / rm) / gamma - L / 2.0
    slacks = []
    for cols in seed_cols:
        psi = cols["F"] + w * cols["step_sq"]
        slacks.append(psi[:-1] - psi[1:] - coeff * cols["step_sq"][1:])
    return float(np.mean(np.stack(slacks), axis=0).min())

