"""Composite problem abstraction: F(x) = f(x) + g(x) with block structure.

Each part is described once, as data.  f is a :class:`SmoothModel`, one
of the three losses of the experiments, given as its value and gradient
methods, with a known Lipschitz constant for the gradient (global L and
per-block L_i); the dimension is the model's.  g is block separable,
g(x) = sum_i g_i(x_i), and is given as the :class:`ProxKind` that every
g_i is: its closed-form prox and its value.  All oracles are pure
functions; a problem value may be shared freely across threads.

f reads x only through an image u = A x, and the solvers keep u between
steps in an :class:`ImageOracle`, so a block step costs a block of columns
of A and not full products.  A coordinate-separable kind is applied to,
and evaluated on, a whole vector in one call.

argmin F, when known, is data too: a :class:`SolutionSet`, which gives
dist(x, argmin F)^2 for a whole block of rows at once.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation
from .prox import ProxKind, _apply_kind, prox_value

Vector = np.ndarray
LOSSES = ("squares", "logistic", "quadratic")
_PASS_BYTES = 2 ** 20  # a row block of SmoothModel.image_grad: 1 MiB, inside L2


@dataclass(frozen=True, eq=False)
class SmoothModel:
    """Structured smooth part: f reads x only through an image u of A.

    loss "squares"    u = A x - offset, f = ||u||^2/2, grad f = A'u.
    loss "logistic"   u = A x, f = mean(log(1 + exp(-y*u))) over the rows,
                      grad f = -A'(y*sigmoid(-y*u))/rows, y = labels.
    loss "quadratic"  A symmetric, u = A(x - center), f = (x - center)'u/2,
                      and u is grad f itself.

    Column j of A is how coordinate j moves the image, so a change d_i of
    block i moves u by A[:, block i] @ d_i.  ``value`` and ``grad`` are the
    plain oracles a problem built on the model uses as smooth_value and
    smooth_grad.  The data is checked when the model is built: offset and
    labels have one entry per row of A, center one per column, and a
    quadratic A equals its transpose.
    """

    loss: str
    A: np.ndarray
    offset: Optional[Vector] = None
    labels: Optional[Vector] = None
    center: Optional[Vector] = None
    pass_rows: int = field(init=False, repr=False)  # per block of image_grad, or 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ContractViolation(f"loss must be one of {LOSSES}")
        if np.ndim(self.A) != 2:
            raise ContractViolation("A must be a matrix")
        rows, n = self.A.shape
        if self.loss == "quadratic" and rows != n:
            raise ContractViolation("a quadratic model needs a square A")
        if (self.labels is not None) != (self.loss == "logistic"):
            raise ContractViolation("labels are given exactly for the logistic loss")
        if self.offset is not None and self.loss != "squares":
            raise ContractViolation("offset belongs to the squares loss")
        if self.center is not None and self.loss != "quadratic":
            raise ContractViolation("center belongs to the quadratic loss")
        for name, length in (("offset", rows), ("labels", rows), ("center", n)):
            if getattr(self, name) is not None and np.shape(getattr(self, name)) != (length,):
                raise ContractViolation(f"{name} must have shape ({length},)")
        if self.loss == "quadratic" and not np.array_equal(self.A, self.A.T):
            raise ContractViolation("a quadratic model needs a symmetric A")
        # blocks of 16k rows start where gemv's row groups do: u keeps its bits
        blocked = self.loss != "quadratic" and 8 * rows * n > _PASS_BYTES
        object.__setattr__(self, "pass_rows", max(16, _PASS_BYTES // (128 * n) * 16)
                           if blocked else 0)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def image(self, x: Vector) -> Vector:
        if self.center is not None:
            return self.A @ (x - self.center)
        u = self.A @ x
        return u if self.offset is None else u - self.offset

    def value_at(self, x: Vector, u: Vector) -> float:
        """f(x) from the image u of x."""
        if self.loss == "squares":
            return 0.5 * float(u.dot(u))
        if self.loss == "logistic":
            return float(np.mean(np.logaddexp(0.0, -(self.labels * u))))
        d = x if self.center is None else x - self.center
        return 0.5 * float(d.dot(u))

    def grad_at(self, x: Vector, u: Vector, cols=None) -> Vector:
        """grad f(x) from the image u of x; cols selects one block of it."""
        if self.loss == "quadratic":
            return u.copy() if cols is None else u[cols].copy()
        At = self.A if cols is None else self.A[:, cols]
        if self.loss == "squares":
            return At.T @ u
        y = self.labels
        return -(At.T @ (y * _sigmoid(-(y * u)))) / len(y)

    def image_grad(self, x: Vector):
        """(u, grad f(x)).  With pass_rows, one pass over A: each row block
        gives its rows of u and, from cache, its share sum_r l_r'(u_r) a_r of
        the gradient, which differs from grad_at's only in the order of its
        sums.  Else (the quadratic loss too) image(x), then grad_at."""
        b = self.pass_rows
        if not b:
            u = self.image(x)
            return u, self.grad_at(x, u)
        A, y = self.A, self.labels
        u, g = np.empty(len(A)), np.zeros(self.dim)
        for lo in range(0, len(A), b):
            r = slice(lo, lo + b)
            np.matmul(A[r], x, out=u[r])
            if self.offset is not None:
                u[r] -= self.offset[r]
            g += A[r].T @ (u[r] if y is None else y[r] * _sigmoid(-(y[r] * u[r])))
        return u, g if y is None else -g / len(y)

    def value(self, x: Vector) -> float:
        return self.value_at(x, self.image(x))

    def grad(self, x: Vector) -> Vector:
        return self.image_grad(x)[1]


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-t)) without overflow for either sign of t."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """argmin F as data: the affine set {x : N'(x - point) = 0} for an
    (n, r) matrix N = normal with orthonormal columns, or the single point
    when normal is None.  A vector point, and a normal with one row per
    coordinate, are checked when the set is built."""

    point: Vector
    normal: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.ndim(self.point) != 1 or self.normal is not None and (
                np.ndim(self.normal) != 2 or len(self.normal) != len(self.point)):
            raise ContractViolation(
                "a solution set needs a vector point and a normal with a row per coordinate")

    def dist_sq(self, X: np.ndarray) -> np.ndarray:
        """dist(x, argmin F)^2 of each row x of X: x minus its projection
        x - N(N'(x - point)), taken one gemv per row by the stacked matmul
        (a gemm rounds differently), dotted with itself by np.vecdot."""
        D = X - self.point
        if self.normal is not None:
            N = self.normal
            D = X - (X - np.matmul(N, np.matmul(N.T, D[:, :, None]))[:, :, 0])
        return np.vecdot(D, D)


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Oracle bundle for min F(x) = f(x) + sum_i g_i(x_i).

    Parameters
    ----------
    blocks : tuple of tuples of int
        Ordered partition of {0, .., n-1} into m nonempty groups.
    smooth_value : callable x -> float
        f(x): a SmoothModel's own value method, or a wrapper naming it as
        __wrapped__ (functools.wraps).
    smooth_grad : callable x -> ndarray
        grad f(x): the same model's grad method, or a wrapper naming it.
    lipschitz_L : float
        Global Lipschitz constant of grad f (finite and > 0, as are L_i, nu).
    block_lipschitz : tuple of float
        Per-block constants L_i of the partial gradients; for library
        problems these are enforced <= lipschitz_L at construction.
    prox : ProxKind
        The kind every g_i is, so g(x) = sum_i kind(x_i); g(x) is +inf
        outside a box.
    f_star : float, optional
        min F when known (exact for constructed quadratics, else from the
        reference solver).
    nu : float, optional
        Optimal-strong-convexity constant: F(x) - min F >= nu*||x - xbar||^2
        with xbar the projection of x onto argmin F.
    solution_set : SolutionSet, optional
        argmin F when known, of the problem's dimension; every run on the
        problem records dist(x^k, argmin F)^2.

    Four attributes are derived, not given.  smooth_model is the
    SmoothModel whose value and grad smooth_value and smooth_grad are, and
    dim, the ambient dimension n, is its dim.  prox_kind is the ProxKind
    given as prox, or named by a prox so wrapped.  block_selectors holds
    what reads or writes block i of a vector, x[block_selectors[i]]: a
    slice for a contiguous ascending block, so the read is a view and not
    a copy, and an index array for any other block.
    """

    blocks: tuple
    smooth_value: Callable[[Vector], float]
    smooth_grad: Callable[[Vector], Vector]
    lipschitz_L: float
    block_lipschitz: tuple
    prox: ProxKind
    f_star: Optional[float] = None
    nu: Optional[float] = None
    solution_set: Optional[SolutionSet] = None
    dim: int = field(init=False)
    smooth_model: SmoothModel = field(init=False, repr=False)
    prox_kind: ProxKind = field(init=False, repr=False)
    block_selectors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        value = inspect.unwrap(self.smooth_value)
        model = getattr(value, "__self__", None)
        if not (isinstance(model, SmoothModel) and value == model.value
                and inspect.unwrap(self.smooth_grad) == model.grad):
            raise ContractViolation("f must be a SmoothModel's value and grad")
        object.__setattr__(self, "smooth_model", model)
        object.__setattr__(self, "dim", model.dim)
        # NaN fails every comparison, so "L <= 0" would let it through
        if not (math.isfinite(self.lipschitz_L) and self.lipschitz_L > 0):
            raise ContractViolation("lipschitz_L must be finite and > 0")
        blocks = tuple(tuple(int(j) for j in blk) for blk in self.blocks)
        if not blocks or not all(blocks):
            raise ContractViolation("need at least one block, and every block nonempty")
        flat = [j for blk in blocks for j in blk]
        if sorted(flat) != list(range(self.dim)):
            raise ContractViolation(
                "blocks must partition {0..dim-1}: disjoint, covering, in range")
        if len(self.block_lipschitz) != len(blocks):
            raise ContractViolation("need one block_lipschitz entry per block")
        if not all(math.isfinite(L_i) and L_i > 0 for L_i in self.block_lipschitz):
            raise ContractViolation("block Lipschitz constants must be finite and > 0")
        if self.nu is not None and not (math.isfinite(self.nu) and self.nu > 0):
            raise ContractViolation("nu must be finite and > 0 when given")
        sol = self.solution_set
        if sol is not None and (not isinstance(sol, SolutionSet) or len(sol.point) != self.dim):
            raise ContractViolation("solution_set must be a SolutionSet of the problem's dimension")
        kind = inspect.unwrap(self.prox)
        if not isinstance(kind, ProxKind):
            raise ContractViolation("prox must be a ProxKind")
        if (kind.tag == "box" and np.shape(kind.lo) != ()
                and any(np.shape(kind.lo) != (len(blk),) for blk in blocks)):
            raise ContractViolation("box bounds must be scalars or have every block's length")
        object.__setattr__(self, "prox_kind", kind)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_lipschitz",
                           tuple(float(L_i) for L_i in self.block_lipschitz))
        object.__setattr__(self, "block_selectors", tuple(
            _selector(np.asarray(blk, dtype=np.intp)) for blk in blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _selector(ix: np.ndarray):
    # a contiguous ascending block selects a view; any other an index copy
    lo = int(ix[0])
    if np.array_equal(ix, np.arange(lo, lo + len(ix))):
        return slice(lo, lo + len(ix))
    return ix


@dataclass
class IterateState:
    """The last pair (x^k, x^{k-1}) of a run and its k: Trace.final_state.

    A run starts from x^{-1} = x^0, which makes the first step a plain
    proximal-gradient step.
    """

    x_curr: Vector
    x_prev: Vector
    k: int = 0


def _check_dim(problem: CompositeProblem, x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ContractViolation(
            f"expected vector of length {problem.dim}, got shape {x.shape}"
        )
    return x


def objective(problem: CompositeProblem, x: Vector) -> float:
    """F(x) = f(x) + g(x); may be +inf under constraint indicators."""
    x = _check_dim(problem, x)
    return float(problem.smooth_value(x)) + _g_value(problem, x)


def _g_value(problem: CompositeProblem, x: Vector) -> float:
    # g(x) at a checked x: sum_i kind(x_i), in one call on the whole vector
    # for a coordinate-separable kind; the zero kind's 0.0 without a call
    kind = problem.prox_kind
    if kind.tag == "zero":
        return 0.0
    if kind.separable:
        return prox_value(kind, x)
    return sum(prox_value(kind, x[sel]) for sel in problem.block_selectors)


def grad_f(problem: CompositeProblem, x: Vector) -> Vector:
    return problem.smooth_grad(_check_dim(problem, x))


def prox_full(problem: CompositeProblem, v: Vector, gamma: float) -> Vector:
    """Blockwise prox of the separable g with one shared stepsize.

    A coordinate-separable prox_kind acts on the whole vector in one call,
    which equals the blockwise calls bit for bit; any other kind is applied
    to each block.  v and gamma are checked once here, not again per block
    or by the kind.
    """
    v = _check_dim(problem, v)
    if not gamma > 0:  # NaN included
        raise ContractViolation("prox stepsize must be > 0")
    return _prox_full(problem, v, gamma)


def _prox_full(problem: CompositeProblem, v: Vector, gamma: float) -> Vector:
    # prox_full once v and gamma are checked; v is a vector or a (rows, n)
    # stack of them, and the kind acts along the last axis
    kind = problem.prox_kind
    if kind.separable:
        return _apply_kind(kind, v, gamma)
    out = np.empty_like(v)
    for sel in problem.block_selectors:
        out[..., sel] = _apply_kind(kind, v[..., sel], gamma)
    return out


def _residual_sq(problem: CompositeProblem, x: Vector, grad: Vector):
    """||S_{1/L}(x)||^2, S_g(x) = x - prox_{g*g}(x - g*grad f(x)), of a checked
    x and its gradient, or of each row of a (rows, n) stack in one prox call;
    np.vecdot gives each row's s.dot(s) bit for bit."""
    g = 1.0 / problem.lipschitz_L
    s = x - _prox_full(problem, x - g * grad, g)
    return np.vecdot(s, s)


class ImageOracle:
    """Per-run oracle state: keeps the image u of the current iterate under
    the problem's SmoothModel, and no gradient.

    Four primitives read and move it, each with one cost rule, counted in
    matvec-equivalents (a product with all of A counts 1, one with a
    block's columns |block|/n):

      refresh(x)     records x, whose image the next read builds: n columns.
      value(x)       f(x) from the image: free.
      grad(x, i)     grad f(x) from the image, whole (i None) or block i's:
                     n or |block i| columns, and none for the quadratic
                     loss, whose image is the gradient.  A whole one read
                     after a refresh comes with the image from image_grad.
      move(i, d)     block i of x moved by d: |block i| columns, paid when
                     the image is next read, so nothing when a refresh
                     comes first.

    The caller passes the x the state currently describes, of a shape it
    has checked, and keeps a refreshed x unchanged until the next read.
    Block columns are read through the problem's block selectors, as views
    when a block is a contiguous range.
    """

    def __init__(self, problem: CompositeProblem):
        self.model = problem.smooth_model
        self.dim = problem.dim
        self.sizes = tuple(len(blk) for blk in problem.blocks)
        self.cols = problem.block_selectors
        self.grad_is_image = self.model.loss == "quadratic"
        self.x = self.u = None  # a refreshed x not imaged yet, and the image
        self.shift = None  # a centered quadratic's x - center, until a move
        self.pending = None  # (block, step) of a move not yet applied to u
        self.columns = 0  # columns of A touched; matvec_equiv = columns / n

    @property
    def matvec_equiv(self) -> float:
        return self.columns / self.dim

    def refresh(self, x: Vector) -> None:
        self.x = x
        self.u = self.shift = self.pending = None
        self.columns += self.dim

    def _image(self) -> Vector:
        if self.u is None:
            center = self.model.center
            if center is None:
                self.u = self.model.image(self.x)
            else:  # the model's quadratic image, its shift kept for value
                self.shift = self.x - center
                self.u = self.model.A @ self.shift
            self.x = None
        elif self.pending is not None:
            i, d = self.pending
            self.pending = None
            self.u += self.model.A[:, self.cols[i]] @ d
            self.columns += self.sizes[i]
        return self.u

    def value(self, x: Vector) -> float:
        u = self._image()
        if self.shift is None:
            return self.model.value_at(x, u)
        return 0.5 * float(self.shift.dot(u))

    def grad(self, x: Vector, i: Optional[int] = None) -> Vector:
        if not self.grad_is_image:
            self.columns += self.dim if i is None else self.sizes[i]
            if i is None and self.u is None:  # the image comes with it
                self.u, grad = self.model.image_grad(x)
                self.x = None
                return grad
        return self.model.grad_at(x, self._image(), None if i is None else self.cols[i])

    def move(self, i: int, d: Vector) -> None:
        self._image()
        self.shift = None
        self.pending = (i, d)
