"""Composite problem abstraction: F(x) = f(x) + g(x) with block structure.

The smooth part f is accessed through value/gradient oracles with a known
Lipschitz constant for the gradient (global L and per-block L_i).  The
nonsmooth part g is block separable, g(x) = sum_i g_i(x_i), and is accessed
through per-block prox oracles, or as data by a :class:`ProxKind` shared by
every block, in which case a coordinate-separable kind is applied to a whole
vector in one call.  All oracles are pure functions; a problem value may be
shared freely across threads.

When f depends on x only through an image u = A x (a :class:`SmoothModel`),
the solvers keep u between steps in an oracle state (:func:`oracle_state`),
so a block step costs a block of columns of A and not full products.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation, UnsupportedOracle
from .prox import ProxKind, prox_apply, prox_value

Vector = np.ndarray
LOSSES = ("squares", "logistic", "quadratic")


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
    smooth_grad.
    """

    loss: str
    A: np.ndarray
    offset: Optional[Vector] = None
    labels: Optional[Vector] = None
    center: Optional[Vector] = None

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
            return 0.5 * float(u @ u)
        if self.loss == "logistic":
            return float(np.mean(np.logaddexp(0.0, -(self.labels * u))))
        d = x if self.center is None else x - self.center
        return 0.5 * float(d @ u)

    def grad_at(self, x: Vector, u: Vector, cols=None) -> Vector:
        """grad f(x) from the image u of x; cols selects one block of it."""
        if self.loss == "quadratic":
            return u.copy() if cols is None else u[cols].copy()
        At = self.A if cols is None else self.A[:, cols]
        if self.loss == "squares":
            return At.T @ u
        y = self.labels
        return -(At.T @ (y * _sigmoid(-(y * u)))) / len(y)

    def value(self, x: Vector) -> float:
        return self.value_at(x, self.image(x))

    def grad(self, x: Vector) -> Vector:
        return self.grad_at(x, self.image(x))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-t)) without overflow for either sign of t."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Oracle bundle for min F(x) = f(x) + sum_i g_i(x_i).

    Parameters
    ----------
    dim : int
        Ambient dimension n.
    blocks : tuple of tuples of int
        Ordered partition of {0, .., n-1} into m nonempty groups.
    smooth_value : callable x -> float
        f(x).
    smooth_grad : callable x -> ndarray
        grad f(x), same length as x.
    lipschitz_L : float
        Global Lipschitz constant of grad f (must be > 0).
    block_lipschitz : tuple of float
        Per-block constants L_i of the partial gradients; for library
        problems these are enforced <= lipschitz_L at construction.
    nonsmooth_value : callable x -> float
        g(x); may return +inf when g encodes a constraint indicator.
    prox : callable (i, v, gamma) -> ndarray
        prox_{gamma*g_i}(v) on block i; must stay finite for gamma > 0.
    f_star : float, optional
        min F when known (exact for constructed quadratics, else from the
        reference solver).
    nu : float, optional
        Optimal-strong-convexity constant: F(x) - min F >= nu*||x - xbar||^2
        with xbar the projection of x onto argmin F.
    solution_projection : callable x -> ndarray, optional
        Euclidean projection onto argmin F.
    smooth_model : SmoothModel, optional
        The same f as smooth_value/smooth_grad, described by its image
        operator; the solvers then update the image block by block.
    prox_kind : ProxKind, optional
        The same g as nonsmooth_value/prox, described as data: every g_i
        is this kind.  prox_full then applies a coordinate-separable kind
        to the whole vector in one call.  It is kept only while
        nonsmooth_value and prox are the oracles :func:`kind_oracles` built
        from it, or wrappers naming them as __wrapped__ (functools.wraps);
        with any other oracle (say after dataclasses.replace(problem,
        prox=...)) it is set to None, so g has one description.
    """

    dim: int
    blocks: tuple
    smooth_value: Callable[[Vector], float]
    smooth_grad: Callable[[Vector], Vector]
    lipschitz_L: float
    block_lipschitz: tuple
    nonsmooth_value: Callable[[Vector], float]
    prox: Callable[[int, Vector, float], Vector]
    f_star: Optional[float] = None
    nu: Optional[float] = None
    solution_projection: Optional[Callable[[Vector], Vector]] = None
    smooth_model: Optional[SmoothModel] = None
    prox_kind: Optional[ProxKind] = None
    block_index_arrays: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ContractViolation("dim must be >= 1")
        if self.lipschitz_L <= 0:
            raise ContractViolation("lipschitz_L must be > 0")
        blocks = tuple(tuple(int(j) for j in blk) for blk in self.blocks)
        if len(blocks) == 0:
            raise ContractViolation("need at least one block")
        flat = [j for blk in blocks for j in blk]
        if any(len(blk) == 0 for blk in blocks):
            raise ContractViolation("blocks must be nonempty")
        if sorted(flat) != list(range(self.dim)):
            raise ContractViolation(
                "blocks must partition {0..dim-1}: disjoint, covering, in range"
            )
        if len(self.block_lipschitz) != len(blocks):
            raise ContractViolation("need one block_lipschitz entry per block")
        if any(L_i <= 0 for L_i in self.block_lipschitz):
            raise ContractViolation("block Lipschitz constants must be > 0")
        if self.nu is not None and self.nu <= 0:
            raise ContractViolation("nu must be > 0 when given")
        if self.smooth_model is not None and self.smooth_model.dim != self.dim:
            raise ContractViolation("smooth_model acts on vectors of another length")
        if self.prox_kind is not None:
            if not isinstance(self.prox_kind, ProxKind):
                raise ContractViolation("prox_kind must be a ProxKind")
            if not (_reads_kind(self.nonsmooth_value, prox_value, self.prox_kind)
                    and _reads_kind(self.prox, _kind_prox, self.prox_kind)):
                object.__setattr__(self, "prox_kind", None)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(
            self,
            "block_lipschitz",
            tuple(float(L_i) for L_i in self.block_lipschitz),
        )
        object.__setattr__(
            self,
            "block_index_arrays",
            tuple(np.asarray(blk, dtype=np.intp) for blk in blocks),
        )

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass
class IterateState:
    """The pair (x^k, x^{k-1}) consumed by the inertial step.

    By default x^{-1} = x^0, which makes the first step a plain
    proximal-gradient step.
    """

    x_curr: Vector
    x_prev: Vector
    k: int = 0


def make_state(problem: CompositeProblem, x0: Vector, x_prev: Vector | None = None) -> IterateState:
    x0 = _check_dim(problem, x0)
    if x_prev is None:
        x_prev = x0.copy()
    else:
        x_prev = _check_dim(problem, x_prev)
    return IterateState(x_curr=x0.copy(), x_prev=x_prev.copy(), k=0)


def _check_dim(problem: CompositeProblem, x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ContractViolation(
            f"expected vector of length {problem.dim}, got shape {x.shape}"
        )
    return x


def kind_oracles(kind: ProxKind) -> dict:
    """CompositeProblem arguments describing g by one kind for every block:
    prox_kind, and the nonsmooth_value and prox oracles read from it."""
    return dict(prox_kind=kind, nonsmooth_value=partial(prox_value, kind),
                prox=partial(_kind_prox, kind))


def _kind_prox(kind: ProxKind, i: int, v: Vector, gamma: float) -> Vector:
    return prox_apply(kind, v, gamma)


def _reads_kind(oracle, fn, kind: ProxKind) -> bool:
    # whether oracle is the one kind_oracles(kind) built around fn, or a
    # wrapper that names it as __wrapped__ (functools.wraps)
    oracle = inspect.unwrap(oracle)
    return isinstance(oracle, partial) and oracle.func is fn and oracle.args[0] is kind


def objective(problem: CompositeProblem, x: Vector) -> float:
    """F(x) = f(x) + g(x); may be +inf under constraint indicators."""
    x = _check_dim(problem, x)
    return float(problem.smooth_value(x)) + float(problem.nonsmooth_value(x))


def grad_f(problem: CompositeProblem, x: Vector) -> Vector:
    x = _check_dim(problem, x)
    g = np.asarray(problem.smooth_grad(x), dtype=float)
    if g.shape != (problem.dim,):
        raise ContractViolation("smooth_grad returned a wrong-shaped vector")
    return g


def prox_block(problem: CompositeProblem, i: int, v: Vector, gamma: float) -> Vector:
    """prox_{gamma*g_i}(v) on block i: the problem's prox_kind when it has
    one, else its prox oracle, whose result must have the block's shape."""
    if not (0 <= i < problem.n_blocks):
        raise ContractViolation(f"block index {i} out of range")
    if gamma <= 0:
        raise ContractViolation("prox stepsize must be > 0")
    v = np.asarray(v, dtype=float)
    if v.shape != (len(problem.blocks[i]),):
        raise ContractViolation("prox input has wrong block dimension")
    if problem.prox_kind is not None:
        return prox_apply(problem.prox_kind, v, gamma)
    out = np.asarray(problem.prox(i, v, gamma), dtype=float)
    if out.shape != v.shape:
        raise ContractViolation("prox oracle returned a wrong-shaped vector")
    return out


def prox_full(problem: CompositeProblem, v: Vector, gamma: float) -> Vector:
    """Blockwise prox of the separable g with one shared stepsize.

    A coordinate-separable prox_kind acts on the whole vector in one call,
    which equals the blockwise calls bit for bit; any other g goes through
    :func:`prox_block` block by block.
    """
    v = _check_dim(problem, v)
    if gamma <= 0:
        raise ContractViolation("prox stepsize must be > 0")
    kind = problem.prox_kind
    if kind is not None and kind.separable:
        return prox_apply(kind, v, gamma)
    out = np.empty_like(v)
    for i, ix in enumerate(problem.block_index_arrays):
        out[ix] = prox_block(problem, i, v[ix], gamma)
    return out


def oracle_state(problem: CompositeProblem):
    """Fresh per-run oracle state: an ImageOracle when the problem has a
    smooth_model, else a ClosureOracle over smooth_value/smooth_grad.

    Both take the same calls.  refresh(x) starts a new image at x;
    value(x), full_grad(x) and value_grad(x) read f, grad f or both of
    that x, the gradient computed once until x moves; block_grad(i, x) is
    block i of grad f(x); move(i, d) tells the state that block i of x
    moved by d.  The caller passes the x the state currently describes.
    ``matvec_equiv`` counts the work done so far.
    """
    if problem.smooth_model is not None:
        return ImageOracle(problem)
    return ClosureOracle(problem)


class ImageOracle:
    """Keeps the image u of the current iterate under a SmoothModel.

    A block gradient or a move reads only the block's columns of A, as
    views when the block is a contiguous range.  A move is applied when
    the image is next read, so one followed by a refresh costs nothing.
    Work is counted in matvec-equivalents: a product with all of A
    counts 1, one with a block's columns |block|/n; a value from the
    image is free.  A full gradient is computed once per image: it serves
    every full and block gradient until the next move or refresh.
    """

    def __init__(self, problem: CompositeProblem):
        self.problem = problem
        self.model = problem.smooth_model
        self.dim = problem.dim
        self.index = problem.block_index_arrays
        self.cols = tuple(_columns(ix) for ix in self.index)
        self.grad_is_image = self.model.loss == "quadratic"
        self.u = None
        self.grad = None
        self.pending = None  # (block, step) of a move not yet applied to u
        self.columns = 0  # columns of A touched; matvec_equiv = columns / n

    @property
    def matvec_equiv(self) -> float:
        return self.columns / self.dim

    def refresh(self, x: Vector) -> None:
        self.u = self.model.image(_check_dim(self.problem, x))
        self.grad = None
        self.pending = None
        self.columns += self.dim

    def _image(self) -> Vector:
        if self.pending is not None:
            i, d = self.pending
            self.pending = None
            self.u += self.model.A[:, self.cols[i]] @ d
            self.columns += len(self.index[i])
        return self.u

    def value(self, x: Vector) -> float:
        return self.model.value_at(x, self._image())

    def full_grad(self, x: Vector) -> Vector:
        if self.grad is None:
            self.grad = self.model.grad_at(x, self._image())
            if not self.grad_is_image:
                self.columns += self.dim
        return self.grad

    def value_grad(self, x: Vector):
        grad = self.full_grad(x)
        return self.model.value_at(x, self.u), grad

    def block_grad(self, i: int, x: Vector) -> Vector:
        if self.grad is not None:
            return self.grad[self.index[i]]
        if not self.grad_is_image:
            self.columns += len(self.index[i])
        return self.model.grad_at(x, self._image(), self.cols[i])

    def move(self, i: int, d: Vector) -> None:
        self._image()
        self.pending = (i, d)
        self.grad = None


class ClosureOracle:
    """The oracle-state calls over smooth_value/smooth_grad, for problems
    without a smooth_model.  Each closure call counts one matvec-equivalent.
    """

    def __init__(self, problem: CompositeProblem):
        self.problem = problem
        self.grad = None
        self.calls = 0

    @property
    def matvec_equiv(self) -> float:
        return float(self.calls)

    def refresh(self, x: Vector) -> None:
        _check_dim(self.problem, x)
        self.grad = None

    def value(self, x: Vector) -> float:
        self.calls += 1
        return float(self.problem.smooth_value(x))

    def full_grad(self, x: Vector) -> Vector:
        if self.grad is None:
            self.calls += 1
            self.grad = grad_f(self.problem, x)
        return self.grad

    def value_grad(self, x: Vector):
        f = self.value(x)
        return f, self.full_grad(x)

    def block_grad(self, i: int, x: Vector) -> Vector:
        return self.full_grad(x)[self.problem.block_index_arrays[i]]

    def move(self, i: int, d: Vector) -> None:
        self.grad = None


def _columns(ix: np.ndarray):
    # a contiguous ascending block selects a view of A; any other an index copy
    lo = int(ix[0])
    if np.array_equal(ix, np.arange(lo, lo + len(ix))):
        return slice(lo, lo + len(ix))
    return ix


def solution_project(problem: CompositeProblem, x: Vector) -> Vector:
    """Projection of x onto argmin F; UnsupportedOracle when unavailable."""
    if problem.solution_projection is None:
        raise UnsupportedOracle("problem exposes no solution_projection oracle")
    x = _check_dim(problem, x)
    return np.asarray(problem.solution_projection(x), dtype=float)


def check_gradient_fd(problem: CompositeProblem, x: Vector, h: float) -> float:
    """Max per-coordinate relative error of grad f against central differences.

    The denominator is max(1, |analytic_j|, |fd_j|), so coordinates where
    both routes are tiny contribute ~absolute error rather than 0/0 noise.
    """
    if h <= 0:
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
