"""The nonsmooth terms g_i as data: a :class:`ProxKind` (zero, l1, box or
group l2) with its closed-form prox, :func:`prox_apply`, and its value,
:func:`prox_value`."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


def _group_shrink(v: np.ndarray, tau: float) -> np.ndarray:
    # prox of tau*||.||_2 on one block: v*max(1 - tau/||v||, 0), 0 at v = 0
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        # removable singularity: the prox objective's unique minimizer is 0
        return np.zeros_like(v)
    return v * max(1.0 - tau / nrm, 0.0)


@dataclass(frozen=True, eq=False)
class ProxKind:
    """Tagged description of a nonsmooth term g_i of one block.

    Tags: "zero", "l1" (lam), "box" (lo, hi), "group_l2" (lam).  A kind
    checks itself when built, by a classmethod or directly: lam finite and
    >= 0, and bounds for a box alone, float arrays of one shape with
    lo <= hi and no NaN.  As a problem's prox, a kind means every g_i is
    this kind, so g(x) = sum_i kind(x_i): box bounds then have a block's
    shape (or are scalars), and group_l2 takes the norm of each block.
    """

    tag: str
    lam: float = 0.0
    lo: np.ndarray | None = field(default=None)
    hi: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.tag not in ("zero", "l1", "box", "group_l2"):
            raise ContractViolation(f"unknown prox tag {self.tag!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ContractViolation(f"{self.tag} weight must be finite and >= 0")
        object.__setattr__(self, "lam", float(self.lam))
        if (self.lo is None and self.hi is None) == (self.tag == "box"):
            raise ContractViolation("a box takes both bounds, and the other kinds none")
        if self.tag == "box":
            lo, hi = np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)
            # a missing bound reads as NaN, and NaN fails lo <= hi
            if lo.shape != hi.shape or not np.all(lo <= hi):
                raise ContractViolation("box needs lo <= hi of matching shape, without NaN")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)

    @property
    def separable(self) -> bool:
        """Whether the prox acts on each coordinate alone, with no per-block
        data, so one call on a whole vector equals the calls per block."""
        return self.tag in ("zero", "l1")

    @classmethod
    def zero(cls) -> "ProxKind":
        return cls(tag="zero")

    @classmethod
    def l1(cls, lam: float) -> "ProxKind":
        return cls(tag="l1", lam=lam)

    @classmethod
    def box(cls, lo, hi) -> "ProxKind":
        return cls(tag="box", lo=lo, hi=hi)

    @classmethod
    def group_l2(cls, lam: float) -> "ProxKind":
        return cls(tag="group_l2", lam=lam)


def prox_apply(kind: ProxKind, v: np.ndarray, gamma: float) -> np.ndarray:
    """Evaluate prox_{gamma*g}(v) for the tagged g."""
    if gamma <= 0:
        raise ContractViolation("prox stepsize must be > 0")
    return _apply_kind(kind, np.asarray(v, dtype=float), gamma)


def _apply_kind(kind: ProxKind, v: np.ndarray, gamma: float) -> np.ndarray:
    """prox_apply for a caller that has already checked its input: v a
    float vector and gamma > 0.  The kind checked itself when it was built,
    so nothing is validated again."""
    if kind.tag == "zero":
        return v.copy()
    if kind.tag == "l1":
        # soft thresholding: sign(v)*max(|v| - gamma*lam, 0) per coordinate
        return np.sign(v) * np.maximum(np.abs(v) - gamma * kind.lam, 0.0)
    if kind.tag == "box":
        return np.minimum(np.maximum(v, kind.lo), kind.hi)
    return _group_shrink(v, gamma * kind.lam)  # group_l2


def prox_value(kind: ProxKind, v: np.ndarray) -> float:
    """Evaluate the kind at one block v (or, for a coordinate-separable
    kind, at any vector); +inf for an infeasible box indicator."""
    v = np.asarray(v, dtype=float)
    if kind.tag == "zero":
        return 0.0
    if kind.tag == "l1":
        return kind.lam * float(np.abs(v).sum())
    if kind.tag == "box":
        if np.any(v < kind.lo) or np.any(v > kind.hi):
            return math.inf
        return 0.0
    return kind.lam * float(np.linalg.norm(v))  # group_l2
