"""Closed-form proximal operators used by the problem library."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Prox of tau*||.||_1: per coordinate sign(v)*max(|v|-tau, 0)."""
    if tau < 0:
        raise ContractViolation("soft_threshold needs tau >= 0")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_box(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the box [lo, hi] (elementwise clamp)."""
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ContractViolation("project_box needs lo <= hi elementwise")
    return np.minimum(np.maximum(v, lo), hi)


def group_shrink(v: np.ndarray, tau: float) -> np.ndarray:
    """Prox of tau*||.||_2 on one block: v*max(1 - tau/||v||, 0), 0 at v=0."""
    if tau < 0:
        raise ContractViolation("group_shrink needs tau >= 0")
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        # removable singularity: the prox objective's unique minimizer is 0
        return np.zeros_like(v)
    return v * max(1.0 - tau / nrm, 0.0)


@dataclass(frozen=True, eq=False)
class ProxKind:
    """Tagged description of a separable nonsmooth term g_i.

    Tags: "zero", "l1" (lam), "box" (lo, hi), "group_l2" (lam).
    Build through the classmethod constructors; they validate parameters.
    """

    tag: str
    lam: float = 0.0
    lo: np.ndarray | None = field(default=None)
    hi: np.ndarray | None = field(default=None)

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
        if lam < 0:
            raise ContractViolation("l1 weight must be >= 0")
        return cls(tag="l1", lam=float(lam))

    @classmethod
    def box(cls, lo, hi) -> "ProxKind":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ContractViolation("box needs lo <= hi of matching shape")
        return cls(tag="box", lo=lo, hi=hi)

    @classmethod
    def group_l2(cls, lam: float) -> "ProxKind":
        if lam < 0:
            raise ContractViolation("group_l2 weight must be >= 0")
        return cls(tag="group_l2", lam=float(lam))


def prox_apply(kind: ProxKind, v: np.ndarray, gamma: float) -> np.ndarray:
    """Evaluate prox_{gamma*g}(v) for the tagged g."""
    if gamma <= 0:
        raise ContractViolation("prox stepsize must be > 0")
    v = np.asarray(v, dtype=float)
    if kind.tag == "zero":
        return v.copy()
    if kind.tag == "l1":
        return soft_threshold(v, gamma * kind.lam)
    if kind.tag == "box":
        return project_box(v, kind.lo, kind.hi)
    if kind.tag == "group_l2":
        return group_shrink(v, gamma * kind.lam)
    raise ContractViolation(f"unknown prox tag {kind.tag!r}")


def prox_value(kind: ProxKind, v: np.ndarray) -> float:
    """Evaluate g(v); +inf for an infeasible box indicator."""
    v = np.asarray(v, dtype=float)
    if kind.tag == "zero":
        return 0.0
    if kind.tag == "l1":
        return kind.lam * float(np.abs(v).sum())
    if kind.tag == "box":
        if np.any(v < kind.lo) or np.any(v > kind.hi):
            return math.inf
        return 0.0
    if kind.tag == "group_l2":
        return kind.lam * float(np.linalg.norm(v))
    raise ContractViolation(f"unknown prox tag {kind.tag!r}")
