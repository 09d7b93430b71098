"""Prox operators checked against direct grid minimization of their
defining objective  ||z - v||^2/(2*gamma) + g(z)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iprox.errors import ContractViolation
from iprox.prox import ProxKind, prox_apply, prox_value


def l1_prox(v, tau):
    # prox of tau*||.||_1, from the l1 kind at gamma = 1
    return prox_apply(ProxKind.l1(tau), v, 1.0)


def group_l2_prox(v, tau):
    # prox of tau*||.||_2 on one block, from the group_l2 kind at gamma = 1
    return prox_apply(ProxKind.group_l2(tau), v, 1.0)


def grid_prox_scalar(v, gamma, g_scalar, lo=-10.0, hi=10.0, steps=400_001):
    # dense 1-D grid search; separable operators reduce to this
    z = np.linspace(lo, hi, steps)
    return z[np.argmin((z - v) ** 2 / (2.0 * gamma) + g_scalar(z))]


@pytest.mark.parametrize("v", [-3.0, -0.7, 0.0, 0.3, 2.5])
@pytest.mark.parametrize("tau", [0.1, 1.0, 2.0])
def test_soft_threshold_matches_grid(v, tau):
    got = l1_prox(np.array([v]), tau)[0]
    want = grid_prox_scalar(v, 1.0, lambda z: tau * np.abs(z))
    assert abs(got - want) < 1e-4


def test_soft_threshold_closed_form_cases():
    v = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
    out = l1_prox(v, 1.0)
    assert np.array_equal(out, np.array([2.0, -2.0, 0.0, -0.0, 0.0]))


@pytest.mark.parametrize("v", [-4.0, -1.2, 0.0, 1.2, 4.0])
def test_box_projection_matches_grid(v):
    got = prox_apply(ProxKind.box(-1.0, 2.0), np.array([v]), 1.0)[0]
    want = grid_prox_scalar(v, 1.0, lambda z: np.where((z >= -1.0) & (z <= 2.0), 0.0, np.inf))
    assert abs(got - want) < 1e-4


def test_group_shrink_matches_2d_grid():
    # radial problem: search over the ray through v plus a coarse 2-D check
    v = np.array([1.5, -2.0])
    lam, gamma = 0.8, 0.7
    got = prox_apply(ProxKind.group_l2(lam), v, gamma)
    r = np.linalg.norm(v)
    ts = np.linspace(0.0, 1.5, 200_001)
    obj = (ts * r - r) ** 2 / (2.0 * gamma) + lam * ts * r
    t_best = ts[np.argmin(obj)]
    assert np.linalg.norm(got - t_best * v) < 1e-4

    gx, gy = np.meshgrid(np.linspace(-3, 3, 601), np.linspace(-3, 3, 601))
    vals = ((gx - v[0]) ** 2 + (gy - v[1]) ** 2) / (2.0 * gamma) \
        + lam * np.sqrt(gx ** 2 + gy ** 2)
    i = np.unravel_index(np.argmin(vals), vals.shape)
    assert np.linalg.norm(got - np.array([gx[i], gy[i]])) < 2e-2


def test_group_shrink_zero_input():
    out = group_l2_prox(np.zeros(3), 0.5)
    assert np.array_equal(out, np.zeros(3))


def test_prox_apply_l1_scales_threshold_by_gamma():
    kind = ProxKind.l1(0.5)
    v = np.array([2.0, -2.0])
    assert np.array_equal(prox_apply(kind, v, 2.0), [1.0, -1.0])


def test_prox_apply_zero_is_identity():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(prox_apply(ProxKind.zero(), v, 0.3), v)


def test_prox_apply_box():
    kind = ProxKind.box(-1.0, 1.0)
    assert np.array_equal(prox_apply(kind, np.array([-5.0, 0.5, 5.0]), 1.0),
                          np.array([-1.0, 0.5, 1.0]))


def test_prox_value_matches_kind():
    x = np.array([1.0, -2.0])
    assert prox_value(ProxKind.l1(0.5), x) == pytest.approx(1.5)
    assert prox_value(ProxKind.zero(), x) == 0.0
    assert prox_value(ProxKind.group_l2(2.0), x) == pytest.approx(2.0 * np.sqrt(5.0))
    assert prox_value(ProxKind.box(-1.0, 1.0), x) == np.inf
    assert prox_value(ProxKind.box(-2.5, 1.5), x) == 0.0


def test_kind_validation():
    with pytest.raises(ContractViolation):
        ProxKind.l1(-0.1)
    with pytest.raises(ContractViolation):
        ProxKind.group_l2(-0.1)
    with pytest.raises(ContractViolation):
        ProxKind.box(2.0, -2.0)
    with pytest.raises(ContractViolation):
        prox_apply(ProxKind.l1(1.0), np.array([1.0]), 0.0)


@pytest.mark.parametrize("build", [
    lambda: ProxKind("l1", lam=-1.0), lambda: ProxKind("group_l2", lam=-0.5),
    lambda: ProxKind.l1(float("nan")), lambda: ProxKind.group_l2(float("inf")),
    lambda: ProxKind("zero", lam=float("nan")), lambda: ProxKind("foo"),
    lambda: ProxKind("box"), lambda: ProxKind("box", lo=-1.0),
    lambda: ProxKind.box([-1.0, 0.0], [1.0]), lambda: ProxKind.box([float("nan")], [1.0]),
    lambda: ProxKind.box(-1.0, float("nan")),
    lambda: ProxKind("l1", lam=1.0, hi=np.ones(2)), lambda: ProxKind("zero", lo=0.0)],
    ids=["negative-l1", "negative-group_l2", "nan-l1", "inf-group_l2", "nan-zero",
         "unknown-tag", "box-without-bounds", "box-without-hi", "box-shapes",
         "nan-lo", "nan-hi", "l1-with-bounds", "zero-with-bounds"])
def test_a_kind_checks_itself_when_built(build):
    # the dataclass constructor checks what the classmethods check
    with pytest.raises(ContractViolation):
        build()


def test_a_directly_built_kind_equals_the_classmethods():
    box = ProxKind("box", lo=[-1, 0], hi=[1, 2])
    assert box.lo.dtype == box.hi.dtype == np.float64
    v = np.array([-3.0, 3.0])
    assert np.array_equal(prox_apply(box, v, 1.0), prox_apply(ProxKind.box([-1, 0], [1, 2]),
                                                                v, 1.0))
    l1 = ProxKind("l1", lam=2)
    assert type(l1.lam) is float and l1.lam == ProxKind.l1(2).lam


@settings(max_examples=200)
@given(
    v=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    w=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    tau=st.floats(0.01, 10.0),
)
def test_soft_threshold_nonexpansive(v, w, tau):
    # firm nonexpansiveness implies ||prox(v) - prox(w)|| <= ||v - w||
    n = min(len(v), len(w))
    a, b = np.array(v[:n]), np.array(w[:n])
    da = l1_prox(a, tau) - l1_prox(b, tau)
    assert np.linalg.norm(da) <= np.linalg.norm(a - b) + 1e-12


@settings(max_examples=200)
@given(
    v=st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    w=st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    tau=st.floats(0.01, 10.0),
)
def test_group_shrink_nonexpansive(v, w, tau):
    n = min(len(v), len(w))
    a, b = np.array(v[:n]), np.array(w[:n])
    da = group_l2_prox(a, tau) - group_l2_prox(b, tau)
    assert np.linalg.norm(da) <= np.linalg.norm(a - b) + 1e-12


@settings(max_examples=200)
@given(
    v=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    w=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    tau=st.floats(0.01, 5.0),
    which=st.sampled_from(["l1", "box", "group"]),
)
def test_firm_nonexpansiveness(v, w, tau, which):
    # ||P(u)-P(v)||^2 <= <P(u)-P(v), u-v>, strictly stronger than plain
    # nonexpansiveness
    n = min(len(v), len(w))
    a, b = np.array(v[:n]), np.array(w[:n])
    if which == "l1":
        pa, pb = l1_prox(a, tau), l1_prox(b, tau)
    elif which == "box":
        box = ProxKind.box(-tau, tau)
        pa, pb = prox_apply(box, a, 1.0), prox_apply(box, b, 1.0)
    else:
        pa, pb = group_l2_prox(a, tau), group_l2_prox(b, tau)
    d = pa - pb
    assert float(d @ d) <= float(d @ (a - b)) + 1e-10


@settings(max_examples=150)
@given(v=st.lists(st.floats(-20, 20), min_size=1, max_size=5),
       tau=st.floats(0.0, 5.0))
def test_soft_threshold_optimality(v, tau):
    # subgradient optimality: v - p in tau * sign(p) componentwise
    a = np.array(v)
    p = l1_prox(a, tau)
    r = a - p
    on = p != 0.0
    assert np.allclose(r[on], tau * np.sign(p[on]), atol=1e-12)
    assert np.all(np.abs(r[~on]) <= tau + 1e-12)
