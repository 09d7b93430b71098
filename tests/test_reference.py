import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

import iprox
from iprox import library, reference
from iprox.errors import ContractViolation
from iprox.problems import CompositeProblem, SmoothModel, objective, prox_full
from iprox.prox import ProxKind


def quadratic_with_linear_term():
    """f(x) = ||Rx - d||^2/2 = 0.5 x'Qx - b'x + d'd/2 with Q = R'R and
    b = R'd, g = 0.  Minimizer solves Qx = b exactly."""
    rng = np.random.default_rng(77)
    R = np.vstack([rng.standard_normal((10, 10)), np.sqrt(10.0) * np.eye(10)])
    d = rng.standard_normal(20)
    model = SmoothModel("squares", R, offset=d)
    Q = R.T @ R
    L = float(np.linalg.eigvalsh(Q)[-1])
    return CompositeProblem(
        blocks=(tuple(range(10)),), smooth_value=model.value, smooth_grad=model.grad,
        prox=ProxKind.zero(), lipschitz_L=L, block_lipschitz=(L,),
    ), Q, R.T @ d


def test_reference_matches_linear_solve():
    p, Q, b = quadratic_with_linear_term()
    ref = reference.solve_reference(p, tol=1e-12)
    x_direct = np.linalg.solve(Q, b)
    d = p.smooth_model.offset
    assert ref.converged
    assert ref.residual <= 1e-12
    assert np.max(np.abs(ref.x_star - x_direct)) < 1e-10
    assert ref.f_star == pytest.approx(
        float(0.5 * x_direct @ (Q @ x_direct) - b @ x_direct + 0.5 * d @ d), abs=1e-12)


def test_reference_one_dim_soft_threshold():
    # min 0.5*(x-3)^2 + |x| has the closed form x* = 3 - 1 = 2
    model = SmoothModel("quadratic", np.eye(1), center=np.array([3.0]))
    p = CompositeProblem(
        blocks=((0,),), smooth_value=model.value, smooth_grad=model.grad,
        prox=ProxKind.l1(1.0), lipschitz_L=1.0, block_lipschitz=(1.0,),
    )
    ref = reference.solve_reference(p, tol=1e-13)
    assert ref.x_star[0] == pytest.approx(2.0, abs=1e-12)
    assert ref.f_star == pytest.approx(0.5 + 2.0, abs=1e-12)


def test_tighter_tol_never_raises_value():
    spec = iprox.InstanceSpec(kind="lasso", n=12, rows=40, reg_lambda=0.3, seed=9)
    p = library.make_instance(spec)
    loose = reference.solve_reference(p, tol=1e-6)
    tight = reference.solve_reference(p, tol=1e-12)
    assert tight.f_star <= loose.f_star + 1e-12
    assert tight.residual <= 1e-12


def test_solver_input_validation():
    p, _, _ = quadratic_with_linear_term()
    # NaN fails "<= 0": a NaN tol ran the whole budget, a NaN budget raised TypeError
    for tol in (0.0, math.nan):
        with pytest.raises(ContractViolation, match="tol must be > 0"):
            reference.solve_reference(p, tol=tol, max_iters=50)
    for budget in (0, math.nan):
        with pytest.raises(ContractViolation, match="max_iters must be >= 1"):
            reference.solve_reference(p, max_iters=budget)


def test_unconverged_flag_on_tiny_budget():
    p, _, _ = quadratic_with_linear_term()
    ref = reference.solve_reference(p, tol=1e-14, max_iters=3)
    assert not ref.converged
    assert ref.iterations_used == 3
    assert ref.residual > 1e-14


def test_with_reference_fills_only_missing_fields():
    p, Q, b = quadratic_with_linear_term()
    ref = reference.solve_reference(p, tol=1e-12)
    filled = reference.with_reference(p, ref)
    assert filled.f_star == ref.f_star
    assert np.array_equal(filled.solution_set.point, ref.x_star)
    assert filled.solution_set.normal is None
    # a problem that already carries f_star keeps its own value
    pinned = dataclasses.replace(p, f_star=-123.0)
    kept = reference.with_reference(pinned, ref)
    assert kept.f_star == -123.0
    # non-unique minimizers must not get the single point as argmin F
    nop = reference.with_reference(p, ref, unique_minimizer=False)
    assert nop.solution_set is None
    assert nop.f_star == ref.f_star
    # a problem with both fields comes back as it is
    assert reference.with_reference(filled, ref) is filled


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    p, _, _ = quadratic_with_linear_term()
    ref = reference.solve_reference(p, tol=1e-12)
    key = reference.spec_cache_key({"kind": "adhoc"}, 1e-12)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(reference.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        reference.store_cached(tmp_path, key, ref)
    assert os.listdir(tmp_path) == []


def test_cache_round_trip(tmp_path):
    p, _, _ = quadratic_with_linear_term()
    ref = reference.solve_reference(p, tol=1e-12)
    key = reference.spec_cache_key({"kind": "adhoc", "seed": 77}, 1e-12)
    assert reference.load_cached(tmp_path, key, p, 1e-12) is None
    reference.store_cached(tmp_path, key, ref)
    # an entry is x* and the iteration count; the rest is read again at x*
    doc = json.loads((tmp_path / (key + ".json")).read_text())
    assert doc == {"problem_key": key, "x_star": ref.x_star.tolist(),
                   "iterations_used": ref.iterations_used}
    back = reference.load_cached(tmp_path, key, p, 1e-12)
    assert back is not None
    assert np.array_equal(back.x_star, ref.x_star)
    assert back.f_star == ref.f_star
    assert back.converged == ref.converged
    assert back.iterations_used == ref.iterations_used


def test_cache_rejects_corrupt_and_mismatched_entries(tmp_path):
    p, _, _ = quadratic_with_linear_term()
    ref = reference.solve_reference(p, tol=1e-12)
    key = reference.spec_cache_key({"kind": "adhoc"}, 1e-12)
    reference.store_cached(tmp_path, key, ref)
    path = tmp_path / (key + ".json")
    stored = json.loads(path.read_text())
    # not JSON, not an object (doc.get raised on these), or not the layout:
    # each is deleted
    for text in ("{ not json", "[1, 2]", "null", '"x_star"',
                 json.dumps(dict(stored, f_star=ref.f_star)),
                 json.dumps({k: v for k, v in stored.items() if k != "iterations_used"}),
                 json.dumps(dict(stored, iterations_used="many"))):
        path.write_text(text)
        assert reference.load_cached(tmp_path, key, p, 1e-12) is None
        assert not path.exists()
    other = reference.spec_cache_key({"kind": "other"}, 1e-12)
    reference.store_cached(tmp_path, key, ref)
    # file stored under a different name than its embedded key
    (tmp_path / (other + ".json")).write_text(path.read_text())
    assert reference.load_cached(tmp_path, other, p, 1e-12) is None
    assert not (tmp_path / (other + ".json")).exists()
    # a cache_dir with no entry, or one that is not a directory, is a miss
    assert reference.load_cached(tmp_path / "none", key, p, 1e-12) is None
    assert reference.load_cached(path, key, p, 1e-12) is None
    assert path.exists()


def test_cache_rejects_x_star_of_wrong_length(tmp_path):
    p, _, _ = quadratic_with_linear_term()
    ref = reference.solve_reference(p, tol=1e-12)
    key = reference.spec_cache_key({"kind": "adhoc"}, 1e-12)
    reference.store_cached(tmp_path, key, ref)
    assert reference.load_cached(tmp_path, key, p, 1e-12) is not None
    path = tmp_path / (key + ".json")
    for x_star in (ref.x_star[:-1].tolist(), [ref.x_star.tolist()], [],
                   ref.x_star.tolist() + [0.0]):
        path.write_text(json.dumps(dict(json.loads(path.read_text()), x_star=x_star)))
        assert reference.load_cached(tmp_path, key, p, 1e-12) is None
        assert not path.exists()
        reference.store_cached(tmp_path, key, ref)


@pytest.mark.parametrize("spec", [
    dict(kind="lasso", n=50, rows=200, reg_lambda=0.1, m=1, seed=0),
    dict(kind="logistic_l1", n=40, rows=120, reg_lambda=0.05, m=4, seed=1),
    dict(kind="lasso", n=64, rows=2100, reg_lambda=0.1, m=4, seed=1)],  # rows in 2 passes
    ids=["lasso", "logistic_l1", "lasso-two-row-blocks"])
def test_a_stored_solution_reads_back_its_value_and_residual_bit_for_bit(tmp_path, spec):
    # a cache hit reads F and the residual again at x*, and on the machine
    # that wrote the entry gets the solve's own values
    p = library.make_instance(iprox.InstanceSpec(**spec))
    ref = reference.solve_reference(p)
    reference.store_cached(tmp_path, "key", ref)
    back = reference.load_cached(tmp_path, "key", p, 1e-12)
    assert (back.f_star, back.residual) == (ref.f_star, ref.residual)


def test_cache_key_carries_a_format_version():
    # entries keyed by spec and tol alone came from older, unversioned code
    spec = {"kind": "lasso", "n": 8}
    unversioned = hashlib.sha256(json.dumps(
        {"spec": spec, "tol": 1e-12}, sort_keys=True).encode("utf-8")).hexdigest()
    assert reference.spec_cache_key(spec, 1e-12) != unversioned


def test_cache_key_sensitivity():
    a = reference.spec_cache_key({"kind": "lasso", "n": 8}, 1e-12)
    b = reference.spec_cache_key({"kind": "lasso", "n": 9}, 1e-12)
    c = reference.spec_cache_key({"kind": "lasso", "n": 8}, 1e-10)
    d = reference.spec_cache_key({"n": 8, "kind": "lasso"}, 1e-12)
    assert len({a, b, c}) == 3
    assert d == a  # insertion order must not matter


def test_reference_objective_is_global_floor():
    spec = iprox.InstanceSpec(kind="lasso", n=10, rows=30, reg_lambda=0.25, seed=11)
    p = library.make_instance(spec)
    ref = reference.solve_reference(p, tol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.standard_normal(10) * rng.uniform(0.1, 5.0)
        assert objective(p, x) >= ref.f_star - 1e-10


KIND_SPECS = {
    "quadratic": dict(kind="quadratic", n=12, conditioning=20.0),
    "quadratic_l1": dict(kind="quadratic_l1", n=12, conditioning=20.0, reg_lambda=0.1),
    "noncoercive_quadratic": dict(kind="noncoercive_quadratic", n=12, rows=7,
                                  conditioning=20.0),
    "lasso": dict(kind="lasso", n=12, rows=30, reg_lambda=0.1),
    "logistic_l1": dict(kind="logistic_l1", n=12, rows=30, reg_lambda=0.05),
}


def library_problem(kind, m=3, seed=4):
    spec = iprox.InstanceSpec(m=m, seed=seed, **KIND_SPECS[kind])
    # a Gaussian start: the origin already minimizes the noncoercive kind
    return library.make_instance(spec), library.start_point(spec, "gaussian", 1.0)


def two_gradient_reference(problem, tol, max_iters=10 ** 6, x0=None, extrapolate=False):
    """The loop coded apart, with gradients from smooth_grad: grad f at x
    for the stopping residual, and for the step at y, or with extrapolate
    g + c (g - g_prev) from the last two iterates' gradients; the prox from
    prox_full.  At y = x (c = 0) the step takes the gradient at x.  Also
    returns how many steps were taken at a y other than x."""
    gam = 1.0 / problem.lipschitz_L

    def prox(v):
        return prox_full(problem, v, gam)

    def res(x, g):
        return float(np.linalg.norm(x - prox(x - gam * g)))

    x = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    g, g_prev = problem.smooth_grad(x), None
    y, t, c, momentum = x.copy(), 1.0, 0.0, 0
    best_x, best_r = x.copy(), res(x, g)
    for it in range(1, max_iters + 1):
        momentum += c != 0.0
        if c == 0.0:
            g_y = g
        elif extrapolate:
            g_y = g + c * (g - g_prev)
        else:
            g_y = problem.smooth_grad(y)
        x_new = prox(y - gam * g_y)
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t, c, y = 1.0, 0.0, x_new.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            c = (t - 1.0) / t_new
            y = x_new + c * (x_new - x)
            t = t_new
        x, g_prev, g = x_new, g, problem.smooth_grad(x_new)
        r = res(x, g)
        if r < best_r:
            best_r, best_x = r, x.copy()
        if r <= tol:
            return x.copy(), objective(problem, x), r, it, True, momentum
    return best_x, objective(problem, best_x), best_r, it, False, momentum


def fields(ref):
    return ref.x_star, ref.f_star, ref.residual, ref.iterations_used, ref.converged


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
@pytest.mark.parametrize("budget", [None, 4])
def test_the_solve_is_the_loop_coded_apart_bit_for_bit(kind, budget):
    # an affine gradient is extrapolated to y, the logistic one taken there
    p, x0 = library_problem(kind)
    tol, iters = (1e-12, 10 ** 6) if budget is None else (1e-14, budget)
    got = reference.solve_reference(p, tol=tol, max_iters=iters, x0=x0)
    want = two_gradient_reference(p, tol, iters, x0, extrapolate=kind != "logistic_l1")
    assert np.array_equal(got.x_star, want[0])
    assert fields(got)[1:] == want[1:5]


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
@pytest.mark.parametrize("m", [1, 3])
def test_model_problems_agree_with_the_two_gradient_loop(kind, m):
    p, x0 = library_problem(kind, m)
    got = reference.solve_reference(p, tol=1e-12, x0=x0)
    x_star, f_star, _, iters, converged, _ = two_gradient_reference(p, 1e-12, x0=x0)
    assert got.converged and converged
    assert got.residual <= 1e-12
    assert got.iterations_used == iters
    assert got.f_star == pytest.approx(f_star, rel=1e-12, abs=1e-15)
    assert np.max(np.abs(got.x_star - x_star)) <= 1e-10


def test_matvec_equiv_of_each_kind_follows_its_formula():
    # the oracle state's count: each iteration refreshes the image at the
    # new iterate and takes grad f there, which is the image and a
    # transposed product for the lasso and logistic, the image alone for
    # the quadratic loss, and the image and the Gram product for the
    # noncoercive kind; F* is read from the image.  The step's gradient at
    # y is extrapolated, except for logistic, which takes a second
    # gradient at y on the `momentum` steps with y != x
    per_iteration = {"lasso": 2, "quadratic": 1, "quadratic_l1": 1,
                     "noncoercive_quadratic": 2, "logistic_l1": 2}
    per_momentum = {"logistic_l1": 2}
    for kind in KIND_SPECS:
        p, x0 = library_problem(kind)
        ref = reference.solve_reference(p, tol=1e-12, x0=x0)
        k = ref.iterations_used
        momentum = two_gradient_reference(p, 1e-12, x0=x0)[5]
        assert ref.converged and k > 5 and 0 < momentum < k
        assert ref.matvec_equiv == (per_iteration[kind] * (1 + k)
                                    + per_momentum.get(kind, 0) * momentum)


def test_matvec_equiv_of_an_unconverged_solve_and_a_cache_hit(tmp_path):
    p, x0 = library_problem("lasso")
    ref = reference.solve_reference(p, tol=1e-14, max_iters=6, x0=x0)
    assert not ref.converged
    # F at the best iterate is kept from its read, so it costs nothing more
    assert ref.matvec_equiv == 2 + 2 * 6
    key = reference.spec_cache_key({"kind": "adhoc"}, 1e-14)
    reference.store_cached(tmp_path, key, ref)
    assert "matvec_equiv" not in json.loads((tmp_path / (key + ".json")).read_text())
    # read back under a tol its residual meets
    assert reference.load_cached(tmp_path, key, p, ref.residual).matvec_equiv == 0.0


def test_a_cache_entry_is_used_exactly_when_its_residual_meets_tol(tmp_path):
    p, x0 = library_problem("logistic_l1")
    ref = reference.solve_reference(p, tol=1e-14, max_iters=6, x0=x0)
    path = tmp_path / "key.json"
    reference.store_cached(tmp_path, "key", ref)
    back = reference.load_cached(tmp_path, "key", p, ref.residual)
    assert back.converged and back.residual == ref.residual and back.f_star == ref.f_star
    assert back.iterations_used == 6
    # one ulp tighter, the entry is deleted
    assert reference.load_cached(tmp_path, "key", p, np.nextafter(ref.residual, 0.0)) is None
    assert not path.exists()
