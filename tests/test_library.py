import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iprox import library, reference
from iprox.errors import ContractViolation
from iprox.library import InstanceSpec, make_instance, start_point
from iprox.problems import grad_f, objective


def project(problem, x):
    # the projection of x onto argmin F, x - N(N'(x - point)), from the
    # problem's solution set
    sol = problem.solution_set
    if sol.normal is None:
        return sol.point.copy()
    return x - sol.normal @ (sol.normal.T @ (x - sol.point))


def probe_hessian(problem, at=None):
    """Rebuild the smooth Hessian column by column from gradient calls.

    Exact for quadratic smooth parts; central differences otherwise.
    """
    n = problem.dim
    x0 = np.zeros(n) if at is None else at
    H = np.empty((n, n))
    h = 1e-6
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        H[:, j] = (grad_f(problem, x0 + e) - grad_f(problem, x0 - e)) / (2 * h)
    return 0.5 * (H + H.T)


def test_instances_are_deterministic_in_seed():
    spec = InstanceSpec(kind="lasso", n=12, rows=30, reg_lambda=0.2, m=3, seed=123)
    a = make_instance(spec)
    b = make_instance(spec)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(12)
        assert np.array_equal(grad_f(a, x), grad_f(b, x))
        assert objective(a, x) == objective(b, x)
    assert a.lipschitz_L == b.lipschitz_L
    assert a.block_lipschitz == b.block_lipschitz
    c = make_instance(InstanceSpec(kind="lasso", n=12, rows=30, reg_lambda=0.2,
                                   m=3, seed=124))
    assert not np.array_equal(grad_f(a, np.ones(12)), grad_f(c, np.ones(12)))


def test_quadratic_spectrum_matches_conditioning():
    spec = InstanceSpec(kind="quadratic", n=16, conditioning=10.0, seed=7)
    p = make_instance(spec)
    assert p.lipschitz_L == 1.0
    assert p.nu == pytest.approx(1.0 / 10.0, rel=1e-12)
    H = probe_hessian(p)
    eigs = np.linalg.eigvalsh(H)
    assert eigs[-1] == pytest.approx(1.0, rel=1e-6)
    assert eigs[0] == pytest.approx(2.0 / 10.0, rel=1e-6)
    # conditioning is the ratio L/nu by construction
    assert p.lipschitz_L / p.nu == pytest.approx(10.0, rel=1e-8)


def test_quadratic_families_field_contracts():
    q = make_instance(InstanceSpec(kind="quadratic", n=8, conditioning=5.0, seed=1))
    assert q.f_star == 0.0 and q.nu is not None and q.solution_set.normal is None
    ql1 = make_instance(InstanceSpec(kind="quadratic_l1", n=8, conditioning=5.0,
                                     reg_lambda=0.3, seed=1))
    assert ql1.f_star is None and ql1.solution_set is None
    assert ql1.nu == pytest.approx(1.0 / 5.0)
    lasso = make_instance(InstanceSpec(kind="lasso", n=8, rows=20, reg_lambda=0.2, seed=1))
    assert lasso.f_star is None and lasso.nu is None and lasso.solution_set is None
    flat = make_instance(InstanceSpec(kind="noncoercive_quadratic", n=8, rows=3,
                                      conditioning=5.0, seed=1))
    assert np.array_equal(flat.solution_set.point, np.zeros(8))
    assert flat.solution_set.normal.shape == (8, 3)


def test_quadratic_projection_is_the_minimizer():
    spec = InstanceSpec(kind="quadratic", n=10, conditioning=4.0, seed=3)
    p = make_instance(spec)
    z = p.solution_set.point
    assert p.solution_set.normal is None
    assert np.array_equal(z, p.smooth_model.center)
    assert p.solution_set.dist_sq(np.stack([z, z + 1.0])).tolist() == [0.0, 10.0]
    assert objective(p, z) == pytest.approx(0.0, abs=1e-30)
    assert np.linalg.norm(grad_f(p, z)) < 1e-14


def test_optimal_strong_convexity_sampled():
    for kind, kw in (("quadratic", {}), ("noncoercive_quadratic", {"rows": 7})):
        spec = InstanceSpec(kind=kind, n=10, conditioning=6.0, seed=4, **kw)
        p = make_instance(spec)
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = rng.standard_normal(10) * rng.uniform(0.2, 4.0)
            xbar = project(p, x)
            gap = objective(p, x) - p.f_star
            need = p.nu * float((x - xbar) @ (x - xbar))
            assert gap >= need - 1e-10 * (1.0 + abs(gap))


def test_noncoercive_flat_along_null_space():
    spec = InstanceSpec(kind="noncoercive_quadratic", n=12, rows=8,
                        conditioning=9.0, seed=5)
    p = make_instance(spec)
    rng = np.random.default_rng(2)
    w = project(p, rng.standard_normal(12))  # lives in null(P)
    assert np.linalg.norm(w) > 1e-3
    x = rng.standard_normal(12)
    base = objective(p, x)
    for t in (1.0, 10.0, 1000.0):
        assert objective(p, x + t * w) == pytest.approx(base, rel=1e-9)
    assert objective(p, 1e6 * w) == pytest.approx(0.0, abs=1e-9)


def test_noncoercive_projection_normal_equations():
    spec = InstanceSpec(kind="noncoercive_quadratic", n=12, rows=8,
                        conditioning=9.0, seed=5)
    p = make_instance(spec)
    H = probe_hessian(p)
    x = np.linspace(-1.0, 1.0, 12)
    xbar = project(p, x)
    # projected point solves Hx = 0 and the residual x - xbar is H-range
    assert np.linalg.norm(H @ xbar) < 1e-6
    assert np.allclose(project(p, xbar), xbar, atol=1e-14)
    # orthogonality: (x - xbar) perpendicular to every null vector
    nulls = [project(p, np.random.default_rng(k).standard_normal(12)) for k in range(3)]
    for w in nulls:
        assert abs((x - xbar) @ w) < 1e-10 * (1 + np.linalg.norm(w))


def test_lasso_lipschitz_matches_probed_gram():
    spec = InstanceSpec(kind="lasso", n=10, rows=25, reg_lambda=0.15, m=2, seed=6)
    p = make_instance(spec)
    H = probe_hessian(p)  # equals A'A exactly up to FD dust
    top = float(np.linalg.eigvalsh(H)[-1])
    assert p.lipschitz_L == pytest.approx(top, rel=1e-6)
    assert p.lipschitz_L >= top * (1.0 - 1e-9)  # inflation keeps it a true bound
    for i, blk in enumerate(p.blocks):
        ix = np.asarray(blk)
        sub = float(np.linalg.eigvalsh(H[np.ix_(ix, ix)])[-1])
        assert p.block_lipschitz[i] == pytest.approx(sub, rel=1e-6)
        assert p.block_lipschitz[i] <= p.lipschitz_L + 1e-12


def test_logistic_lipschitz_is_curvature_at_origin():
    spec = InstanceSpec(kind="logistic_l1", n=8, rows=40, reg_lambda=0.05, seed=9)
    p = make_instance(spec)
    H0 = probe_hessian(p)  # logistic Hessian at 0 is exactly A'A/(4*rows)
    top = float(np.linalg.eigvalsh(H0)[-1])
    assert p.lipschitz_L == pytest.approx(top, rel=1e-4)
    assert p.lipschitz_L >= top * (1.0 - 1e-4)


def test_block_lipschitz_shapes():
    spec = InstanceSpec(kind="quadratic", n=16, conditioning=8.0, m=4, seed=10)
    p = make_instance(spec)
    assert len(p.block_lipschitz) == 4
    assert all(0.0 < li <= p.lipschitz_L for li in p.block_lipschitz)
    assert len(p.blocks) == 4
    assert sorted(i for blk in p.blocks for i in blk) == list(range(16))


def _sq_norm(M):
    return float(np.linalg.svd(M, compute_uv=False)[0]) ** 2


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["lasso", "logistic_l1"]), m=st.sampled_from([1, 2, 5]),
       width=st.integers(1, 12), rows=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_data_lipschitz_constants_are_tight_upper_bounds(kind, m, width, rows, seed):
    spec = InstanceSpec(kind=kind, n=m * width, rows=rows, reg_lambda=0.1, m=m,
                        seed=seed)
    p = make_instance(spec)
    # A is the first draw of the instance stream
    A = np.random.Generator(np.random.PCG64(seed)).standard_normal((rows, spec.n))
    denom = 1.0 if kind == "lasso" else 4.0 * rows
    true_L = _sq_norm(A) / denom
    assert true_L <= p.lipschitz_L <= true_L * (1.0 + 2e-8)
    for blk, L_i in zip(p.blocks, p.block_lipschitz):
        true_i = _sq_norm(A[:, list(blk)]) / denom
        assert true_i <= L_i <= true_i * (1.0 + 2e-8)


def _near_degenerate_matrix():
    # sigma_1/sigma_2 = 1 + 1e-4: power iteration needs ~1e5 products here
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((300, 200)))
    V, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    s = np.concatenate([[1.0 + 1e-4, 1.0], np.linspace(0.99, 0.01, 198)])
    return (U * s) @ V.T


def test_lanczos_resolves_a_near_degenerate_top_pair():
    A = _near_degenerate_matrix()
    lam, steps = library._gram_top_eig(A, np.random.Generator(np.random.PCG64(5)))
    assert lam == pytest.approx(_sq_norm(A), rel=1e-12)
    assert steps <= 200


def test_lanczos_stops_one_evaluation_after_its_value_has_converged(monkeypatch):
    # evaluations come at step 8 and every 4 steps after it, so the run
    # stops at the second evaluation at or after the first step whose
    # value is within 1e-14 of the dense-SVD value; the value of every
    # step is rebuilt from the tridiagonal of the last evaluation
    evaluate, last = library._tridiag_top, {}

    def spy(alphas, beta_sq, lo):
        last["T"] = list(alphas), list(beta_sq)
        return evaluate(alphas, beta_sq, lo)

    monkeypatch.setattr(library, "_tridiag_top", spy)
    for seed in range(4):
        A = np.random.default_rng(seed).standard_normal((400, 200))
        true = _sq_norm(A)
        lam, steps = library._gram_top_eig(A, np.random.Generator(np.random.PCG64(seed)))
        alphas, beta_sq = last["T"]
        first = next(j for j in range(1, steps + 1)
                     if abs(evaluate(alphas[:j], beta_sq[:j], 0.0) - true) <= 1e-14 * true)
        assert steps <= max(8, -(-first // 4) * 4) + 4
        assert lam == pytest.approx(true, rel=1e-14)


def test_lanczos_checks_a_stall_at_the_column_count_of_a_narrow_block():
    # 2000 x 22 blocks: beta stays well above rounding after 22 steps, and
    # 22 is no check step (8, 12, ..., 20, 24), so a run ends at 22 only
    # through the evaluation at the column count, and only once the value
    # has stalled since step 20; otherwise it goes on to 24.  The same
    # holds on the block's formed Gram.
    for gram in (False, True):
        steps = []
        for seed in range(10):
            A = np.random.default_rng(seed).standard_normal((2000, 22))
            lam, k = library._gram_top_eig(A, np.random.Generator(np.random.PCG64(seed)),
                                           gram)
            assert lam == pytest.approx(_sq_norm(A), rel=1e-14)
            steps.append(k)
        assert set(steps) <= {22, 24} and steps.count(22) >= 8


class _FixedStart:
    def __init__(self, v):
        self.v = v

    def standard_normal(self, n):
        return self.v.copy()


def test_lanczos_runs_past_the_column_count_until_the_value_stalls():
    # a start almost orthogonal to the top eigenvector: the top Ritz value
    # still moves between steps 18 and 20, so step 20 does not end the run
    U, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((200, 20)))
    s = np.linspace(1.0, 0.05, 20)
    start = np.ones(20)
    start[0] = 1e-8
    lam, steps = library._gram_top_eig(U * s, _FixedStart(start))
    assert steps > 20
    assert lam == pytest.approx(1.0, rel=1e-14)


def test_lanczos_bounds_a_narrow_block_with_a_close_top_pair():
    # sigma_1/sigma_2 = 1 + 1e-4 over a spread-out lower spectrum: the
    # inflated value must still bound sigma_1^2 when the Krylov space
    # completes at 20 steps
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        U, _ = np.linalg.qr(rng.standard_normal((2000, 20)))
        V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        s = np.concatenate([[1.0 + 1e-4, 1.0], np.geomspace(0.9, 1e-3, 18)])
        A = (U * s) @ V.T
        lam, k = library._gram_top_eig(A, np.random.Generator(np.random.PCG64(seed)))
        assert k <= 20
        assert lam == pytest.approx(_sq_norm(A), rel=1e-14)
        assert lam * library._L_INFLATE >= _sq_norm(A)


def test_lanczos_step_cap_falls_back_to_dense_svd(monkeypatch):
    monkeypatch.setattr(library, "_LANCZOS_CAP", 8)
    A = _near_degenerate_matrix()
    lam, steps = library._gram_top_eig(A, np.random.Generator(np.random.PCG64(5)))
    assert steps == 8
    assert lam == _sq_norm(A)


def test_data_instances_make_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call while building a data instance")

    for name in ("svd", "eigh", "eigvalsh", "eig", "eigvals", "qr", "solve", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for kind in ("lasso", "logistic_l1"):
        p = make_instance(InstanceSpec(kind=kind, n=40, rows=60, reg_lambda=0.1,
                                       m=4, seed=8))
        assert p.lipschitz_L > 0


def test_lanczos_keeps_no_krylov_basis():
    # rank 100: the top Ritz value takes 40+ steps, whose basis alone
    # would hold 40 * 2000 doubles (640 kB)
    A = np.random.default_rng(3).standard_normal((100, 2000))
    tracemalloc.start()
    try:
        _, steps = library._gram_top_eig(A, np.random.Generator(np.random.PCG64(1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps >= 40
    assert peak < 8 * 8 * (100 + 2000)


def test_block_constants_form_no_gram_of_the_whole_matrix():
    # the blocks' Grams are 50 x 50; an n x n one would take 8 n^2 bytes
    A = np.random.default_rng(4).standard_normal((600, 200))
    tracemalloc.start()
    try:
        L, L_blocks = library._gram_constants(A, library._blocks(200, 4),
                                              np.random.Generator(np.random.PCG64(2)), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 200 * 200
    assert _sq_norm(A) <= L <= _sq_norm(A) * (1.0 + 2e-8)


def test_blocks_wider_than_the_matrix_is_tall_keep_the_operator():
    # 10 rows and blocks of 30 columns: each block's Gram would be singular
    # and larger than the block, so its L_i comes from v -> A_i'(A_i v)
    A = np.random.default_rng(6).standard_normal((10, 90))
    blocks = library._blocks(90, 3)
    _, L_blocks = library._gram_constants(A, blocks, np.random.Generator(np.random.PCG64(3)),
                                          1.0)
    for blk, L_i in zip(blocks, L_blocks):
        true_i = _sq_norm(A[:, list(blk)])
        assert true_i <= L_i <= true_i * (1.0 + 2e-8)



def test_spec_validation():
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="mystery", n=4)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="lasso", n=10, rows=5, m=3)  # m must divide n
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="lasso", n=10, rows=0)
    for lam in (-0.1, float("nan")):  # a NaN lambda built a lasso without g
        with pytest.raises(ContractViolation):
            InstanceSpec(kind="lasso", n=10, rows=5, reg_lambda=lam)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="lasso", n=10, rows=5, conditioning=3.0)
    for cond in (1.5, float("nan")):  # a NaN conditioning gave a NaN nu
        with pytest.raises(ContractViolation):
            InstanceSpec(kind="quadratic", n=10, conditioning=cond)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="quadratic", n=10, conditioning=4.0, rows=2)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="quadratic", n=10, conditioning=4.0, reg_lambda=0.1)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="noncoercive_quadratic", n=10, rows=10, conditioning=4.0)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="noncoercive_quadratic", n=10, rows=0, conditioning=4.0)
    for cond in (1.5, float("nan")):
        with pytest.raises(ContractViolation, match="conditioning >= 2"):
            InstanceSpec(kind="noncoercive_quadratic", n=10, rows=5, conditioning=cond)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="quadratic", n=10, conditioning=4.0, seed=-1)
    with pytest.raises(ContractViolation):
        InstanceSpec(kind="quadratic", n=10, conditioning=4.0, seed=2 ** 64)


@pytest.mark.parametrize("kind, field", [
    ("lasso", {"reg_lambda": True}), ("lasso", {"reg_lambda": "0.1"}),
    ("lasso", {"conditioning": False}), ("quadratic", {"conditioning": "4"}),
    ("quadratic", {"conditioning": 4.0, "seed": True})],
    ids=["bool-reg-lambda", "string-reg-lambda", "bool-conditioning",
         "string-conditioning", "bool-seed"])
def test_spec_reals_must_be_numbers_and_not_bools(kind, field):
    with pytest.raises(ContractViolation):
        InstanceSpec(kind=kind, n=4, **({"rows": 6} if kind == "lasso" else {}), **field)


def test_spec_sizes_and_seed_take_numpy_integers_as_ints():
    # RunConfig took numpy integers while the spec refused them, naming indexing
    spec = InstanceSpec(kind="lasso", n=np.int64(10), rows=np.int32(20), m=np.int64(2),
                        seed=np.uint64(7))
    plain = InstanceSpec(kind="lasso", n=10, rows=20, m=2, seed=7)
    assert spec == plain
    assert all(type(getattr(spec, name)) is int for name in ("n", "rows", "m", "seed"))
    with pytest.raises(ContractViolation, match="integers"):
        InstanceSpec(kind="lasso", n=np.float64(10.0), rows=20)


def test_a_numpy_integer_spec_has_the_plain_specs_cache_key():
    key = lambda spec: reference.spec_cache_key(dataclasses.asdict(spec), 1e-12)  # noqa: E731
    spec = InstanceSpec(kind="quadratic", n=np.int16(8), conditioning=4.0, m=np.int8(2),
                        seed=np.int64(3))
    assert key(spec) == key(InstanceSpec(kind="quadratic", n=8, conditioning=4.0, m=2, seed=3))


@pytest.mark.parametrize("kind, extra", [
    ("quadratic", {}), ("quadratic_l1", {"reg_lambda": 0.1}),
    ("noncoercive_quadratic", {"rows": 3}), ("lasso", {"rows": 10, "reg_lambda": 0.1}),
    ("logistic_l1", {"rows": 10, "reg_lambda": 0.1})])
def test_the_spec_gives_the_instances_nu(kind, extra):
    # a config is checked against nu before any instance is built, so the
    # spec's nu must be the built problem's, bit for bit
    data = kind in ("lasso", "logistic_l1")
    for conditioning in ([0.0] if data else [2.0, 3.0, 6.0, 7.3, 25.0, 1e5]):
        spec = InstanceSpec(kind=kind, n=6, m=2, seed=1, conditioning=conditioning, **extra)
        assert make_instance(spec).nu == spec.nu
        assert spec.nu is None if data else spec.nu == 2.0 / conditioning / 2.0


def test_start_point_modes():
    spec = InstanceSpec(kind="quadratic", n=6, conditioning=3.0, seed=11)
    assert np.array_equal(start_point(spec, "zeros"), np.zeros(6))
    g1 = start_point(spec, "gaussian", 2.0)
    g2 = start_point(spec, "gaussian", 2.0)
    assert np.array_equal(g1, g2)
    assert np.array_equal(start_point(spec, "gaussian", 4.0), 2.0 * g1)
    other = InstanceSpec(kind="quadratic", n=6, conditioning=3.0, seed=12)
    assert not np.array_equal(start_point(other, "gaussian", 2.0), g1)
    with pytest.raises(ContractViolation):
        start_point(spec, "sideways")


def test_library_start_disjoint_from_instance_stream():
    # x0 must not recycle the matrix-synthesis stream for the same seed
    spec = InstanceSpec(kind="quadratic", n=6, conditioning=3.0, seed=11)
    head = np.random.Generator(np.random.PCG64(11)).standard_normal(6)
    assert not np.allclose(start_point(spec, "gaussian", 1.0), head)
